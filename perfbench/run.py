"""gasnetsim benchmark: whole studies timed end to end, or traced by layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload five_node_1h --seed 0 \
        --seconds 20 --trace 0

``--trace 0`` runs whole studies of the workload, one and then more
while another fits in ``--seconds``, then repeats set-up alone when it is
cheap.  Times are read at reference machine speed (see ``speed.py``): on a
shared host the wall time of the same code swings by up to 1.8x with other
tenants' load.  ``setup_s`` and ``wall_s`` are medians over set-ups and
studies; ``step_us`` is the median per-step time over blocks of one output
cadence (see ``workloads.py``), so it includes the per-step ledger,
sampling and CSV output.  The report also gives raw wall times and block
percentiles.  ``peak_rss_mb`` is the process's peak.

``--trace 1`` runs two untraced studies and one study with every public
function of the traced layers wrapped, and reports per-layer call counts
and raw self times.  Every study checks its outputs; the CSVs of all
studies in a run must be byte-identical.  The last line of standard output
is the result object; the line before it is the full report.  The process
is single-threaded: BLAS threads are pinned to one before numpy loads.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse                      # noqa: E402
import ctypes                        # noqa: E402
import glob                          # noqa: E402
import json                          # noqa: E402
import platform                      # noqa: E402
import resource                      # noqa: E402
import shutil                        # noqa: E402
import statistics                    # noqa: E402
import sys                           # noqa: E402
import time                          # noqa: E402

import numpy as np                   # noqa: E402

import loader                        # noqa: E402
import spans                         # noqa: E402
import speed                         # noqa: E402

MAX_STUDIES = 50
SETUP_SAMPLES = 5        # set-up samples wanted when one set-up is cheap
CHEAP_SETUP_S = 2.5      # set-ups longer than this are not repeated alone
SETUP_REPEAT_S = 1.0     # keep repeating sub-second set-ups for this long
MAX_SETUP_SAMPLES = 1000
MAX_UNATTRIBUTED_PCT = 10.0

END_TO_END_UNITS = {"setup_s": "s", "step_us": "us", "wall_s": "s",
                    "peak_rss_mb": "MB"}

# spans reported as calls and self time summed over parents and phases
SPAN_METRICS = [
    "pipe.interior_flux_update", "pipe.friction_invert",
    "pipe.density_update", "pipe.boundary_flux_from_density",
    "pipe.total_mass", "pipe.boundary_throughput", "pipe.step",
    "pipe.FluxBC.apply", "pipe.DensityBC.apply",
    "pipe.PressureBC.target_density",
    "network.network_step", "network.nodal_pressure_solve",
    "network.Network.total_mass", "network.Network.boundary_inflow",
    "profiles.TimeProfile.__call__",
    "experiments.simulate_network", "experiments.simulate_pipe",
    "experiments.run_temperature_effect",
    "experiments.TimeSeriesStore.add", "experiments.MassLedger.sample",
    "output.SeriesWriter.write_rows", "output.write_series",
    "output.write_summary",
    "steady.solve_steady_state", "steady.integrate_pipe_pressure",
    "steady.SteadySolution.populate",
    "config.load_config", "config.parse_config", "config.build_network",
    "eos.cnga_coefficients", "eos.TemperatureProfile.temperature",
]
EOS_CLASSES = ("CngaGas", "NonIsothermalCnga")
EOS_METHODS = ("pressure", "density", "wave_speed_sq")
# phase groups: the transient (paid per step) and set-up (paid once)
PHASE_GROUPS = {"step": ("transient",),
                "setup": ("setup", "config", "steady")}
LAYER_METRICS = [(layer, "step") for layer in spans.LAYERS] + \
    [(layer, "setup") for layer in ("config", "steady", "eos")]
PHASES = ("setup", "config", "steady", "transient", "output")


def per_layer_metric_names():
    """Every per-layer metric name with its unit, in report order."""
    names = []
    for span in SPAN_METRICS:
        names += [(f"{span}.calls", "count"), (f"{span}.self_s", "s")]
    for cls in EOS_CLASSES:
        for method in EOS_METHODS:
            span = f"eos.{cls}.{method}"
            names.append((f"{span}.calls", "count"))
            names += [(f"{span}.{group}.self_s", "s")
                      for group in PHASE_GROUPS]
    names += [(f"layer.{layer}.{group}.self_s", "s")
              for layer, group in LAYER_METRICS]
    names += [(f"phase.{p}.total_s", "s") for p in PHASES]
    names += [("pipe.computed_cell_updates_per_step", "count"),
              ("pipe.computed_min_bytes_per_step", "B"),
              ("output.rows_written", "count"),
              ("output.bytes_written", "B"),
              ("trace.overhead_pct", "%"),
              ("trace.transient_unattributed_pct", "%")]
    return names


def machine_context():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy
    import scipy
    return {"cpu_model": cpu, "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": _blas_threads(numpy)}


def _blas_threads(numpy):
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_",
                   "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, fn):
                getter = getattr(lib, fn)
                getter.restype = ctypes.c_int
                return getter()
    return None


def _study_report(study, sampler=None):
    report = {"error": study.error, "checks": study.checks,
              "steps": study.steps, "final": study.final}
    if study.intervals:
        report["raw"] = study.times()
        if sampler is not None:
            report["reference_speed"] = study.times(
                sampler.reference_seconds)
    if study.steps:
        report["mean_step_us"] = study.mean_step_us
    clocks = {"raw": None}
    if sampler is not None:
        clocks["reference_speed"] = sampler.reference_clock
    for label, clock in clocks.items():
        blocks = study.block_step_us(clock)
        if len(blocks) >= 2:
            cuts = statistics.quantiles(blocks, n=10)
            report[f"block_step_us_{label}"] = {
                "blocks": len(blocks), "steps_per_block": study.block_steps,
                "p10": cuts[0], "p50": cuts[4], "p90": cuts[8]}
    return report


def _same_bytes(studies):
    blobs = [s.csv_path.read_bytes() for s in studies if s.error is None]
    return len(blobs) >= 2 and all(b == blobs[0] for b in blobs[1:])


def run_timed(wl, out_dir, seconds):
    """Studies, then lone set-ups, timed at reference machine speed.  The
    CSVs are compared when more than one study fits in ``seconds``; the
    traced run always compares them."""
    studies, setup_stamps = [], []
    extra_failed = 0
    with speed.Sampler() as sampler:
        start = time.perf_counter()
        # one study, then more while one of the mean length still fits
        while not studies or (
                len(studies) < MAX_STUDIES and
                (time.perf_counter() - start) * (1 + 1 / len(studies)) <
                seconds):
            studies.append(wl.run(out_dir / f"study{len(studies)}",
                                  spans.Tracer()))
        good = [s for s in studies if s.ok]
        raw_setups = [s.times()["setup_s"] for s in good]
        if raw_setups and statistics.median(raw_setups) <= CHEAP_SETUP_S:
            spent = 0.0
            while len(good) + len(setup_stamps) < SETUP_SAMPLES or (
                    spent < SETUP_REPEAT_S and
                    len(good) + len(setup_stamps) < MAX_SETUP_SAMPLES):
                try:
                    a, b = wl.setup_interval()
                except wl.pkg.errors.SimulationError:
                    extra_failed += 1
                    break
                setup_stamps.append((a, b))
                spent += b - a
    times = [s.times(sampler.reference_seconds) for s in good]
    setups = [t["setup_s"] for t in times] + \
        [sampler.reference_seconds(a, b) for a, b in setup_stamps]
    deterministic = _same_bytes(studies) if len(studies) > 1 else None
    failed = len(studies) - len(good) + extra_failed
    metrics = {}
    if good:
        metrics = {
            "setup_s": statistics.median(setups),
            "step_us": float(np.median(np.concatenate(
                [s.block_step_us(sampler.reference_clock) for s in good]))),
            "wall_s": statistics.median(t["wall_s"] for t in times),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    report = {"studies": [_study_report(s, sampler) for s in studies],
              "setup_samples": len(setups),
              "speed_samples": {
                  "count": len(sampler.starts),
                  "median_kernel_us": statistics.median(sampler.kernel_us()),
                  "reference_kernel_us": speed.REFERENCE_KERNEL_US},
              "csv_byte_identical_across_studies": deterministic,
              "sizes": good[0].sizes if good else {}}
    attempted = len(studies) + len(setup_stamps) + extra_failed
    return report, metrics, attempted, failed, deterministic is not False


def run_traced(wl, out_dir):
    again = wl.run(out_dir / "untraced_again", spans.Tracer())
    plain = wl.run(out_dir / "untraced", spans.Tracer())
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = wl.run(out_dir / "traced", tracer)
    finally:
        tracer.uninstall()
    studies = [again, plain, traced]
    identical = _same_bytes(studies)
    failed = sum(not s.ok for s in studies)
    metrics = {}
    if plain.ok and traced.ok:
        metrics = layer_metrics(tracer, traced, plain)
    # the layers' self times must account for the transient's wall time
    attributed = metrics.get("trace.transient_unattributed_pct", 100.0) <= \
        MAX_UNATTRIBUTED_PCT
    report = {"studies": {"untraced_again": _study_report(again),
                          "untraced": _study_report(plain),
                          "traced": _study_report(traced)},
              "csv_byte_identical_untraced_and_traced": identical,
              "transient_attributed_to_layers": attributed,
              "trace_overhead_s":
                  traced.times()["wall_s"] - plain.times()["wall_s"],
              "phases": tracer.phase_rows(),
              "spans": tracer.rows()[:200],
              "sizes": traced.sizes}
    return report, metrics, len(studies), failed, identical and attributed


def layer_metrics(tracer, traced, plain):
    out = {}
    totals = tracer.layer_totals()
    for span in SPAN_METRICS:
        calls, self_s = totals.get(span, (0, 0.0))
        out[f"{span}.calls"], out[f"{span}.self_s"] = calls, self_s
    by_group = {g: tracer.layer_totals(phases) for g, phases
                in PHASE_GROUPS.items()}
    for cls in EOS_CLASSES:
        for method in EOS_METHODS:
            span = f"eos.{cls}.{method}"
            out[f"{span}.calls"] = totals.get(span, (0, 0.0))[0]
            for group, table in by_group.items():
                out[f"{span}.{group}.self_s"] = table.get(span, (0, 0.0))[1]
    for layer, group in LAYER_METRICS:
        out[f"layer.{layer}.{group}.self_s"] = sum(
            self_s for name, (_c, self_s) in by_group[group].items()
            if name.split(".", 1)[0] == layer)
    phases = {row["name"]: row for row in tracer.phase_rows()}
    for p in PHASES:
        out[f"phase.{p}.total_s"] = phases[p]["total_s"] if p in phases \
            else 0.0
    out["pipe.computed_cell_updates_per_step"] = traced.sizes["cells"]
    out["pipe.computed_min_bytes_per_step"] = \
        traced.sizes["min_bytes_per_step"]
    csv_bytes = traced.csv_path.read_bytes()
    out["output.rows_written"] = csv_bytes.count(b"\n") - 1
    out["output.bytes_written"] = len(csv_bytes)
    out["trace.overhead_pct"] = 100.0 * (
        traced.times()["wall_s"] / plain.times()["wall_s"] - 1.0)
    transient = phases["transient"]
    out["trace.transient_unattributed_pct"] = \
        100.0 * transient["self_s"] / transient["total_s"]
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        pkg, b1_applied = loader.load_package()
    except loader.PackageMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.NAMES:
        parser.error(f"--workload must be one of {', '.join(workloads.NAMES)}")

    wl = workloads.make(pkg, args.workload, args.seed)
    out_dir = loader.ROOT / ".perfbench_out" / \
        f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            report, metrics, attempted, failed, same = run_traced(wl, out_dir)
            names = dict(per_layer_metric_names())
        else:
            report, metrics, attempted, failed, same = run_timed(
                wl, out_dir, args.seconds)
            names = END_TO_END_UNITS
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    report.update({"workload": args.workload, "seed": args.seed,
                   "trace": args.trace, "b1_workaround_applied": b1_applied,
                   "reference_stored_for_seed": wl.reference is not None,
                   "context": machine_context()})
    correct = failed == 0 and same and metrics.keys() == names.keys()
    print(json.dumps(report, default=float))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": metrics[k], "unit": names[k]}
                                  for k in names if k in metrics}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
