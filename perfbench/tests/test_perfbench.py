"""Tests of the benchmark itself: generator, tracer, loader and tiny runs.

Run from the root of a checkout with ``python3 -m pytest perfbench/tests``.
"""

import json
import signal
import sys
import time
from pathlib import Path

import pytest

import loader
import netgen
import run
import spans
import speed
import workloads

PKG, B1_APPLIED = loader.load_package()


@pytest.mark.parametrize("topology, n_nodes, n_pipes", [
    ("tree", 12, 11), ("ring", 12, 12), ("mesh", 12, 16)])
def test_generator_is_deterministic_per_seed(topology, n_nodes, n_pipes):
    size = dict(topology=topology, n_nodes=n_nodes, n_pipes=n_pipes,
                total_km=300)
    docs = [netgen.generate(seed, **size) for seed in (0, 0, 1)]
    assert docs[0] == docs[1]
    assert docs[0] != docs[2]
    for doc in docs:
        cfg = PKG.config.parse_config(doc)
        net = PKG.config.build_network(cfg)      # validates connectivity
        assert len(net.nodes) == n_nodes and len(net.edges) == n_pipes
        assert sum(p.length for p in cfg.pipes) == 300e3


def test_schedule_seed_keeps_the_steady_state():
    docs = [netgen.generate(3, n_nodes=8, n_pipes=10, total_km=200,
                            schedule_seed=s) for s in (0, 1)]
    assert docs[0]["pipes"] == docs[1]["pipes"]
    assert docs[0]["nodes"] != docs[1]["nodes"]
    poly = PKG.eos.CngaGas().density_poly()
    assert netgen.doc_steady_pressures(docs[0], poly) == \
        netgen.doc_steady_pressures(docs[1], poly)


def test_feasibility_guard_sets_the_lowest_pressure():
    poly = PKG.eos.CngaGas().density_poly()
    doc = netgen.generate(5, n_nodes=10, n_pipes=13, total_km=250,
                          density_poly=poly)
    p = netgen.doc_steady_pressures(doc, poly)
    assert min(p.values()) == pytest.approx(
        netgen.MIN_PRESSURE_RATIO * netgen.SLACK_PRESSURE, rel=1e-6)


def _snapshot():
    """Every object bound in the package's modules and their classes."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "gasnetsim" or name.startswith("gasnetsim."):
            for attr, obj in vars(mod).items():
                out[(name, attr)] = obj
                if isinstance(obj, type):
                    for m, f in vars(obj).items():
                        out[(name, attr, m)] = f
    return out


def _assert_unchanged(before):
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_tracer_removes_every_wrapper():
    before = _snapshot()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert PKG.pipe.total_mass is not before[("gasnetsim.pipe",
                                                  "total_mass")]
        assert PKG.experiments.network_step is not \
            before[("gasnetsim.experiments", "network_step")]
        with tracer.phase("transient"):
            PKG.profiles.Constant(2.0)(1.0)
    finally:
        tracer.uninstall()
    _assert_unchanged(before)
    assert tracer.layer_totals()["profiles.TimeProfile.__call__"][0] == 1


def test_loader_gives_profiles_a_hash_matching_eq():
    a, b = PKG.profiles.Constant(1.5), PKG.profiles.Constant(1.5)
    assert a == b and hash(a) == hash(b)
    assert isinstance(B1_APPLIED, bool)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_tiny_workload_passes_its_checks(name, tmp_path):
    wl = workloads.make(PKG, name, 0, "tiny")
    assert wl.reference is not None
    before = _snapshot()
    report, metrics, attempted, failed, same = run.run_timed(
        wl, tmp_path / "timed", 0)
    assert failed == 0 and same and attempted >= 2
    assert metrics.keys() == run.END_TO_END_UNITS.keys()
    assert all(s["checks"] and all(s["checks"].values())
               for s in report["studies"])
    report, metrics, attempted, failed, same = run.run_traced(
        wl, tmp_path / "traced")
    assert failed == 0 and same
    assert metrics.keys() == dict(run.per_layer_metric_names()).keys()
    assert metrics["trace.transient_unattributed_pct"] <= 10.0
    _assert_unchanged(before)      # step clock and tracer both removed


def test_benchmark_json_matches_the_metrics_run_prints():
    spec = json.loads((Path(loader.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        run.per_layer_metric_names()


def test_reference_check_catches_a_moved_value(tmp_path):
    wl = workloads.make(PKG, "five_node_1h", 0, "tiny")
    wl.reference = {k: v * (1 + 1e-6) for k, v in wl.reference.items()}
    study = wl.run(tmp_path, spans.Tracer())
    assert study.checks["final_state_matches_reference"] is False
    assert not study.ok


def test_sampler_restores_the_alarm_and_adds_up():
    handler = signal.getsignal(signal.SIGALRM)
    with speed.Sampler() as sampler:
        stamps = [time.perf_counter()]
        for _ in range(3):
            end = time.perf_counter() + 0.1
            while time.perf_counter() < end:
                pass
            stamps.append(time.perf_counter())
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.starts) >= 5
    parts = [sampler.reference_seconds(a, b)
             for a, b in zip(stamps, stamps[1:])]
    assert all(p > 0 for p in parts)
    assert sum(parts) == pytest.approx(
        sampler.reference_seconds(stamps[0], stamps[-1]), rel=1e-12)
    with pytest.raises(ValueError):
        sampler.reference_seconds(stamps[0] - 1.0, stamps[-1])
