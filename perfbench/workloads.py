"""The benchmark's workloads: whole studies driven through public calls.

A study is what one CLI invocation does: set-up (config load and
validation, network build, steady solve, ``populate``, step choice), the
transient run with its CSV output, and the summary write.  Each study runs
inside phase spans of a ``Tracer``; an uninstalled tracer only times the
phases.  Every study checks its outputs against the run invariants and the
stored reference values.

Step clock: during the transient the per-step call (``network_step`` as the
network runner sees it, ``pipe.step`` for the single-pipe runner) is
shadowed by a shim that records the clock before each step, so the
interval between two stamps is one step plus the runner's per-step ledger
and any sampling and CSV output after it.  The shim costs one clock read
per step and does not touch the outputs.  Steps are grouped in blocks of
one output cadence, rounded up to whole steps, so that each block holds
one sample and its CSV output.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import netgen
from loader import PACKAGE_DIR
from spans import Tracer

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"
FIVE_NODE_PATH = PACKAGE_DIR / "configs" / "five_node.json"
TEMPERATURE_PIPE_LENGTH = 100e3    # m, the temperature study's pipe

# The mesh40 network is pinned and the workload seed drives its withdrawal
# schedules.  Letting the seed pick the topology changes the steady Newton
# iteration count (5 to 9 on generator seeds 0-8), so set-up time would vary
# up to 2x from seed to seed, more than any run-to-run bound allows.
MESH40_NETWORK_SEED = 1

LEDGER_RTOL = 1e-12      # ledger discrepancy relative to total mass
REFERENCE_RTOL = 1e-8    # final pressures and mass against reference.json
ORACLE_RTOL = 1e-7       # steady node pressures against the closed form

NAMES = ("five_node_1h", "mesh40", "temperature_16h")


@dataclass
class Study:
    """Outcome of one study run."""

    csv_path: Path
    # clock stamps (a, b) of "setup", "transient" and "wall"
    intervals: dict = field(default_factory=dict)
    steps: int = 0
    step_stamps: list = field(default_factory=list)   # clock before each step
    block_steps: int = 1      # steps per output sample, rounded up
    final: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)
    sizes: dict = field(default_factory=dict)
    error: str | None = None

    def times(self, seconds=lambda a, b: b - a):
        """``setup_s``, ``transient_s`` and ``wall_s``, each interval
        measured by ``seconds(a, b)`` (wall time by default)."""
        return {f"{name}_s": seconds(a, b)
                for name, (a, b) in self.intervals.items()}

    def block_step_us(self, clock=None):
        """Per-step time of each block of ``block_steps`` consecutive steps,
        with the stamps read through ``clock`` (wall time by default)."""
        t = np.asarray(self.step_stamps[::self.block_steps])
        if clock is not None:
            t = clock(t)
        return 1e6 * np.diff(t) / self.block_steps

    @property
    def mean_step_us(self) -> float:
        return 1e6 * self.times()["transient_s"] / self.steps

    @property
    def ok(self) -> bool:
        return self.error is None and all(self.checks.values())


@contextmanager
def step_clock(owner, attr):
    """Shadow ``owner.attr`` with a shim that stamps the clock before each
    call; yields the list of stamps."""
    stamps = []
    fn = getattr(owner, attr)
    clock = time.perf_counter

    def clocked(*args, **kwargs):
        stamps.append(clock())
        return fn(*args, **kwargs)
    setattr(owner, attr, clocked)
    try:
        yield stamps
    finally:
        setattr(owner, attr, fn)


def _final_values(store, entity, fields):
    """Last-sample values of ``entity`` rows with the given fields, plus the
    total mass, keyed ``entity.id.field``."""
    t_last = store.rows[-1][0]
    return {f"{e}.{i}.{f}": v for t, e, i, f, v in store.rows
            if t == t_last and ((e == entity and f in fields) or
                                (e == "network" and f == "mass"))}


def _matches(values, reference, rtol):
    return values.keys() == reference.keys() and all(
        abs(v - reference[k]) <= rtol * max(abs(v), abs(reference[k]))
        for k, v in values.items())


def _ledger_ok(ledger, mass):
    return bool(ledger.max_abs_discrepancy() <= LEDGER_RTOL * mass)


def load_reference(workload, scale, seed):
    """Stored final values for a workload, or ``None`` for an unstored
    seed."""
    if not REFERENCE_PATH.is_file():
        return None
    table = json.loads(REFERENCE_PATH.read_text()).get(workload, {})
    table = table.get(scale, {})
    return table.get("any", table.get(str(seed)))


class NetworkWorkload:
    """A network config run like ``gasnetsim run [--t-end T]``."""

    def __init__(self, pkg, reference, config_doc=None, config_path=None,
                 t_end=None, closed_form_oracle=False):
        self.pkg, self.reference = pkg, reference
        self.doc, self.path, self.t_end = config_doc, config_path, t_end
        self.closed_form_oracle = closed_form_oracle

    def _setup(self, tracer):
        config, steady = self.pkg.config, self.pkg.steady
        with tracer.phase("config"):
            cfg = config.load_config(self.path) if self.path is not None \
                else config.parse_config(self.doc)
            net = config.build_network(cfg, dx_target=cfg.simulation.dx_target)
        with tracer.phase("steady"):
            sol = steady.solve_steady_state(net, t0=0.0)
            sol.populate(net, t0=0.0)
            sim = cfg.simulation
            dt = sim.dt or net.cfl_max_dt(sim.cfl_safety)
        return cfg, net, sol, dt

    def setup_interval(self):
        """One set-up on its own; returns its clock stamps ``(a, b)``."""
        t0 = time.perf_counter()
        self._setup(Tracer())
        return t0, time.perf_counter()

    def run(self, out_dir, tracer):
        """One whole study.  A ``SimulationError`` is recorded, not raised."""
        experiments, output = self.pkg.experiments, self.pkg.output
        out_dir.mkdir(parents=True, exist_ok=True)
        study = Study(csv_path=out_dir / "run.csv")
        t0 = time.perf_counter()
        try:
            cfg, net, sol, dt = self._setup(tracer)
            t1 = time.perf_counter()
            sim = cfg.simulation
            with tracer.phase("transient"), \
                    step_clock(experiments, "network_step") as stamps, \
                    output.SeriesWriter(study.csv_path) as writer:
                result = experiments.simulate_network(
                    net, dt, self.t_end or sim.t_end, sim.output_cadence,
                    writer=writer)
            t2 = time.perf_counter()
            with tracer.phase("output"):
                summary = dict(result.summary)
                summary["config_sha"] = self.pkg.config.config_sha(cfg)
                summary["wall_seconds"] = time.perf_counter() - t0
                output.write_summary(summary, out_dir / "run_summary.json")
            t3 = time.perf_counter()
        except self.pkg.errors.SimulationError as exc:
            study.error = f"{exc.reason}: {exc}"
            return study
        study.intervals = {"setup": (t0, t1), "transient": (t1, t2),
                           "wall": (t0, t3)}
        study.steps = result.summary["steps"]
        study.step_stamps = stamps
        study.block_steps = math.ceil(sim.output_cadence / dt)
        study.final = _final_values(result.store, "node", {"pressure"})
        cells = [e.grid.n_cells for e in net.edges]
        study.sizes = {"pipes": len(net.edges), "nodes": len(net.nodes),
                       "cells": sum(cells), "steps": study.steps, "dt": dt,
                       "min_bytes_per_step": 8 * 6 * sum(cells)}
        study.checks = self._checks(net, sol, result, study.final)
        return study

    def _checks(self, net, sol, result, final):
        checks = {"ledger_at_roundoff":
                  _ledger_ok(result.ledger, result.summary["total_mass_kg"])}
        worst = 0.0
        for node in net.nodes:
            if node.is_slack:
                continue
            balance = -node.bc.withdrawal(0.0)
            for e in net.edges:
                if e.to_node == node.id:
                    balance += sol.pipe_flows[e.id]
                if e.from_node == node.id:
                    balance -= sol.pipe_flows[e.id]
            worst = max(worst, abs(balance))
        checks["steady_kirchhoff_within_node_tol"] = \
            worst <= self.pkg.steady.NODE_TOL
        if self.closed_form_oracle:
            closed = netgen.doc_steady_pressures(self.doc,
                                                 net.eos.density_poly())
            checks["steady_matches_closed_form"] = closed is not None and \
                _matches(sol.node_pressures, closed, ORACLE_RTOL)
        if self.reference is not None:
            checks["final_state_matches_reference"] = \
                _matches(final, self.reference, REFERENCE_RTOL)
        return checks


class TemperatureWorkload:
    """The inlet temperature-spike study, as ``gasnetsim temperature``."""

    def __init__(self, pkg, reference, dx=200.0, t_end=16 * 3600.0,
                 cadence=60.0, decay_rate=1e-3):
        self.pkg, self.reference = pkg, reference
        self.params = {"experiment": "temperature", "rate": decay_rate,
                       "dx": dx, "t_end": t_end}
        self.cadence = cadence

    def _call(self, t_end):
        return self.pkg.experiments.run_temperature_effect(
            decay_rate=self.params["rate"], dx=self.params["dx"], t_end=t_end,
            cadence=self.cadence)

    def setup_interval(self):
        """Everything the study does before its first step, run as a
        zero-length run of the same study; returns its clock stamps."""
        t0 = time.perf_counter()
        self._call(0.0)
        return t0, time.perf_counter()

    def run(self, out_dir, tracer):
        """One whole study.  A ``SimulationError`` is recorded, not raised."""
        output = self.pkg.output
        out_dir.mkdir(parents=True, exist_ok=True)
        study = Study(csv_path=out_dir / "temperature.csv")
        try:
            with tracer.phase("setup"):
                setup = self.setup_interval()
            t0 = time.perf_counter()
            with tracer.phase("transient"), \
                    step_clock(self.pkg.pipe, "step") as stamps:
                result = self._call(self.params["t_end"])
            t1 = time.perf_counter()
            with tracer.phase("output"):
                output.write_series(result.store.rows, study.csv_path)
                summary = dict(result.summary)
                summary["config_sha"] = self.pkg.config.config_sha(self.params)
                summary["wall_seconds"] = time.perf_counter() - t0
                output.write_summary(summary,
                                     out_dir / "temperature_summary.json")
            t2 = time.perf_counter()
        except self.pkg.errors.SimulationError as exc:
            study.error = f"{exc.reason}: {exc}"
            return study
        # the transient call repeats the study's own set-up, about 1 ms
        study.intervals = {"setup": setup, "transient": (t0, t1),
                           "wall": (t0, t2)}
        study.steps = result.summary["steps"]
        study.step_stamps = stamps
        study.block_steps = math.ceil(self.cadence / result.summary["dt"])
        study.final = _final_values(result.store, "pipe",
                                    {"p_left", "p_right"})
        n = round(TEMPERATURE_PIPE_LENGTH / result.summary["dx"])
        study.sizes = {"pipes": 1, "nodes": 2, "cells": n,
                       "steps": study.steps, "dt": result.summary["dt"],
                       "min_bytes_per_step": 8 * 6 * n}
        study.checks["ledger_at_roundoff"] = \
            _ledger_ok(result.ledger, result.ledger.mass[-1])
        if self.reference is not None:
            study.checks["final_state_matches_reference"] = \
                _matches(study.final, self.reference, REFERENCE_RTOL)
        return study


def make(pkg, name, seed, scale="full"):
    """Build workload ``name`` for ``seed``.  ``tiny`` is a seconds-long
    version of the same study for the benchmark's own tests."""
    tiny = scale == "tiny"
    ref = load_reference(name, scale, seed)
    if name == "five_node_1h":
        if not tiny:
            return NetworkWorkload(pkg, ref, config_path=FIVE_NODE_PATH,
                                   t_end=3600.0)
        doc = json.loads(FIVE_NODE_PATH.read_text())
        doc["simulation"].update(t_end=60.0, dx_target=2000.0,
                                 output_cadence=10.0)
        return NetworkWorkload(pkg, ref, config_doc=doc)
    if name == "mesh40":
        size = dict(n_nodes=6, n_pipes=8, total_km=120, dx_target=5000.0,
                    t_end=300.0, cadence=30.0) if tiny else {}
        doc = netgen.generate(MESH40_NETWORK_SEED,
                              density_poly=pkg.eos.CngaGas().density_poly(),
                              schedule_seed=seed, **size)
        return NetworkWorkload(pkg, ref, config_doc=doc,
                               closed_form_oracle=True)
    if name == "temperature_16h":
        if tiny:
            return TemperatureWorkload(pkg, ref, dx=5000.0, t_end=600.0)
        return TemperatureWorkload(pkg, ref)
    raise ValueError(f"unknown workload {name!r}")
