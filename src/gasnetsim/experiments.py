"""Canned reproductions of the reference numerical studies.

Every experiment is deterministic (no randomness, fixed iteration order)
and returns its time series plus a summary dict; the CLI wraps each one as
a subcommand.  Only the values a caller sets are parameters: the scale
(grid spacing, step, end time, cadence, refinement levels) and the
study's variant, each defaulting to the benchmark setup; every other
value is fixed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
from numpy import trapezoid

from . import pipe as pipe_ops
from .config import build_network, load_config
from .eos import CngaGas, IdealGas, NonIsothermalCnga, TemperatureProfile
from .errors import CflViolationError, ConfigError, SimulationError
from .network import Network, _node_arrays, grid_for_length, network_step
from .pipe import (FluxBC, PipeGeometry, PipeGrid, PipeState, PressureBC,
                   uniform_state)
from .profiles import Constant, Harmonic, StepSequence
from .steady import solve_steady_state

# single-pipe study constants
WAVE_SPEED_REF = 377.9683       # m/s, network-model sound speed
RHO_MEAN = 56.817               # kg/m^3 at 6.5 MPa (non-ideal map)
IDEAL_WAVE_SPEED = 338.25       # m/s, matches 6.5 MPa in the fast-transient runs
DAY = 86400.0


# ---------------------------------------------------------------------------
# series recording

class TimeSeriesStore:
    """Ordered (t, entity, id, field, value) rows with array extraction."""

    def __init__(self):
        self.rows = []

    def series(self, entity, entity_id, fieldname):
        pts = [(t, v) for t, e, i, f, v in self.rows
               if e == entity and i == entity_id and f == fieldname]
        t = np.array([p[0] for p in pts])
        v = np.array([p[1] for p in pts])
        return t, v


@dataclass
class MassLedger:
    """Per-run conservation ledger sampled on the output cadence.

    ``discrepancy(t) = mass(t) - mass(0) - cumulative net inflow`` and
    stays at roundoff for the exact-conservation scheme.
    """

    times: list = field(default_factory=list)
    mass: list = field(default_factory=list)
    discrepancy: list = field(default_factory=list)

    def sample(self, t, mass, cumulative, mass0):
        """Record a ledger point."""
        self.times.append(t)
        self.mass.append(mass)
        self.discrepancy.append(mass - mass0 - cumulative)

    def max_abs_discrepancy(self) -> float:
        return max((abs(d) for d in self.discrepancy), default=0.0)


@dataclass
class RunResult:
    store: TimeSeriesStore
    summary: dict
    ledger: MassLedger


# ---------------------------------------------------------------------------
# error metric

def l2_error(field_a, field_b, dx: float) -> float:
    """Trapezoid quadrature, at spacing ``dx``, of the squared difference
    of two fields on the same grid."""
    a = np.asarray(field_a, dtype=float)
    b = np.asarray(field_b, dtype=float)
    if a.size != b.size:
        raise ValueError(f"incompatible grids: {a.size} vs {b.size}")
    return float(trapezoid((a - b) ** 2, dx=dx))


def l2_norm(field_a, field_b, dx: float) -> float:
    return math.sqrt(l2_error(field_a, field_b, dx))


# ---------------------------------------------------------------------------
# the time march shared by both runners

LEDGER_KEYS = [("network", "total", name)
               for name in ("mass", "cumulative_inflow", "discrepancy")]


def _march(now, advance, step_mass, sampled_mass, inflow_rate, sample, keys,
           dt, dt_max, t_end, cadence, where, writer=None) -> RunResult:
    """Step a run from ``now()`` to ``t_end``, keeping the exact mass
    ledger and sampling on the cadence.

    A step count that is not finite is a ``ConfigError``; ``dt`` above the
    stability bound ``dt_max`` is a ``CflViolationError`` naming ``where``.
    ``advance()`` takes one step; ``sample()`` returns a list of floats,
    one per ``(entity, id, field)`` of ``keys``, and each sample's rows
    are those values followed by the ledger's (``LEDGER_KEYS``).  Each step
    must change ``step_mass()`` by ``dt * inflow_rate()`` to within 1e-12
    of the mass; ``step_mass()`` is called before the first step and after
    each step.  The ledger's sampled mass is ``sampled_mass()``, called
    before each ``sample()``; when the two are one callable, a sample
    takes its step's mass instead.  Each sample goes to
    ``writer.write_sample`` as soon as it is taken; a streamed run's store
    then holds only the last sample's rows, since the earlier ones are
    already on disk.
    """
    t0 = now()
    steps = (t_end - t0) / dt
    if not math.isfinite(steps):
        raise ConfigError([f"(t_end - t0)/dt = ({t_end:g} - {t0:g})/{dt:g} "
                           f"is not a finite step count"])
    n_steps = int(round(steps))
    if dt > dt_max:
        raise CflViolationError(dt, dt_max, where)
    store = TimeSeriesStore()
    ledger = MassLedger()
    keys = keys + LEDGER_KEYS
    columns = list(zip(*keys))

    def ledger_mass(mass):
        return mass if sampled_mass is step_mass else sampled_mass()

    prev_mass = step_mass()
    mass0 = ledger_mass(prev_mass)
    cumulative = 0.0
    last = None

    def rows(t, values):
        return list(zip(itertools.repeat(t, len(values)), *columns, values,
                        strict=True))

    def record(mass):
        nonlocal last
        t = float(now())
        ledger.sample(t, mass, cumulative, mass0)
        values = sample()
        values += (float(mass), float(cumulative),
                   float(ledger.discrepancy[-1]))
        if writer is None:
            store.rows += rows(t, values)
        else:
            writer.write_sample(t, keys, values)
            last = t, values

    record(mass0)
    next_sample = t0 + cadence
    for k in range(1, n_steps + 1):
        advance()
        inflow = dt * inflow_rate()
        cumulative += inflow
        mass = step_mass()
        if abs(mass - prev_mass - inflow) > 1e-12 * max(mass, 1.0):
            raise SimulationError(
                f"mass ledger identity broken at step {k} (t={now():g} s)")
        prev_mass = mass
        if now() >= next_sample - 1e-9 * dt:
            record(ledger_mass(mass))
            next_sample += cadence
    if writer is not None:
        store.rows = rows(*last)
    summary = {"steps": n_steps,
               "max_ledger_discrepancy_kg": ledger.max_abs_discrepancy()}
    return RunResult(store=store, summary=summary, ledger=ledger)


PIPE_SAMPLE_FIELDS = ("p_left", "p_right", "rho_left", "rho_right",
                      "phi_left", "phi_right", "v_left", "v_right")


def simulate_pipe(geom: PipeGeometry, grid: PipeGrid, eos, state: PipeState,
                  bc_left, bc_right, dt: float, t_end: float,
                  cadence: float) -> RunResult:
    """Run a single pipe to ``t_end``, recording boundary fields on the
    cadence and keeping the exact mass ledger."""
    gas = eos.at(grid.cell_centers)

    def advance():
        pipe_ops.step(state, geom, grid, gas, bc_left, bc_right, dt, "main")

    def sample():
        rho, phi = state.rho, state.phi
        return [float(x) for x in (gas[0].pressure(rho[0]),
                                   gas[-1].pressure(rho[-1]), rho[0], rho[-1],
                                   phi[0], phi[-1], phi[0] / rho[0],
                                   phi[-1] / rho[-1])]

    def total_mass():
        return pipe_ops.total_mass(state, geom, grid)

    return _march(lambda: state.time, advance, total_mass, total_mass,
                  lambda: pipe_ops.boundary_throughput(state, geom), sample,
                  [("pipe", "main", name) for name in PIPE_SAMPLE_FIELDS],
                  dt, pipe_ops.cfl_max_dt(state, grid, gas), t_end, cadence,
                  "main")


# ---------------------------------------------------------------------------
# convergence study

@dataclass
class ConvergenceReport:
    """Grid-refinement errors and fitted orders for the wave test.

    ``errors`` maps protocol -> variable -> per-level L2 norms, coarse to
    fine.  Two protocols are measured: ``transport`` advances every level
    to the common time 1 s (a single step of the coarsest level) and
    measures the accumulated error; ``one_step`` advances every level
    exactly one of its own steps and measures the local error.  The
    headline ``rates`` take density and pressure from ``transport`` and
    flux from ``one_step``, matching the regime each benchmark order value
    reflects.
    """

    dts: list
    errors: dict
    rates: dict
    rates_by_protocol: dict

    def to_dict(self) -> dict:
        return asdict(self)


def _wave_profiles(rho_mean, wave_speed, length):
    def rho_wave(x, t):
        arg = 10.0 * (x - 0.5 * length - wave_speed * t) / length
        return rho_mean * (1.0 - (0.2 / np.pi) * np.arctan(arg))

    def phi_wave(x, t):
        return wave_speed * rho_wave(x, t)

    return rho_wave, phi_wave


def _ladder_advance(state, geom, grid, gas, dt, k, phi_wave):
    """Half-shifted leapfrog iteration of the pipe kernels for a state given
    as (rho at t, phi at t + dt/2): density update first, then the interior
    fluxes, then the exact boundary fluxes of step ``k``."""
    pipe_ops.density_update(state, grid, dt)
    pipe_ops.interior_flux_update(state, geom, grid, gas, dt)
    t_half = (2 * k + 3) * 0.5 * dt
    state.phi[0] = phi_wave(0.0, t_half)
    state.phi[-1] = phi_wave(grid.length, t_half)


def run_convergence_study(n_levels: int = 6,
                          ref_level: int = 6) -> ConvergenceReport:
    """Self-convergence of the scheme on the smoothed-step wave problem.

    Level ``l`` uses ``dt = 3**-l`` and ``22 * 3**l`` cells, so the
    space/time ratio is fixed (454.55 m/s) and every coarse grid nests in
    the ``ref_level`` reference.  Initial flux data live half a step after
    the initial densities; coarse flux initial conditions are restricted
    from the reference solution.  Every level steps a friction-free pipe
    through the production kernels.
    """
    length, base_cells, t_common = 1e4, 22, 1.0
    gas = IdealGas(WAVE_SPEED_REF)
    rho_wave, phi_wave = _wave_profiles(RHO_MEAN, WAVE_SPEED_REF, length)
    geom = PipeGeometry(length=length, diameter=1.0, friction=0.0)
    dt_ref = 3.0 ** -ref_level
    steps_common = round(t_common / dt_ref)

    keep_rho, keep_phi = set(), set()
    for lvl in range(n_levels):
        m = ref_level - lvl
        keep_phi.add((3 ** m - 1) // 2)                   # coarse flux IC
        keep_rho.add(3 ** m)                              # one_step density
        keep_phi.add((3 ** (m + 1) - 1) // 2)             # one_step flux
        keep_rho.add(steps_common)                        # transport density
        keep_phi.add(steps_common + (3 ** m - 1) // 2)    # transport flux

    grid_ref = PipeGrid(length=length, n_cells=base_cells * 3 ** ref_level)
    ref = PipeState(rho_wave(grid_ref.cell_centers, 0.0),
                    phi_wave(grid_ref.faces, 0.5 * dt_ref))
    snap_rho, snap_phi = {0: ref.rho.copy()}, {0: ref.phi.copy()}
    dt_max = pipe_ops.cfl_max_dt(ref, grid_ref, gas)
    if dt_ref > dt_max:
        raise CflViolationError(dt_ref, dt_max, "convergence ref")
    for k in range(max(keep_rho | keep_phi)):
        _ladder_advance(ref, geom, grid_ref, gas, dt_ref, k, phi_wave)
        if k + 1 in keep_rho:
            snap_rho[k + 1] = ref.rho.copy()
        if k + 1 in keep_phi:
            snap_phi[k + 1] = ref.phi.copy()

    dts = [3.0 ** -lvl for lvl in range(n_levels)]
    errors = {proto: {v: [] for v in ("rho", "p", "phi")}
              for proto in ("transport", "one_step")}
    for lvl in range(n_levels):
        m = ref_level - lvl
        grid = PipeGrid(length=length, n_cells=base_cells * 3 ** lvl)
        dt_c, dx_c = dts[lvl], grid.dx
        centers = 3 ** m * np.arange(grid.n_cells) + (3 ** m - 1) // 2
        stride = 3 ** m
        for proto in ("transport", "one_step"):
            state = PipeState(rho_wave(grid.cell_centers, 0.0),
                              snap_phi[(3 ** m - 1) // 2][::stride].copy())
            n_steps = round(t_common / dt_c) if proto == "transport" else 1
            for k in range(n_steps):
                _ladder_advance(state, geom, grid, gas, dt_c, k, phi_wave)
            rho_c, phi_c = state.rho, state.phi
            if proto == "transport":
                k_rho = steps_common
                k_phi = steps_common + (3 ** m - 1) // 2
            else:
                k_rho = 3 ** m
                k_phi = (3 ** (m + 1) - 1) // 2
            rho_f = snap_rho[k_rho][centers]
            phi_f = snap_phi[k_phi][::stride]
            p_c = gas.pressure(rho_c)
            p_f = gas.pressure(rho_f)
            errors[proto]["rho"].append(l2_norm(rho_c, rho_f, dx_c))
            errors[proto]["p"].append(l2_norm(p_c, p_f, dx_c))
            errors[proto]["phi"].append(l2_norm(phi_c, phi_f, dx_c))

    def rates_of(errs):
        e = np.asarray(errs)
        return {"last_two": float(np.log(e[-2] / e[-1]) / np.log(3.0)),
                "endpoint": float(np.log(e[0] / e[-1]) /
                                  ((len(e) - 1) * np.log(3.0)))}

    rates_by_protocol = {proto: {v: rates_of(errors[proto][v])
                                 for v in ("rho", "p", "phi")}
                         for proto in ("transport", "one_step")}
    rates = {"rho": rates_by_protocol["transport"]["rho"],
             "p": rates_by_protocol["transport"]["p"],
             "phi": rates_by_protocol["one_step"]["phi"]}
    return ConvergenceReport(dts=dts, errors=errors, rates=rates,
                             rates_by_protocol=rates_by_protocol)


def run_traveling_wave(n_cells: int, n_steps: int) -> dict:
    """Advect the smoothed-step wave 1 km with the frictionless ideal model
    and compare against the exact translated profile."""
    length = 1e4
    geom = PipeGeometry(length=length, diameter=1.0, friction=0.0)
    grid = PipeGrid(length=length, n_cells=n_cells)
    dt = 1000.0 / WAVE_SPEED_REF / n_steps
    rho_wave, phi_wave = _wave_profiles(RHO_MEAN, WAVE_SPEED_REF, length)
    xc, xf = grid.cell_centers, grid.faces
    state = PipeState(rho_wave(xc, 0.0), phi_wave(xf, -0.5 * dt))
    bc_l = FluxBC(lambda t: phi_wave(0.0, t))
    bc_r = FluxBC(lambda t: phi_wave(length, t))
    simulate_pipe(geom, grid, IdealGas(WAVE_SPEED_REF), state, bc_l, bc_r,
                  dt, n_steps * dt, n_steps * dt)
    err = l2_norm(state.rho, rho_wave(xc, state.time), grid.dx)
    return {"dt": dt, "dx": grid.dx, "t_end": state.time, "error": err,
            "state": state}


# ---------------------------------------------------------------------------
# fast / slow transient and temperature studies

def _study_eos(kind: str, ideal_wave_speed: float):
    """A study's gas: ideal at ``ideal_wave_speed``, or the nominal CNGA."""
    if kind == "ideal":
        return IdealGas(ideal_wave_speed)
    if kind == "cnga":
        return CngaGas()
    raise ValueError(f"eos must be 'ideal' or 'cnga', got {kind!r}")


def run_fast_transient(eos_kind: str = "cnga", dx: float = 100.0,
                       t_end: float = 3600.0, cadence: float = 10.0,
                       dt: float | None = None,
                       cfl_safety: float = 0.9) -> RunResult:
    """Step change of the outlet flux on a 20 km pipe held at 6.5 MPa.

    Outlet flux: 0 for the first 10 min, 1200 kg/(m2 s) until 30 min, then
    120 kg/(m2 s).
    """
    eos = _study_eos(eos_kind, IDEAL_WAVE_SPEED)
    geom = PipeGeometry(length=20e3, diameter=0.9144, friction=0.01)
    grid = grid_for_length(geom.length, dx)
    p0 = 6.5e6
    rho0 = eos.density(p0)
    state = uniform_state(grid, rho0, 0.0)
    if dt is None:
        dt = pipe_ops.cfl_max_dt(state, grid, eos, cfl_safety)
        # the flux step to 1200 kg/(m2 s) nearly doubles the local wave
        # speed in the non-ideal run; keep margin for it
        dt *= 0.75
    bc_l = PressureBC(Constant(p0))
    bc_r = FluxBC(StepSequence([(600.0, 0.0), (1800.0, 1200.0),
                                (float("inf"), 120.0)]))
    result = simulate_pipe(geom, grid, eos, state, bc_l, bc_r, dt, t_end,
                           cadence)
    result.summary.update({"eos": eos_kind, "p0": p0, "rho0": float(rho0),
                           "dt": dt, "dx": grid.dx})
    return result


def run_slow_transient(eos_kind: str = "cnga", dx: float = 500.0,
                       n_periods: int = 50, cadence: float = 300.0,
                       dt: float | None = None,
                       cfl_safety: float = 0.9) -> RunResult:
    """Slow harmonic pressure swing on a 50 km pipe with fixed outlet flux.

    The inlet pressure oscillates 25% around 6.5 MPa with a 12 h period
    (time scale 6 h); the run covers ``n_periods`` periods.
    """
    eos = _study_eos(eos_kind, IDEAL_WAVE_SPEED)
    geom = PipeGeometry(length=50e3, diameter=0.9144, friction=0.01)
    grid = grid_for_length(geom.length, dx)
    p0, phi0 = 6.5e6, 240.0
    t_scale = 6 * 3600.0
    period = 2 * t_scale
    state = uniform_state(grid, eos.density(p0), phi0)
    if dt is None:
        # pressure peaks at 1.25 p0; bound the wave speed there
        probe = uniform_state(grid, eos.density(1.3 * p0), phi0)
        dt = pipe_ops.cfl_max_dt(probe, grid, eos, cfl_safety)
    bc_l = PressureBC(Harmonic(offset=p0, amplitude=0.25 * p0,
                               omega=np.pi / t_scale))
    bc_r = FluxBC(Constant(phi0))
    result = simulate_pipe(geom, grid, eos, state, bc_l, bc_r, dt,
                           n_periods * period, cadence)
    result.summary.update({"eos": eos_kind, "period": period,
                           "n_periods": n_periods, "dt": dt, "dx": grid.dx})
    return result


def run_temperature_effect(decay_rate: float = 1e-3, dx: float = 200.0,
                           t_end: float = 16 * 3600.0,
                           cadence: float = 60.0, dt: float | None = None,
                           cfl_safety: float = 0.9) -> RunResult:
    """Non-isothermal run on a 100 km pipe with an inlet temperature spike.

    Constant boundary data for the first 4 h settle the flow near steady
    state, then inlet pressure and outlet flux oscillate on a 12 h time
    scale.  ``decay_rate`` is the spike decay in 1/m (1e-3 or 1e-4 for the
    benchmark cases).  The initial flux value 289 is interpreted as a mass
    flux in kg/(m2 s).
    """
    profile = TemperatureProfile(ambient=288.706, jump=40.0,
                                 decay_rate=decay_rate)
    eos = NonIsothermalCnga(profile)
    geom = PipeGeometry(length=100e3, diameter=0.5, friction=0.011)
    grid = grid_for_length(geom.length, dx)
    p0, rho0, phi0 = 6.5e6, 56.817, 289.0
    t1, t_scale = 4 * 3600.0, 12 * 3600.0
    state = PipeState(np.full(grid.n_cells, rho0),
                      np.full(grid.n_cells + 1, phi0))
    if dt is None:
        # bound the wave speed at the hottest point (the inlet) so runs with
        # different decay rates share the same step and sample times
        dt = cfl_safety * grid.dx / math.sqrt(eos.at(0.0).wave_speed_sq(rho0))
    bc_l = PressureBC(_HoldThenHarmonic(p0, t1, 0.1, 6 * np.pi / t_scale))
    bc_r = FluxBC(_HoldThenHarmonic(phi0, t1, 0.1, 4 * np.pi / t_scale))
    result = simulate_pipe(geom, grid, eos, state, bc_l, bc_r, dt, t_end,
                           cadence)
    result.summary.update({"decay_rate": decay_rate, "t1": t1,
                           "inlet_temperature": profile.temperature(0.0),
                           "initial_flux_kg_per_m2_s": phi0,
                           "dt": dt, "dx": grid.dx})
    return result


@dataclass(frozen=True)
class _HoldThenHarmonic:
    """Constant until t1, then base*(1 + amp*sin(omega*(t - t1)))."""

    base: float
    t1: float
    amplitude: float
    omega: float

    def __call__(self, t):
        if t <= self.t1:
            return self.base
        return self.base * (1.0 + self.amplitude *
                            math.sin(self.omega * (t - self.t1)))


# ---------------------------------------------------------------------------
# five-node network study

FIVE_NODE_CONFIG = Path(__file__).parent / "configs" / "five_node.json"


def five_node_network(eos, dx_target: float = 62.5) -> Network:
    """The five-node / five-pipe benchmark network of the bundled config,
    with its schedules, on the given EoS model."""
    net = build_network(load_config(FIVE_NODE_CONFIG), dx_target)
    return Network(net.nodes, net.edges, eos)


NODE_FIELDS = ("pressure", "net_flow")
PIPE_FIELDS = ("p_in", "p_out", "mflow_in", "mflow_out", "mass")


def simulate_network(net: Network, dt: float, t_end: float, cadence: float,
                     writer=None) -> RunResult:
    """Run a network to ``t_end``, recording node/pipe series and the mass
    ledger on the cadence.  The step must satisfy the stability bound.
    With a ``writer``, each sample's rows stream to it and the result's
    store keeps only the last sample's rows."""
    # bound once here; network_step checks the binding before each step,
    # and nothing between a step and its ledger or sample can replace a state
    net.require_states()
    keys = [("node", n.id, name) for n in net.nodes
            for name in NODE_FIELDS] + \
        [("pipe", e.id, name) for e in net.edges for name in PIPE_FIELDS]

    masses = None

    def sampled_mass():
        # the sample that follows reads these masses, not a second sum
        nonlocal masses
        masses = net._pipe_masses()
        return sum(masses)

    def sample():
        return np.concatenate((np.column_stack(_node_arrays(net)).ravel(),
                               net._pipe_records(masses).ravel())).tolist()

    # each step's ledger check reads one weighted sum of the flat state;
    # only samples sum each pipe's mass
    result = _march(lambda: net.time, lambda: network_step(net, dt),
                    net._flat_mass, sampled_mass, net._boundary_inflow,
                    sample, keys, dt, net.cfl_max_dt(), t_end, cadence,
                    "network", writer)
    result.summary.update(t_end=net.time, total_mass_kg=net.total_mass())
    return result


def run_five_node_network(eos_kind: str = "cnga", dx_target: float = 62.5,
                          dt: float | None = 0.125, t_end: float = DAY,
                          cadence: float = 60.0) -> RunResult:
    """Steady-start 24 h run of the five-node network.

    The benchmark per-pipe initial data is the steady state of the ideal
    model at 377.9683 m/s; the dynamic run defaults to the non-ideal model,
    initialized from its own steady solve.  ``dt=None`` takes 0.9 of the
    stability bound at the steady state.
    """
    net = five_node_network(_study_eos(eos_kind, WAVE_SPEED_REF), dx_target)
    steady = solve_steady_state(net, t0=0.0)
    steady.populate(net, t0=0.0)
    if dt is None:
        dt = net.cfl_max_dt(0.9)
    result = simulate_network(net, dt, t_end, cadence)
    result.summary.update(eos=eos_kind, dt=dt, dx_target=dx_target)
    result.summary.update((f"steady_{k}", v)
                          for k, v in steady.to_dict().items())
    return result
