import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gasnetsim.eos import (CngaGas, IdealGas, NonIsothermalCnga,
                           TemperatureProfile)
from gasnetsim.errors import SteadyStateError
from gasnetsim.experiments import WAVE_SPEED_REF, five_node_network
from gasnetsim.network import DemandBC, Network, Node, PipeEdge, SlackBC
from gasnetsim.pipe import PipeGeometry, PipeGrid
from gasnetsim.profiles import Constant
from gasnetsim.steady import (NODE_TOL, ODE_RTOL, PIPE_TOL, PRESSURE_FLOOR,
                              integrate_pipe_pressure, solve_steady_state)


def line_network(eos, q, friction=0.01, length=30e3, n_cells=30):
    geom = PipeGeometry(length=length, diameter=0.9144, friction=friction)
    grid = PipeGrid(length=length, n_cells=n_cells)
    net = Network([Node("a", SlackBC(Constant(6.5e6))),
                   Node("b", DemandBC(Constant(q)))],
                  [PipeEdge("p", "a", "b", geom, grid)], eos)
    return net, geom, grid


def test_ideal_pressure_profile_is_linear_in_p_squared():
    eos = IdealGas(377.9683)
    geom = PipeGeometry(length=30e3, diameter=0.9144, friction=0.01)
    mflow = 200.0
    p_in = 6.5e6
    p_out, profile = integrate_pipe_pressure(eos, geom, p_in, mflow,
                                             dense=True)
    phi = mflow / geom.area
    c2 = 377.9683 ** 2
    x = np.linspace(0.0, geom.length, 33)
    exact = np.sqrt(p_in ** 2 - 2.0 * geom.beta * c2 * phi * abs(phi) * x)
    assert np.max(np.abs(profile(x) - exact) / exact) <= 1e-8
    assert p_out == pytest.approx(exact[-1], rel=1e-8)


def test_zero_withdrawal_gives_uniform_slack_pressure():
    eos = CngaGas()
    net, geom, grid = line_network(eos, q=0.0)
    sol = solve_steady_state(net)
    assert sol.pipe_flows["p"] == pytest.approx(0.0, abs=1e-10)
    assert sol.node_pressures["b"] == pytest.approx(6.5e6, rel=1e-10)
    sol.populate(net)
    assert np.all(net.edges[0].state.phi == 0.0)
    assert net.edges[0].state.rho == pytest.approx(float(eos.density(6.5e6)),
                                                   rel=1e-10)


def test_reverse_flow_is_admissible():
    # injection at the far node pushes gas back toward the slack node, so
    # the signed friction must raise pressure along the pipe
    eos = CngaGas()
    net, geom, grid = line_network(eos, q=-150.0)
    sol = solve_steady_state(net)
    assert sol.pipe_flows["p"] == pytest.approx(-150.0, rel=1e-10)
    p_in, p_out = sol.pipe_end_pressures["p"]
    assert p_out > p_in


def test_populate_sets_consistent_state():
    eos = CngaGas()
    net, geom, grid = line_network(eos, q=150.0)
    sol = solve_steady_state(net)
    sol.populate(net)
    state = net.edges[0].state
    assert state.phi == pytest.approx(150.0 / geom.area)
    p_cells = eos.pressure(state.rho)
    assert np.all(np.diff(p_cells) < 0)       # pressure falls downstream
    assert p_cells[0] == pytest.approx(sol.pipe_end_pressures["p"][0],
                                       rel=1e-3)


def test_five_node_matches_benchmark_initial_data():
    # the benchmark per-pipe data is the ideal-model steady state at the
    # reference sound speed
    net = five_node_network(IdealGas(WAVE_SPEED_REF), dx_target=500.0)
    sol = solve_steady_state(net)
    flows = {"1": 300.0, "2": 233.3, "3": 83.33, "4": 66.66, "5": 150.0}
    p_in = {"1": 5.2710811e6, "2": 5.1317472e6, "3": 3.5400783e6,
            "4": 4.6112053e6, "5": 4.2901680e6}
    p_out = {"1": 4.6112053e6, "2": 3.5400783e6, "3": 3.5043953e6,
             "4": 3.5043953e6, "5": 3.4473786e6}
    for pid in flows:
        assert sol.pipe_flows[pid] == pytest.approx(flows[pid], rel=5e-3)
        assert sol.pipe_end_pressures[pid][0] == pytest.approx(p_in[pid],
                                                               rel=5e-3)
        assert sol.pipe_end_pressures[pid][1] == pytest.approx(p_out[pid],
                                                               rel=5e-3)


def test_infeasible_demand_raises():
    eos = CngaGas()
    net, _, _ = line_network(eos, q=1e5)   # drains far beyond feasibility
    with pytest.raises(SteadyStateError):
        solve_steady_state(net)


def meshed_network():
    # loop a-b-c-d-a with chord a-c, fed from slack s through an inlet
    # compressor; d injects, and pipe c->d, boosted at d by an outlet
    # compressor, flows backwards
    nodes = [Node("s", SlackBC(Constant(5e6))),
             Node("a", DemandBC(Constant(40.0))),
             Node("b", DemandBC(Constant(70.0))),
             Node("c", DemandBC(Constant(110.0))),
             Node("d", DemandBC(Constant(-60.0)))]
    pipes = [("0", "s", "a", 30e3, 0.9144), ("1", "a", "b", 25e3, 0.762),
             ("2", "b", "c", 20e3, 0.762), ("3", "c", "d", 35e3, 0.6096),
             ("4", "d", "a", 40e3, 0.762), ("5", "a", "c", 45e3, 0.6096)]
    edges = [PipeEdge(pid, frm, to, PipeGeometry(length, diameter, 0.01),
                      PipeGrid(length, 10))
             for pid, frm, to, length, diameter in pipes]
    edges[0].inlet_ratio = Constant(1.2)
    edges[3].outlet_ratio = Constant(1.1)
    return Network(nodes, edges, CngaGas())


def test_meshed_network_matches_closed_form_and_kirchhoff():
    net = meshed_network()
    sol = solve_steady_state(net)
    assert sol.pipe_flows["3"] < 0.0
    # rho = u p + v p**2 integrates dp/dx = -beta phi|phi| / rho exactly
    u, v = net.eos.density_poly()

    def big_f(p):
        return u * p ** 2 / 2.0 + v * p ** 3 / 3.0

    for e in net.edges:
        p_in, p_out = sol.pipe_end_pressures[e.id]
        phi = sol.pipe_flows[e.id] / e.geometry.area
        drop = e.geometry.beta * e.geometry.length * phi * abs(phi)
        assert big_f(p_in) - big_f(p_out) == pytest.approx(drop, rel=1e-7)
        alpha_in = e.inlet_ratio(0.0) if e.inlet_ratio else 1.0
        alpha_out = e.outlet_ratio(0.0) if e.outlet_ratio else 1.0
        assert p_in == alpha_in * sol.node_pressures[e.from_node]
        assert p_out == pytest.approx(
            alpha_out * sol.node_pressures[e.to_node], abs=PIPE_TOL)
    for node in net.nodes[1:]:
        inflow = sum(end.sgn * sol.pipe_flows[end.edge.id]
                     for end in net.incidence[node.id])
        assert abs(inflow - node.bc.withdrawal(0.0)) <= NODE_TOL


@pytest.mark.parametrize("run", [
    "from gasnetsim.experiments import run_temperature_effect\n"
    "run_temperature_effect(dx=5000, t_end=600)\n",
    "from gasnetsim.cli import main\n"
    "from gasnetsim.experiments import FIVE_NODE_CONFIG\n"
    "code = main(['run', str(FIVE_NODE_CONFIG), '--dx', '4000',\n"
    "             '--t-end', '60', '--out', OUT])\n"
    "assert code == 0, code\n",
], ids=["temperature_study", "network_run"])
def test_runs_leave_scipy_unloaded(run, tmp_path):
    # scipy.integrate alone costs ~50 MB of RSS: the steady solve of a
    # network run integrates with the package's own RK45, and a single-pipe
    # study integrates no steady profile, so neither imports any of scipy
    src = Path(__file__).resolve().parent.parent / "src"
    code = (f"import sys\nOUT = {str(tmp_path)!r}\n{run}"
            "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
            "assert not loaded, loaded\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def scipy_pipe_pressure(eos, geometry, p_in, mflow, dense):
    """``integrate_pipe_pressure`` on scipy's ``solve_ivp``, as the package
    had it before it ported the integrator: ``(p_out, profile, sol)``,
    where ``sol`` is the ODE result (None on a branch without one)."""
    from scipy.integrate import solve_ivp
    length = geometry.length
    phi = mflow / geometry.area
    constant = (lambda x: p_in * np.ones_like(np.asarray(x, dtype=float))) \
        if dense else None
    if p_in <= PRESSURE_FLOOR:
        return p_in - length, constant, None
    if geometry.beta == 0.0 or phi == 0.0:
        return p_in, constant, None
    drag = geometry.beta * phi * abs(phi)

    def rhs(x, p):
        return [-drag / eos.at(x).density(max(p[0], PRESSURE_FLOOR))]

    def hit_floor(x, p):
        return p[0] - PRESSURE_FLOOR
    hit_floor.terminal = True

    sol = solve_ivp(rhs, (0.0, length), [p_in], rtol=ODE_RTOL, atol=1e-2,
                    events=hit_floor, dense_output=dense)
    if sol.t[-1] < length:
        slope = drag / eos.at(sol.t[-1]).density(PRESSURE_FLOOR)
        return PRESSURE_FLOOR - slope * (length - sol.t[-1]), None, sol
    profile = (lambda x: sol.sol(np.asarray(x, dtype=float))[0]) \
        if dense else None
    return float(sol.y[0, -1]), profile, sol


def oracle_pipes(count, seed=2029):
    """``count`` pipes ``(eos, geometry, p_in, mflow, n_cells)``: cnga and
    non-isothermal cnga in turn, with flows drawn so that about a third of
    them would drain below the floor, then one pipe of each branch that
    integrates nothing."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        geom = PipeGeometry(length=rng.uniform(1e3, 8e4),
                            diameter=rng.uniform(0.3, 1.2),
                            friction=rng.uniform(0.005, 0.02))
        eos = CngaGas() if k % 2 == 0 else NonIsothermalCnga(
            TemperatureProfile(ambient=rng.uniform(275.0, 300.0),
                               jump=rng.uniform(0.0, 40.0),
                               decay_rate=rng.uniform(0.0, 1e-3)))
        p_in = 10.0 ** rng.uniform(5.0, 6.9)
        # the isothermal drop F(p_in) - F(p_out) = beta L phi^2 RT, with
        # F(p) = b1 p^2/2 + b2 p^3/3, empties the pipe at drain = 1
        gas = eos.at(0.0)
        big_f = gas.b1 * p_in ** 2 / 2.0 + gas.b2 * p_in ** 3 / 3.0
        drain = rng.uniform(0.0, 1.6)
        phi = np.sqrt(drain * big_f / (geom.beta * geom.length * gas.rt))
        sign = -1.0 if rng.uniform() < 0.1 else 1.0
        yield (eos, geom, p_in, sign * phi * geom.area,
               int(rng.integers(2, 400)))
    geom = PipeGeometry(length=2e4, diameter=0.6, friction=0.01)
    yield CngaGas(), geom, 6e6, 0.0, 40                       # no flow
    yield CngaGas(), PipeGeometry(2e4, 0.6, 0.0), 6e6, 50.0, 40  # no friction
    yield CngaGas(), geom, PRESSURE_FLOOR, 50.0, 40           # inlet at floor
    yield CngaGas(), geom, 0.5 * PRESSURE_FLOOR, -50.0, 40    # below it


try:
    from scipy import __version__ as SCIPY_VERSION
except ImportError:          # the test extra installs it
    SCIPY_VERSION = ""
# the port follows scipy 1.17 to the bit; another release may pick its
# initial step differently, so there the check is a relative 1e-9
ORACLE_CHECK = "bitwise" if SCIPY_VERSION.startswith("1.17.") \
    else "rel_1e-9"


@pytest.mark.parametrize("check", [ORACLE_CHECK])
def test_ported_rk45_is_solve_ivp(check):
    pytest.importorskip("scipy")

    def same(port, ref):
        port, ref = np.asarray(port, dtype=float), np.asarray(ref, dtype=float)
        if check == "bitwise":
            return port.shape == ref.shape and \
                port.tobytes() == ref.tobytes()
        return np.allclose(port, ref, rtol=1e-9, atol=0.0)

    pipes = list(oracle_pipes(300))
    floor_hits = profiles = 0
    for eos, geom, p_in, mflow, n_cells in pipes:
        for dense in (False, True):
            p_out, profile = integrate_pipe_pressure(eos, geom, p_in, mflow,
                                                     dense=dense)
            ref_out, ref_profile, sol = scipy_pipe_pressure(
                eos, geom, p_in, mflow, dense)
            case = (type(eos).__name__, geom, p_in, mflow, dense)
            assert type(p_out) is type(ref_out) and same(p_out, ref_out), case
            assert (profile is None) == (ref_profile is None), case
            if profile is None:
                floor_hits += dense and sol is not None
                continue
            # cell centres and the step boundaries, then points alone: a
            # centre, and a boundary that two steps share
            x = PipeGrid(geom.length, n_cells).cell_centers
            alone = [x[n_cells // 2]]
            if sol is not None:
                x = np.concatenate([x, sol.sol.ts])
                alone.append(sol.sol.ts[len(sol.sol.ts) // 2])
            assert same(profile(x), ref_profile(x)), case
            for point in alone:
                assert same(profile(point), ref_profile(point)), case
            profiles += sol is not None
    assert floor_hits >= 80 and profiles >= 150, (floor_hits, profiles)
