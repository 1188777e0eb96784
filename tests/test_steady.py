import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gasnetsim.eos import CngaGas, IdealGas
from gasnetsim.errors import SteadyStateError
from gasnetsim.experiments import WAVE_SPEED_REF, five_node_network
from gasnetsim.network import DemandBC, Network, Node, PipeEdge, SlackBC
from gasnetsim.pipe import PipeGeometry, PipeGrid
from gasnetsim.profiles import Constant
from gasnetsim.steady import (NODE_TOL, PIPE_TOL, integrate_pipe_pressure,
                              solve_steady_state)


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


def test_single_pipe_study_leaves_scipy_integrate_unloaded():
    # scipy.integrate costs ~46 MB of RSS; a single-pipe study never
    # integrates a steady profile, so it must never import it
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys\n"
            "from gasnetsim.experiments import run_temperature_effect\n"
            "run_temperature_effect(dx=5000, t_end=600)\n"
            "assert 'scipy.integrate' not in sys.modules\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
