import numpy as np
import pytest

from gasnetsim.eos import CngaGas, IdealGas
from gasnetsim.errors import InfeasibleNodeError, SimulationError
from gasnetsim.experiments import WAVE_SPEED_REF, five_node_network
from gasnetsim.network import (DemandBC, Network, Node, PipeEdge, SlackBC,
                               flow_balance_residual, network_step,
                               nodal_pressure_solve)
from gasnetsim.pipe import (FluxBC, PipeGeometry, PipeGrid, PressureBC,
                            step, uniform_state)
from gasnetsim.profiles import Constant, Harmonic
from gasnetsim.steady import solve_steady_state


def two_node_net(eos, q=120.0, n_cells=20, pressure=None):
    geom = PipeGeometry(length=10e3, diameter=0.9144, friction=0.01)
    grid = PipeGrid(length=10e3, n_cells=n_cells)
    pressure = pressure or Constant(6.5e6)
    net = Network([Node("a", SlackBC(pressure)),
                   Node("b", DemandBC(Constant(q)))],
                  [PipeEdge("p", "a", "b", geom, grid)], eos)
    net.edges[0].state = uniform_state(grid, eos.density(6.5e6), 180.0)
    return net, geom, grid


class TestValidation:
    def test_requires_slack(self):
        geom = PipeGeometry(10e3, 0.9, 0.01)
        grid = PipeGrid(10e3, 4)
        with pytest.raises(ValueError, match="slack"):
            Network([Node("a", DemandBC(Constant(0.0))),
                     Node("b", DemandBC(Constant(0.0)))],
                    [PipeEdge("p", "a", "b", geom, grid)], CngaGas())

    def test_rejects_disconnected_and_selfloop(self):
        geom = PipeGeometry(10e3, 0.9, 0.01)
        grid = PipeGrid(10e3, 4)
        with pytest.raises(ValueError, match="connected"):
            Network([Node("a", SlackBC(Constant(1e6))),
                     Node("b", DemandBC(Constant(0.0))),
                     Node("c", DemandBC(Constant(0.0)))],
                    [PipeEdge("p", "a", "b", geom, grid)], CngaGas())
        with pytest.raises(ValueError, match="self-loop"):
            Network([Node("a", SlackBC(Constant(1e6)))],
                    [PipeEdge("p", "a", "a", geom, grid)], CngaGas())

    def test_rejects_duplicate_ids(self):
        geom = PipeGeometry(10e3, 0.9, 0.01)
        grid = PipeGrid(10e3, 4)
        with pytest.raises(ValueError, match="duplicate"):
            Network([Node("a", SlackBC(Constant(1e6))),
                     Node("a", DemandBC(Constant(0.0)))],
                    [PipeEdge("p", "a", "a", geom, grid)], CngaGas())


class TestNodalPressureSolve:
    def test_uniform_steady_two_pipes(self):
        # both pipes already at the nodal pressure, no withdrawal: the
        # residual is zero at the uniform pressure
        eos = CngaGas()
        p_true = 5.0e6
        rho = float(eos.density(p_true))
        w = [300.0, 300.0]
        polys = [eos.density_poly(), eos.density_poly()]
        # steady fluxes through the node: inflow equals outflow
        inflow = 0.657 * 200.0 - 0.657 * 200.0
        p = nodal_pressure_solve(w, [1.0, 1.0], [rho, rho], polys, 0.0,
                                 inflow)
        assert p == pytest.approx(p_true, rel=1e-12)

    def test_table4_node_pressures(self):
        # node joining the two short pipes and the delivery pipe, fed with
        # the benchmark steady data (ideal model at the reference speed)
        eos = IdealGas(WAVE_SPEED_REF)
        p4 = 3.5043953e6
        alpha5 = 1.2242249
        s_big = np.pi * 0.9144 ** 2 / 4
        s_small = np.pi * 0.635 ** 2 / 4
        dt, dx = 0.125, 500.0
        areas = [s_big, s_small, s_big]
        alphas = [1.0, 1.0, alpha5]
        sgns = [1, 1, -1]
        flows = [83.33, 66.66, 150.0]
        weights = [s * dx / dt for s in areas]
        rho_ends = [float(eos.density(a * p4)) for a in alphas]
        polys = [eos.density_poly()] * 3
        inflow = sum(sg * m for sg, m in zip(sgns, flows))
        p_solved = nodal_pressure_solve(weights, alphas, rho_ends, polys,
                                        0.0, inflow)
        assert p_solved == pytest.approx(p4, rel=1e-6)
        p5_in = eos.pressure(eos.density(alpha5 * p_solved))
        assert p5_in == pytest.approx(4.2901680e6, rel=1e-6)

    def test_infeasible_node(self):
        eos = CngaGas()
        with pytest.raises(InfeasibleNodeError):
            nodal_pressure_solve([10.0], [1.0], [1.0],
                                 [eos.density_poly()], q=1e9, inflow=0.0)


def test_flow_balance_residual_table4_node3():
    s = np.pi * 0.9144 ** 2 / 4
    phis = [233.3 / s, 83.33 / s]
    res = flow_balance_residual([1, -1], [s, s], phis, 150.0)
    assert abs(res) < 0.05
    assert flow_balance_residual([], [], [], 0.0) == 0.0


class TestNetworkStep:
    def test_degenerate_network_matches_standalone_pipe_bitwise(self):
        eos = CngaGas()
        p_prof = Harmonic(offset=6.5e6, amplitude=0.3e6,
                          omega=2 * np.pi / 600.0)
        q = 120.0
        net, geom, grid = two_node_net(eos, q=q, pressure=p_prof)
        for _ in range(400):
            network_step(net, 1.0)

        state = uniform_state(grid, eos.density(6.5e6), 180.0)
        bc_l = PressureBC(p_prof)
        bc_r = FluxBC(Constant(q / geom.area))
        for _ in range(400):
            step(state, geom, grid, eos, bc_l, bc_r, 1.0)

        assert np.array_equal(net.edges[0].state.rho, state.rho)
        assert np.array_equal(net.edges[0].state.phi, state.phi)

    def test_junction_balance_residual_after_every_step(self):
        eos = CngaGas()
        net = five_node_network(eos, dx_target=2000.0)
        sol = solve_steady_state(net)
        sol.populate(net)
        dt = net.cfl_max_dt(0.9)
        for _ in range(50):
            t_half = net.time + 0.5 * dt
            network_step(net, dt)
            for node in net.nodes:
                ends = net.incidence[node.id]
                scale = max(e.area * abs(float(e.edge.state.phi[e.face]))
                            for e in ends)
                q = 0.0 if node.is_slack else node.bc.withdrawal(t_half)
                res = flow_balance_residual(
                    [e.sgn for e in ends], [e.area for e in ends],
                    [float(e.edge.state.phi[e.face]) for e in ends], q)
                if not node.is_slack:
                    assert abs(res) <= 1e-12 * max(scale, 1.0)

    def test_through_flux_continuity_two_equal_pipes(self):
        eos = CngaGas()
        geom = PipeGeometry(10e3, 0.9144, 0.01)
        grids = [PipeGrid(10e3, 10), PipeGrid(10e3, 10)]
        net = Network(
            [Node("a", SlackBC(Constant(6.5e6))),
             Node("m", DemandBC(Constant(0.0))),
             Node("b", DemandBC(Constant(200.0)))],
            [PipeEdge("p1", "a", "m", geom, grids[0]),
             PipeEdge("p2", "m", "b", geom, grids[1])], eos)
        for e in net.edges:
            e.state = uniform_state(grids[0], eos.density(6.5e6), 100.0)
        for _ in range(100):
            network_step(net, 1.0)
        s = geom.area
        phi_in = float(net.edges[0].state.phi[-1])
        phi_out = float(net.edges[1].state.phi[0])
        assert s * phi_in == pytest.approx(s * phi_out, rel=1e-12)

    def test_steady_state_is_near_fixed_point(self):
        # holding the schedules at t=0 the discrete solution stays within
        # a tenth of a percent of the initializing steady state
        eos = IdealGas(WAVE_SPEED_REF)
        net = five_node_network(eos, dx_target=125.0)
        sol = solve_steady_state(net)
        sol.populate(net)
        dt = net.cfl_max_dt(0.9)
        records = None
        for _ in range(1000):
            records = network_step(net, dt)
        for node_id, p0 in sol.node_pressures.items():
            assert records[node_id][0] == pytest.approx(p0, rel=1e-3)

    def test_slack_pressure_series_is_exact(self):
        eos = CngaGas()
        p_prof = Harmonic(offset=6.5e6, amplitude=0.2e6,
                          omega=2 * np.pi / 300.0)
        net, geom, grid = two_node_net(eos, q=100.0, pressure=p_prof)
        for _ in range(50):
            records = network_step(net, 1.0)
            assert records["a"][0] == p_prof(net.time)
            p_boundary = eos.pressure(float(net.edges[0].state.rho[0]))
            assert p_boundary == pytest.approx(p_prof(net.time), rel=1e-10)

    def test_compressor_identity_and_dual_guard(self):
        eos = CngaGas()
        geom = PipeGeometry(10e3, 0.9144, 0.01)
        grid = PipeGrid(10e3, 10)
        ratio = Constant(1.3)
        net = Network([Node("a", SlackBC(Constant(4.0e6))),
                       Node("b", DemandBC(Constant(150.0)))],
                      [PipeEdge("p", "a", "b", geom, grid,
                                inlet_ratio=ratio)], eos)
        net.edges[0].state = uniform_state(grid, eos.density(5.0e6), 200.0)
        for _ in range(20):
            network_step(net, 1.0)
        p_inlet = eos.pressure(float(net.edges[0].state.rho[0]))
        assert p_inlet == pytest.approx(1.3 * 4.0e6, rel=1e-10)

        bad = Network([Node("a", SlackBC(Constant(4.0e6))),
                       Node("b", DemandBC(Constant(150.0)))],
                      [PipeEdge("p", "a", "b", geom, grid,
                                inlet_ratio=Constant(1.2),
                                outlet_ratio=Constant(1.2))], eos)
        bad.edges[0].state = uniform_state(grid, eos.density(5.0e6), 200.0)
        with pytest.raises(SimulationError, match="both ends"):
            network_step(bad, 1.0)

    def test_ideal_gas_binds_with_zero_b2(self):
        net = five_node_network(IdealGas(WAVE_SPEED_REF), dx_target=2000.0)
        gases = [e.gas for e in net.edges] + \
            [end.gas for ends in net.incidence.values() for end in ends]
        assert len(gases) == 3 * len(net.edges)
        assert all(gas.b2 == 0 for gas in gases)

    def test_network_mass_ledger(self):
        eos = CngaGas()
        net = five_node_network(eos, dx_target=2000.0)
        sol = solve_steady_state(net)
        sol.populate(net)
        dt = net.cfl_max_dt(0.9)
        mass = net.total_mass()
        for _ in range(200):
            network_step(net, dt)
            new_mass = net.total_mass()
            inflow = dt * net.boundary_inflow()
            assert new_mass - mass == pytest.approx(inflow,
                                                    abs=1e-12 * new_mass)
            mass = new_mass
