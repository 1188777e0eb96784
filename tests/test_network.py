import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from gasnetsim import pipe as pipe_ops
from gasnetsim.config import build_network, parse_config
from gasnetsim.eos import (CngaGas, IdealGas, NonIsothermalCnga,
                           TemperatureProfile)
from gasnetsim.errors import (ConfigError, InfeasibleNodeError,
                              PositivityError, SimulationError,
                              UnstableRunError)
from gasnetsim.experiments import (WAVE_SPEED_REF, five_node_network,
                                   simulate_network)
from gasnetsim.network import (DemandBC, Network, Node, PipeEdge, SlackBC,
                               flow_balance_residual, network_step,
                               nodal_pressure_solve, node_arrays,
                               node_records)
from gasnetsim.output import SeriesWriter
from gasnetsim.pipe import (FluxBC, PipeGeometry, PipeGrid, PipeState,
                            PressureBC, interior_flux_update, step,
                            uniform_state)
from gasnetsim.profiles import Constant, Harmonic, StepSequence
from gasnetsim.steady import solve_steady_state

MESH_SMALL = Path(__file__).with_name("data") / "mesh_small.json"


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

    def test_rejects_a_graph_without_pipes(self):
        with pytest.raises(ConfigError) as err:
            Network([Node("a", SlackBC(Constant(5e6)))], [], CngaGas())
        assert err.value.violations == ["at least one pipe is required"]

    def test_constant_profiles_read_once_cannot_change(self):
        # the layout reads each constant profile once, so it must not change
        net = five_node_network(CngaGas(), dx_target=4000.0)
        solve_steady_state(net).populate(net)
        network_step(net, net.cfl_max_dt(0.9))
        withdrawal = net.node("2").bc.withdrawal
        with pytest.raises(dataclasses.FrozenInstanceError):
            withdrawal.value = 50.0
        assert withdrawal(net.time) == 0.0


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
        for _ in range(1000):
            network_step(net, dt)
        records = node_records(net)
        for node_id, p0 in sol.node_pressures.items():
            assert records[node_id][0] == pytest.approx(p0, rel=1e-3)

    def test_slack_pressure_series_is_exact(self):
        eos = CngaGas()
        p_prof = Harmonic(offset=6.5e6, amplitude=0.2e6,
                          omega=2 * np.pi / 300.0)
        net, geom, grid = two_node_net(eos, q=100.0, pressure=p_prof)
        for _ in range(50):
            network_step(net, 1.0)
            records = node_records(net)
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

    def test_per_cell_gases_are_parts_of_one_flat_gas(self, monkeypatch):
        doc = json.loads(MESH_SMALL.read_text())
        doc["eos"] = {"kind": "cnga_nonisothermal", "t_ambient": 288.706,
                      "t_jump": 40.0, "decay_rate": 1e-4,
                      "gas_gravity": 0.65}
        cfg = parse_config(doc)
        built, init = [], CngaGas.__init__

        def counted(gas, *args):
            built.append(gas)
            init(gas, *args)
        monkeypatch.setattr(CngaGas, "__init__", counted)
        net = build_network(cfg, dx_target=2000.0)
        monkeypatch.undo()
        fl = net._flat
        assert built == [fl.gas]    # the one validated build

        def validated(cells):
            return CngaGas(fl.gas.b1[cells], fl.gas.b2[cells],
                           fl.gas.rt[cells])
        parts = {"inlet_gas": fl.first, "outlet_gas": fl.last_cell,
                 "slack_gas": fl.end_cell[fl.slack],
                 "report_gas": fl.end_cell[fl.report_ends]}
        assert fl.solved.stop > fl.solved.start and fl.dead.stop > \
            fl.dead.start
        for name, cells in parts.items():
            part, whole = getattr(fl, name), validated(cells)
            for c in ("b1", "b2", "rt"):
                assert np.array_equal(getattr(part, c), getattr(whole, c))
        u, v = validated(fl.end_cell[fl.solved]).density_poly()
        assert np.array_equal(fl.solved_poly[0], u)
        assert np.array_equal(fl.solved_poly[1], v)
        for index in (3, np.intp(3), -1):
            cell = fl.gas[index]
            assert all(type(c) is float for c in (cell.b1, cell.b2, cell.rt))
            assert (cell.b1, cell.b2, cell.rt) == (
                fl.gas.b1[index], fl.gas.b2[index], fl.gas.rt[index])
        for end in (end for ends in net.incidence.values() for end in ends):
            gas = end.edge.gas
            assert type(end.gas.b1) is float
            assert (end.gas.b1, end.gas.b2, end.gas.rt) == (
                gas.b1[end.cell], gas.b2[end.cell], gas.rt[end.cell])

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


def mixed_network():
    """Four nodes, four pipes of different grids and frictions, a per-cell
    (non-isothermal) gas and an inlet compressor, with perturbed states."""
    eos = NonIsothermalCnga(TemperatureProfile(ambient=288.706, jump=40.0,
                                               decay_rate=1e-3))
    specs = [("p1", "a", "b", 12e3, 0.9144, 0.010, 9),
             ("p2", "b", "c", 7e3, 0.635, 0.015, 5),
             ("p3", "c", "d", 20e3, 0.7, 0.008, 14),
             ("p4", "b", "d", 9e3, 0.5, 0.0, 3)]
    edges = [PipeEdge(pid, frm, to, PipeGeometry(length, diameter, friction),
                      PipeGrid(length, n_cells),
                      inlet_ratio=Constant(1.2) if pid == "p2" else None)
             for pid, frm, to, length, diameter, friction, n_cells in specs]
    net = Network([Node("a", SlackBC(Constant(5.0e6))),
                   Node("b", DemandBC(Constant(20.0))),
                   Node("c", DemandBC(Harmonic(offset=40.0, amplitude=10.0,
                                               omega=0.01))),
                   Node("d", DemandBC(Constant(30.0)))], edges, eos)
    rng = np.random.default_rng(5)
    for e in edges:
        n = e.grid.n_cells
        e.state = PipeState(e.gas.density(5.0e6) * rng.uniform(0.98, 1.02, n),
                            rng.uniform(-50.0, 150.0, n + 1))
    return net


def chain_network(eos=None):
    """Three pipes in a chain a - b - c - d, slack at a; pipe "c" has no
    friction."""
    eos = eos or CngaGas()
    edges = [PipeEdge(pid, frm, to, PipeGeometry(10e3, 0.9144, friction),
                      PipeGrid(10e3, 10))
             for pid, frm, to, friction in (("a", "a", "b", 0.01),
                                            ("m", "b", "c", 0.01),
                                            ("c", "c", "d", 0.0))]
    net = Network([Node("a", SlackBC(Constant(6.5e6))),
                   Node("b", DemandBC(Constant(0.0))),
                   Node("c", DemandBC(Constant(0.0))),
                   Node("d", DemandBC(Constant(100.0)))], edges, eos)
    for e in edges:
        e.state = uniform_state(e.grid, eos.density(6.5e6), 100.0)
    return net


def states_of(net):
    return [(e.state.rho.copy(), e.state.phi.copy()) for e in net.edges]


class TestFlatStep:
    def test_interior_faces_match_the_pipe_kernel_bitwise(self):
        net = mixed_network()
        dt = 0.5 * net.cfl_max_dt()
        before = [PipeState(rho, phi) for rho, phi in states_of(net)]
        network_step(net, dt)
        for e, state in zip(net.edges, before):
            interior_flux_update(state, e.geometry, e.grid, e.gas, dt)
            assert np.array_equal(e.state.phi[1:-1], state.phi[1:-1]), e.id

    def test_states_are_views_of_the_flat_arrays(self):
        net = mixed_network()
        network_step(net, 1.0)
        # one ghost cell between consecutive pipes
        assert net.rho.size == sum(e.grid.n_cells for e in net.edges) + \
            len(net.edges) - 1
        for e in net.edges:
            assert e.state.rho.base is net.rho and e.state.phi.base is net.phi
        assert net.total_mass() == sum(
            pipe_ops.total_mass(e.state, e.geometry, e.grid)
            for e in net.edges)
        assert net.boundary_inflow() == sum(
            pipe_ops.boundary_throughput(e.state, e.geometry)
            for e in net.edges)

    def test_demand_nodes_match_the_scalar_solve(self):
        net = mixed_network()
        dt = 0.5 * net.cfl_max_dt()
        before = states_of(net)
        network_step(net, dt)
        records = node_records(net)
        t_half, t_next = 0.5 * dt, dt
        for node in net.nodes:
            ends = net.incidence[node.id]
            if node.is_slack or len(ends) == 1:
                continue
            pos = [net.edges.index(end.edge) for end in ends]
            p = nodal_pressure_solve(
                [end.area * end.dx / dt for end in ends],
                [end.ratio(t_next) for end in ends],
                [before[k][0][end.cell] for k, end in zip(pos, ends)],
                [end.gas.density_poly() for end in ends],
                node.bc.withdrawal(t_half),
                sum(end.sgn * end.area * float(end.edge.state.phi[end.inner])
                    for end in ends), node.id)
            assert records[node.id][0] == pytest.approx(p, rel=1e-13)

    def test_node_records_report_the_last_solve(self):
        net = mixed_network()

        def pulled_back(t):
            # each demand node's first pipe end: its boundary-cell
            # pressure over its boost ratio
            return {node.id: float(end.gas.pressure(
                end.edge.state.rho[end.cell])) / end.ratio(t)
                for node in net.nodes[1:]
                for end in net.incidence[node.id][:1]}

        def pressures(records):
            return {k: p for k, (p, _) in records.items() if k != "a"}

        records = node_records(net)
        assert records["a"][0] == 5.0e6
        assert pressures(records) == pytest.approx(pulled_back(0.0),
                                                   rel=1e-14)
        dt = 0.5 * net.cfl_max_dt()
        network_step(net, dt)
        solved = pressures(node_records(net))
        # moving the boundary cells moves every pull-back, not the solve
        net.rho *= 1.01
        assert pressures(node_records(net)) == solved
        for node_id, p in pulled_back(dt).items():
            assert abs(p / solved[node_id] - 1.0) > 5e-3, node_id
        # states bound afresh have no solve yet
        e = net.edges[0]
        e.state = PipeState(e.state.rho.copy(), e.state.phi.copy())
        assert pressures(node_records(net)) == pytest.approx(
            pulled_back(dt), rel=1e-14)

    def test_sampled_pipe_masses_are_their_own_steps(self, tmp_path):
        net = mixed_network()
        dt = 0.5 * net.cfl_max_dt()
        with SeriesWriter(tmp_path / "run.csv") as writer:
            res = simulate_network(net, dt, 4 * dt, dt, writer)
        assert {row[0] for row in res.store.rows} == {net.time}
        values = {(e, i, f): v for _, e, i, f, v in res.store.rows}
        masses = [values["pipe", e.id, "mass"] for e in net.edges]
        assert masses == [pipe_ops.total_mass(e.state, e.geometry, e.grid)
                          for e in net.edges]
        assert sum(masses) == values["network", "total", "mass"]

    def test_non_finite_face_names_pipe_and_local_face(self):
        net = chain_network()
        network_step(net, 1.0)
        net.edge("m").state.phi[3] = np.inf
        with pytest.raises(UnstableRunError,
                           match="face 3 of pipe m, step 1") as err:
            network_step(net, 1.0)
        assert err.value.face == 3 and err.value.step == 1

    def test_a_non_finite_face_leaves_the_state_as_it_was(self):
        net = chain_network()
        network_step(net, 1.0)
        net.edge("m").state.phi[3] = np.inf
        before = states_of(net)
        with pytest.raises(UnstableRunError):
            network_step(net, 1.0)
        for (rho, phi), (rho_b, phi_b) in zip(states_of(net), before):
            assert np.array_equal(rho, rho_b) and np.array_equal(phi, phi_b)
        assert net.step_index == 1

    @pytest.mark.parametrize("bound", [False, True],
                             ids=["before-binding", "bound"])
    def test_a_negative_density_is_refused(self, bound):
        net = chain_network()
        if bound:
            network_step(net, 1.0)
        net.edge("m").state.rho[4] = -1.0
        with pytest.raises(ValueError, match="density must be non-negative"):
            network_step(net, 1.0)

    def test_drained_cell_names_pipe_and_local_cell(self):
        net = chain_network()
        network_step(net, 1.0)
        # outward fluxes of 1e6 on both faces of cell 6 of the frictionless
        # last pipe empty it within the step
        net.edge("c").state.phi[6:8] = [-1e6, 1e6]
        with pytest.raises(PositivityError,
                           match="cell 6 of pipe c, step 2") as err:
            network_step(net, 1.0)
        assert err.value.cell == 6

    @pytest.mark.parametrize("face", [1, 9])
    def test_non_finite_seam_face_names_the_middle_pipe(self, face):
        # the first and last interior faces of the middle pipe sit next to
        # its boundary cells, one cell from a ghost
        net = chain_network()
        network_step(net, 1.0)
        net.edge("m").state.phi[face] = np.inf
        with pytest.raises(UnstableRunError,
                           match=f"face {face} of pipe m, step 1") as err:
            network_step(net, 1.0)
        assert err.value.face == face

    @pytest.mark.parametrize("first", [True, False], ids=["first", "last"])
    def test_drained_seam_cell_names_the_middle_pipe(self, first):
        # the middle pipe "m" joins the junction b and the dead end c, whose
        # withdrawal empties m's boundary cell next to a ghost
        eos = CngaGas()
        ends = ("c", "b") if first else ("b", "c")
        edges = [PipeEdge(pid, frm, to, PipeGeometry(10e3, 0.9144, 0.01),
                          PipeGrid(10e3, 10))
                 for pid, frm, to in (("a", "a", "b"), ("m", *ends),
                                      ("d", "b", "d"))]
        net = Network([Node("a", SlackBC(Constant(6.5e6))),
                       Node("b", DemandBC(Constant(0.0))),
                       Node("c", DemandBC(Constant(1e5))),
                       Node("d", DemandBC(Constant(0.0)))], edges, eos)
        for e in edges:
            e.state = uniform_state(e.grid, eos.density(6.5e6))
        cell = 0 if first else 9
        with pytest.raises(PositivityError,
                           match=f"cell {cell} of pipe m, step 1") as err:
            network_step(net, 1.0)
        assert err.value.cell == cell

    def test_pipe_end_faces_beside_a_ghost_never_raise(self):
        # a pipe end's old flux is not read: the nodal phase replaces it
        net, fresh = chain_network(), chain_network()
        for e in net.edges:
            e.state.phi[[0, -1]] = [np.nan, np.inf]
        for _ in range(3):
            network_step(net, 1.0)
            network_step(fresh, 1.0)
        for (rho, phi), (rho_f, phi_f) in zip(states_of(net),
                                             states_of(fresh)):
            assert np.array_equal(rho, rho_f) and np.array_equal(phi, phi_f)

    def test_an_overflowing_flux_jump_at_a_ghost_never_raises(self):
        # injections of 1e308 kg/s at the dead ends c and d point the pipe
        # ends beside the ghost between "x" and "y" at 1.5e308 kg/(m2 s)
        # in opposite directions: their difference overflows, but both
        # boundary cells only fill
        eos = CngaGas()
        edges = [PipeEdge(pid, frm, to, PipeGeometry(10e3, 0.9144, 0.01),
                          PipeGrid(10e3, 10))
                 for pid, frm, to in (("s", "a", "b"), ("x", "b", "c"),
                                      ("y", "d", "b"))]
        net = Network([Node("a", SlackBC(Constant(6.5e6))),
                       Node("b", DemandBC(Constant(0.0))),
                       Node("c", DemandBC(Constant(-1e308))),
                       Node("d", DemandBC(Constant(-1e308)))], edges, eos)
        for e in edges:
            e.state = uniform_state(e.grid, eos.density(6.5e6))
        with np.errstate(over="ignore", invalid="ignore"):
            network_step(net, 1.0)
        assert net.edge("x").state.rho[-1] > 1e300
        assert net.edge("y").state.rho[0] > 1e300

    def test_a_new_step_size_matches_the_kernels_at_that_size(self):
        net = mixed_network()
        network_step(net, 0.5 * net.cfl_max_dt())
        dt = 0.3 * net.cfl_max_dt()
        t_half, t_next = net.time + 0.5 * dt, net.time + dt
        before = states_of(net)
        network_step(net, dt)
        for e, (rho, phi) in zip(net.edges, before):
            state = PipeState(rho, phi)
            interior_flux_update(state, e.geometry, e.grid, e.gas, dt)
            assert np.array_equal(e.state.phi[1:-1], state.phi[1:-1]), e.id
        records = node_records(net)
        for node in net.nodes:
            ends = net.incidence[node.id]
            if node.is_slack or len(ends) == 1:
                continue
            pos = [net.edges.index(end.edge) for end in ends]
            p = nodal_pressure_solve(
                [end.area * end.dx / dt for end in ends],
                [end.ratio(t_next) for end in ends],
                [before[k][0][end.cell] for k, end in zip(pos, ends)],
                [end.gas.density_poly() for end in ends],
                node.bc.withdrawal(t_half),
                sum(end.sgn * end.area * float(end.edge.state.phi[end.inner])
                    for end in ends), node.id)
            assert records[node.id][0] == pytest.approx(p, rel=1e-13)

    def test_reassigned_state_matches_a_fresh_build(self):
        net, fresh = chain_network(), chain_network()
        for k in range(12):
            if k == 4:
                e = net.edge("m")
                e.state = PipeState(e.state.rho.copy(), e.state.phi.copy())
            if k == 8:
                e = net.edge("c")
                e.state.rho = e.state.rho.copy()
            network_step(net, 1.0)
            network_step(fresh, 1.0)
        for (rho, phi), (rho_f, phi_f) in zip(states_of(net),
                                             states_of(fresh)):
            assert np.array_equal(rho, rho_f) and np.array_equal(phi, phi_f)

    def test_two_networks_on_the_same_edges_match_a_fresh_build(self):
        first = chain_network()
        second = Network(first.nodes, first.edges, first.eos)
        fresh = chain_network()
        for k in range(10):
            network_step(first if k % 2 else second, 1.0)
            network_step(fresh, 1.0)
        for (rho, phi), (rho_f, phi_f) in zip(states_of(first),
                                             states_of(fresh)):
            assert np.array_equal(rho, rho_f) and np.array_equal(phi, phi_f)

    def test_state_that_does_not_fit_its_grid_is_refused(self):
        net = chain_network()
        net.edge("m").state = uniform_state(PipeGrid(10e3, 7), 50.0)
        with pytest.raises(SimulationError, match=r"fit their grids: \['m'\]"):
            network_step(net, 1.0)

    @pytest.mark.parametrize("make", ["two_node", "ring", "star"])
    def test_each_group_steps_as_the_scalar_references(self, make):
        # a network without solved nodes (two_node, star) or without dead
        # ends (ring) steps bit for bit as the scalar nodal references
        net = group_networks()[make]
        dt = 0.5 * net.cfl_max_dt()
        for _ in range(3):
            t0, before = net.time, states_of(net)
            network_step(net, dt)
            fluxes, pressures = nodal_references(net, before, t0, dt)
            for (pipe_id, sgn), phi in fluxes.items():
                face = -1 if sgn > 0 else 0
                assert net.edge(pipe_id).state.phi[face] == phi, (pipe_id, sgn)
            records = node_records(net)
            for node_id, p in pressures.items():
                assert records[node_id][0] == p, node_id

    def test_a_negative_balance_is_named_beside_a_nan_one(self):
        # node b's balance is NaN, which the infeasibility check skips;
        # node c's is negative
        net = group_networks(withdrawals={"b": lambda t: math.nan,
                                          "c": Constant(1e9)})["ring"]
        with pytest.raises(InfeasibleNodeError, match="node c: balance rhs"):
            network_step(net, 0.5 * net.cfl_max_dt())

    def test_a_new_step_size_or_binding_rebuilds_the_plan(self):
        net = chain_network()
        network_step(net, 1.0)
        plan = net._plan
        network_step(net, 1.0)
        assert net._plan is plan
        network_step(net, 0.5)
        assert net._plan is not plan and net._plan.dt == 0.5
        plan = net._plan
        e = net.edge("m")
        e.state = PipeState(e.state.rho.copy(), e.state.phi.copy())
        network_step(net, 0.5)
        assert net._plan is not plan
        for view in (net._plan.faces, net._plan.upper, net._plan.lower):
            assert view.base is net.phi

    def test_ledger_reads_rebind_a_state_replaced_outside_a_run(self):
        net = chain_network()
        network_step(net, 1.0)
        e = net.edge("m")
        e.state = PipeState(2.0 * e.state.rho, e.state.phi + 5.0)
        assert net.pipe_masses() == [
            pipe_ops.total_mass(edge.state, edge.geometry, edge.grid)
            for edge in net.edges]
        assert e.state.rho.base is net.rho
        e = net.edge("c")
        e.state = PipeState(e.state.rho.copy(), e.state.phi - 7.0)
        assert net.boundary_inflow() == sum(
            pipe_ops.boundary_throughput(edge.state, edge.geometry)
            for edge in net.edges)
        assert e.state.phi.base is net.phi

    def test_flat_mass_is_the_sum_of_the_pipe_masses(self):
        net = five_node_network(CngaGas(), dx_target=62.5)
        solve_steady_state(net).populate(net)
        net.require_states()
        pipes = sum(net.pipe_masses())
        assert abs(net._flat_mass() - pipes) <= 1e-14 * pipes

    def test_constant_and_varying_profiles_step_bitwise(self):
        # the same values as Constant profiles, which the network reads
        # once, and as StepSequence ones, which every step evaluates
        nets = [ring_with_compressors(Constant),
                ring_with_compressors(lambda v: StepSequence([(math.inf,
                                                               v)]))]
        dt = 0.5 * nets[0].cfl_max_dt()
        for _ in range(20):
            for net in nets:
                network_step(net, dt)
            (rho, phi, nodes), (rho_2, phi_2, nodes_2) = [
                (net.rho, net.phi, node_arrays(net)) for net in nets]
            assert np.array_equal(rho, rho_2) and np.array_equal(phi, phi_2)
            for a, b in zip(nodes, nodes_2):
                assert np.array_equal(a, b)


def ring_with_compressors(profile):
    """A slack node ``a``, junctions ``b`` and ``c`` and a dead end ``d``,
    with boost ratios at slack and junction ends; every pressure, ratio
    and withdrawal is ``profile(value)``."""
    eos = NonIsothermalCnga(TemperatureProfile(ambient=288.706, jump=40.0,
                                               decay_rate=1e-3))
    specs = [("p", "a", "b", {"inlet_ratio": profile(1.15)}),
             ("q", "b", "c", {"inlet_ratio": profile(1.1)}),
             ("r", "c", "a", {"outlet_ratio": profile(1.05)}),
             ("s", "c", "d", {})]
    edges = [PipeEdge(pid, frm, to, PipeGeometry(8e3 + 2e3 * k, 0.6, 0.01),
                      PipeGrid(8e3 + 2e3 * k, 6 + k), **ratio)
             for k, (pid, frm, to, ratio) in enumerate(specs)]
    net = Network([Node("a", SlackBC(profile(5e6))),
                   Node("b", DemandBC(profile(30.0))),
                   Node("c", DemandBC(profile(-15.0))),
                   Node("d", DemandBC(profile(20.0)))], edges, eos)
    rng = np.random.default_rng(7)
    for e in edges:
        n = e.grid.n_cells
        e.state = PipeState(e.gas.density(5.0e6) * rng.uniform(0.98, 1.02, n),
                            rng.uniform(-50.0, 150.0, n + 1))
    return net


def group_networks(withdrawals=None):
    """Networks that each lack a group of pipe ends: ``two_node`` and
    ``star`` (a slack hub with one pipe into it and one out) have no solved
    node, ``ring`` (a slack and two junctions, with an inlet compressor)
    no dead end.  ``withdrawals`` replaces demand nodes' profiles."""
    eos = NonIsothermalCnga(TemperatureProfile(ambient=288.706, jump=40.0,
                                               decay_rate=1e-3))
    withdrawals = {"b": Harmonic(offset=30.0, amplitude=10.0, omega=0.01),
                   "c": Constant(-15.0), **(withdrawals or {})}
    layouts = {"two_node": [("p", "a", "b")],
               "ring": [("p", "a", "b"), ("q", "b", "c"), ("r", "c", "a")],
               "star": [("p", "a", "b"), ("q", "c", "a")]}
    nets = {}
    for name, pipes in layouts.items():
        edges = [PipeEdge(pid, frm, to, PipeGeometry(8e3 + 2e3 * k, 0.6, 0.01),
                          PipeGrid(8e3 + 2e3 * k, 6 + k),
                          inlet_ratio=Constant(1.1) if pid == "q" else None)
                 for k, (pid, frm, to) in enumerate(pipes)]
        ids = sorted({n for _, frm, to in pipes for n in (frm, to)})
        nodes = [Node(i, SlackBC(Harmonic(offset=5e6, amplitude=1e5,
                                          omega=0.02)) if i == "a"
                      else DemandBC(withdrawals[i])) for i in ids]
        net = Network(nodes, edges, eos)
        rng = np.random.default_rng(11)
        for e in edges:
            n = e.grid.n_cells
            e.state = PipeState(
                e.gas.density(5.0e6) * rng.uniform(0.98, 1.02, n),
                rng.uniform(-50.0, 150.0, n + 1))
        nets[name] = net
    return nets


def nodal_references(net, before, t0, dt):
    """The boundary flux of every pipe end, keyed ``(pipe id, sgn)``, and
    the pressure of every solved node after a step from ``t0``, from the
    scalar references: ``nodal_pressure_solve``, a dead end's
    ``sgn (q / S)`` and ``phi_inner - sgn (dx/dt) (rho_target - rho)``,
    given the states ``before`` the step and the interior fluxes after."""
    t_half, t_next = t0 + 0.5 * dt, t0 + dt
    pos = {id(e): k for k, e in enumerate(net.edges)}
    fluxes, pressures = {}, {}
    for node in net.nodes:
        ends = net.incidence[node.id]
        if not node.is_slack and len(ends) == 1:
            end = ends[0]
            fluxes[end.edge.id, end.sgn] = end.sgn * (
                node.bc.withdrawal(t_half) / end.area)
            continue
        rho = [before[pos[id(end.edge)]][0][end.cell] for end in ends]
        inner = [float(end.edge.state.phi[end.inner]) for end in ends]
        alphas = [end.ratio(t_next) for end in ends]
        if node.is_slack:
            p = node.bc.pressure(t_next)
            targets = [end.gas.density(al * p)
                       for end, al in zip(ends, alphas)]
        else:
            polys = [end.gas.density_poly() for end in ends]
            p = pressures[node.id] = nodal_pressure_solve(
                [end.area * end.dx / dt for end in ends], alphas, rho, polys,
                node.bc.withdrawal(t_half),
                sum(end.sgn * end.area * phi for end, phi in zip(ends, inner)),
                node.id)
            targets = [u * (al * p) + v * ((al * p) * (al * p))
                       for al, (u, v) in zip(alphas, polys)]
        for end, phi, target, r in zip(ends, inner, targets, rho):
            fluxes[end.edge.id, end.sgn] = phi - end.sgn * (
                (end.dx / dt) * (target - r))
    return fluxes, pressures
