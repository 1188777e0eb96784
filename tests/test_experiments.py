import csv
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from gasnetsim import experiments, pipe as pipe_ops
from gasnetsim.config import build_network, parse_config
from gasnetsim.errors import SimulationError
from gasnetsim.experiments import (MassLedger, l2_error, l2_norm,
                                   run_convergence_study,
                                   run_fast_transient,
                                   run_five_node_network,
                                   run_slow_transient,
                                   run_temperature_effect, simulate_network,
                                   five_node_network)
from gasnetsim.eos import CngaGas
from gasnetsim.network import (DemandBC, Network, Node, PipeEdge, SlackBC,
                               network_step, node_arrays)
from gasnetsim.output import CSV_HEADER, SeriesWriter, write_series
from gasnetsim.pipe import PipeGeometry, PipeGrid, uniform_state
from gasnetsim.profiles import Constant
from gasnetsim.steady import solve_steady_state
from support import edge, node, read_series, series, set_state


class TestL2Error:
    def test_identical_fields_are_zero(self):
        x = np.sin(np.linspace(0, 5, 200))
        assert l2_error(x, x, 0.1) == 0.0

    def test_constant_offset(self):
        # face-type fields spanning [0, L]: offset d gives exactly d^2 L
        length, n = 40.0, 80
        a = np.zeros(n + 1)
        b = np.full(n + 1, 0.5)
        assert l2_error(a, b, length / n) == pytest.approx(0.25 * length,
                                                           rel=1e-14)

    def test_matches_analytic_quadrature_of_periodic_field(self):
        # trapezoid is exact for periodic integrands sampled over a period,
        # so a Fourier sum gives an independent closed-form oracle
        rng = np.random.default_rng(17)
        length, n = 2.0, 4000
        x = np.arange(n + 1) * (length / n)
        coeffs = rng.uniform(-1, 1, 4)
        diff = sum(c * np.sin(2 * np.pi * (k + 1) * x / length)
                   for k, c in enumerate(coeffs))
        expect = 0.5 * length * float(np.sum(coeffs ** 2))
        assert l2_error(diff, np.zeros_like(diff), length / n) == \
            pytest.approx(expect, rel=1e-10)

    @pytest.mark.parametrize("n_a,n_b", [(10, 25), (1, 3), (0, 3)])
    def test_incompatible_grids_rejected(self, n_a, n_b):
        with pytest.raises(ValueError, match="incompatible"):
            l2_error(np.zeros(n_a), np.zeros(n_b), 1.0)


class TestConvergenceStudy:
    def test_reference_level_error_is_zero(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            rep = run_convergence_study(n_levels=3, ref_level=2)
        for proto in ("transport", "one_step"):
            for var in ("rho", "p", "phi"):
                assert rep.errors[proto][var][2] == 0.0

    def test_errors_decrease_monotonically(self):
        rep = run_convergence_study(n_levels=4, ref_level=5)
        for proto in ("transport", "one_step"):
            for var in ("rho", "p", "phi"):
                e = rep.errors[proto][var]
                assert all(a > b for a, b in zip(e, e[1:]))

    def test_transport_orders_are_second_order(self):
        rep = run_convergence_study(n_levels=5, ref_level=5)
        for var in ("rho", "p"):
            assert rep.rates_by_protocol["transport"][var]["last_two"] >= 2.0

    def test_report_serializes(self):
        rep = run_convergence_study(n_levels=3, ref_level=4)
        doc = rep.to_dict()
        assert set(doc["rates"]) == {"rho", "p", "phi"}
        assert len(doc["dts"]) == 3


class TestFastTransient:
    def test_quiescent_before_forcing(self):
        res = run_fast_transient("cnga", dx=500.0, t_end=900.0, cadence=30.0)
        t, phi_r = series(res.store, "pipe", "main", "phi_right")
        assert np.all(phi_r[t < 599.0] == 0.0)
        _, p_l = series(res.store, "pipe", "main", "p_left")
        assert np.all(np.abs(p_l[t < 599.0] - 6.5e6) < 1.0)
        _, rho_r = series(res.store, "pipe", "main", "rho_right")
        assert np.all(np.abs(rho_r[t < 599.0] - res.summary["rho0"]) < 1e-9)

    def test_ideal_run_matches_initial_state(self):
        res = run_fast_transient("ideal", dx=1000.0, t_end=60.0, cadence=30.0)
        assert np.sqrt(res.summary["p0"] / res.summary["rho0"]) == \
            pytest.approx(338.25, abs=0.01)

    def test_deterministic_repeat(self):
        a = run_fast_transient("cnga", dx=1000.0, t_end=1200.0, cadence=60.0)
        b = run_fast_transient("cnga", dx=1000.0, t_end=1200.0, cadence=60.0)
        assert a.store.rows == b.store.rows


class TestSlowTransient:
    def test_boundary_identities(self):
        res = run_slow_transient("cnga", dx=5000.0, n_periods=1,
                                 cadence=1800.0)
        t, p_l = series(res.store, "pipe", "main", "p_left")
        expect = 6.5e6 * (1.0 + 0.25 * np.sin(np.pi * t / (6 * 3600.0)))
        assert p_l[1:] == pytest.approx(expect[1:], rel=1e-10)
        _, phi_r = series(res.store, "pipe", "main", "phi_right")
        assert np.all(phi_r == 240.0)

    @pytest.mark.slow
    def test_settles_into_limit_cycle(self):
        res = run_slow_transient("cnga", dx=2500.0, n_periods=50,
                                 cadence=600.0)
        t, phi_l = series(res.store, "pipe", "main", "phi_left")
        period = res.summary["period"]
        t_end = res.summary["n_periods"] * period
        last = phi_l[(t > t_end - period) & (t <= t_end)]
        prev = phi_l[(t > t_end - 2 * period) & (t <= t_end - period)]
        n = min(last.size, prev.size)
        rms_diff = np.sqrt(np.mean((last[:n] - prev[:n]) ** 2))
        rms = np.sqrt(np.mean(last[:n] ** 2))
        assert rms_diff / rms < 1e-3


class TestTemperatureEffect:
    def test_inlet_temperature(self):
        for rate in (1e-3, 1e-4):
            res = run_temperature_effect(rate, dx=2000.0, t_end=600.0,
                                         cadence=300.0)
            assert res.summary["inlet_temperature"] == pytest.approx(328.706)

    def test_rates_share_time_step(self):
        a = run_temperature_effect(1e-3, dx=2000.0, t_end=600.0,
                                   cadence=300.0)
        b = run_temperature_effect(1e-4, dx=2000.0, t_end=600.0,
                                   cadence=300.0)
        assert a.summary["dt"] == b.summary["dt"]


class TestFiveNodeNetwork:
    def test_schedules_match_benchmark_knots(self):
        net = five_node_network(CngaGas(), dx_target=2000.0)
        s = {"c1": edge(net, "1").inlet_ratio,
             "c2": edge(net, "2").inlet_ratio,
             "c3": edge(net, "5").inlet_ratio,
             "d3": node(net, "3").bc.withdrawal,
             "d5": node(net, "5").bc.withdrawal}
        c2, d5 = 1.1128863, 150.0
        for t, v in [(0.0, c2), (21600.0, c2), (25200.0, 1.4 * c2),
                     (64800.0, 1.4 * c2), (68400.0, c2), (86400.0, c2)]:
            assert s["c2"](t) == pytest.approx(v, rel=1e-12)
        for t, v in [(0.0, d5), (12000.0, d5), (15600.0, 1.2 * d5),
                     (48000.0, 1.2 * d5), (51600.0, d5), (86400.0, d5)]:
            assert s["d5"](t) == pytest.approx(v, rel=1e-12)
        assert s["c2"](25200.0) == pytest.approx(1.4 * 1.1128863)
        assert s["d5"](0.0) == 150.0
        # cosine-shaped schedules return to their base at period ends
        assert s["c1"](0.0) == pytest.approx(1.5290113, rel=1e-12)
        assert s["c1"](86400.0) == pytest.approx(1.5290113, rel=1e-12)
        assert s["c3"](0.0) == pytest.approx(1.2242249, rel=1e-12)
        assert s["d3"](0.0) == pytest.approx(150.0, rel=1e-12)
        # ranges stay within the compressor/demand envelopes
        tt = np.linspace(0, 86400, 1441)
        c1 = np.array([s["c1"](t) for t in tt])
        assert c1.min() >= 0.8 * 1.5290113 - 1e-9 and c1.min() >= 1.0
        assert c1.min() == pytest.approx(0.8 * 1.5290113, rel=1e-6)
        c3 = np.array([s["c3"](t) for t in tt])
        assert c3.max() <= 1.5 * 1.2242249 + 1e-9

    def test_boost_cross_check(self):
        net = five_node_network(CngaGas(), dx_target=2000.0)
        slack_pressure = node(net, "1").bc.pressure(0.0)
        assert slack_pressure * 1.5290113 == pytest.approx(5.2710811e6,
                                                           rel=1e-6)

    def test_short_run_summary_and_cadence(self):
        res = run_five_node_network(eos_kind="cnga", dx_target=2000.0,
                                    dt=None, t_end=600.0, cadence=60.0)
        t, p5 = series(res.store, "node", "5", "pressure")
        assert t.size == 11                 # samples at 0, 60, ..., 600
        assert res.summary["steps"] > 0
        rel = res.summary["max_ledger_discrepancy_kg"] / \
            res.summary["total_mass_kg"]
        assert rel < 1e-12
        # ledger recomputation from the emitted series reproduces the
        # in-process discrepancy
        tm, mass = series(res.store, "network", "total", "mass")
        _, cum = series(res.store, "network", "total", "cumulative_inflow")
        _, disc = series(res.store, "network", "total", "discrepancy")
        re_disc = mass - mass[0] - cum
        assert re_disc == pytest.approx(disc, abs=1e-12 * mass[0])

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="a pressure end lands its boundary cell, dx/2 "
                       "inside the pipe, on the node's pressure: first "
                       "order in dx (ROADMAP direction 11)")
    def test_nodal_pressures_converge_at_second_order(self):
        # after 1 h at dt = dx/500, the largest nodal-pressure difference
        # between consecutive grids should shrink 4x per halving of dx
        final = []
        for dx in (2000.0, 1000.0, 500.0):
            res = run_five_node_network(eos_kind="cnga", dx_target=dx,
                                        dt=dx / 500, t_end=3600.0,
                                        cadence=3600.0)
            final.append([series(res.store, "node", i, "pressure")[1][-1]
                          for i in "12345"])
        diffs = np.abs(np.diff(final, axis=0)).max(axis=1)
        assert diffs[0] / diffs[1] >= 3.5

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the discrete pipe spans its end cells' "
                       "centres, dx shorter than the pipe, so a steady "
                       "start drifts toward that shorter pipe's steady "
                       "state (ROADMAP direction 11)")
    def test_a_steady_start_with_frozen_schedules_stays_steady(self):
        # every schedule frozen at its t = 0 value; after 600 s at dx 250
        # (dt = dx/500) each node should still sit at its steady pressure
        net = five_node_network(CngaGas(), dx_target=250.0)
        for e in net.edges:
            e.inlet_ratio = e.inlet_ratio and Constant(e.inlet_ratio(0.0))
            e.outlet_ratio = e.outlet_ratio and Constant(e.outlet_ratio(0.0))
        net = Network([Node(n.id, SlackBC(Constant(n.bc.pressure(0.0)))
                            if n.is_slack else
                            DemandBC(Constant(n.bc.withdrawal(0.0))))
                       for n in net.nodes], net.edges, net.eos)
        steady = solve_steady_state(net, t0=0.0)
        steady.populate(net, t0=0.0)
        for _ in range(1200):
            network_step(net, 0.5)
        p, _ = node_arrays(net, *np.empty((2, len(net.nodes))))
        drift = np.abs(p - [steady.node_pressures[n.id] for n in net.nodes])
        assert drift.max() < 100.0    # today ~1.96 kPa

    def test_empty_run_has_single_sample(self):
        net = five_node_network(CngaGas(), dx_target=2000.0)
        sol = solve_steady_state(net)
        sol.populate(net)
        res = simulate_network(net, dt=1.0, t_end=0.0, cadence=60.0)
        assert res.summary["steps"] == 0
        t, _ = series(res.store, "node", "1", "pressure")
        assert t.size == 1


def test_mass_ledger_discrepancy_definition():
    led = MassLedger()
    led.sample(0.0, 100.0, 0.0, 100.0)
    led.sample(1.0, 105.0, 5.0, 100.0)
    led.sample(2.0, 104.0, 3.0, 100.0)
    assert led.discrepancy == [0.0, 0.0, 1.0]
    assert led.max_abs_discrepancy() == 1.0


def _short_pipe_run(**kwargs):
    return run_temperature_effect(1e-3, dx=5000.0, t_end=600.0, **kwargs)


def _short_network_run():
    return run_five_node_network(eos_kind="cnga", dx_target=4000.0, dt=None,
                                 t_end=120.0, cadence=60.0)


def _counted(monkeypatch, owner, attr, shift=None):
    """Shadow ``owner.attr`` with a shim that counts its calls and, given
    ``shift``, adds it to every result."""
    calls = []
    fn = getattr(owner, attr)

    def shim(*args, **kwargs):
        calls.append(None)
        out = fn(*args, **kwargs)
        return out if shift is None else out + shift
    monkeypatch.setattr(owner, attr, shim)
    return calls


@pytest.mark.parametrize("owner, attr, run", [
    (pipe_ops, "boundary_throughput", _short_pipe_run),
    (Network, "boundary_inflow", _short_network_run),
], ids=["pipe", "network"])
def test_per_step_ledger_identity_fires(monkeypatch, owner, attr, run):
    # a misreported inflow of 1 kg/s breaks the identity on the first step
    _counted(monkeypatch, owner, attr, shift=1.0)
    with pytest.raises(SimulationError,
                       match="mass ledger identity broken at step 1 "):
        run()


def test_mass_added_after_a_step_breaks_the_network_ledger(monkeypatch):
    # the per-step check reads the flat state, not the sampled pipe sums
    step = experiments.network_step

    def leaky(net, dt):
        step(net, dt)
        net.rho[0] += 1.0
    monkeypatch.setattr(experiments, "network_step", leaky)
    with pytest.raises(SimulationError,
                       match="mass ledger identity broken at step 1 "):
        _short_network_run()


def test_step_clock_sees_every_pipe_step(monkeypatch):
    # the benchmark clocks single-pipe steps by shadowing pipe.step
    calls = _counted(monkeypatch, pipe_ops, "step")
    res = _short_pipe_run(dt=10.0, cadence=20.0)
    assert res.summary["steps"] == 60
    assert len(calls) == 60
    t, _ = series(res.store, "pipe", "main", "p_left")
    assert t.size == 31


def _streamed_network_run(path):
    with SeriesWriter(path) as writer:
        net = five_node_network(CngaGas(), dx_target=4000.0)
        solve_steady_state(net).populate(net)
        simulate_network(net, net.cfl_max_dt(0.9), 120.0, 60.0, writer)


@pytest.mark.parametrize("fields, owner, step, run", [
    ("PIPE_SAMPLE_FIELDS", pipe_ops, "step", lambda path: _short_pipe_run()),
    ("PIPE_FIELDS", experiments, "network_step", _streamed_network_run),
], ids=["pipe", "streamed-network"])
def test_sample_longer_than_its_keys_is_refused(monkeypatch, tmp_path,
                                                fields, owner, step, run):
    monkeypatch.setattr(experiments, fields,
                        getattr(experiments, fields)[:-1])
    steps = _counted(monkeypatch, owner, step)
    path = tmp_path / "run.csv"
    with pytest.raises(ValueError):
        run(path)
    # refused at the first sample, which precedes the first step
    assert steps == []
    assert not path.exists()


def test_step_clock_sees_every_network_step(monkeypatch):
    # the benchmark clocks network steps by shadowing the runner's
    # network_step name
    calls = _counted(monkeypatch, experiments, "network_step")
    res = _short_network_run()
    assert res.summary["steps"] > 0
    assert len(calls) == res.summary["steps"]


def _mesh_small():
    # constant slack pressure and boost ratios, so the step plan folds
    # their nodal terms, and harmonic withdrawals
    cfg = parse_config(json.loads((Path(__file__).with_name("data") /
                                   "mesh_small.json").read_text()))
    return build_network(cfg, cfg.simulation.dx_target)


@pytest.mark.parametrize("build", [
    lambda: five_node_network(CngaGas(), dx_target=4000.0), _mesh_small],
    ids=["five_node", "mesh_small"])
def test_streamed_run_writes_the_unstreamed_rows(tmp_path, build):
    # a sample vector shared between samples would show in the whole
    # store's earlier rows
    def run(writer=None):
        net = build()
        solve_steady_state(net).populate(net)
        return simulate_network(net, net.cfl_max_dt(0.9), 300.0, 60.0,
                                writer=writer)

    with SeriesWriter(tmp_path / "streamed.csv") as writer:
        streamed = run(writer)
    whole = run()
    write_series(whole.store.rows, tmp_path / "whole.csv")
    assert (tmp_path / "streamed.csv").read_bytes() == \
        (tmp_path / "whole.csv").read_bytes()
    # earlier samples are on disk only; the store keeps the last one
    assert {row[0] for row in streamed.store.rows} == \
        {whole.store.rows[-1][0]}
    assert streamed.store.rows == [row for row in whole.store.rows
                                   if row[0] == whole.store.rows[-1][0]]
    assert streamed.ledger.times == whole.ledger.times


def test_csv_quotes_ids_as_the_csv_module_does(tmp_path):
    # ids holding a comma, a double quote and a newline
    ids = ('in,"let"\nA', 'out "B",\n', 'pipe,\n"1"')

    def run(writer=None):
        eos = CngaGas()
        grid = PipeGrid(10e3, 10)
        net = Network([Node(ids[0], SlackBC(Constant(6.5e6))),
                       Node(ids[1], DemandBC(Constant(50.0)))],
                      [PipeEdge(ids[2], ids[0], ids[1],
                                PipeGeometry(10e3, 0.9144, 0.01), grid)], eos)
        set_state(net, net.edges[0],
                  uniform_state(grid, eos.density(6.5e6), 100.0))
        return simulate_network(net, 1.0, 20.0, 5.0, writer)

    streamed = tmp_path / "run.csv"
    with SeriesWriter(streamed) as writer:
        run(writer)
    whole = run()
    with open(tmp_path / "plain.csv", "w", newline="") as fh:
        plain = csv.writer(fh)
        plain.writerow(CSV_HEADER)
        for t, entity, entity_id, fieldname, value in whole.store.rows:
            plain.writerow((repr(t), entity, entity_id, fieldname,
                            repr(value)))
    write_series(whole.store.rows, tmp_path / "whole.csv")
    for written in (streamed, tmp_path / "whole.csv"):
        assert written.read_bytes() == (tmp_path / "plain.csv").read_bytes()
    assert {row[2] for row in whole.store.rows} >= set(ids)
    assert read_series(streamed) == whole.store.rows
