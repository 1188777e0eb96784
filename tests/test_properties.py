"""Property tests of the network step on generated trees and rings.

Each example builds a quiescent network at uniform pressure, with mixed
grids and frictions, constant or harmonic withdrawals, compressors at one
end of some pipes with constant or harmonic ratios, and either the uniform
CNGA gas or a non-isothermal one with per-cell coefficients.  It runs 50
steps through ``simulate_network`` (which checks the mass ledger every
step), sampling every step.  A third run streams its CSV, which must be
the bytes of the unstreamed run's rows written whole.  One more step must
give every pipe's interior faces exactly as ``pipe.interior_flux_update``
does.

Kirchhoff balance is checked at every demand junction after every step to
1e-12 of the largest term of the node's discrete balance: the ends' mass
flows ``S |phi|``, as in acceptance criterion 7, and their boundary cells'
storage rates ``S dx rho / dt``.  The balance is solved through those
storage terms, so its roundoff scales with them: with no flow at all, a
three-node ring at ``S dx rho / dt`` of ~1.5e4 kg/s balances to ~5e-12
kg/s, above criterion 7's floor of 1e-12 kg/s.

On trees, rings and meshes (rings with a chord), every pipe's state is
the one the network was built with, views of its flat arrays, through a
whole run.

Two symmetries of the step hold bit for bit on trees, rings and meshes
from a perturbed state, over more steps than one nodal table serves
(metamorphic relations; Chen et al., ACM Computing Surveys 51(1), 2018):
reversing pipes (swapping their nodes and compressor sides, and mirroring
their states and gases) mirrors their states and keeps every nodal value;
doubling lengths, ``dx``, ``dt`` and the profiles' phases and periods, and
halving frictions, ``omega``s and the gas's decay rate, keeps every state
and nodal value and doubles every pipe's mass.
"""

import itertools
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gasnetsim.eos import CngaGas, NonIsothermalCnga, TemperatureProfile
from gasnetsim.experiments import simulate_network
from gasnetsim.network import (DemandBC, Network, Node, PipeEdge, SlackBC,
                               network_step, node_arrays)
from gasnetsim.output import SeriesWriter, write_series
from gasnetsim.pipe import (PipeGeometry, PipeGrid, PipeState,
                            interior_flux_update)
from gasnetsim.profiles import Constant, Harmonic
from support import set_state

P0 = 5.0e6
STEPS = 50
RELATION_STEPS = 260    # past the first nodal table, of 256 steps
# a harmonic's (phase, period), drawn for the timed specs
TIMING = (st.floats(0.0, 100.0), st.none() | st.floats(20.0, 400.0))


def ratios(timed=False):
    """A compressor's boost ratio: ``("constant", value)`` or
    ``("harmonic", offset, amplitude, omega)``, then with ``timed`` a phase
    and a period (or None)."""
    return st.one_of(
        st.tuples(st.just("constant"), st.floats(1.0, 1.3)),
        st.tuples(st.just("harmonic"), st.floats(1.05, 1.3),
                  st.floats(0, 0.05), st.floats(1e-3, 0.1),
                  *(TIMING if timed else ())))


@st.composite
def networks(draw, meshes=False, timed=False):
    """``(nodes, pipes, gas)`` specs of a tree or ring with 3 to 8 nodes,
    and with ``meshes`` also of a ring of 4 or more with a chord; each pipe
    may carry a compressor at its inlet or its outlet, and the gas is None
    (uniform) or a non-isothermal ``(jump, decay_rate)``.  With ``timed``
    every harmonic profile has a phase and a period (or None)."""
    n = draw(st.integers(3, 8))
    if draw(st.booleans()):
        links = [(i, i + 1) for i in range(n - 1)] + [(n - 1, 0)]
        if meshes and n > 3 and draw(st.booleans()):
            links.append((0, draw(st.integers(2, n - 2))))
    else:
        links = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    slack = draw(st.integers(0, n - 1))
    nodes = []
    for i in range(n):
        if i == slack:
            nodes.append((str(i), None))
        elif draw(st.booleans()):
            nodes.append((str(i), ("constant", draw(st.floats(-20, 40)))))
        else:
            nodes.append((str(i), ("harmonic", draw(st.floats(0, 30)),
                                   draw(st.floats(0, 15)),
                                   draw(st.floats(1e-3, 0.1)),
                                   *(draw(s) for s in TIMING if timed))))
    pipes = []
    for k, (a, b) in enumerate(links):
        if draw(st.booleans()):
            a, b = b, a
        pipes.append((f"p{k}", str(a), str(b),
                      draw(st.floats(2e3, 20e3)), draw(st.floats(0.4, 1.0)),
                      draw(st.floats(0.0, 0.02)), draw(st.integers(2, 12)),
                      draw(st.sampled_from((None, "inlet", "outlet"))),
                      draw(ratios(timed))))
    gas = draw(st.none() | st.tuples(st.floats(0.0, 40.0),
                                     st.floats(1e-4, 1e-3)))
    return nodes, pipes, gas


def profile(spec):
    if spec[0] == "constant":
        return Constant(spec[1])
    offset, amplitude, omega, *timing = spec[1:]
    phase, period = timing or (0.0, None)
    return Harmonic(offset=offset, amplitude=amplitude, omega=omega,
                    phase=phase, period=period)


def network(spec, eos=None):
    """The network of ``spec``, on its own gas unless ``eos`` is given."""
    nodes, pipes, gas = spec
    eos = eos or (CngaGas() if gas is None else NonIsothermalCnga(
        TemperatureProfile(ambient=288.706, jump=gas[0], decay_rate=gas[1])))

    def bc(withdrawal):
        if withdrawal is None:
            return SlackBC(Constant(P0))
        return DemandBC(profile(withdrawal))
    net = Network([Node(nid, bc(withdrawal)) for nid, withdrawal in nodes],
                  [PipeEdge(pid, a, b, PipeGeometry(length, diameter, f),
                            PipeGrid(length, n_cells),
                            **({f"{side}_ratio": profile(ratio)} if side
                               else {}))
                   for pid, a, b, length, diameter, f, n_cells, side, ratio
                   in pipes], eos)
    return net


def build(spec):
    net = network(spec)
    for e in net.edges:
        n = e.grid.n_cells
        set_state(net, e, PipeState(np.full(n, e.gas.density(P0)),
                                    np.zeros(n + 1)))
    return net


def run(spec, writer=None):
    net = build(spec)
    dt = 0.8 * net.cfl_max_dt()
    return net, dt, simulate_network(net, dt, STEPS * dt, dt, writer)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(networks())
def test_generated_networks_flat_mass_is_the_sum_of_pipe_masses(spec):
    net = build(spec)
    dt = 0.8 * net.cfl_max_dt()
    for _ in range(STEPS):
        network_step(net, dt)
        pipes = sum(net.pipe_masses())
        assert abs(net._flat_mass() - pipes) <= 1e-14 * pipes


@settings(derandomize=True, max_examples=25, deadline=None)
@given(networks())
def test_generated_networks_keep_kirchhoff_and_rerun_bitwise(spec):
    net, dt, result = run(spec)
    assert result.summary["steps"] == STEPS
    values = {}
    for t, entity, eid, field, value in result.store.rows:
        values[t, entity, eid, field] = value
    times = sorted({row[0] for row in result.store.rows})
    assert len(times) == STEPS + 1
    key_sequences = {tuple(row[1:4] for row in sample) for _, sample in
                     itertools.groupby(result.store.rows, lambda r: r[0])}
    assert len(key_sequences) == 1
    for t in times[1:]:
        for node in net.nodes:
            if node.is_slack:
                continue
            # (S phi, boundary-cell pressure, pipe, boundary-cell gas) at
            # each end of the node: outlet flows arrive, inlet flows leave
            ends = [(values[t, "pipe", e.id, "mflow_out"],
                     values[t, "pipe", e.id, "p_out"], e, e.gas[-1])
                    for e in net.edges if e.to_node == node.id] + \
                [(-values[t, "pipe", e.id, "mflow_in"],
                  values[t, "pipe", e.id, "p_in"], e, e.gas[0])
                 for e in net.edges if e.from_node == node.id]
            residual = sum(flow for flow, *_ in ends) - \
                node.bc.withdrawal(t - 0.5 * dt)
            scale = max(max(abs(flow), e.geometry.area * e.grid.dx *
                            gas.density(p) / dt) for flow, p, e, gas in ends)
            assert abs(residual) <= 1e-12 * scale, (node.id, t, residual)

    rerun_net, _, rerun = run(spec)
    assert rerun.store.rows == result.store.rows
    for e, f in zip(net.edges, rerun_net.edges):
        assert np.array_equal(e.state.rho, f.state.rho)
        assert np.array_equal(e.state.phi, f.state.phi)

    with tempfile.TemporaryDirectory() as tmp:
        streamed, whole = Path(tmp, "streamed.csv"), Path(tmp, "whole.csv")
        with SeriesWriter(streamed) as writer:
            run(spec, writer)
        write_series(result.store.rows, whole)
        assert streamed.read_bytes() == whole.read_bytes()

    before = [PipeState(e.state.rho.copy(), e.state.phi.copy())
              for e in net.edges]
    network_step(net, dt)
    for e, state in zip(net.edges, before):
        interior_flux_update(state, e.geometry, e.grid, e.gas, dt)
        assert np.array_equal(e.state.phi[1:-1], state.phi[1:-1]), e.id


@settings(derandomize=True, max_examples=25, deadline=None)
@given(networks(meshes=True))
def test_generated_networks_step_the_states_they_were_built_with(spec):
    net = build(spec)
    states = [e.state for e in net.edges]
    dt = 0.8 * net.cfl_max_dt()
    result = simulate_network(net, dt, STEPS * dt, dt)
    assert result.summary["steps"] == STEPS
    start = net._flat.start
    for e, state, a, b in zip(net.edges, states, start, start[1:]):
        assert e.state is state
        assert state.rho.base is net.rho and state.phi.base is net.phi
        assert np.array_equal(state.rho, net.rho[a:b - 1])
        assert np.array_equal(state.phi, net.phi[a:b])


class _Gases:
    """An EoS that hands out the given gases, one per ``at`` call: a
    network binds one to each pipe, in edge order."""

    def __init__(self, gases):
        self._gases = iter(gases)

    def at(self, x):
        return next(self._gases)


def reversed_pipes(spec, flipped):
    """``spec`` with the pipes at the positions ``flipped`` reversed: their
    nodes swapped, and a compressor at the other end."""
    nodes, pipes, gas = spec
    side = {None: None, "inlet": "outlet", "outlet": "inlet"}

    def flip(pid, a, b, length, diameter, f, n_cells, at, ratio):
        return pid, b, a, length, diameter, f, n_cells, side[at], ratio
    return nodes, [flip(*p) if k in flipped else p
                   for k, p in enumerate(pipes)], gas


def scaled(spec):
    """``spec`` at twice the length and time scales: lengths, phases and
    periods doubled; frictions, ``omega``s and the decay rate halved."""
    nodes, pipes, gas = spec

    def stretch(profile):
        if profile is None or profile[0] == "constant":
            return profile
        kind, offset, amplitude, omega, phase, period = profile
        return (kind, offset, amplitude, omega / 2.0, 2.0 * phase,
                None if period is None else 2.0 * period)
    return ([(nid, stretch(w)) for nid, w in nodes],
            [(pid, a, b, 2.0 * length, diameter, f / 2.0, n_cells, side,
              stretch(ratio))
             for pid, a, b, length, diameter, f, n_cells, side, ratio
             in pipes],
            gas and (gas[0], gas[1] / 2.0))


def perturbed_states(net, seed):
    """``(rho, phi)`` of every pipe: its density at ``P0`` scaled by up to
    2 % per cell, and fluxes from -50 to 150 kg/(m2 s)."""
    rng = np.random.default_rng(seed)
    return [(e.gas.density(P0) * rng.uniform(0.98, 1.02, e.grid.n_cells),
             rng.uniform(-50.0, 150.0, e.grid.n_cells + 1))
            for e in net.edges]


def write(net, states):
    for e, (rho, phi) in zip(net.edges, states):
        set_state(net, e, PipeState(rho, phi))


def march(net, dt):
    """``RELATION_STEPS`` steps; the nodes' pressures and net inflows."""
    for _ in range(RELATION_STEPS):
        network_step(net, dt)
    return node_arrays(net, *np.empty((2, len(net.nodes))))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(networks(meshes=True, timed=True), st.data())
def test_reversed_and_rescaled_networks_step_bitwise(spec, data):
    # one run of the network serves both relations
    flipped = data.draw(st.sets(st.integers(0, len(spec[1]) - 1),
                                min_size=1))
    net = network(spec)
    mirror = network(reversed_pipes(spec, flipped), _Gases(
        e.gas[::-1] if k in flipped else e.gas
        for k, e in enumerate(net.edges)))
    wide = network(scaled(spec))
    states = perturbed_states(net, data.draw(st.integers(0, 2 ** 32 - 1)))
    write(net, states)
    write(mirror, [(rho[::-1], -phi[::-1]) if k in flipped else (rho, phi)
                   for k, (rho, phi) in enumerate(states)])
    write(wide, states)
    dt = 0.8 * net.cfl_max_dt()
    nodal = march(net, dt)
    masses = net.pipe_masses()

    # reversal: mirrored states of the reversed pipes, every other value
    # kept; a reversed pipe sums its cells in the other order
    for a, b in zip(nodal, march(mirror, dt)):
        assert np.array_equal(a, b)
    for k, (e, f) in enumerate(zip(net.edges, mirror.edges)):
        rho, phi = f.state.rho, f.state.phi
        if k in flipped:
            rho, phi = rho[::-1], -phi[::-1]
        assert np.array_equal(e.state.rho, rho), e.id
        assert np.array_equal(e.state.phi, phi), e.id
    assert mirror.pipe_masses() == pytest.approx(masses, rel=1e-14)

    # dyadic scaling: every state and nodal value kept, masses doubled
    for a, b in zip(nodal, march(wide, 2.0 * dt)):
        assert np.array_equal(a, b)
    assert wide.time == 2.0 * net.time
    assert np.array_equal(net.rho, wide.rho)
    assert np.array_equal(net.phi, wide.phi)
    assert wide.pipe_masses() == [2.0 * m for m in masses]
