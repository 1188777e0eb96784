"""Property tests of the network step on generated trees and rings.

Each example builds a quiescent network at uniform pressure, with mixed
grids and frictions and constant or harmonic withdrawals, and runs it 50
steps through ``simulate_network`` (which checks the mass ledger every
step), sampling every step.  A third run streams its CSV, which must be
the bytes of the unstreamed run's rows written whole.

Kirchhoff balance is checked at every demand junction after every step to
1e-12 of the largest term of the node's discrete balance: the ends' mass
flows ``S |phi|``, as in acceptance criterion 7, and their boundary cells'
storage rates ``S dx rho / dt``.  The balance is solved through those
storage terms, so its roundoff scales with them: with no flow at all, a
three-node ring at ``S dx rho / dt`` of ~1.5e4 kg/s balances to ~5e-12
kg/s, above criterion 7's floor of 1e-12 kg/s.
"""

import itertools
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from gasnetsim.eos import CngaGas
from gasnetsim.experiments import simulate_network
from gasnetsim.network import DemandBC, Network, Node, PipeEdge, SlackBC
from gasnetsim.output import SeriesWriter, write_series
from gasnetsim.pipe import PipeGeometry, PipeGrid, uniform_state
from gasnetsim.profiles import Constant, Harmonic

P0 = 5.0e6
STEPS = 50


@st.composite
def networks(draw):
    """``(nodes, pipes)`` specs of a tree or ring with 3 to 8 nodes."""
    n = draw(st.integers(3, 8))
    if draw(st.booleans()):
        links = [(i, i + 1) for i in range(n - 1)] + [(n - 1, 0)]
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
                                   draw(st.floats(1e-3, 0.1)))))
    pipes = []
    for k, (a, b) in enumerate(links):
        if draw(st.booleans()):
            a, b = b, a
        pipes.append((f"p{k}", str(a), str(b),
                      draw(st.floats(2e3, 20e3)), draw(st.floats(0.4, 1.0)),
                      draw(st.floats(0.0, 0.02)), draw(st.integers(2, 12))))
    return nodes, pipes


def build(spec):
    nodes, pipes = spec
    eos = CngaGas()

    def bc(profile):
        if profile is None:
            return SlackBC(Constant(P0))
        if profile[0] == "constant":
            return DemandBC(Constant(profile[1]))
        return DemandBC(Harmonic(offset=profile[1], amplitude=profile[2],
                                 omega=profile[3]))
    net = Network([Node(nid, bc(profile)) for nid, profile in nodes],
                  [PipeEdge(pid, a, b, PipeGeometry(length, diameter, f),
                            PipeGrid(length, n_cells))
                   for pid, a, b, length, diameter, f, n_cells in pipes],
                  eos)
    for e in net.edges:
        e.state = uniform_state(e.grid, eos.density(P0))
    return net


def run(spec, writer=None):
    net = build(spec)
    dt = 0.8 * net.cfl_max_dt()
    return net, dt, simulate_network(net, dt, STEPS * dt, dt, writer)


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
            # (S phi, boundary-cell pressure, pipe) at each end of the
            # node: outlet flows arrive, inlet flows leave
            ends = [(values[t, "pipe", e.id, "mflow_out"],
                     values[t, "pipe", e.id, "p_out"], e)
                    for e in net.edges if e.to_node == node.id] + \
                [(-values[t, "pipe", e.id, "mflow_in"],
                  values[t, "pipe", e.id, "p_in"], e)
                 for e in net.edges if e.from_node == node.id]
            residual = sum(flow for flow, _, _ in ends) - \
                node.bc.withdrawal(t - 0.5 * dt)
            scale = max(max(abs(flow), e.geometry.area * e.grid.dx *
                            net.eos.density(p) / dt) for flow, p, e in ends)
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
