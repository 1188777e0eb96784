"""Readers and scalar references that only the tests need."""

import csv

import numpy as np

from gasnetsim.network import node_arrays
from gasnetsim.output import CSV_HEADER


def series(store, entity, entity_id, fieldname):
    """``(t, values)`` arrays of one key of a run's store rows."""
    pts = np.array([(t, v) for t, *key, v in store.rows
                    if key == [entity, entity_id, fieldname]]).reshape(-1, 2)
    return pts[:, 0], pts[:, 1]


def read_series(path):
    """Load a series CSV back into (t, entity, id, field, value) rows."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader))
        if header != CSV_HEADER:
            raise ValueError(f"unexpected CSV header {header}")
        return [(float(t), e, i, f, float(v)) for t, e, i, f, v in reader]


def node(net, node_id):
    return next(n for n in net.nodes if n.id == node_id)


def edge(net, edge_id):
    return next(e for e in net.edges if e.id == edge_id)


def end_gas(end):
    """Gas of a pipe end's boundary cell."""
    return end.edge.gas[end.cell]


def end_area(end):
    """Cross-section of a pipe end's pipe."""
    return end.edge.geometry.area


def end_dx(end):
    """Cell size of a pipe end's pipe."""
    return end.edge.grid.dx


def node_records(net) -> dict:
    """``(pressure, net_inflow)`` of every node at the current network time,
    keyed by node id in node order; see ``network.node_arrays``."""
    p, netflow = node_arrays(net, *np.empty((2, len(net.nodes))))
    return dict(zip([n.id for n in net.nodes],
                    zip(p.tolist(), netflow.tolist())))


def flow_balance_residual(sgns, areas, phis, q: float) -> float:
    """Kirchhoff mass-balance residual sum_k sgn_k S_k phi_k - q in kg/s."""
    return float(np.dot(np.asarray(sgns, dtype=float),
                        np.asarray(areas, dtype=float) *
                        np.asarray(phis, dtype=float))) - q


def compressibility(gas, p):
    """``Z`` in ``p = Z R T rho`` of a CNGA gas at pressure ``p``."""
    return 1.0 / (gas.b1 + gas.b2 * p)


def set_state(net, e, state):
    """Write ``state``'s densities and fluxes into pipe ``e`` of ``net``."""
    net.write_state(e.id, state.rho, state.phi)
