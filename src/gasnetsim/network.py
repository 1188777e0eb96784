"""Metric-graph assembly of pipes and the three-phase network time step.

Each directed edge carries its own staggered grid and state; nodes couple
the adjoining pipe ends through a shared nodal pressure and optional
compressor boost ratios.  Flow from a pipe's from-node toward its to-node
is positive.

A network step runs three global phases: interior flux updates on every
pipe, nodal solves assigning every boundary-face flux, then density updates
on every pipe.  Per-node sums always run in fixed incidence order, so
results are deterministic.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import pipe as pipe_ops
from .eos import CngaGas
from .errors import ConfigError, InfeasibleNodeError, SimulationError
from .pipe import LEFT, RIGHT, PipeGeometry, PipeGrid, PipeState
from .profiles import Constant, TimeProfile

UNIT_RATIO = Constant(1.0)
MAX_CELLS = 10 ** 7    # per pipe


@dataclass
class SlackBC:
    """Prescribed nodal pressure; network injection there is free."""

    pressure: TimeProfile


@dataclass
class DemandBC:
    """Prescribed mass-flow withdrawal (kg/s, positive out of the network)."""

    withdrawal: TimeProfile


@dataclass
class Node:
    id: str
    bc: SlackBC | DemandBC

    @property
    def is_slack(self) -> bool:
        return isinstance(self.bc, SlackBC)


@dataclass
class PipeEdge:
    id: str
    from_node: str
    to_node: str
    geometry: PipeGeometry
    grid: PipeGrid
    state: PipeState | None = None
    inlet_ratio: TimeProfile | None = None    # compressor node -> pipe inlet
    outlet_ratio: TimeProfile | None = None   # compressor node -> pipe outlet
    gas: CngaGas | None = field(default=None, init=False, repr=False)


@dataclass
class _End:
    """One (edge, node) incidence with precomputed indexing."""

    edge: PipeEdge
    sgn: int            # +1: flow on this edge arrives at the node
    side: str           # which pipe end touches the node
    cell: int           # boundary cell index into rho
    face: int           # boundary face index into phi
    inner: int          # face adjacent to the boundary face
    gas: CngaGas        # gas of the boundary cell
    ratio: TimeProfile = UNIT_RATIO

    @property
    def area(self) -> float:
        return self.edge.geometry.area

    @property
    def dx(self) -> float:
        return self.edge.grid.dx


def graph_violations(nodes, pipes) -> list[str]:
    """Every structural fault of a pipe graph, as readable violations.

    ``nodes`` holds ``(id, is_slack)`` pairs and ``pipes`` holds
    ``(id, from_node, to_node)`` triples.  Connectivity is checked only when
    every other check passes, since it is meaningless for a malformed graph.
    """
    problems = []
    node_ids = [nid for nid, _ in nodes]
    for kind, ids in (("node", node_ids), ("pipe", [p[0] for p in pipes])):
        problems += [f"duplicate {kind} id {i!r}"
                     for i, count in Counter(ids).items() if count > 1]
    known = set(node_ids)
    for pid, frm, to in pipes:
        for end, nid in (("from", frm), ("to", to)):
            if nid not in known:
                problems.append(f"pipe {pid!r}: {end} node {nid!r} "
                                f"does not exist")
        if frm == to:
            problems.append(f"pipe {pid!r} is a self-loop")
    if not any(is_slack for _, is_slack in nodes):
        problems.append("at least one slack (pressure) node is required")
    if problems or not nodes:
        return problems
    adj = {nid: set() for nid in known}
    for _, frm, to in pipes:
        adj[frm].add(to)
        adj[to].add(frm)
    reach, frontier = {node_ids[0]}, [node_ids[0]]
    while frontier:
        nxt = adj[frontier.pop()] - reach
        reach |= nxt
        frontier.extend(nxt)
    if reach != known:
        cut_off = [nid for nid in node_ids if nid not in reach]
        problems.append(f"graph is not connected: nodes {cut_off} are "
                        f"unreachable from node {node_ids[0]!r}")
    return problems


class Network:
    """Validated pipe graph with one shared EoS model, bound to every pipe's
    cells as ``edge.gas``."""

    def __init__(self, nodes, edges, eos, time: float = 0.0):
        self.nodes = list(nodes)
        self.edges = list(edges)
        self.eos = eos
        self.time = time
        self.step_index = 0
        problems = graph_violations([(n.id, n.is_slack) for n in self.nodes],
                                    [(e.id, e.from_node, e.to_node)
                                     for e in self.edges])
        if problems:
            raise ConfigError(problems)
        self.incidence = {n.id: [] for n in self.nodes}
        for e in self.edges:
            e.gas = eos.at(e.grid.cell_centers)
            self.incidence[e.from_node].append(_End(
                edge=e, sgn=-1, side=LEFT, cell=0, face=0, inner=1,
                gas=e.gas[0], ratio=e.inlet_ratio or UNIT_RATIO))
            self.incidence[e.to_node].append(_End(
                edge=e, sgn=+1, side=RIGHT, cell=-1, face=-1, inner=-2,
                gas=e.gas[-1], ratio=e.outlet_ratio or UNIT_RATIO))
        self._dual_compressor_edges = [e for e in self.edges
                                       if e.inlet_ratio and e.outlet_ratio]

    def node(self, node_id: str) -> Node:
        for n in self.nodes:
            if n.id == node_id:
                return n
        raise KeyError(node_id)

    def edge(self, edge_id: str) -> PipeEdge:
        for e in self.edges:
            if e.id == edge_id:
                return e
        raise KeyError(edge_id)

    def require_states(self):
        missing = [e.id for e in self.edges if e.state is None]
        if missing:
            raise SimulationError(f"pipes without initial state: {missing}")

    def total_mass(self) -> float:
        return sum(pipe_ops.total_mass(e.state, e.geometry, e.grid)
                   for e in self.edges)

    def boundary_inflow(self) -> float:
        """Net mass inflow rate summed pipe-locally, S (phi_0 - phi_N)."""
        return sum(pipe_ops.boundary_throughput(e.state, e.geometry)
                   for e in self.edges)

    def cfl_max_dt(self, safety: float = 1.0) -> float:
        return min(pipe_ops.cfl_max_dt(e.state, e.grid, e.gas, safety)
                   for e in self.edges)


def nodal_pressure_solve(weights, alphas, rho_ends, polys, q, inflow,
                         node_id: str = "?") -> float:
    """Nodal pressure from the discrete mass balance of the adjoining ends.

    Solves ``sum_k w_k rho_k(alpha_k p) = sum_k w_k rho_k^n - q + inflow``
    where ``w_k = S_k dx_k / dt``, ``inflow = sum_k sgn_k S_k phi_k-`` and
    each end's density map is the quadratic ``rho(p) = u p + v p**2``.
    """
    rhs = float(np.dot(weights, rho_ends)) - q + inflow
    if rhs < 0.0:
        raise InfeasibleNodeError(node_id, f"balance rhs {rhs:g} < 0")
    a = sum(w * v * al * al for w, al, (u, v) in zip(weights, alphas, polys))
    b = sum(w * u * al for w, al, (u, v) in zip(weights, alphas, polys))
    if b <= 0.0:
        raise InfeasibleNodeError(node_id, "degenerate density map")
    return 2.0 * rhs / (b + math.sqrt(b * b + 4.0 * a * rhs))


def flow_balance_residual(sgns, areas, phis, q: float) -> float:
    """Kirchhoff mass-balance residual sum_k sgn_k S_k phi_k - q in kg/s."""
    return float(np.dot(np.asarray(sgns, dtype=float),
                        np.asarray(areas, dtype=float) *
                        np.asarray(phis, dtype=float))) - q


def _solve_demand_node(node: Node, ends, dt, t_half, t_next):
    """Phase-2 treatment of a withdrawal node; returns nodal pressure."""
    q = node.bc.withdrawal(t_half)
    if len(ends) == 1:
        # dead-end pipe: the balance pins the boundary flux directly
        end = ends[0]
        end.edge.state.phi[end.face] = end.sgn * (q / end.area)
        return None
    weights = [end.area * end.dx / dt for end in ends]
    alphas = [end.ratio(t_next) for end in ends]
    rho_ends = [float(end.edge.state.rho[end.cell]) for end in ends]
    inflow = sum(end.sgn * end.area * float(end.edge.state.phi[end.inner])
                 for end in ends)
    polys = [end.gas.density_poly() for end in ends]
    p_l = nodal_pressure_solve(weights, alphas, rho_ends, polys, q, inflow,
                               node.id)
    targets = [u * (al * p_l) + v * (al * p_l) ** 2
               for al, (u, v) in zip(alphas, polys)]
    for end, rho_t in zip(ends, targets):
        pipe_ops.boundary_flux_from_density(end.edge.state, end.edge.grid,
                                            end.side, rho_t, dt)
    return p_l


def _apply_slack_node(node: Node, ends, dt, t_next):
    p_l = node.bc.pressure(t_next)
    for end in ends:
        alpha = end.ratio(t_next)
        rho_t = end.gas.density(alpha * p_l)
        pipe_ops.boundary_flux_from_density(end.edge.state, end.edge.grid,
                                            end.side, rho_t, dt)
    return p_l


def network_step(net: Network, dt: float) -> dict:
    """Advance the whole network one step; returns per-node records.

    Each record is ``(pressure, net_inflow)`` where ``net_inflow`` is
    ``sum_k sgn_k S_k phi_k`` over the node's pipe ends: the withdrawal at
    demand nodes and the implied (negative of injection) at slack nodes.
    """
    net.require_states()
    t_half = net.time + 0.5 * dt
    t_next = net.time + dt

    for e in net._dual_compressor_edges:
        if e.inlet_ratio(t_next) > 1.0 + 1e-12 and \
                e.outlet_ratio(t_next) > 1.0 + 1e-12:
            raise SimulationError(
                f"compressors at both ends of pipe {e.id} active at t={t_next}")

    for e in net.edges:
        pipe_ops.interior_flux_update(e.state, e.geometry, e.grid, e.gas, dt,
                                      e.id)

    pressures = {}
    for node in net.nodes:
        ends = net.incidence[node.id]
        if node.is_slack:
            pressures[node.id] = _apply_slack_node(node, ends, dt, t_next)
        else:
            pressures[node.id] = _solve_demand_node(node, ends, dt, t_half,
                                                    t_next)

    for e in net.edges:
        pipe_ops.density_update(e.state, e.grid, dt, e.id)
    net.time = t_next
    net.step_index += 1
    return {node.id: node_record(net, node, pressures[node.id])
            for node in net.nodes}


def node_record(net: Network, node: Node, pressure=None) -> tuple:
    """``(pressure, net_inflow)`` of a node at the current network time.

    Without a solved ``pressure``, a slack node reports its prescribed one
    and a demand node its first boundary-cell pressure, pulled back through
    that end's boost ratio.
    """
    ends = net.incidence[node.id]
    if pressure is None and node.is_slack:
        pressure = node.bc.pressure(net.time)
    elif pressure is None:
        end = ends[0]
        p_b = end.gas.pressure(float(end.edge.state.rho[end.cell]))
        pressure = p_b / end.ratio(net.time)
    netflow = sum(end.sgn * end.area * float(end.edge.state.phi[end.face])
                  for end in ends)
    return pressure, netflow


def cell_count_violation(pipe: str, length: float, dx: float) -> str | None:
    """Why ``length`` cannot be gridded at spacing ``dx``: ``length/dx`` is
    not a finite cell count of at most MAX_CELLS."""
    if length / dx <= MAX_CELLS:
        return None
    return f"{pipe}: length {length:g} m at dx {dx:g} m asks for " \
        f"{length / dx:g} cells, more than {MAX_CELLS:g}"


def grid_for_length(length: float, dx_target: float) -> PipeGrid:
    """Grid matching the pipe length exactly with spacing near dx_target."""
    problem = cell_count_violation("pipe", length, dx_target)
    if problem:
        raise ConfigError([problem])
    return PipeGrid(length=length, n_cells=max(2, round(length / dx_target)))
