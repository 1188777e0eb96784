"""Metric-graph assembly of pipes and the three-phase network time step.

Each directed edge carries its own staggered grid and state; nodes couple
the adjoining pipe ends through a shared nodal pressure and optional
compressor boost ratios.  Flow from a pipe's from-node toward its to-node
is positive.

The network keeps one flat ``phi`` over the faces of all pipes, pipe after
pipe in edge order, and one flat ``rho`` over their cells with one ghost
cell between consecutive pipes, so that cell ``i`` lies between faces
``i`` and ``i + 1`` throughout; each ``edge.state.rho``/``.phi`` is a view
into them.  A ghost holds a fixed positive density and has ``dt/dx = 0``.

A network step runs three global phases over the flat state: the flux
update of every face between two cells (one contiguous ``pipe.face_fluxes``
pass; the two faces beside a ghost are pipe ends), the nodal solves
assigning every pipe-end flux (all nodes at once, gathered by incidence
index arrays and summed per node with ``np.bincount``), then the density
update of every cell.  Per-node sums always run in fixed incidence order,
so results are deterministic.  The network reads its constant profiles
once; the dt-scaled coefficients a step reads are a step plan, built once
per ``(network, dt)`` and rebuilt when ``dt`` or the bound states change.
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import pipe as pipe_ops
from .eos import CngaGas
from .errors import (ConfigError, InfeasibleNodeError, PositivityError,
                     SimulationError, UnstableRunError)
from .pipe import PipeGeometry, PipeGrid, PipeState
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
    cell: int           # boundary cell index into rho
    face: int           # boundary face index into phi
    inner: int          # face adjacent to the boundary face
    ratio: TimeProfile = UNIT_RATIO

    @property
    def gas(self) -> CngaGas:
        """Gas of the boundary cell."""
        return self.edge.gas[self.cell]

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
    if problems:
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
    elif not pipes:                     # a lone node
        problems.append("at least one pipe is required")
    return problems


class Network:
    """Validated pipe graph with one shared EoS model, bound to every pipe's
    cells as ``edge.gas``.

    The state of a network is one flat ``rho`` over the cells (with a ghost
    cell between consecutive pipes) and one flat ``phi`` over the faces of
    all pipes, pipe after pipe in edge order, and every
    ``edge.state.rho``/``.phi`` is a view into them.  Each step's
    ``require_states`` binds the views, and binds them afresh, from the
    states' current values, whenever an edge's ``state``, ``state.rho`` or
    ``state.phi`` is not the object it bound; so do the public readers of
    the state.  A run binds once and reads through their unchecked bodies
    (``_pipe_masses`` and the like), since only steps, which check, run
    between its reads.  The network's ``time`` and
    ``step_index`` are the clock of a network run; the pipe states' own
    do not advance.  The last step's nodal solve is kept for
    ``node_arrays``, and the step plan for steps at the same ``dt``, until
    the states are bound afresh.
    """

    def __init__(self, nodes, edges, eos):
        self.nodes = list(nodes)
        self.edges = list(edges)
        self.eos = eos
        self.time = 0.0
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
                edge=e, sgn=-1, cell=0, face=0, inner=1,
                ratio=e.inlet_ratio or UNIT_RATIO))
            self.incidence[e.to_node].append(_End(
                edge=e, sgn=+1, cell=-1, face=-1, inner=-2,
                ratio=e.outlet_ratio or UNIT_RATIO))
        self._dual_compressor_edges = [e for e in self.edges
                                       if e.inlet_ratio and e.outlet_ratio]
        self._flat = _FlatLayout(self)
        self.rho = self.phi = None
        self._bound = [(_UNBOUND,) * 3] * len(self.edges)
        self._solve = self._plan = None

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
        """Fail unless every pipe has a state; (re)bind the flat arrays
        unless every edge still holds the state and arrays last bound."""
        for e, (state, rho, phi) in zip(self.edges, self._bound):
            s = e.state
            if s is not state or s.rho is not rho or s.phi is not phi:
                self._bind()
                return

    def _bind(self):
        missing = [e.id for e in self.edges if e.state is None]
        if missing:
            raise SimulationError(f"pipes without initial state: {missing}")
        misfit = [e.id for e in self.edges
                  if np.shape(e.state.rho) != (e.grid.n_cells,) or
                  np.shape(e.state.phi) != (e.grid.n_cells + 1,)]
        if misfit:
            raise SimulationError(f"pipe states that do not fit their "
                                  f"grids: {misfit}")
        start = self._flat.start
        self.rho = np.full(start[-1] - 1, _GHOST_RHO)
        self.phi = np.empty(start[-1])
        for e, a, b in zip(self.edges, start, start[1:]):
            self.rho[a:b - 1] = e.state.rho
            self.phi[a:b] = e.state.phi
            e.state.rho, e.state.phi = self.rho[a:b - 1], self.phi[a:b]
        self._bound = [(e.state, e.state.rho, e.state.phi)
                       for e in self.edges]
        self._masses = [(w, e.state.rho)
                        for w, e in zip(self._flat.mass_weights, self.edges)]
        self._solve = self._plan = None

    def pipe_masses(self) -> list:
        """``S dx sum(rho)`` of every pipe in edge order, each a sum over
        its own slice."""
        self.require_states()
        return self._pipe_masses()

    def _pipe_masses(self) -> list:
        add = np.add.reduce
        return [w * float(add(rho)) for w, rho in self._masses]

    def _flat_mass(self) -> float:
        """The total mass as one ``S dx``-weighted sum over the flat
        ``rho``, for a bound state: within roundoff of
        ``sum(pipe_masses())``, not bit for bit."""
        return float(np.dot(self._flat.cell_weights, self.rho))

    def total_mass(self) -> float:
        return sum(self.pipe_masses())

    def boundary_inflow(self) -> float:
        """Net mass inflow rate summed pipe-locally, S (phi_0 - phi_N)."""
        self.require_states()
        return self._boundary_inflow()

    def _boundary_inflow(self) -> float:
        fl, phi = self._flat, self.phi
        return sum((fl.pipe_area * (phi[fl.first] -
                                    phi[fl.last_face])).tolist())

    def _pipe_records(self, masses) -> np.ndarray:
        """``(p_in, p_out, mflow_in, mflow_out, mass)`` of every pipe, one
        row per pipe in edge order, for a bound state; ``masses`` are its
        ``pipe_masses()``, taken as given."""
        fl, rho, phi = self._flat, self.rho, self.phi
        return np.column_stack((fl.inlet_gas.pressure(rho[fl.first]),
                                fl.outlet_gas.pressure(rho[fl.last_cell]),
                                fl.pipe_area * phi[fl.first],
                                fl.pipe_area * phi[fl.last_face], masses))

    def cfl_max_dt(self, safety: float = 1.0) -> float:
        return min(pipe_ops.cfl_max_dt(e.state, e.grid, e.gas, safety)
                   for e in self.edges)


_UNBOUND = object()
_GHOST_RHO = 1.0                 # density of every ghost cell
_GHOST_GAS = (1.0, 0.0, 1.0)    # (b1, b2, rt) of a ghost cell


def _fold(profiles) -> tuple:
    """``(values, varying)``: every ``Constant`` profile's value in one
    array (NaN elsewhere), and the ``(index, profile)`` pairs of the
    others."""
    constant = [type(p) is Constant for p in profiles]
    values = np.array([p.value if c else math.nan
                       for p, c in zip(profiles, constant)], dtype=float)
    return values, [(j, p) for j, (p, c) in enumerate(zip(profiles, constant))
                    if not c]


def _at(folded, t) -> np.ndarray:
    """The values of ``_fold``ed profiles at time ``t``: the folded array
    itself when none varies."""
    values, varying = folded
    if varying:
        values = values.copy()
        for j, profile in varying:
            values[j] = profile(t)
    return values


class _FlatLayout:
    """Index and coefficient arrays of a network's flat state, built once.

    Pipe ``k``'s faces are numbered ``start[k]`` to ``start[k + 1] - 1`` and
    its cells from ``start[k]`` on, so cell ``i`` always lies between faces
    ``i`` and ``i + 1``.  The cell index after each pipe's last cell, but
    the last pipe's, is a ghost cell: it holds ``_GHOST_RHO`` with the unit
    ideal gas and ``dx = inf``, so a step never moves it.  Pipe ends are
    grouped as the ends at slack nodes, the ends at demand nodes solved
    from their mass balance, and dead ends (a demand node with one pipe
    end), each group in node order and each node's ends in incidence
    order.  Boost ratios, slack pressures and withdrawals are ``_fold``ed,
    so only the profiles that vary are evaluated at each step.
    """

    def __init__(self, net: Network):
        edges, nodes = net.edges, net.nodes
        n = [e.grid.n_cells for e in edges]
        self.start = [0, *itertools.accumulate(k + 1 for k in n)]
        self.first = np.array(self.start[:-1], dtype=np.intp)
        self.last_face = np.array(self.start[1:], dtype=np.intp) - 1
        self.last_cell = self.last_face - 1
        self.ghosts = self.last_face[:-1]
        # the interior pass runs over every face between two cells; the
        # faces beside a ghost (as indices into that pass) are pipe ends
        faces = [k + 1 for k in n]
        self.beta = np.repeat([e.geometry.beta for e in edges], faces)[1:-1]
        self.face_dx = np.repeat([e.grid.dx for e in edges], faces)[1:-1]
        self.seams = np.concatenate((self.ghosts - 1, self.ghosts))

        def per_cell(values, ghost):
            """Per-pipe scalars or cell arrays over the flat cells."""
            parts = [x for v, k in zip(values, n)
                     for x in (np.broadcast_to(v, (k,)), (ghost,))]
            return np.concatenate(parts[:-1], dtype=float)
        self.dx = per_cell([e.grid.dx for e in edges], math.inf)

        # a gas shared by every cell stays scalar only for speed: per-cell
        # copies of its coefficients give the same bits, at more cost; the
        # gas of any cells is self.gas[cells]
        shared = edges[0].gas
        self.gas = shared if shared[0] is shared and \
            all(e.gas is shared for e in edges) else CngaGas(*(
                per_cell([getattr(e.gas, c) for e in edges], ghost)
                for c, ghost in zip(("b1", "b2", "rt"), _GHOST_GAS)))

        self.mass_weights = [e.geometry.area * e.grid.dx for e in edges]
        self.cell_weights = per_cell(self.mass_weights, 0.0)
        self.pipe_area = np.array([e.geometry.area for e in edges])
        self.inlet_gas = self.gas[self.first]
        self.outlet_gas = self.gas[self.last_cell]

        self.node_ids = [node.id for node in nodes]
        kinds = [0 if node.is_slack else
                 1 if len(net.incidence[node.id]) > 1 else 2
                 for node in nodes]
        groups = [[i for i, kind in enumerate(kinds) if kind == g]
                  for g in range(3)]
        self.slack_nodes = np.array(groups[0], dtype=np.intp)
        self.slack_pressures = _fold([nodes[i].bc.pressure
                                      for i in groups[0]])
        self.solved_nodes = np.array(groups[1], dtype=np.intp)
        self.withdrawals = _fold([nodes[i].bc.withdrawal
                                  for i in groups[1] + groups[2]])
        ends = [(i, end) for g in groups for i in g
                for end in net.incidence[nodes[i].id]]
        sizes = [sum(len(net.incidence[nodes[i].id]) for i in g)
                 for g in groups]
        self.slack = slice(0, sizes[0])
        self.solved = slice(sizes[0], sizes[0] + sizes[1])
        self.dead = slice(self.solved.stop, len(ends))
        self.targeted = slice(0, self.solved.stop)    # flux from a density
        self.solved_pos = np.searchsorted(
            groups[1], [i for i, _ in ends[self.solved]]).astype(np.intp)

        pipe_pos = {id(e): k for k, e in enumerate(edges)}
        pipes = [pipe_pos[id(e.edge)] for _, e in ends]
        self.end_node = np.array([i for i, _ in ends], dtype=np.intp)

        def flat(local, counts):
            """Pipe-local indices (negative from the end) as flat ones."""
            return np.array([self.start[k] + i % counts[k]
                             for k, i in zip(pipes, local)], dtype=np.intp)
        self.end_cell = flat([e.cell for _, e in ends], n)
        self.end_face = flat([e.face for _, e in ends], faces)
        self.end_inner = flat([e.inner for _, e in ends], faces)
        self.sgn = np.array([e.sgn for _, e in ends], dtype=float)
        self.end_dx = np.array([e.dx for _, e in ends])
        self.area_dx = np.array([e.area * e.dx for _, e in ends])
        self.sgn_area = np.array([e.sgn * e.area for _, e in ends])
        self.ratios = _fold([e.ratio for _, e in ends])
        self.slack_gas = self.gas[self.end_cell[self.slack]]
        self.solved_poly = self.gas[self.end_cell[self.solved]].density_poly()
        # the demand nodes, solved then dead ends, with their first pipe
        # ends and the gas of those ends' cells: a node reports its
        # boundary cell's pressure, pulled back through the end's ratio
        first = {}
        for j, (i, _) in enumerate(ends):
            first.setdefault(i, j)
        demand = groups[1] + groups[2]
        self.report_nodes = np.array(demand, dtype=np.intp)
        self.report_ends = np.array([first[i] for i in demand], dtype=np.intp)
        self.report_gas = self.gas[self.end_cell[self.report_ends]]

    def locate(self, index: int) -> tuple:
        """``(pipe position, pipe-local index)`` of a flat cell or face."""
        k = bisect.bisect_right(self.start, index) - 1
        return k, index - self.start[k]


class _StepPlan:
    """What every step at one ``dt`` over the bound states reads.

    The dt-scaled coefficients; views of the flat state and a buffer for
    the density increment; and each group of pipe ends' indices and
    products, ``None`` for an empty group (the slack group never is: a
    valid network has a slack node, with a pipe end).  The ends whose flux
    lands their boundary cell on a target density (slack and solved, in
    that order) are gathered together.  ``sgn dx/dt``, ``4 w v`` and a dead
    end's ``sgn S`` scale by a sign or a power of two, so each rounds as the
    product it replaces.
    """

    def __init__(self, net: Network, dt: float):
        fl = net._flat
        self.dt = dt
        self.beta_dt = fl.beta * dt
        self.face_dt_dx = dt / fl.face_dx
        self.dt_dx = dt / fl.dx    # 0 at a ghost
        self.faces = net.phi[1:-1]    # every face between two cells
        self.upper, self.lower = net.phi[1:], net.phi[:-1]
        self.increment = np.empty_like(net.rho)

        t = fl.targeted
        self.cell, self.inner = fl.end_cell[t], fl.end_inner[t]
        self.face = fl.end_face[t]
        self.sgn_dx_dt = fl.sgn[t] * (fl.end_dx[t] / dt)
        # each slack end's node among the slack nodes: none to gather when
        # every slack node has one end
        self.slack_pos = None if fl.slack.stop == fl.slack_nodes.size \
            else np.searchsorted(fl.slack_nodes, fl.end_node[fl.slack])
        self.solved = self.dead_face = None
        m, k = fl.solved, fl.solved_nodes.size
        if k:
            # (each end's node, node count, sgn S, w, w u, 4 w v)
            w = fl.area_dx[m] / dt
            u, v = fl.solved_poly
            self.solved = (fl.solved_pos, k, fl.sgn_area[m], w, w * u,
                           4.0 * (w * v))
        d = fl.dead
        if d.stop > d.start:
            self.dead_face = fl.end_face[d]
            self.dead_sgn_area = fl.sgn_area[d]


def nodal_pressure_solve(weights, alphas, rho_ends, polys, q, inflow,
                         node_id: str = "?") -> float:
    """Nodal pressure from the discrete mass balance of the adjoining ends.

    Solves ``sum_k w_k rho_k(alpha_k p) = sum_k w_k rho_k^n - q + inflow``
    where ``w_k = S_k dx_k / dt``, ``inflow = sum_k sgn_k S_k phi_k-`` and
    each end's density map is the quadratic ``rho(p) = u p + v p**2``.
    ``network_step`` solves every demand node this way at once; this scalar
    form, whose sums run in incidence order as the step's do, is the
    reference it is tested against bit for bit.
    """
    rhs = sum(w * rho for w, rho in zip(weights, rho_ends)) - q + inflow
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


def _nodal_phase(net: Network, plan: _StepPlan, t_half, t_next):
    """Assign every pipe-end flux from the nodal conditions.

    A slack node's ends land their boundary cells on the boosted nodal
    pressure; a dead end carries the withdrawal; every other demand node
    solves ``nodal_pressure_solve``'s quadratic, all nodes at once.
    Returns the ends' boost ratios and the slack and solved nodes'
    pressures at ``t_next`` (``None`` for no solved node).
    """
    fl, rho, phi = net._flat, net.rho, net.phi
    alpha = _at(fl.ratios, t_next)
    p_slack = _at(fl.slack_pressures, t_next)
    q = _at(fl.withdrawals, t_half)
    rho_end, phi_inner = rho[plan.cell], phi[plan.inner]
    p_ends = p_slack if plan.slack_pos is None else p_slack[plan.slack_pos]
    rho_t = fl.slack_gas.density(alpha[fl.slack] * p_ends)

    k, p_solved = 0, None
    if plan.solved is not None:
        pos, k, sgn_area, w, wu, wv4 = plan.solved
        m = fl.solved
        al = alpha[m]
        rhs = np.bincount(pos, w * rho_end[m], k) - q[:k] + \
            np.bincount(pos, sgn_area * phi_inner[m], k)
        a4 = np.bincount(pos, wv4 * al * al, k)
        b = np.bincount(pos, wu * al, k)
        # fmin skips NaN, as the comparisons of the mask below do
        if np.fmin.reduce(rhs) < 0.0 or np.fmin.reduce(b) <= 0.0:
            i = int(np.flatnonzero((rhs < 0.0) | (b <= 0.0))[0])
            raise InfeasibleNodeError(
                fl.node_ids[fl.solved_nodes[i]],
                f"balance rhs {rhs[i]:g} < 0" if rhs[i] < 0.0
                else "degenerate density map")
        p_solved = 2.0 * rhs / (b + np.sqrt(b * b + a4 * rhs))
        p_end = al * p_solved[pos]
        u, v = fl.solved_poly
        rho_t = np.concatenate((rho_t, u * p_end + v * p_end ** 2))

    # the boundary flux that lands each boundary cell on its target density
    phi[plan.face] = phi_inner - plan.sgn_dx_dt * (rho_t - rho_end)
    if plan.dead_face is not None:
        phi[plan.dead_face] = q[k:] / plan.dead_sgn_area
    return alpha, p_slack, p_solved


def network_step(net: Network, dt: float) -> None:
    """Advance the whole network one step.

    The three phases run over the flat state with the network's step plan
    for ``dt``, built at the first step at that ``dt`` over the bound
    states: every face between two cells (``pipe.face_fluxes``), every pipe
    end (``_nodal_phase``) and every cell.  A non-finite interior face
    raises before the step writes anything; an infeasible node or a
    drained cell raises with the state part-way advanced.  The step's
    boost ratios and nodal pressures stay on the network for
    ``node_arrays``.
    """
    net.require_states()
    plan = net._plan
    if plan is None or plan.dt != dt:
        plan = net._plan = _StepPlan(net, dt)
    t_half = net.time + 0.5 * dt
    t_next = net.time + dt

    for e in net._dual_compressor_edges:
        if e.inlet_ratio(t_next) > 1.0 + 1e-12 and \
                e.outlet_ratio(t_next) > 1.0 + 1e-12:
            raise SimulationError(
                f"compressors at both ends of pipe {e.id} active at t={t_next}")

    fl, rho = net._flat, net.rho
    new = pipe_ops.face_fluxes(rho, fl.gas.pressure(rho), plan.faces,
                               plan.beta_dt, plan.face_dt_dx)
    if not np.isfinite(new).all():
        # the faces beside a ghost are pipe ends, which the nodal phase sets
        bad = ~np.isfinite(new)
        bad[fl.seams] = False
        if bad.any():
            k, face = fl.locate(int(np.flatnonzero(bad)[0]) + 1)
            raise UnstableRunError(net.step_index, face, net.edges[k].id)
    plan.faces[...] = new

    solve = _nodal_phase(net, plan, t_half, t_next)

    increment = np.subtract(plan.upper, plan.lower, out=plan.increment)
    increment *= plan.dt_dx
    rho -= increment
    if not np.minimum.reduce(rho) > 0:    # NaN fails too
        rho[fl.ghosts] = _GHOST_RHO    # a non-finite pipe end reads 0 * inf
        bad = (rho <= 0) | ~np.isfinite(rho)
        if bad.any():
            k, local = fl.locate(int(np.flatnonzero(bad)[0]))
            raise PositivityError(net.step_index + 1, local, net.edges[k].id)
    net.time = t_next
    net.step_index += 1
    net._solve = solve


def node_records(net: Network) -> dict:
    """``(pressure, net_inflow)`` of every node at the current network time,
    keyed by node id in node order; see ``node_arrays``."""
    p, netflow = node_arrays(net)
    return dict(zip(net._flat.node_ids, zip(p.tolist(), netflow.tolist())))


def node_arrays(net: Network) -> tuple:
    """The nodal pressures and net inflows at the current network time,
    as two arrays in node order.

    ``net_inflow`` is ``sum_k sgn_k S_k phi_k`` over the node's pipe ends:
    the withdrawal at demand nodes and the implied (negative of injection)
    at slack nodes.  After a step, the pressures are the ones that step
    solved, a dead end's taken from its boundary cell.  Before any step
    has solved them (or once the pipe states have been replaced), a slack
    node reports its prescribed pressure and a demand node its first
    boundary cell's pressure, pulled back through that end's boost ratio.
    """
    net.require_states()
    return _node_arrays(net)


def _node_arrays(net: Network) -> tuple:
    fl = net._flat
    p = np.empty(len(fl.node_ids))
    if net._solve is None:      # every demand node is pulled back
        alpha = _at(fl.ratios, net.time)
        p[fl.slack_nodes] = _at(fl.slack_pressures, net.time)
        pulled = slice(None)
    else:                       # the dead ends; the step solved the others
        alpha, p[fl.slack_nodes], p_solved = net._solve
        if p_solved is not None:
            p[fl.solved_nodes] = p_solved
        pulled = slice(fl.solved_nodes.size, None)
    ends = fl.report_ends[pulled]
    p[fl.report_nodes[pulled]] = fl.report_gas[pulled].pressure(
        net.rho[fl.end_cell[ends]]) / alpha[ends]
    netflow = np.bincount(fl.end_node, fl.sgn_area * net.phi[fl.end_face],
                          len(p))
    return p, netflow


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
