"""Metric-graph assembly of pipes and the three-phase network time step.

Each directed edge carries its own staggered grid and state; nodes couple
the adjoining pipe ends through a shared nodal pressure and optional
compressor boost ratios.  Flow from a pipe's from-node toward its to-node
is positive.

The network keeps one flat ``phi`` over the faces of all pipes, pipe after
pipe in edge order, and one flat ``rho`` over their cells with one ghost
cell between consecutive pipes, so that cell ``i`` lies between faces
``i`` and ``i + 1`` throughout; each ``edge.state.rho``/``.phi`` is a fixed
view into them.  A ghost holds a fixed positive density and has ``dt/dx = 0``.

A network step runs three global phases over the flat state: the flux
update of every face between two cells (one contiguous ``pipe.face_fluxes``
pass; the two faces beside a ghost are pipe ends), the nodal solves
assigning every pipe-end flux (all nodes at once, gathered by incidence
index arrays and summed per node with ``np.bincount``), then the density
update of every cell.  Per-node sums always run in fixed incidence order,
so results are deterministic.  The dt-scaled coefficients a step reads
and the buffers a step writes are a step plan, built once per
``(network, dt)`` and rebuilt when ``dt`` changes.
The nodal terms that depend on time alone (boost ratios, slack pressures,
withdrawals and what follows from them) are a table the plan builds for
a block of steps at once, each profile evaluated over the block's times.
"""

from __future__ import annotations

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
    inlet_ratio: TimeProfile | None = None    # compressor node -> pipe inlet
    outlet_ratio: TimeProfile | None = None   # compressor node -> pipe outlet
    gas: CngaGas | None = field(default=None, init=False, repr=False)
    state: PipeState | None = field(default=None, init=False, repr=False)


@dataclass
class _End:
    """One (edge, node) incidence with precomputed indexing."""

    edge: PipeEdge
    sgn: int            # +1: flow on this edge arrives at the node
    cell: int           # boundary cell index into rho
    face: int           # boundary face index into phi
    inner: int          # face adjacent to the boundary face
    ratio: TimeProfile = UNIT_RATIO


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

    The network owns its state: one flat ``rho`` over the cells (with a
    ghost cell between consecutive pipes) and one flat ``phi`` over the
    faces of all pipes, pipe after pipe in edge order, allocated here.
    Each ``edge.state`` is a ``PipeState`` whose ``rho`` and ``phi`` are
    views into them, one object for the life of the network.
    ``write_state`` gives a pipe its initial values; every reader of the
    state refuses to run while some pipe has not been written.
    The network's ``time`` and ``step_index`` are the clock of a network
    run; the pipe states' own do not advance.  The last step's nodal solve
    is kept for ``node_arrays`` until a state is written, and the step plan
    for steps at the same ``dt``.
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
        start = self._flat.start
        self.rho = np.full(start[-1] - 1, _GHOST_RHO)
        self.phi = np.zeros(start[-1])
        for e, a, b in zip(self.edges, start, start[1:]):
            e.state = PipeState(self.rho[a:b - 1], self.phi[a:b])
        self._masses = [(w, e.state.rho)    # (S dx, view)
                        for w, e in zip(self._flat.mass_weights, self.edges)]
        # by pipe id, as a network built later on these edges re-points them
        self._states = {e.id: e.state for e in self.edges}
        self._unwritten = dict.fromkeys(self._states)
        self._solve = self._plan = None

    def write_state(self, pipe_id: str, rho, phi) -> None:
        """Copy pipe ``pipe_id``'s densities and fluxes into its state,
        refusing arrays that do not fit its grid and densities that are not
        all positive.  ``node_arrays`` then reports pulled-back pressures
        until the next step."""
        state = self._states[pipe_id]
        if np.shape(rho) != state.rho.shape or \
                np.shape(phi) != state.phi.shape:
            raise SimulationError(f"pipe states that do not fit their "
                                  f"grids: {[pipe_id]}")
        if not np.greater(rho, 0.0).all():
            raise ValueError("initial density must be positive everywhere")
        state.rho[...], state.phi[...] = rho, phi
        self._unwritten.pop(pipe_id, None)
        self._solve = None

    def _require_written(self):
        if self._unwritten:
            raise SimulationError(f"pipes without initial state: "
                                  f"{list(self._unwritten)}")

    def pipe_masses(self) -> list:
        """``S dx sum(rho)`` of every pipe in edge order, each a sum over
        its own slice."""
        self._require_written()
        add = np.add.reduce
        return [w * float(add(rho)) for w, rho in self._masses]

    def _flat_mass(self) -> float:
        """The total mass as one ``S dx``-weighted sum over the flat
        ``rho``: ``sum(pipe_masses())`` within roundoff, not bit for bit."""
        self._require_written()
        return float(np.dot(self._flat.cell_weights, self.rho))

    def total_mass(self) -> float:
        return sum(self.pipe_masses())

    def boundary_inflow(self) -> float:
        """Net mass inflow rate summed pipe-locally, S (phi_0 - phi_N)."""
        self._require_written()
        fl, phi = self._flat, self.phi
        return sum((fl.pipe_area * (phi[fl.first] -
                                    phi[fl.last_face])).tolist())

    def _pipe_records(self, masses, out) -> np.ndarray:
        """Write ``(p_in, p_out, mflow_in, mflow_out, mass)`` of every pipe
        into the rows of ``out``, one per pipe in edge order, and return
        ``out``; ``masses`` are its ``pipe_masses()``, taken as given."""
        fl = self._flat
        out[:, :2] = fl.pipe_end_gas.pressure(self.rho[fl.pipe_end_cells])
        out[:, 2:4] = fl.pipe_area[:, None] * self.phi[fl.pipe_end_faces]
        out[:, 4] = masses
        return out

    def cfl_max_dt(self, safety: float = 1.0) -> float:
        self._require_written()
        return min(pipe_ops.cfl_max_dt(self._states[e.id], e.grid, e.gas,
                                       safety) for e in self.edges)


_GHOST_RHO = 1.0                 # density of every ghost cell
_GHOST_GAS = (1.0, 0.0, 1.0)    # (b1, b2, rt) of a ghost cell


def _series(profile, times) -> np.ndarray:
    """``profile`` at each of ``times``, in the bits of its calls: a
    ``TimeProfile`` by kind, any other callable (or a profile that raises)
    one call per time.  Those calls stop before the first that raises; at
    the first time it raises here, as the step making that call would."""
    if isinstance(profile, TimeProfile):
        try:
            return profile.at_times(times)
        except Exception:
            pass
    values = []
    for t in times.tolist():
        try:
            values.append(profile(t))
        except Exception:
            if not values:
                raise
            break
    return np.array(values, dtype=float)


def _schedule(profiles, times) -> np.ndarray:
    """The ``profiles`` at ``times``, one row per time and one column per
    profile, each distinct profile evaluated once; the rows stop where
    some ``_series`` stops."""
    distinct, columns = {}, []
    for p in profiles:
        columns.append(distinct.setdefault(id(p), (len(distinct), p))[0])
    if not distinct:
        return np.empty((times.size, 0))
    series = [_series(p, times) for _, p in distinct.values()]
    n = min(s.size for s in series)
    return np.stack([s[:n] for s in series], axis=1)[:, columns]


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
    order; the ends' boost ratios, and the slack pressures and withdrawals
    of the nodes, are listed in the same orders.  A sample reads each
    pipe's end cells and faces, and the nodes it reports from a boundary
    cell, through index arrays and gases built here.
    """

    def __init__(self, net: Network):
        edges, nodes = net.edges, net.nodes
        faces = np.array([e.grid.n_cells + 1 for e in edges])
        self.start = [0, *np.cumsum(faces).tolist()]
        self.first = np.array(self.start[:-1], dtype=np.intp)
        self.last_face = np.array(self.start[1:], dtype=np.intp) - 1
        self.last_cell = self.last_face - 1
        self.ghosts = self.last_face[:-1]
        # the interior pass runs over every face between two cells
        dx = np.array([e.grid.dx for e in edges])
        self.beta = np.repeat([e.geometry.beta for e in edges], faces)[1:-1]
        self.face_dx = np.repeat(dx, faces)[1:-1]

        def per_cell(values, ghost):
            """Per-pipe scalars or cell arrays over the flat cells."""
            out = np.full(self.start[-1] - 1, ghost)
            for v, a, b in zip(values, self.start, self.start[1:]):
                out[a:b - 1] = v
            return out
        self.dx = per_cell(dx, math.inf)

        # a gas shared by every cell stays scalar only for speed: per-cell
        # copies of its coefficients give the same bits, at more cost; the
        # gas of any cells is self.gas[cells]
        shared = edges[0].gas
        self.gas = shared if shared[0] is shared and \
            all(e.gas is shared for e in edges) else CngaGas(*(
                per_cell([getattr(e.gas, c) for e in edges], ghost)
                for c, ghost in zip(("b1", "b2", "rt"), _GHOST_GAS)))

        self.pipe_area = np.array([e.geometry.area for e in edges])
        weights = self.pipe_area * dx
        self.mass_weights = weights.tolist()
        self.cell_weights = per_cell(weights, 0.0)
        # each pipe's first and last cell (and face), one row per pipe: a
        # sample's pipe rows read them in one gather each
        self.pipe_end_cells = np.array((self.first, self.last_cell)).T
        self.pipe_end_faces = np.array((self.first, self.last_face)).T
        self.pipe_end_gas = self.gas[self.pipe_end_cells]

        groups = ([], [], [])    # slack, solved and dead-end nodes
        for i, node in enumerate(nodes):
            solved = len(net.incidence[node.id]) > 1
            groups[0 if node.is_slack else 1 if solved else 2].append(i)
        self.slack_nodes = np.array(groups[0], dtype=np.intp)
        self.slack_pressures = [nodes[i].bc.pressure for i in groups[0]]
        self.solved_nodes = np.array(groups[1], dtype=np.intp)
        self.withdrawals = [nodes[i].bc.withdrawal
                            for i in groups[1] + groups[2]]
        ends = [(i, end) for g in groups for i in g
                for end in net.incidence[nodes[i].id]]
        slack = sum(len(net.incidence[nodes[i].id]) for i in groups[0])
        self.slack = slice(0, slack)
        self.dead = slice(len(ends) - len(groups[2]), len(ends))    # 1 a node
        self.solved = slice(slack, self.dead.start)
        self.targeted = slice(0, self.solved.stop)    # flux from a density
        self.solved_pos = np.searchsorted(
            groups[1], [i for i, _ in ends[self.solved]]).astype(np.intp)

        pipe_pos = {id(e): k for k, e in enumerate(edges)}
        pipes = np.array([pipe_pos[id(e.edge)] for _, e in ends],
                         dtype=np.intp)
        self.end_node = np.array([i for i, _ in ends], dtype=np.intp)

        def flat(local, counts):
            """Pipe-local indices (negative from the end) as flat ones."""
            return self.first[pipes] + np.remainder(local, counts[pipes])
        self.end_cell = flat([e.cell for _, e in ends], faces - 1)
        self.end_face = flat([e.face for _, e in ends], faces)
        self.end_inner = flat([e.inner for _, e in ends], faces)
        self.sgn = np.array([e.sgn for _, e in ends], dtype=float)
        self.sgn_area = self.sgn * self.pipe_area[pipes]
        self.ratios = [e.ratio for _, e in ends]
        self.slack_gas = self.gas[self.end_cell[self.slack]]
        self.solved_poly = self.gas[self.end_cell[self.solved]].density_poly()
        # (nodes, their first pipe ends, those ends' cells and the gas of
        # the cells) of the demand nodes, solved then dead ends: a node
        # reports its boundary cell's pressure, pulled back through the
        # end's ratio.  Ends run node by node, the slack nodes' first.
        heads = np.flatnonzero(self.end_node[1:] != self.end_node[:-1]) + 1
        heads = heads[len(groups[0]) - 1:]
        cells = self.end_cell[heads]
        self.report = self.end_node[heads], heads, cells, self.gas[cells]

    def locate(self, index: int) -> tuple:
        """``(pipe position, pipe-local index)`` of a flat cell or face."""
        k = int(np.searchsorted(self.first, index, side="right")) - 1
        return k, index - self.start[k]


class _StepPlan:
    """What every step at one ``dt`` reads and writes.

    The dt-scaled coefficients; views of the flat state; buffers for the
    cell pressures and their scratch, for the face kernel's scratch (the
    second takes the new fluxes) and for the density increment, so that a
    step allocates no array of the cells' or faces' size; each group of
    pipe ends' indices and products, ``None`` for an empty group (the
    slack group never is: a valid network has a slack node, with a pipe
    end); and the ``_NodalTable`` of the block of steps under way.  The
    ends whose flux lands their boundary cell on a target density (slack
    and solved, in that order) are gathered together.  ``sgn dx/dt``,
    ``4 w v`` and a dead end's ``sgn S`` scale by a sign or a power of
    two, so each rounds as the product it replaces.
    """

    def __init__(self, net: Network, dt: float):
        fl = net._flat
        self.dt = dt
        self.beta_dt = fl.beta * dt
        self.face_dt_dx = dt / fl.face_dx
        self.dt_dx = dt / fl.dx    # 0 at a ghost
        self.faces = net.phi[1:-1]    # every face between two cells
        self.upper, self.lower = net.phi[1:], net.phi[:-1]
        self.pressure, self.pressure_scratch, self.increment = (
            np.empty_like(net.rho) for _ in range(3))
        self.scratch = tuple(np.empty_like(self.faces) for _ in range(4))

        t = fl.targeted
        self.cell, self.inner = fl.end_cell[t], fl.end_inner[t]
        self.face = fl.end_face[t]
        self.sgn_dx_dt = fl.sgn[t] * (fl.dx[self.cell] / dt)
        # each slack end's node among the slack nodes
        self.slack_pos = np.searchsorted(fl.slack_nodes,
                                         fl.end_node[fl.slack])
        self.solved = self.dead_face = None
        m, k = fl.solved, fl.solved_nodes.size
        if k:
            # (each end's node, node count, sgn S, w, w u, 4 w v)
            w = fl.cell_weights[fl.end_cell[m]] / dt
            u, v = fl.solved_poly
            self.solved = (fl.solved_pos, k, fl.sgn_area[m], w, w * u,
                           4.0 * (w * v))
        d = fl.dead
        if d.stop > d.start:
            self.dead_face = fl.end_face[d]
            self.dead_sgn_area = fl.sgn_area[d]
        # a table row's floats; one table holds at most _TABLE_BYTES
        row = len(fl.ratios) + len(fl.slack_pressures) + \
            len(fl.withdrawals) + t.stop + (m.stop - m.start) + 3 * k
        self.table_steps = max(1, min(_TABLE_STEPS,
                                      _TABLE_BYTES // (8 * row)))
        self.table, self.row = None, 0


_TABLE_STEPS = 256         # the most steps one nodal table serves
_TABLE_BYTES = 1 << 20     # the most bytes one nodal table holds, about


class _NodalTable:
    """Every nodal term that depends on time alone, for a block of steps
    at the plan's ``dt`` from time ``t``.

    Row ``i`` serves the step from ``times[i]``, the time that ``t``
    reaches after ``i`` steps of ``time = time + dt``.  It holds, at the
    step's ``time + dt``, the ends' boost ratios (``alpha``) and the slack
    nodes' pressures; at ``time + dt/2``, the solved nodes' withdrawals
    (``q_solved``) and the dead ends' fluxes ``q / (sgn S)``
    (``dead_flux``); the targeted ends' densities (``target``: the slack
    ends' landing densities, the solved ends' left for the step to write)
    and whether some boosted slack pressure is negative; the solved ends'
    ratios ``al``, each solved node's sums ``a4 = 4 w v al**2`` and
    ``b = w u al`` and ``bb = b * b``, and whether some ``b`` is not
    positive (fmin skips NaN, as the comparisons of the step's error mask
    do).  Each term is the expression a step used to compute alone, on
    ``(steps, ends)`` arrays, so each row has that step's bits; each
    node's sums run in incidence order, in one ``np.bincount`` over
    row-offset indices.  Nothing raises or warns here: the step that
    reads a row raises for its flags.  The rows stop before a time at
    which a profile call raised (see ``_series``).
    """

    def __init__(self, fl: _FlatLayout, plan: _StepPlan, t: float):
        dt = plan.dt
        times = np.add.accumulate(np.r_[t, np.full(plan.table_steps, dt)])
        with np.errstate(all="ignore"):
            alpha, p_slack, q = (
                _schedule(fl.ratios, times[1:]),
                _schedule(fl.slack_pressures, times[1:]),
                _schedule(fl.withdrawals, times[:-1] + 0.5 * dt))
            n = min(len(alpha), len(p_slack), len(q))
            self.times = times[:n].tolist()
            self.alpha, self.p_slack = alpha[:n], p_slack[:n]
            k = fl.solved_nodes.size
            self.q_solved = q[:n, :k]
            if plan.dead_face is not None:
                self.dead_flux = q[:n, k:] / plan.dead_sgn_area
            p = self.alpha[:, fl.slack] * self.p_slack[:, plan.slack_pos]
            self.negative = (p < 0.0).any(axis=1).tolist()
            self.target = np.empty((n, fl.targeted.stop))
            self.target[:, fl.slack] = fl.slack_gas.density(
                np.where(p < 0.0, 0.0, p))
            if plan.solved is not None:
                pos, _, _, _, wu, wv4 = plan.solved
                self.al = al = self.alpha[:, fl.solved]
                rows = (pos + k * np.arange(n)[:, None]).ravel()
                self.a4, self.b = (
                    np.bincount(rows, x.ravel(), k * n).reshape(n, k)
                    for x in (wv4 * al * al, wu * al))
                self.bb = self.b * self.b
                self.degenerate = (np.fmin.reduce(self.b, axis=1)
                                   <= 0.0).tolist()


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


def _nodal_phase(net: Network, plan: _StepPlan):
    """Assign every pipe-end flux from the nodal conditions.

    A slack node's ends land their boundary cells on the boosted nodal
    pressure; a dead end carries the withdrawal; every other demand node
    solves ``nodal_pressure_solve``'s quadratic, all nodes at once.  The
    time-only terms come from the plan's table row for ``net.time``; a
    table is built when the block has none.  Returns the ends' boost
    ratios and the slack and solved nodes' pressures at the step's end
    (``None`` for no solved node).
    """
    fl, rho, phi = net._flat, net.rho, net.phi
    table, i = plan.table, plan.row
    if table is None or i == len(table.times) or table.times[i] != net.time:
        table = plan.table = None    # dropped before the next is built
        table = plan.table = _NodalTable(fl, plan, net.time)
        i = 0
    plan.row = i + 1
    if table.negative[i]:
        raise ValueError("pressure must be non-negative")
    alpha, p_slack, rho_t = table.alpha[i], table.p_slack[i], table.target[i]
    rho_end, phi_inner = rho[plan.cell], phi[plan.inner]

    p_solved = None
    if plan.solved is not None:
        pos, k, sgn_area, w = plan.solved[:4]
        m = fl.solved
        b = table.b[i]
        rhs = np.bincount(pos, w * rho_end[m], k) - table.q_solved[i] + \
            np.bincount(pos, sgn_area * phi_inner[m], k)
        # fmin skips NaN, as the comparisons of the mask below do
        if np.fmin.reduce(rhs) < 0.0 or table.degenerate[i]:
            j = int(np.flatnonzero((rhs < 0.0) | (b <= 0.0))[0])
            raise InfeasibleNodeError(
                net.nodes[fl.solved_nodes[j]].id,
                f"balance rhs {rhs[j]:g} < 0" if rhs[j] < 0.0
                else "degenerate density map")
        p_solved = 2.0 * rhs / (b + np.sqrt(table.bb[i] + table.a4[i] * rhs))
        p_end = table.al[i] * p_solved[pos]
        u, v = fl.solved_poly
        rho_t[m] = u * p_end + v * p_end ** 2

    # the boundary flux that lands each boundary cell on its target density
    phi[plan.face] = phi_inner - plan.sgn_dx_dt * (rho_t - rho_end)
    if plan.dead_face is not None:
        phi[plan.dead_face] = table.dead_flux[i]
    return alpha, p_slack, p_solved


def network_step(net: Network, dt: float) -> None:
    """Advance the whole network one step, in place in the views that
    every ``edge.state`` holds.

    The three phases run with the network's step plan for ``dt``, built
    at the first step at that ``dt``: every face between two cells
    (``pipe.face_fluxes``), every pipe end (``_nodal_phase``) and every
    cell.  A non-finite interior face raises before the step writes
    anything; an infeasible node or a drained cell raises with the state
    part-way advanced.  The step's boost ratios and nodal pressures stay
    on the network for ``node_arrays``.
    """
    net._require_written()
    plan = net._plan
    if plan is None or plan.dt != dt:
        plan = net._plan = _StepPlan(net, dt)
    t_next = net.time + dt

    for e in net._dual_compressor_edges:
        if e.inlet_ratio(t_next) > 1.0 + 1e-12 and \
                e.outlet_ratio(t_next) > 1.0 + 1e-12:
            raise SimulationError(
                f"compressors at both ends of pipe {e.id} active at t={t_next}")

    fl, rho = net._flat, net.rho
    # the gas's own check, in one reduction: fmin skips NaN, as it does
    if np.fmin.reduce(rho) < 0.0:
        raise ValueError("density must be non-negative")
    p = fl.gas._pressure(rho, plan.pressure, plan.pressure_scratch)
    new = pipe_ops.face_fluxes(rho, p, plan.faces, plan.beta_dt,
                               plan.face_dt_dx, plan.scratch)
    if not np.isfinite(new).all():
        # the faces beside a ghost (as indices into the interior pass) are
        # pipe ends, which the nodal phase sets
        bad = ~np.isfinite(new)
        bad[fl.ghosts - 1] = bad[fl.ghosts] = False
        if bad.any():
            k, face = fl.locate(int(np.flatnonzero(bad)[0]) + 1)
            raise UnstableRunError(net.step_index, face, net.edges[k].id)
    plan.faces[...] = new

    solve = _nodal_phase(net, plan)

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


def node_arrays(net: Network, p, netflow) -> tuple:
    """The nodal pressures and net inflows at the current network time,
    written into and returned as the arrays ``p`` and ``netflow``.

    ``net_inflow`` is ``sum_k sgn_k S_k phi_k`` over the node's pipe ends:
    the withdrawal at demand nodes and the implied (negative of injection)
    at slack nodes.  After a step, the pressures are the ones that step
    solved, a dead end's taken from its boundary cell.  Before any step
    has solved them (or once a state has been written since), a slack node
    reports its prescribed pressure and a demand node its first boundary
    cell's pressure, pulled back through that end's boost ratio.
    """
    net._require_written()
    fl = net._flat
    if net._solve is None:
        now = np.array([net.time])
        alpha = _schedule(fl.ratios, now)[0]
        p[fl.slack_nodes] = _schedule(fl.slack_pressures, now)[0]
        p_solved = None
    else:
        alpha, p[fl.slack_nodes], p_solved = net._solve
    nodes, ends, cells, gas = fl.report    # every demand node pulled back
    p[nodes] = gas.pressure(net.rho[cells]) / alpha[ends]
    if p_solved is not None:    # the step solved all but the dead ends
        p[fl.solved_nodes] = p_solved
    netflow[:] = np.bincount(fl.end_node, fl.sgn_area * net.phi[fl.end_face],
                             len(net.nodes))
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
