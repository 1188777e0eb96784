"""Deterministic generator of meshed gas networks as v1 config documents.

The networks imitate the kind of instance GasLib ships (Schmidt et al.,
*Data* 2(4):40, 2017) without downloading one: one slack (supply) node,
demand nodes with constant or harmonic withdrawals, pipes of 10-50 km, and
a few constant-ratio compressors on bridge pipes.  ``topology`` picks a
random tree, a single ring through every node, or a tree plus chords
(``mesh``).  ``seed`` fixes the network and its withdrawal levels;
``schedule_seed`` (default: ``seed``) fixes which withdrawals vary in time
and how, starting from their t = 0 levels, so it leaves the steady state
unchanged.  The same arguments always give the same document.

Feasibility guard: the withdrawals are scaled so that the steady state at
t = 0 has its lowest node pressure at ``MIN_PRESSURE_RATIO`` times the
slack pressure, far above the solver's pressure floor.  The guard solves
the isothermal steady state in closed form: with ``rho(p) = u p + v p**2``
each pipe obeys ``F(p_in) - F(p_out) = beta L phi |phi|`` where
``F(p) = u p**2 / 2 + v p**3 / 3``.
"""

from __future__ import annotations

import math
import random

import numpy as np

SLACK_PRESSURE = 5.0e6                       # Pa
DIAMETERS = ((0.6096, 0.012), (0.762, 0.011), (0.9144, 0.01))  # m, Darcy
MIN_KM, MAX_KM = 10, 50
N_COMPRESSORS = 3
MIN_PRESSURE_RATIO = 0.6     # lowest steady node pressure / slack pressure
# the cnga model's default fit, as in gasnetsim.eos
DEFAULT_B1, DEFAULT_B2, DEFAULT_RT = 1.00300865, 2.96848838e-8, 1.368207e5


def _tree_edges(rng, n_nodes):
    return [(rng.randrange(i), i) for i in range(1, n_nodes)]


def _ring_edges(rng, n_nodes):
    order = [0] + rng.sample(range(1, n_nodes), n_nodes - 1)
    return [(order[i], order[(i + 1) % n_nodes]) for i in range(n_nodes)]


def _add_chords(rng, edges, n_nodes, n_pipes):
    present = {frozenset(e) for e in edges}
    candidates = [(a, b) for a in range(n_nodes) for b in range(a + 1, n_nodes)
                  if frozenset((a, b)) not in present]
    if n_pipes - len(edges) > len(candidates):
        raise ValueError("too many pipes for a simple graph on these nodes")
    return edges + rng.sample(candidates, n_pipes - len(edges))


def _depths(n_nodes, edges):
    adj = {i: [] for i in range(n_nodes)}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    depth, frontier = {0: 0}, [0]
    while frontier:
        nxt = []
        for a in frontier:
            for b in adj[a]:
                if b not in depth:
                    depth[b] = depth[a] + 1
                    nxt.append(b)
        frontier = nxt
    return depth


def _is_bridge(k, n_nodes, edges):
    rest = edges[:k] + edges[k + 1:]
    return len(_depths(n_nodes, rest)) < n_nodes


def _lengths_km(rng, n_pipes, total_km):
    if not MIN_KM * n_pipes <= total_km <= MAX_KM * n_pipes:
        raise ValueError("total length out of reach of the 10-50 km range")
    lengths = [rng.randint(MIN_KM, MAX_KM) for _ in range(n_pipes)]
    while sum(lengths) != total_km:
        k = rng.randrange(n_pipes)
        if sum(lengths) > total_km and lengths[k] > MIN_KM:
            lengths[k] -= 1
        elif sum(lengths) < total_km and lengths[k] < MAX_KM:
            lengths[k] += 1
    return lengths


def steady_pressures(pipes, ratios, withdrawals, density_poly,
                     p_slack=SLACK_PRESSURE, iters=60):
    """Steady node pressures of a single-slack network (slack is node 0).

    ``pipes`` lists ``(from, to, length m, diameter m, friction)`` with
    integer node indices, ``ratios`` the inlet boost per pipe and
    ``withdrawals`` the demand in kg/s per node (index 0 ignored).  Returns
    ``None`` when the damped Newton iteration does not converge or a node
    pressure leaves ``(0, 10 p_slack)``.
    """
    u, v = density_poly
    n_nodes, n_m = len(withdrawals), len(pipes)
    n_p = n_nodes - 1
    frm = np.array([p[0] for p in pipes])
    to = np.array([p[1] for p in pipes])
    length = np.array([p[2] for p in pipes])
    area = np.array([math.pi * p[3] ** 2 / 4.0 for p in pipes])
    drag = np.array([p[4] / (2.0 * p[3]) for p in pipes]) * length
    alpha = np.asarray(ratios, dtype=float)
    incid = np.zeros((n_p, n_m))
    for j in range(n_m):
        if to[j]:
            incid[to[j] - 1, j] += 1.0
        if frm[j]:
            incid[frm[j] - 1, j] -= 1.0
    demand = np.asarray(withdrawals[1:], dtype=float)
    f_scale = u * p_slack ** 2 / 2.0

    def big_f(p):
        return u * p * p / 2.0 + v * p ** 3 / 3.0

    def pressures(z):
        return np.concatenate(([p_slack], z[:n_p]))

    def residual(z):
        p, m = pressures(z), z[n_p:]
        phi = m / area
        return np.concatenate((
            incid @ m - demand,
            (big_f(alpha * p[frm]) - big_f(p[to]) - drag * phi * np.abs(phi))
            / f_scale))

    z = np.concatenate((np.full(n_p, p_slack),
                        np.linalg.lstsq(incid, demand, rcond=None)[0]))
    res = residual(z)
    for _ in range(iters):
        if np.max(np.abs(res)) < 1e-12:
            break
        p, m = pressures(z), z[n_p:]
        jac = np.zeros((n_p + n_m, n_p + n_m))
        jac[:n_p, n_p:] = incid
        rows = n_p + np.arange(n_m)
        p_in, p_out = alpha * p[frm], p[to]
        rho_in, rho_out = u * p_in + v * p_in ** 2, u * p_out + v * p_out ** 2
        free_in, free_out = frm > 0, to > 0
        jac[rows[free_in], frm[free_in] - 1] = \
            alpha[free_in] * rho_in[free_in] / f_scale
        jac[rows[free_out], to[free_out] - 1] = -rho_out[free_out] / f_scale
        jac[rows, n_p + np.arange(n_m)] = \
            -2.0 * drag * np.abs(m) / area ** 2 / f_scale
        try:
            dz = np.linalg.solve(jac, -res)
        except np.linalg.LinAlgError:
            return None
        lam, base = 1.0, np.max(np.abs(res))
        while lam > 1e-4:
            trial = z + lam * dz
            trial_res = residual(trial)
            if np.max(np.abs(trial_res)) < base:
                z, res = trial, trial_res
                break
            lam *= 0.5
        else:
            return None
    else:
        return None
    p = pressures(z)
    if not np.all((p > 0) & (p < 10 * p_slack)):
        return None
    return p


def doc_steady_pressures(doc, density_poly):
    """Closed-form steady node pressures, by node id, of a generated
    document with its withdrawals frozen at t = 0."""
    index = {nd["id"]: i for i, nd in enumerate(doc["nodes"])}
    ratios = {c["pipe"]: c["ratio"]["value"] for c in doc["compressors"]}
    pipes = [(index[pd["from"]], index[pd["to"]], pd["length"],
              pd["diameter"], pd["friction"]) for pd in doc["pipes"]]
    profiles = [nd["withdrawal"] for nd in doc["nodes"][1:]]
    withdrawals = [0.0] + [w["value"] if w["type"] == "constant"
                           else w["offset"] for w in profiles]
    p = steady_pressures(pipes, [ratios.get(pd["id"], 1.0)
                                 for pd in doc["pipes"]],
                         withdrawals, density_poly,
                         doc["nodes"][0]["pressure"]["value"])
    return None if p is None else dict(zip(index, map(float, p)))


def generate(seed: int, topology: str = "mesh", n_nodes: int = 29,
             n_pipes: int = 40, total_km: int = 1100,
             dx_target: float = 1000.0, t_end: float = 3600.0,
             cadence: float = 5.0,
             density_poly=(DEFAULT_B1 / DEFAULT_RT, DEFAULT_B2 / DEFAULT_RT),
             schedule_seed: int | None = None) -> dict:
    """Return a v1 config document for a seeded network.

    ``tree`` needs ``n_pipes == n_nodes - 1`` and ``ring`` needs
    ``n_pipes == n_nodes``; ``mesh`` adds random chords to a tree until
    there are ``n_pipes`` pipes.  ``density_poly`` is the EoS pair
    ``(u, v)`` of the cnga model the document selects (its defaults).
    """
    rng = random.Random(seed)
    if topology == "tree":
        if n_pipes != n_nodes - 1:
            raise ValueError("a tree has n_nodes - 1 pipes")
        edges = _tree_edges(rng, n_nodes)
    elif topology == "ring":
        if n_pipes != n_nodes:
            raise ValueError("a ring has n_nodes pipes")
        edges = _ring_edges(rng, n_nodes)
    elif topology == "mesh":
        edges = _add_chords(rng, _tree_edges(rng, n_nodes), n_nodes, n_pipes)
    else:
        raise ValueError(f"unknown topology {topology!r}")

    depth = _depths(n_nodes, edges)
    edges = [(a, b) if (depth[a], a) <= (depth[b], b) else (b, a)
             for a, b in edges]
    lengths = _lengths_km(rng, n_pipes, total_km)
    sizes = [rng.choice(DIAMETERS) for _ in edges]
    bridges = [k for k in range(n_pipes) if _is_bridge(k, n_nodes, edges)]
    boosted = sorted(rng.sample(bridges, min(N_COMPRESSORS, len(bridges))))
    ratios = [1.0] * n_pipes
    for k in boosted:
        ratios[k] = round(rng.uniform(1.1, 1.3), 3)

    base = [0.0] + [round(rng.uniform(0.5, 1.5), 3) for _ in range(1, n_nodes)]
    sched = random.Random(seed if schedule_seed is None else schedule_seed)
    shapes = []
    for _ in range(1, n_nodes):
        if sched.random() < 0.6:
            shapes.append((round(sched.choice((-1, 1)) *
                                 sched.uniform(0.05, 0.2), 3),
                           sched.choice((7200.0, 10800.0, 14400.0, 21600.0))))
        else:
            shapes.append(None)

    pipes = [(a, b, 1000.0 * km, dia, lam)
             for (a, b), km, (dia, lam) in zip(edges, lengths, sizes)]

    target = MIN_PRESSURE_RATIO * SLACK_PRESSURE

    def feasible(scale):
        p = steady_pressures(pipes, ratios, [scale * w for w in base],
                             density_poly)
        return p is not None and np.min(p[1:]) >= target

    lo, hi = 0.0, 1.0
    while feasible(hi):
        lo, hi = hi, 2.0 * hi
    for _ in range(30):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if feasible(mid) else (lo, mid)
    if lo <= 0.0:
        raise ValueError(f"seed {seed}: no feasible withdrawal scale")
    scale = lo

    def node_id(i):
        return f"n{i:02d}"

    nodes = [{"id": node_id(0), "kind": "slack",
              "pressure": {"type": "constant", "value": SLACK_PRESSURE}}]
    for i, (w, shape) in enumerate(zip(base[1:], shapes), start=1):
        value = scale * w
        if shape is None:
            profile = {"type": "constant", "value": value}
        else:
            amp, period = shape
            profile = {"type": "harmonic", "offset": value,
                       "amplitude": amp, "omega": 2.0 * math.pi / period,
                       "phase": 0.0, "relative": True}
        nodes.append({"id": node_id(i), "kind": "demand",
                      "withdrawal": profile})
    doc_pipes = [{"id": f"p{k:02d}", "from": node_id(a), "to": node_id(b),
                  "length": length, "diameter": dia, "friction": lam}
                 for k, (a, b, length, dia, lam) in enumerate(pipes)]
    compressors = [{"pipe": f"p{k:02d}", "side": "inlet",
                    "ratio": {"type": "constant", "value": ratios[k]}}
                   for k in boosted]
    return {"version": "v1", "eos": {"kind": "cnga"}, "nodes": nodes,
            "pipes": doc_pipes, "compressors": compressors,
            "simulation": {"dt": None, "t_end": t_end,
                           "dx_target": dx_target, "cfl_safety": 0.9,
                           "output_cadence": cadence,
                           "output_path": "out"}}
