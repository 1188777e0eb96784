"""Steady-state network initializer.

In steady state each pipe carries a constant mass flow and its pressure
profile obeys ``dp/dx = -beta phi|phi| / rho(p, x)``.  The unknowns are the
non-slack nodal pressures, then the pipe flows.  The Newton rows read the
network's incidence: each non-slack node's mass balance sums ``sgn * flow``
over its pipe ends, in incidence order, less its withdrawal; each pipe's row
is the outlet pressure that its profile reaches from the boosted from-node
pressure, less the boosted to-node pressure.  A damped Newton iteration
with a finite-difference Jacobian drives the rows to zero around an
adaptive ODE integration of each pipe profile.  A pipe row that is not
finite (an overflowing profile) stops the solve at once, naming the pipe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SteadyStateError
from .network import Network
from .ode import rk45

PRESSURE_FLOOR = 1e4       # Pa; below this a pipe is considered drained
MAX_NEWTON_ITERS = 100
NODE_TOL = 1e-8            # kg/s
PIPE_TOL = 1e-4            # Pa
ODE_RTOL = 1e-10


def _constant_profile(p):
    return lambda x: p * np.ones_like(np.asarray(x, dtype=float))


def integrate_pipe_pressure(eos, geometry, p_in: float, mflow: float,
                            dense: bool = False):
    """Integrate the steady pressure profile from the pipe inlet.

    Returns ``(p_out, profile)`` where ``profile(x)`` is available when
    ``dense``.  If the pressure hits the floor before the outlet, ``p_out``
    continues linearly downward so a Newton caller sees a monotone,
    strongly negative residual instead of a crash.
    """
    length = geometry.length
    phi = mflow / geometry.area
    if p_in <= PRESSURE_FLOOR:
        return p_in - length, (_constant_profile(p_in) if dense else None)
    if geometry.beta == 0.0 or phi == 0.0:
        return p_in, (_constant_profile(p_in) if dense else None)
    # a profile that overflows comes back non-finite for the caller to
    # report by pipe, without numpy's floating-point warnings on the way
    with np.errstate(all="ignore"):
        drag = geometry.beta * phi * abs(phi)

        def rhs(x, p):
            return [-drag / eos.at(x).density(max(p[0], PRESSURE_FLOOR))]

        def hit_floor(x, p):
            return p[0] - PRESSURE_FLOOR

        x_end, p_end, sol = rk45(rhs, length, p_in, ODE_RTOL, 1e-2,
                                 hit_floor, dense)
        if x_end < length:
            slope = drag / eos.at(x_end).density(PRESSURE_FLOOR)
            p_out = PRESSURE_FLOOR - slope * (length - x_end)
            return p_out, None
    profile = (lambda x: sol(np.asarray(x, dtype=float))[0]) \
        if dense else None
    return float(p_end), profile


@dataclass
class SteadySolution:
    """Converged steady state of a network at the schedule time t0."""

    node_pressures: dict
    pipe_flows: dict               # kg/s, positive from-node -> to-node
    pipe_end_pressures: dict       # pipe id -> (inlet, outlet) Pa, after boost
    profiles: dict                 # pipe id -> p(x) callable

    def populate(self, net: Network, t0: float = 0.0) -> None:
        """Write every pipe's steady cell densities and face fluxes into
        the network's state (``Network.write_state``), and start the
        network's clock at ``t0``."""
        for e in net.edges:
            prof = self.profiles[e.id]
            net.write_state(e.id, e.gas.density(prof(e.grid.cell_centers)),
                            np.full(e.grid.n_cells + 1,
                                    self.pipe_flows[e.id] / e.geometry.area))
        net.time = t0
        net.step_index = 0

    def to_dict(self) -> dict:
        """Node pressures, pipe flows and end pressures as JSON-ready dicts."""
        return {"node_pressures": dict(self.node_pressures),
                "pipe_flows": dict(self.pipe_flows),
                "pipe_end_pressures": {k: list(v) for k, v in
                                       self.pipe_end_pressures.items()}}


def solve_steady_state(net: Network, t0: float = 0.0) -> SteadySolution:
    """Solve nodal pressures and pipe flows for schedules frozen at ``t0``."""
    free_nodes = [n for n in net.nodes if not n.is_slack]
    n_p, n_m = len(free_nodes), len(net.edges)
    node_pos = {n.id: i for i, n in enumerate(free_nodes)}
    slack_p = {n.id: n.bc.pressure(t0) for n in net.nodes if n.is_slack}
    p_scale = max(slack_p.values())
    edge_pos = {e.id: j for j, e in enumerate(net.edges)}
    balances = [[(end.sgn, edge_pos[end.edge.id])
                 for end in net.incidence[n.id]] for n in free_nodes]
    withdrawals = np.array([n.bc.withdrawal(t0) for n in free_nodes])
    # pipe id, end sign -> (node id, boost ratio at t0) of that pipe end
    boosts = {(end.edge.id, end.sgn): (node_id, end.ratio(t0))
              for node_id, ends in net.incidence.items() for end in ends}

    def node_pressure(z, node_id):
        return slack_p[node_id] if node_id in slack_p \
            else z[node_pos[node_id]]

    def pipe_pressures(z, j, dense=False):
        """Pipe ``j``'s boosted inlet, outlet and boosted to-node pressures,
        and its profile when ``dense``."""
        e = net.edges[j]
        (frm, a_in), (to, a_out) = boosts[e.id, -1], boosts[e.id, +1]
        p_in = a_in * node_pressure(z, frm)
        p_out, profile = integrate_pipe_pressure(net.eos, e.geometry, p_in,
                                                 z[n_p + j], dense)
        return p_in, p_out, a_out * node_pressure(z, to), profile

    def residual(z):
        res = np.empty(n_p + n_m)
        for i, ends in enumerate(balances):
            bal = -withdrawals[i]
            for sgn, j in ends:
                bal += sgn * z[n_p + j]
            res[i] = bal
        for j in range(n_m):
            p_in, p_out, p_down, _ = pipe_pressures(z, j)
            res[n_p + j] = p_out - p_down
            if not np.isfinite(res[n_p + j]):
                raise SteadyStateError(
                    f"steady pressure of pipe {net.edges[j].id} is not "
                    f"finite: outlet {p_out:g} Pa from inlet {p_in:g} Pa "
                    f"at flow {z[n_p + j]:g} kg/s")
        return res

    def scaled_norm(res):
        s = res.copy()
        s[n_p:] /= p_scale
        return float(np.max(np.abs(s)))

    def converged(res):
        return (np.max(np.abs(res[:n_p]), initial=0.0) <= NODE_TOL and
                np.max(np.abs(res[n_p:]), initial=0.0) <= PIPE_TOL)

    # initial guess: slack pressure everywhere, minimum-norm demand routing
    z = np.empty(n_p + n_m)
    z[:n_p] = p_scale
    incid = np.zeros((n_p, n_m))
    for i, ends in enumerate(balances):
        for sgn, j in ends:
            incid[i, j] = sgn
    if n_m and n_p:
        z[n_p:] = np.linalg.lstsq(incid, withdrawals, rcond=None)[0]
    else:
        z[n_p:] = 0.0

    res = residual(z)
    for iteration in range(MAX_NEWTON_ITERS):
        if converged(res):
            break
        jac = np.empty((n_p + n_m, n_p + n_m))
        for k in range(n_p + n_m):
            typ = p_scale if k < n_p else max(1.0, abs(z[k]))
            h = 1e-7 * typ
            zp = z.copy()
            zp[k] += h
            jac[:, k] = (residual(zp) - res) / h
        try:
            dz = np.linalg.lstsq(jac, -res, rcond=None)[0]
        except np.linalg.LinAlgError:
            raise SteadyStateError("singular Jacobian in steady solve")
        base = scaled_norm(res)
        lam = 1.0
        for _ in range(14):
            trial = z + lam * dz
            trial_res = residual(trial)
            if scaled_norm(trial_res) < base or converged(trial_res):
                z, res = trial, trial_res
                break
            lam *= 0.5
        else:
            raise SteadyStateError(
                f"steady Newton stalled at iteration {iteration}; "
                f"worst node residual {np.max(np.abs(res[:n_p]), initial=0):.3e} kg/s")
    else:
        raise SteadyStateError(
            f"steady Newton did not converge in {MAX_NEWTON_ITERS} iterations; "
            f"worst node residual {np.max(np.abs(res[:n_p]), initial=0):.3e} kg/s")

    node_pressures = {n.id: node_pressure(z, n.id) for n in net.nodes}
    if any(p <= PRESSURE_FLOOR for p in node_pressures.values()):
        raise SteadyStateError("steady state has non-positive nodal pressure")
    flows = {e.id: float(z[n_p + j]) for j, e in enumerate(net.edges)}
    profiles, ends = {}, {}
    for j, e in enumerate(net.edges):
        p_in, p_out, _, prof = pipe_pressures(z, j, dense=True)
        if prof is None or p_out <= PRESSURE_FLOOR:
            raise SteadyStateError(f"pipe {e.id} drains below the pressure "
                                   f"floor in steady state")
        profiles[e.id] = prof
        ends[e.id] = (p_in, p_out)
    return SteadySolution(node_pressures=node_pressures, pipe_flows=flows,
                          pipe_end_pressures=ends, profiles=profiles)
