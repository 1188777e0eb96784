"""Single-pipe staggered-grid state and the explicit update substeps.

Densities live at cell centers on integer time layers, fluxes at cell faces
(including both pipe ends) on half-integer layers.  A completed step leaves
the stored flux trailing the stored density by half a step, so ``step``
performs, in order: the interior flux update, the boundary-face update from
the boundary conditions, and the density update.

Mass is conserved exactly: summing the density update over cells telescopes
the interior fluxes away, leaving only the boundary throughput.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PositivityError, UnstableRunError


@dataclass(frozen=True)
class PipeGeometry:
    """Physical pipe parameters: length, diameter, Darcy friction factor."""

    length: float
    diameter: float
    friction: float

    def __post_init__(self):
        if self.length <= 0 or self.diameter <= 0 or self.friction < 0:
            raise ValueError("pipe length and diameter must be positive, "
                             "friction non-negative")

    @property
    def area(self) -> float:
        return np.pi * self.diameter ** 2 / 4.0

    @property
    def beta(self) -> float:
        """Friction coefficient lambda/(2 D) in 1/m."""
        return self.friction / (2.0 * self.diameter)


@dataclass(frozen=True)
class PipeGrid:
    """Uniform staggered grid: ``n_cells`` centers, ``n_cells + 1`` faces."""

    length: float
    n_cells: int

    def __post_init__(self):
        if self.n_cells < 2:
            raise ValueError("need at least 2 cells so an interior face exists")
        if self.length <= 0:
            raise ValueError("grid length must be positive")

    @property
    def dx(self) -> float:
        return self.length / self.n_cells

    @property
    def cell_centers(self) -> np.ndarray:
        return (np.arange(self.n_cells) + 0.5) * self.dx

    @property
    def faces(self) -> np.ndarray:
        return np.arange(self.n_cells + 1) * self.dx


@dataclass
class PipeState:
    """Density per cell at time ``time``; flux per face half a step behind."""

    rho: np.ndarray
    phi: np.ndarray
    time: float = 0.0
    step_index: int = 0

    def __post_init__(self):
        self.rho = np.asarray(self.rho, dtype=float)
        self.phi = np.asarray(self.phi, dtype=float)
        if self.phi.shape != (self.rho.size + 1,):
            raise ValueError("phi must have one more entry than rho")
        if not (self.rho > 0).all():
            raise ValueError("initial density must be positive everywhere")


def uniform_state(grid: PipeGrid, rho: float, phi: float = 0.0) -> PipeState:
    return PipeState(np.full(grid.n_cells, float(rho)),
                     np.full(grid.n_cells + 1, float(phi)))


def friction_invert(y, a):
    """Solve ``x (1 + a |x|) = y`` for x (unique real root), a >= 0.

    Uses the rationalized root ``sign(y) 2|y| / (1 + sqrt(1 + 4 a |y|))``,
    which is exact at a = 0 and avoids cancellation for small ``a |y|``.
    """
    if (np.asarray(a) < 0).any():
        raise ValueError("friction context a must be non-negative")
    scalar = np.ndim(y) == 0 and np.ndim(a) == 0
    y, a = np.broadcast_arrays(np.array(y, dtype=float, ndmin=1), a)
    out = _friction_root(y.copy(), a)
    return float(out[0]) if scalar else out


def _friction_root(y, a):
    """``friction_invert``'s root, without its sign check, written into
    ``y``, a scratch array of the result's shape."""
    ay = np.abs(y)
    den = 4.0 * a * ay
    den += 1.0
    np.sqrt(den, out=den)
    den += 1.0
    np.sign(y, out=y)
    y *= 2.0
    y *= ay
    y /= den
    return y


def face_fluxes(rho, p, phi, beta_dt, dt_dx):
    """New fluxes at the faces between consecutive cells ``rho[:-1]`` and
    ``rho[1:]``, from the faces' current fluxes ``phi`` and the cell
    pressures ``p``; ``beta_dt`` (``beta dt``) and ``dt_dx`` are scalars or
    per-face arrays.  With positive densities and ``dt`` the friction
    context ``a`` is non-negative, so ``friction_invert``'s check is
    skipped.

    Each face decouples: with ``a = beta dt / (rho_i + rho_{i+1})`` the new
    flux solves ``x (1 + a |x|) = phi - (dt/dx)(p_{i+1} - p_i) - a phi|phi|``.
    """
    a = rho[:-1] + rho[1:]
    np.divide(beta_dt, a, out=a)
    with np.errstate(over="ignore", invalid="ignore"):
        y = p[1:] - p[:-1]
        y *= dt_dx
        np.subtract(phi, y, out=y)
        drag = a * phi
        drag *= np.abs(phi)
        y -= drag
        return _friction_root(y, a)


def interior_flux_update(state: PipeState, geom: PipeGeometry, grid: PipeGrid,
                         gas, dt: float, pipe_id: str = "") -> None:
    """Advance the interior-face fluxes one step (``face_fluxes``) using
    current densities and the gas bound to the cells."""
    new = face_fluxes(state.rho, gas.pressure(state.rho), state.phi[1:-1],
                      geom.beta * dt, dt / grid.dx)
    if not np.isfinite(new).all():
        raise UnstableRunError(
            state.step_index, int(np.flatnonzero(~np.isfinite(new))[0]) + 1,
            pipe_id)
    state.phi[1:-1] = new


def density_update(state: PipeState, grid: PipeGrid, dt: float,
                   pipe_id: str = "") -> None:
    """Advance densities one step from the face fluxes; advances time."""
    rho = state.rho
    rho -= dt / grid.dx * (state.phi[1:] - state.phi[:-1])
    if not (rho > 0).all():
        bad = rho <= 0
        if not np.all(np.isfinite(rho)):
            bad = bad | ~np.isfinite(rho)
        raise PositivityError(state.step_index + 1,
                              int(np.flatnonzero(bad)[0]), pipe_id)
    state.step_index += 1
    state.time += dt


def cfl_max_dt(state: PipeState, grid: PipeGrid, gas, safety: float = 1.0) -> float:
    """Largest stable step ``safety * dx / max sqrt(P'(rho))`` over the
    current density field (frozen-coefficient bound)."""
    if not 0.0 < safety <= 1.0:
        raise ValueError("cfl safety must be in (0, 1]")
    speed = np.sqrt(np.max(gas.wave_speed_sq(state.rho)))
    return safety * grid.dx / speed


def total_mass(state: PipeState, geom: PipeGeometry, grid: PipeGrid) -> float:
    return geom.area * grid.dx * float(state.rho.sum())


def boundary_throughput(state: PipeState, geom: PipeGeometry) -> float:
    """Net mass inflow rate S (phi_0 - phi_N) for the current flux layer."""
    return geom.area * (state.phi[0] - state.phi[-1])


@dataclass
class FluxBC:
    """Prescribed boundary mass flux, assigned at the half layer."""

    profile: object


@dataclass
class PressureBC:
    """Prescribed boundary pressure, imposed as the density it gives in the
    boundary cell's gas through the mass-conservation back-solve."""

    profile: object


def step(state: PipeState, geom: PipeGeometry, grid: PipeGrid, gas,
         bc_left, bc_right, dt: float, pipe_id: str = "") -> PipeState:
    """One full explicit step: interior fluxes, boundary fluxes (left end
    first), densities.  A flux end takes its profile at ``t + dt/2``; a
    pressure end lands its cell on its pressure's density at ``t + dt``."""
    interior_flux_update(state, geom, grid, gas, dt, pipe_id)
    t, rho, phi = state.time, state.rho, state.phi
    if isinstance(bc_left, PressureBC):
        target = gas[0].density(bc_left.profile(t + dt))
        phi[0] = phi[1] + grid.dx / dt * (target - rho[0])
    else:
        phi[0] = bc_left.profile(t + 0.5 * dt)
    if isinstance(bc_right, PressureBC):
        target = gas[-1].density(bc_right.profile(t + dt))
        phi[-1] = phi[-2] - grid.dx / dt * (target - rho[-1])
    else:
        phi[-1] = bc_right.profile(t + 0.5 * dt)
    density_update(state, grid, dt, pipe_id)
    return state
