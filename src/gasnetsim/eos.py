"""Equation-of-state models relating gas density and pressure.

Every model is the quadratic map ``p (b1 + b2 p) = RT rho`` of ``CngaGas``:
the ideal gas is its ``b1 = 1, b2 = 0`` case, and the non-isothermal model
maps positions to the gas with the local coefficients.  A gas exposes:

* ``density(p)``   -- inverse map ``rho = P^{-1}(p)``
* ``pressure(rho)`` -- forward map ``p = P(rho)``
* ``compressibility(p)`` -- factor ``Z`` in ``p = Z R T rho``
* ``wave_speed_sq(rho)`` -- local ``P'(rho)``, the squared wave speed
* ``density_poly()`` -- coefficients ``(u, v)`` with ``rho(p) = u p + v p**2``
* ``at(x)`` -- the gas at positions ``x``, with per-cell coefficient arrays
  when ``x`` is an array; a uniform gas returns itself

A pipe binds its gas once, ``eos.at(cell_centers)``; ``gas[i]`` is the
gas of cell ``i``, and ``gas[cells]`` of a slice or index array is the gas
of those cells, read from the bound coefficients and not checked again.
All methods accept scalars or numpy arrays.  Models hold no mutable state
after construction, so instances can be shared freely across concurrent
runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

UNIVERSAL_GAS_CONSTANT = 8314.46   # J/(k-mol K)
AIR_MOLAR_MASS = 28.9626           # kg/k-mol

# Hard-coded isothermal fit (60 F, gravity 0.650784).  Benchmark scenarios
# use this pair verbatim so their nominal values reproduce exactly; the
# detailed derivation reproduces it to ~1e-2.
DEFAULT_B1 = 1.00300865
DEFAULT_B2 = 2.96848838e-8         # 1/Pa
DEFAULT_RT = 1.368207e5            # J/kg
DEFAULT_GRAVITY = 0.650784         # 80% methane / 20% ethane mix

# Compressibility fit Z = 1/(1 + a1 (14.7 + p/6894.75729) 10^(a2 G)
# / (1.8 T)**a3) with p in Pa, T in K and G the gas gravity (air = 1): the
# only place imperial units appear (psi, and degrees Rankine as 1.8 T)
FIT_A1 = 344400.0
FIT_A2 = 1.785
FIT_A3 = 3.825
ATMOSPHERE_PSI = 14.7
PA_PER_PSI = 6894.75729


# the fit's b1 = 1 + 14.7 c1 / T**a3 is largest at the domain's coldest,
# heaviest corner; CngaGas.pressure squares b1, and at 1 K that square
# overflows a float above a gravity of ~83.1
MAX_FIT_GRAVITY = 80.0
MIN_FIT_TEMPERATURE = 1.0
# the fit's b2 = c1 / (6894.75729 T**a3) divides by a float that
# overflows above ~3.9e79 K
MAX_FIT_TEMPERATURE = 1e70
# RT = 287.08 T / G is largest at the domain's hottest, lightest corner,
# and at 1e70 K it overflows a float below a gravity of ~1.6e-236
MIN_FIT_GRAVITY = 1e-200


def _check_gravity(gravity):
    if not 0 < gravity < math.inf:     # rejects NaN too
        raise ValueError(f"gas gravity must be positive and finite, "
                         f"got {gravity}")


def _check_fit_gravity(gravity):
    _check_gravity(gravity)
    if not MIN_FIT_GRAVITY <= gravity <= MAX_FIT_GRAVITY:
        raise ValueError(f"gas gravity {gravity} is beyond the "
                         f"compressibility fit's domain ({MIN_FIT_GRAVITY:g}"
                         f" to {MAX_FIT_GRAVITY:g})")


def _check_fit_temperature(coldest, hottest):
    # written with "not" so that NaN is rejected too
    if not coldest >= MIN_FIT_TEMPERATURE:
        raise ValueError(f"temperature {coldest} K is below the "
                         f"compressibility fit's domain (at least "
                         f"{MIN_FIT_TEMPERATURE:g} K)")
    if not hottest <= MAX_FIT_TEMPERATURE:
        raise ValueError(f"temperature {hottest} K is above the "
                         f"compressibility fit's domain (at most "
                         f"{MAX_FIT_TEMPERATURE:g} K)")


def gas_constant_from_gravity(gravity: float) -> float:
    """Specific gas constant R_g in J/(kg K) for a given gas gravity."""
    _check_gravity(gravity)
    return UNIVERSAL_GAS_CONSTANT / (AIR_MOLAR_MASS * gravity)


def cnga_coefficients(temperature, gravity: float = DEFAULT_GRAVITY):
    """Compressibility-fit coefficients ``(b1, b2)`` at a temperature in K.

    The factor is approximated as ``Z = 1/(b1 + b2 p)`` with ``p`` in Pa:
    ``b1 = 1 + 14.7 c1 / T**a3``, ``b2 = c1 / (6894.75729 T**a3)``.
    """
    _check_fit_gravity(gravity)
    temperature = np.asarray(temperature, dtype=float)
    # NaN if any is NaN; inf and -inf if there are none
    _check_fit_temperature(temperature.min(initial=math.inf),
                           temperature.max(initial=-math.inf))
    c1 = FIT_A1 * 10.0 ** (FIT_A2 * gravity) / 1.8 ** FIT_A3
    t_pow = temperature ** FIT_A3
    b1 = 1.0 + c1 * ATMOSPHERE_PSI / t_pow
    b2 = c1 / (PA_PER_PSI * t_pow)
    if b1.ndim == 0:
        return float(b1), float(b2)
    return b1, b2


@dataclass(frozen=True)
class TemperatureProfile:
    """Static along-pipe temperature: ambient plus an exponential spike.

    ``T(x) = ambient + jump * exp(-decay_rate * x)`` with x in metres from
    the pipe inlet.
    """

    ambient: float
    jump: float = 0.0
    decay_rate: float = 0.0

    def __post_init__(self):
        # for x >= 0, T(x) lies between ambient and ambient + jump
        if not (0 < self.ambient < math.inf and
                0 < self.ambient + self.jump < math.inf and
                0 <= self.decay_rate < math.inf):
            raise ValueError("temperatures must be positive and finite and "
                             "the decay rate non-negative")

    def temperature(self, x):
        x = np.asarray(x, dtype=float)
        t = self.ambient + self.jump * np.exp(-self.decay_rate * x)
        return float(t) if t.ndim == 0 else t


def _check_nonnegative(value, name):
    if (np.asarray(value) < 0).any():
        raise ValueError(f"{name} must be non-negative")


def _check_positive(value, name):
    if (np.asarray(value) <= 0).any():
        raise ValueError(f"{name} must be positive")


class CngaGas:
    """Non-ideal gas with ``Z = 1/(b1 + b2 p)``.

    The state relation ``p (b1 + b2 p) = RT rho`` gives a quadratic-in-p
    bijection; the inverse takes the positive root in the rationalized form
    ``p = 2 RT rho / (b1 + sqrt(b1**2 + 4 b2 RT rho))``, which stays exact
    at ``b2 = 0``.  The coefficients are scalars for a uniform gas or
    per-cell arrays for a gas bound to a grid.
    """

    def __init__(self, b1=DEFAULT_B1, b2=DEFAULT_B2, rt=DEFAULT_RT):
        # written as "not >=" so that NaN coefficients are rejected too
        if not np.all(np.asarray(b1) >= 1.0):
            raise ValueError("b1 must be >= 1")
        if not np.all(np.asarray(b2) >= 0):
            raise ValueError("b2 must be non-negative")
        if not np.all(np.asarray(rt) > 0):
            raise ValueError("RT must be positive")
        largest = float(np.max(b1, initial=1.0))    # pressure squares b1
        if not largest * largest < math.inf:
            raise ValueError(f"b1 = {largest:g} squares beyond the float "
                             f"range")
        self.b1 = b1
        self.b2 = b2
        self.rt = rt

    @classmethod
    def from_temperature(cls, temperature,
                         gravity: float = DEFAULT_GRAVITY) -> "CngaGas":
        """Derive the fit pair from temperature and gas gravity."""
        gas = object.__new__(cls)    # the fit functions check the inputs
        gas.b1, gas.b2 = cnga_coefficients(temperature, gravity)
        gas.rt = gas_constant_from_gravity(gravity) * temperature
        return gas

    def at(self, x) -> "CngaGas":
        """The gas at positions ``x``: the same everywhere."""
        return self

    def __getitem__(self, cells) -> "CngaGas":
        """The gas of ``cells`` of a gas bound to a grid: one cell's with
        float coefficients for an index, the cells' coefficient arrays for
        a slice or an index array.  A uniform gas returns itself."""
        coefficients = (self.b1, self.b2, self.rt)
        if not any(getattr(c, "ndim", 0) for c in coefficients):
            return self
        one = isinstance(cells, (int, np.integer))
        part = object.__new__(CngaGas)    # a part of a valid gas is valid
        part.b1, part.b2, part.rt = (
            c if not getattr(c, "ndim", 0) else
            float(c[cells]) if one else c[cells] for c in coefficients)
        return part

    def density(self, p):
        _check_nonnegative(p, "pressure")
        return p * (self.b1 + self.b2 * p) / self.rt

    def pressure(self, rho):
        _check_nonnegative(rho, "density")
        rtrho = self.rt * rho
        return 2.0 * rtrho / (self.b1 + np.sqrt(self.b1 * self.b1 +
                                                4.0 * self.b2 * rtrho))

    def compressibility(self, p):
        _check_nonnegative(p, "pressure")
        return 1.0 / (self.b1 + self.b2 * p)

    def wave_speed_sq(self, rho):
        _check_positive(rho, "density")
        return self.rt / (self.b1 + 2.0 * self.b2 * self.pressure(rho))

    def density_poly(self):
        return self.b1 / self.rt, self.b2 / self.rt

    def __repr__(self):
        return f"CngaGas(b1={self.b1!r}, b2={self.b2!r}, rt={self.rt!r})"


class IdealGas(CngaGas):
    """Ideal gas at fixed sound speed: ``p = c**2 rho``, the ``b2 = 0`` case
    of CNGA with ``b1 = 1`` and ``RT = c**2``."""

    def __init__(self, wave_speed: float):
        if wave_speed <= 0:
            raise ValueError("wave speed must be positive")
        self.wave_speed = float(wave_speed)
        if self.wave_speed * self.wave_speed == math.inf:
            raise ValueError(f"wave speed = {self.wave_speed:g} squares "
                             f"beyond the float range")
        super().__init__(1.0, 0.0, self.wave_speed ** 2)

    def __repr__(self):
        return f"IdealGas(wave_speed={self.wave_speed!r})"


@dataclass(frozen=True)
class NonIsothermalCnga:
    """Non-ideal gas with a static temperature profile along the pipe: a map
    from positions to the CNGA gas with the local temperature's fit."""

    profile: TemperatureProfile
    gravity: float = DEFAULT_GRAVITY

    def __post_init__(self):
        _check_fit_gravity(self.gravity)
        ambient = self.profile.ambient     # T(x >= 0) lies between the ends
        ends = ambient, ambient + self.profile.jump
        _check_fit_temperature(min(ends), max(ends))

    def at(self, x) -> CngaGas:
        """The gas with ``from_temperature``'s fit at ``T(x)``."""
        return CngaGas.from_temperature(self.profile.temperature(x),
                                        self.gravity)


# each kind's (required, optional) config keys: the one list of them
EOS_KEYS = {
    "ideal": ({"wave_speed"}, set()),
    "cnga": (set(), {"b1", "b2", "rt"}),
    "cnga_detailed": ({"t_kelvin", "gas_gravity"}, set()),
    "cnga_nonisothermal": ({"t_ambient", "t_jump", "decay_rate",
                            "gas_gravity"}, set()),
}


def make_eos(kind: str, **params):
    """Build an EoS model from the ``EOS_KEYS[kind]`` config parameters."""
    if kind == "ideal":
        return IdealGas(wave_speed=params["wave_speed"])
    if kind == "cnga":
        return CngaGas(b1=params.get("b1", DEFAULT_B1),
                       b2=params.get("b2", DEFAULT_B2),
                       rt=params.get("rt", DEFAULT_RT))
    if kind == "cnga_detailed":
        return CngaGas.from_temperature(params["t_kelvin"],
                                        params["gas_gravity"])
    if kind == "cnga_nonisothermal":
        profile = TemperatureProfile(params["t_ambient"], params["t_jump"],
                                     params["decay_rate"])
        return NonIsothermalCnga(profile, params["gas_gravity"])
    raise ValueError(f"unknown eos kind {kind!r}")
