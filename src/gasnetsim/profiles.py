"""Time-varying schedules for boundary data, withdrawals and boost ratios.

A profile maps time in seconds to a value; profiles with a ``period`` wrap
time first (``t mod period``), and the subclasses' methods act on wrapped
time.  Every number a profile is built from is a finite number (no boolean
or string), except that a step sequence's last interval may end at ``+inf``.
Instances are frozen dataclasses: immutable, and freely shared.  A profile
evaluates an array of times at once, in the operations of its scalar form,
so each value has the bits of the profile's call at that time.
"""

from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass, field, fields

import numpy as np


def _float(value, name) -> float:
    """``value`` as a float, an integer beyond the float range as an
    infinity; raises TypeError for a boolean or a string."""
    if isinstance(value, (bool, str)):
        raise TypeError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _finite(value, name) -> float:
    """``value`` as a float; raises ValueError unless it is finite."""
    value = _float(value, name)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class TimeProfile:
    """Base class; subclasses implement ``_value`` and ``_at_times``."""

    kind = ""
    period: float | None = field(default=None, kw_only=True)

    def __post_init__(self):
        if self.period is not None:
            period = _float(self.period, "period")
            if not 0 < period <= sys.float_info.max:
                raise ValueError("period must be positive and finite")
            object.__setattr__(self, "period", period)
        for f in fields(self):      # every field annotated "float" is finite
            if f.type == "float":
                object.__setattr__(self, f.name,
                                   _finite(getattr(self, f.name), f.name))

    def __call__(self, t: float) -> float:
        if self.period is not None:
            t = t % self.period
        return self._value(t)

    def _value(self, t: float) -> float:
        raise NotImplementedError

    def at_times(self, times: np.ndarray) -> np.ndarray:
        """The profile at every entry of the float array ``times``, each
        the bits of ``self(t)``: ``np.remainder`` is Python's float ``%``."""
        if self.period is not None:
            times = np.remainder(times, self.period)
        return self._at_times(times)

    def minimum(self) -> float:
        """The lowest value the profile can take."""
        raise NotImplementedError

    def to_config(self) -> dict:
        """The fields that equality compares, by constructor keyword;
        ``json.dumps`` writes their tuples as lists."""
        cfg = {"type": self.kind}
        cfg.update((f.name, getattr(self, f.name)) for f in fields(self)
                   if f.compare and getattr(self, f.name) is not None)
        return cfg


@dataclass(frozen=True)
class Constant(TimeProfile):
    kind = "constant"
    value: float

    def _value(self, t):
        return self.value

    def _at_times(self, t):
        return np.full(t.shape, self.value)

    def minimum(self):
        return self.value


@dataclass(frozen=True)
class Harmonic(TimeProfile):
    """Affine sinusoid ``offset + amplitude * sin(omega (t - phase))``.

    With ``relative=True`` the amplitude is a fraction of the offset:
    ``offset * (1 + amplitude * sin(omega (t - phase)))``.
    """

    kind = "harmonic"
    offset: float
    amplitude: float
    omega: float
    phase: float = 0.0
    relative: bool = False

    def __post_init__(self):
        super().__post_init__()
        if not isinstance(self.relative, bool):
            raise TypeError(f"relative must be a boolean, got "
                            f"{self.relative!r}")

    def _value(self, t):
        s = math.sin(self.omega * (t - self.phase))
        if self.relative:
            return self.offset * (1.0 + self.amplitude * s)
        return self.offset + self.amplitude * s

    def _at_times(self, t):
        x = self.omega * (t - self.phase)
        if np.isinf(x).any():
            raise ValueError("math domain error")    # as math.sin raises
        s = np.sin(x)
        if self.relative:
            return self.offset * (1.0 + self.amplitude * s)
        return self.offset + self.amplitude * s

    def minimum(self):
        swing = self.amplitude * (self.offset if self.relative else 1.0)
        return self.offset - abs(swing)


@dataclass(frozen=True)
class PiecewiseLinear(TimeProfile):
    """Linear interpolation through ``(t, value)`` knots; clamped outside."""

    kind = "piecewise_linear"
    knots: tuple

    def __post_init__(self):
        super().__post_init__()
        knots = tuple((_finite(t, "knot time"), _finite(v, "knot value"))
                      for t, v in self.knots)
        if len(knots) < 2:
            raise ValueError("need at least two knots")
        times = [t for t, _ in knots]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("knot times must be strictly increasing")
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "_times", times)
        object.__setattr__(self, "_values", [v for _, v in knots])

    def _value(self, t):
        times, values = self._times, self._values
        if t <= times[0]:
            return values[0]
        if t >= times[-1]:
            return values[-1]
        i = bisect.bisect_right(times, t)
        t0, t1 = times[i - 1], times[i]
        v0, v1 = values[i - 1], values[i]
        return v0 + (v1 - v0) * (t - t0) / (t1 - t0)

    def _at_times(self, t):
        times, values = np.array(self._times), np.array(self._values)
        i = np.searchsorted(times, t, side="right").clip(1, times.size - 1)
        t0, t1, v0, v1 = times[i - 1], times[i], values[i - 1], values[i]
        inner = v0 + (v1 - v0) * (t - t0) / (t1 - t0)
        return np.where(t <= times[0], values[0],
                        np.where(t >= times[-1], values[-1], inner))

    def minimum(self):
        return min(self._values)


@dataclass(frozen=True)
class StepSequence(TimeProfile):
    """Piecewise-constant values on right-open intervals ``[t_k, t_{k+1})``.

    ``intervals`` lists ``(t_end, value)`` pairs in increasing ``t_end``
    order; the final value also applies beyond the last ``t_end``.
    """

    kind = "step_sequence"
    intervals: tuple

    def __post_init__(self):
        super().__post_init__()
        intervals = tuple((_float(te, "interval end"), _finite(v, "value"))
                          for te, v in self.intervals)
        if not intervals:
            raise ValueError("need at least one interval")
        ends = [te for te, _ in intervals]
        if not all(map(math.isfinite, ends[:-1])) or not -math.inf < ends[-1]:
            raise ValueError("interval ends must be finite (the last may be +inf)")
        if any(b <= a for a, b in zip(ends, ends[1:])):
            raise ValueError("interval ends must be strictly increasing")
        object.__setattr__(self, "intervals", intervals)
        object.__setattr__(self, "_ends", ends)
        object.__setattr__(self, "_values", [v for _, v in intervals])

    def _value(self, t):
        i = bisect.bisect_right(self._ends, t)
        return self._values[min(i, len(self._values) - 1)]

    def _at_times(self, t):
        i = np.searchsorted(self._ends, t, side="right")
        return np.array(self._values)[np.minimum(i, len(self._values) - 1)]

    def minimum(self):
        return min(self._values)


_KINDS = {cls.kind: cls for cls in (Constant, Harmonic, PiecewiseLinear,
                                    StepSequence)}


def profile_from_config(cfg) -> TimeProfile:
    """Build a profile from its config dict; bare numbers mean constant."""
    if isinstance(cfg, (int, float)):
        return Constant(cfg)
    if not isinstance(cfg, dict) or "type" not in cfg:
        raise ValueError(f"profile config must be a number or a dict with "
                         f"'type', got {cfg!r}")
    kind = cfg["type"]
    if kind not in _KINDS:
        raise ValueError(f"unknown profile type {kind!r}")
    return _KINDS[kind](**{k: v for k, v in cfg.items() if k != "type"})
