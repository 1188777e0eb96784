"""Machine-speed sampler: converts wall intervals to reference-speed time.

On a shared 2-vCPU Xeon host the same code runs up to 1.8x slower for
seconds to minutes at a time while other tenants load the physical core,
so raw wall times of two runs of the same code can differ by more than
any useful bound.  While a ``Sampler`` is active, a ``SIGALRM`` every
``PERIOD_S`` makes the interpreter time a fixed reference kernel between
two bytecodes of the program, then resume it.  The kernel is a small
explicit staggered-grid gas step in numpy on five pipes, written here and
independent of the package, so it slows with the machine and not with
the program.  ``reference_clock`` reads clock stamps as the time the
program's work would have taken at the speed where one kernel run takes
``REFERENCE_KERNEL_US``: each stretch of program work between two samples
is scaled by ``REFERENCE_KERNEL_US`` over the median kernel time of the
samples around it, and the time spent in the kernel itself is not
counted.  Medians over many short intervals read this way repeat within
a few percent from run to run where raw wall times do not.
"""

from __future__ import annotations

import signal
import time

import numpy as np

PERIOD_S = 0.03              # wall time between two kernel samples
REFERENCE_KERNEL_US = 350.0  # one kernel run, uncontended, 2-vCPU Xeon
SMOOTH = 5                   # kernel samples in each running median

_CELLS, _PIPES, _STEPS = 768, 5, 3


def _initial_pipes():
    return [(np.linspace(40.0, 38.0 + k, _CELLS), np.full(_CELLS + 1, 200.0))
            for k in range(_PIPES)]


_INITIAL = _initial_pipes()
_WORK = _initial_pipes()


def _pipe_step(rho, phi, dt=0.125, dx=62.5, beta=1e-5):
    p = rho * (2.0e5 + 50.0 * rho)
    a = beta * dt / (rho[:-1] + rho[1:])
    inner = phi[1:-1]
    y = inner - (dt / dx) * (p[1:] - p[:-1]) - a * inner * np.abs(inner)
    phi[1:-1] = 2.0 * y / (1.0 + np.sqrt(1.0 + 4.0 * a * np.abs(y)))
    rho -= (dt / dx) * (phi[1:] - phi[:-1])
    phi[0], phi[-1] = phi[1], phi[-2]
    return float(rho.sum())


def reference_kernel():
    """A fixed amount of work: ``_STEPS`` steps of ``_PIPES`` pipes from
    the same initial state every time."""
    mass = 0.0
    for (rho0, phi0), (rho, phi) in zip(_INITIAL, _WORK):
        rho[:] = rho0
        phi[:] = phi0
    for _ in range(_STEPS):
        for rho, phi in _WORK:
            mass += _pipe_step(rho, phi)
    return mass


class Sampler:
    """Times the reference kernel every ``PERIOD_S`` while entered."""

    def __init__(self):
        self.clock = time.perf_counter
        self.starts, self.ends = [], []
        self._busy = False
        self._old = None

    def _sample(self, signum=None, frame=None):
        if self._busy:             # a late signal inside the kernel: skip
            return
        self._busy = True
        start = self.clock()
        reference_kernel()
        self.ends.append(self.clock())
        self.starts.append(start)
        self._busy = False

    def __enter__(self):
        self._sample()
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        self._sample()
        return False

    def kernel_us(self):
        """Every kernel sample, in microseconds."""
        return 1e6 * (np.array(self.ends) - np.array(self.starts))

    def reference_clock(self, t):
        """Reference-speed time of the program's work from the first sample
        to each stamp in ``t``; every stamp must lie in the sampled
        stretch.  The difference of two readings is the time the work
        between them would take at the reference speed."""
        starts, ends = np.array(self.starts), np.array(self.ends)
        t = np.asarray(t, dtype=float)
        if t.size and not (starts[0] <= t.min() and t.max() <= ends[-1]):
            raise ValueError("stamp outside the sampled stretch")
        kernel = np.pad(ends - starts, SMOOTH // 2, mode="edge")
        smooth = np.median(np.lib.stride_tricks.sliding_window_view(
            kernel, SMOOTH), axis=1)
        # work stretch i runs from the end of sample i to the start of
        # sample i + 1 and is scaled by the kernel speed at both ends;
        # the clock stands still while the kernel runs
        scale = 2e-6 * REFERENCE_KERNEL_US / (smooth[:-1] + smooth[1:])
        work = np.concatenate(([0.0], np.cumsum(
            (starts[1:] - ends[:-1]) * scale)))
        knots = np.column_stack((starts, ends)).ravel()
        return np.interp(t, knots, np.repeat(work, 2))

    def reference_seconds(self, a, b):
        """Time the work in the wall interval ``[a, b]`` would take at the
        reference speed."""
        ra, rb = self.reference_clock([a, b])
        return float(rb - ra)
