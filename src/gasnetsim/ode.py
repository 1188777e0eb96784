"""Dormand-Prince RK45 for one scalar ODE, stopped by a terminal event.

A port of the one path of scipy 1.17's ``solve_ivp`` that the steady
solve takes: ``solve_ivp(fun, (0, t_bound), [y0], method="RK45",
rtol=rtol, atol=atol, events=event, dense_output=dense)`` with ``event``
terminal in either direction and no ``max_step``, ``first_step`` or
``t_eval``.  Every numpy call keeps scipy's shapes and order of
operations, so each result is scipy's to the bit (``tests/test_steady.py``
compares them).  The pair is Dormand and Prince's (J. Comput. Appl.
Math. 6, 19-26, 1980) with Shampine's quartic dense output (Math. Comp.
46, 135-150, 1986); the event's root is found by Brent's method as in
scipy's ``brentq``.

Ported from SciPy's ``scipy/integrate/_ivp`` (``rk.py``, ``common.py``,
``base.py``, ``ivp.py``) and ``scipy/optimize/Zeros/brentq.c``, which are
distributed under this licence:

    Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
    All rights reserved.

    Redistribution and use in source and binary forms, with or without
    modification, are permitted provided that the following conditions
    are met:

    1. Redistributions of source code must retain the above copyright
       notice, this list of conditions and the following disclaimer.

    2. Redistributions in binary form must reproduce the above
       copyright notice, this list of conditions and the following
       disclaimer in the documentation and/or other materials provided
       with the distribution.

    3. Neither the name of the copyright holder nor the names of its
       contributors may be used to endorse or promote products derived
       from this software without specific prior written permission.

    THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
    "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
    LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
    A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
    OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
    SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
    LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
    DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
    THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
    (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
    OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""

from __future__ import annotations

import math
from itertools import groupby

import numpy as np

SAFETY = 0.9               # multiplies the asymptotic step-size estimate
MIN_FACTOR = 0.2           # largest decrease of the step size
MAX_FACTOR = 10            # largest increase of the step size
ERROR_EXPONENT = -1 / 5    # -1 / (error estimator order + 1)
ROOT_TOL = 4 * np.finfo(float).eps    # the event root's xtol and rtol
ROOT_ITERS = 100

C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]
])
B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525,
              1/40])
# the dense output's coefficients, with Shampine's optimal c_6
P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608,
     -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933,
     87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304,
     -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408,
     701980252875 / 199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])


def rk45(fun, t_bound: float, y0: float, rtol: float, atol: float,
         event, dense: bool = False):
    """Integrate ``dy/dt = fun(t, y)`` from ``y(0) = y0`` towards
    ``t_bound > 0``, stopping at the first sign change of ``event(t, y)``.

    ``fun`` and ``event`` take a time and a state array of shape (1,);
    ``fun`` returns the derivative as a sequence of one number.  Returns
    ``(t, y, sol)``: where the integration stopped (``t_bound``, the
    event's root, or the last accepted step when the step size fell
    below ten spacings of floating point), the state there, and when
    ``dense`` the interpolant over the accepted steps, which maps a time
    or a 1-D array of times to an array of shape (1,) or (1, n).
    """
    if not math.isfinite(y0):
        raise ValueError("All components of the initial state `y0` must "
                         "be finite.")

    def f(t, y):
        return np.asarray(fun(t, y), dtype=float)

    def norm(x):
        return np.linalg.norm(x) / x.size ** 0.5

    def interpolant(t_old, t_new, y_old, Q):
        """The quartic through one accepted step, as scipy's
        ``RkDenseOutput``."""
        h = t_new - t_old

        def call(t):
            x = (t - t_old) / h
            if t.ndim == 0:
                p = np.cumprod(np.tile(x, 4))
            else:
                p = np.cumprod(np.tile(x, (4, 1)), axis=0)
            y = h * np.dot(Q, p)
            if y.ndim == 2:
                y += y_old[:, None]
            else:
                y += y_old
            return y
        return call

    t = 0.0
    y = np.array([y0], dtype=float)
    direction = np.sign(t_bound - t)
    y_f = f(t, y)

    # the initial step (Hairer, Norsett and Wanner, Sec. II.4)
    scale = atol + np.abs(y) * rtol
    d0 = norm(y / scale)
    d1 = norm(y_f / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_bound)
    f1 = f(t + h0 * direction, y + h0 * direction * y_f)
    d2 = norm((f1 - y_f) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    h_abs = min(100 * h0, h1, t_bound)

    K = np.empty((7, 1))
    g = event(t, y)
    ts, interpolants = [t], []
    finished = False
    while not finished:
        # one accepted step, or a step size below its floor
        min_step = 10 * np.abs(np.nextafter(t, direction * np.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                return _stopped(t, y, ts, interpolants, dense)
            t_new = t + h_abs * direction
            if direction * (t_new - t_bound) > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = np.abs(h)

            K[0] = y_f
            for s, (a, c) in enumerate(zip(A[1:], C[1:]), start=1):
                dy = np.dot(K[:s].T, a[:s]) * h
                K[s] = f(t + c * h, y + dy)
            y_new = y + h * np.dot(K[:-1].T, B)
            f_new = f(t + h, y_new)
            K[-1] = f_new

            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = norm(np.dot(K.T, E) * h / scale)
            if error_norm < 1:
                if error_norm == 0:
                    factor = MAX_FACTOR
                else:
                    factor = min(MAX_FACTOR,
                                 SAFETY * error_norm ** ERROR_EXPONENT)
                if rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
            rejected = True

        t_old, y_old = t, y
        t, y, y_f = t_new, y_new, f_new
        finished = direction * (t - t_bound) >= 0
        sol = interpolant(t_old, t, y_old, K.T.dot(P)) if dense else None
        if dense:
            interpolants.append(sol)

        g_new = event(t, y)
        if g <= 0 and g_new >= 0 or g >= 0 and g_new <= 0:
            if sol is None:
                sol = interpolant(t_old, t, y_old, K.T.dot(P))
            t = _brentq(event, sol, t_old, t)
            y = sol(np.asarray(t))
            finished = True
        g = g_new
        if dense and t == ts[-1] and len(ts) > 1:
            interpolants.pop()
        else:
            ts.append(t)
    return _stopped(t, y, ts, interpolants, dense)


def _stopped(t, y, ts, interpolants, dense):
    """``rk45``'s result: the last time, its state and the interpolant
    over the steps, looked up as scipy's ``OdeSolution`` does (a time on
    a step boundary takes the earlier step)."""
    if not dense:
        return t, y[0], None
    ts = np.array(ts)
    last = len(interpolants) - 1

    def sol(x):
        x = np.asarray(x)
        segments = np.clip(np.searchsorted(ts, x, side="left") - 1, 0, last)
        if x.ndim == 0:
            return interpolants[segments](x)
        # in sorted order, so that each step evaluates one run of times
        order = np.argsort(x)
        x_sorted, segments = x[order], segments[order]
        ys, start = [], 0
        for segment, group in groupby(segments):
            end = start + len(list(group))
            ys.append(interpolants[segment](x_sorted[start:end]))
            start = end
        y = np.empty((1, x.size))
        y[:, order] = np.hstack(ys)
        return y
    return t, y[0], sol


def _brentq(event, sol, a: float, b: float) -> float:
    """The root of ``event(t, sol(t))`` in ``[a, b]``, where it changes
    sign, as scipy's ``brentq(..., xtol=4 eps, rtol=4 eps)``."""
    def g(t):
        value = event(t, sol(np.asarray(t)))
        if np.isnan(value):
            raise ValueError(f"The function value at x={t} is NaN; "
                             "solver cannot continue.")
        return float(value)

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = g(xpre), g(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(ROOT_ITERS):
        if fpre != 0 and fcur != 0 and \
                math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (ROOT_TOL + ROOT_TOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                stry = -fcur * (xcur - xpre) / (fcur - fpre)     # secant
            else:
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) \
                    / (dblk * dpre * (fblk - fpre))              # inverse quadratic
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0
                                                 else -delta)
        fcur = g(xcur)
    raise RuntimeError(f"Failed to converge after {ROOT_ITERS} "
                       f"iterations, value is {xcur}.")
