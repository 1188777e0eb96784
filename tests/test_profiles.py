import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gasnetsim.profiles import (Constant, Harmonic, PiecewiseLinear,
                                StepSequence, profile_from_config)


def test_constant():
    p = Constant(150.0)
    assert p(0.0) == 150.0
    assert p(1e9) == 150.0


def test_harmonic_zero_amplitude_is_offset():
    p = Harmonic(offset=6.5e6, amplitude=0.0, omega=1.0)
    for t in (0.0, 0.3, 100.0):
        assert p(t) == 6.5e6


def test_harmonic_forms():
    affine = Harmonic(offset=2.0, amplitude=0.5, omega=math.pi)
    assert affine(0.5) == pytest.approx(2.5)
    relative = Harmonic(offset=2.0, amplitude=0.5, omega=math.pi,
                        relative=True)
    assert relative(0.5) == pytest.approx(3.0)


@pytest.mark.parametrize("profile", [
    Harmonic(offset=1.0, amplitude=0.25, omega=2 * math.pi / 7.0, period=7.0),
    PiecewiseLinear([(0.0, 1.0), (3.0, 2.0), (7.0, 1.0)], period=7.0),
    StepSequence([(2.0, 5.0), (7.0, 9.0)], period=7.0),
])
def test_periodicity(profile):
    for t in np.linspace(0.0, 6.9, 24):
        for k in (1, 3, 10):
            assert profile(t + k * 7.0) == pytest.approx(profile(t),
                                                         abs=1e-12)


def test_piecewise_linear_hits_knots():
    knots = [(0.0, 1.0), (10.0, 4.0), (30.0, -2.0), (40.0, 0.5)]
    p = PiecewiseLinear(knots)
    for t, v in knots:
        assert p(t) == pytest.approx(v, abs=0.0)
    assert p(20.0) == pytest.approx(1.0)


def test_piecewise_linear_clamps():
    # a config reports, under --strict, a profile clamped at its start
    p = PiecewiseLinear([(10.0, 3.0), (20.0, 5.0)])
    assert p(0.0) == 3.0
    assert p(25.0) == 5.0


def test_piecewise_linear_rejects_unsorted():
    with pytest.raises(ValueError):
        PiecewiseLinear([(0.0, 1.0), (0.0, 2.0)])


def test_step_sequence_right_open_intervals():
    # switch times belong to the later regime
    p = StepSequence([(600.0, 0.0), (1800.0, 1200.0), (1e30, 120.0)])
    assert p(0.0) == 0.0
    assert p(599.999) == 0.0
    assert p(600.0) == 1200.0
    assert p(1799.0) == 1200.0
    assert p(1800.0) == 120.0
    assert p(1e6) == 120.0


@pytest.mark.parametrize("make", [
    lambda bad: Constant(bad),
    lambda bad: Constant(1.0, period=bad),
    lambda bad: Harmonic(offset=bad, amplitude=0.1, omega=0.5),
    lambda bad: Harmonic(offset=1.0, amplitude=bad, omega=0.5),
    lambda bad: Harmonic(offset=1.0, amplitude=0.1, omega=bad),
    lambda bad: Harmonic(offset=1.0, amplitude=0.1, omega=0.5, phase=bad),
    lambda bad: PiecewiseLinear([(0.0, 1.0), (bad, 2.0)]),
    lambda bad: PiecewiseLinear([(0.0, bad), (5.0, 2.0)]),
    lambda bad: StepSequence([(bad, 1.0), (5.0, 2.0)]),
    lambda bad: StepSequence([(1.0, 1.0), (5.0, bad)]),
])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_numbers_rejected(make, bad):
    with pytest.raises(ValueError, match="finite"):
        make(bad)


@pytest.mark.parametrize("make", [
    lambda bad: Constant(bad),
    lambda bad: Constant(1.0, period=bad),
    lambda bad: Harmonic(offset=1.0, amplitude=bad, omega=0.5),
    lambda bad: PiecewiseLinear([(0.0, 1.0), (bad, 2.0)]),
    lambda bad: PiecewiseLinear([(0.0, bad), (5.0, 2.0)]),
    lambda bad: StepSequence([(bad, 1.0), (5.0, 2.0)]),
    lambda bad: StepSequence([(1.0, 1.0), (5.0, bad)]),
])
@pytest.mark.parametrize("bad", [True, False, "3", "nan"])
def test_booleans_and_strings_are_no_numbers(make, bad):
    with pytest.raises(TypeError, match="must be a number"):
        make(bad)


@pytest.mark.parametrize("relative", [1, 0, "yes", None])
def test_harmonic_relative_must_be_a_boolean(relative):
    with pytest.raises(TypeError, match="relative must be a boolean"):
        Harmonic(offset=1.0, amplitude=0.1, omega=0.5, relative=relative)


def test_step_sequence_last_end_may_be_infinite():
    p = StepSequence([(600.0, 0.0), (math.inf, 120.0)])
    assert p(1e12) == 120.0
    for bad in (math.nan, -math.inf):
        with pytest.raises(ValueError):
            StepSequence([(600.0, 0.0), (bad, 120.0)])


def test_config_round_trip():
    profiles = [
        Constant(150.0),
        Harmonic(offset=1.0, amplitude=0.1, omega=0.5, phase=2.0,
                 relative=True, period=12.0),
        PiecewiseLinear([(0.0, 1.0), (5.0, 2.0)], period=10.0),
        StepSequence([(1.0, 2.0), (3.0, 4.0)]),
    ]
    for p in profiles:
        q = profile_from_config(json.loads(json.dumps(p.to_config())))
        assert q == p
        for t in (0.0, 0.7, 4.0):
            assert q(t) == p(t)
    assert profile_from_config(42.0) == Constant(42.0)
    with pytest.raises(ValueError):
        profile_from_config({"type": "spline"})


def test_package_imports_in_fresh_interpreter():
    # a fresh process sees no modules left in sys.modules by other tests
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", "import gasnetsim"],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def _each_kind(period):
    return [
        Constant(2.5, period=period),
        Harmonic(offset=1.0, amplitude=0.25, omega=0.5, phase=1.0,
                 relative=True, period=period),
        PiecewiseLinear([(0.0, 1.0), (3.0, 2.0), (7.0, 1.0)], period=period),
        StepSequence([(2.0, 5.0), (7.0, 9.0)], period=period),
    ]


@pytest.mark.parametrize("period", [None, 7.0])
def test_equal_profiles_hash_equal(period):
    for p, q in zip(_each_kind(period), _each_kind(period)):
        assert p is not q and p == q
        assert hash(p) == hash(q)
    pairs = [
        (Constant(0.0, period=period), Constant(-0.0, period=period)),
        (Constant(3.0, period=7), Constant(3.0, period=7.0)),
    ]
    for p, q in pairs:
        assert p == q
        assert hash(p) == hash(q)


def test_profiles_as_set_members_and_dict_keys():
    distinct = _each_kind(None) + _each_kind(7.0)
    again = _each_kind(None) + _each_kind(7.0)
    assert len(set(distinct)) == len(distinct)
    assert len(set(distinct + again)) == len(distinct)
    assert Constant(-0.0) in {Constant(0.0)}
    assert Constant(1.0) not in {Constant(1.0, period=7.0)}
    table = {p: i for i, p in enumerate(distinct)}
    assert [table[p] for p in again] == list(range(len(again)))


@pytest.mark.parametrize("period", [None, 7.0])
def test_profiles_are_frozen(period):
    profiles = _each_kind(period)
    for p in profiles:
        for f in dataclasses.fields(p):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(p, f.name, 1.0)
    assert profiles == _each_kind(period)


@pytest.mark.parametrize("profile", _each_kind(None) + [
    Harmonic(offset=3.0, amplitude=4.0, omega=0.5),
    Harmonic(offset=-1.0, amplitude=2.0, omega=0.5, relative=True)])
def test_minimum_is_the_lowest_value(profile):
    values = [profile(t) for t in np.linspace(0.0, 20.0, 4001)]
    assert profile.minimum() == pytest.approx(min(values), abs=1e-4)
    assert profile.minimum() <= min(values)


def guard_times():
    """2.4e5 times: uniform on [0, 1e7] s and [0, 1e5] s, every 1/8 s
    from 0 and from 1e7 s, and each guarded profile's knots and interval
    ends with their neighbouring floats."""
    rng = np.random.default_rng(2501)
    edges = np.array([0.0, 3600.0, 5400.0, 7200.0, 43200.0, 86400.0])
    return np.concatenate((
        rng.uniform(0.0, 1e7, 100_000), rng.uniform(0.0, 1e5, 100_000),
        np.arange(20_000) / 8.0, 1e7 + np.arange(20_000) / 8.0,
        edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)))


@pytest.mark.parametrize("profile", [
    Harmonic(offset=5e6, amplitude=2e5, omega=2 * math.pi / 86400.0,
             phase=1800.0),
    Harmonic(offset=150.0, amplitude=0.3, omega=7.3e-4, relative=True),
    Harmonic(offset=5e6, amplitude=2e5, omega=2 * math.pi / 86400.0,
             period=86400.0),
    Harmonic(offset=1.3, amplitude=0.1, omega=2 * math.pi / 3600.0,
             phase=-250.0, relative=True, period=5400.0),
    PiecewiseLinear([(3600.0, 1.0), (5400.0, 1.4), (7200.0, 1.1)]),
    PiecewiseLinear([(0.0, 150.0), (3600.0, 210.0), (43200.0, 90.0),
                     (86400.0, 150.0)], period=86400.0),
    StepSequence([(3600.0, 1.1), (7200.0, 1.25), (math.inf, 1.4)]),
    StepSequence([(5400.0, 6.5e6), (43200.0, 6.1e6)], period=86400.0),
], ids=["harmonic", "harmonic_relative", "harmonic_periodic",
        "harmonic_relative_periodic", "piecewise_linear",
        "piecewise_linear_periodic", "step_sequence_inf",
        "step_sequence_periodic"])
def test_at_times_is_each_call_bit_for_bit(profile):
    # the network's nodal table evaluates profiles over arrays of times:
    # np.sin must give math.sin's bits, and np.remainder Python's %
    t = guard_times()
    calls = np.array([profile(x) for x in t.tolist()])
    assert np.array_equal(profile.at_times(t).view(np.int64),
                          calls.view(np.int64))


def test_harmonic_at_times_raises_where_a_call_raises():
    p = Harmonic(offset=1.0, amplitude=1.0, omega=1e308)
    with pytest.raises(ValueError):
        p(10.0)    # math.sin of an infinity
    with pytest.raises(ValueError), np.errstate(over="ignore"):
        p.at_times(np.array([0.0, 10.0]))
    assert p.at_times(np.array([0.0, 1e-300])).tolist() == [p(0.0),
                                                            p(1e-300)]
