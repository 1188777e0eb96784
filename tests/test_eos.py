import math

import numpy as np
import pytest

from gasnetsim.eos import (CngaGas, IdealGas, NonIsothermalCnga,
                           TemperatureProfile, cnga_coefficients,
                           gas_constant_from_gravity, make_eos,
                           DEFAULT_B1, DEFAULT_B2, DEFAULT_RT,
                           DEFAULT_GRAVITY, FIT_A1, FIT_A2, FIT_A3,
                           MAX_FIT_GRAVITY, MAX_FIT_TEMPERATURE,
                           MIN_FIT_GRAVITY, MIN_FIT_TEMPERATURE)

T_REF = 288.706


def test_cnga_coefficients_match_benchmark_fit():
    b1, b2 = cnga_coefficients(T_REF, DEFAULT_GRAVITY)
    assert b1 == pytest.approx(1.00300865, rel=1e-2)
    assert b2 == pytest.approx(2.96848838e-8, rel=1e-2)


def test_cnga_coefficients_ideal_limit():
    b1, b2 = cnga_coefficients(1e9)
    assert b1 == pytest.approx(1.0, abs=1e-6)
    assert b2 < 1e-30


def test_cnga_coefficient_forms_agree():
    # the folded c1/c2/c3 coefficients must reproduce the raw formula
    # 1/(1 + a1 (14.7 + p/6894.75729) 10^(a2 G) / (1.8 T)^a3) exactly
    a1, a2, a3, g = FIT_A1, FIT_A2, FIT_A3, DEFAULT_GRAVITY
    b1, b2 = cnga_coefficients(T_REF, g)
    for p in np.geomspace(1e4, 2e7, 50):
        z_raw = 1.0 / (1.0 + a1 * (14.7 + p / 6894.75729) * 10 ** (a2 * g)
                       / (1.8 * T_REF) ** a3)
        z_fit = 1.0 / (b1 + b2 * p)
        assert z_fit == pytest.approx(z_raw, rel=1e-12)


def test_cnga_coefficients_reject_bad_temperature():
    with pytest.raises(ValueError):
        cnga_coefficients(-5.0)


def test_fit_temperature_domain_keeps_coefficients_finite():
    # the coldest fit at the largest gravity is finite, and no colder one
    # is made, in an array or along a temperature profile
    b1, b2 = cnga_coefficients(MIN_FIT_TEMPERATURE, MAX_FIT_GRAVITY)
    assert math.isfinite(b1) and math.isfinite(b2)
    assert b1 * b1 < math.inf       # CngaGas.pressure squares b1
    colder = math.nextafter(MIN_FIT_TEMPERATURE, 0.0)
    with pytest.raises(ValueError, match="domain"):
        cnga_coefficients(np.array([T_REF, colder, math.nan]))
    with pytest.raises(ValueError, match="domain"):
        NonIsothermalCnga(TemperatureProfile(T_REF, 0.5 - T_REF, 1e-3))
    with pytest.raises(ValueError, match="domain"):
        NonIsothermalCnga(TemperatureProfile(colder, 40.0, 1e-3))


def test_fit_domain_hottest_corner_keeps_coefficients_finite():
    # the hottest fit at the smallest gravity has finite b1, b2 and RT,
    # and no hotter one is made, in an array or along a temperature profile
    gas = CngaGas.from_temperature(MAX_FIT_TEMPERATURE, MIN_FIT_GRAVITY)
    assert all(0 <= c < math.inf for c in (gas.b1, gas.b2, gas.rt))
    hotter = math.nextafter(MAX_FIT_TEMPERATURE, math.inf)
    with pytest.raises(ValueError, match="domain"):
        cnga_coefficients(np.array([T_REF, hotter]))
    with pytest.raises(ValueError, match="domain"):
        NonIsothermalCnga(TemperatureProfile(T_REF, hotter - T_REF, 1e-3))
    with pytest.raises(ValueError, match="domain"):
        NonIsothermalCnga(TemperatureProfile(hotter, -40.0, 1e-3))


@pytest.mark.parametrize("gravity", [0.0, -0.6, math.nan, math.inf, 100.0,
                                     200.0, 1e-300])
def test_fit_rejects_bad_gravity(gravity):
    with pytest.raises(ValueError, match="gas gravity"):
        cnga_coefficients(288.0, gravity)
    with pytest.raises(ValueError, match="gas gravity"):
        NonIsothermalCnga(TemperatureProfile(288.0), gravity)


def test_compressibility_point_values():
    cnga = CngaGas()
    assert IdealGas(338.25).compressibility(1e99) == 1.0
    assert cnga.compressibility(0.0) == pytest.approx(1.0 / DEFAULT_B1)
    # paper's constant-Z value comes from p/(RT rho) at its rounded density
    z = cnga.compressibility(6.5e6)
    assert z == pytest.approx(6.5e6 / (DEFAULT_RT * 56.816), abs=2e-5)
    with pytest.raises(ValueError):
        cnga.compressibility(-1.0)


def test_density_point_values():
    cnga = CngaGas()
    assert cnga.density(6.5e6) == pytest.approx(56.817, abs=0.01)
    assert cnga.density(0.0) == 0.0
    ideal = IdealGas(338.25)
    assert ideal.density(6.5e6) == pytest.approx(6.5e6 / 338.25 ** 2)
    with pytest.raises(ValueError):
        cnga.density(-10.0)


def test_pressure_point_values():
    cnga = CngaGas()
    assert cnga.pressure(56.817) == pytest.approx(6.5e6, abs=1e3)
    assert cnga.pressure(0.0) == 0.0
    with pytest.raises(ValueError):
        cnga.pressure(-1.0)


@pytest.mark.parametrize("model", [
    IdealGas(377.9683),
    CngaGas(),
    CngaGas.from_temperature(T_REF, DEFAULT_GRAVITY),
])
def test_roundtrip_bijection(model):
    p = np.geomspace(1e4, 2e7, 400)
    back = model.pressure(model.density(p))
    assert np.max(np.abs(back - p) / p) <= 1e-10


def test_roundtrip_bijection_nonisothermal():
    model = NonIsothermalCnga(TemperatureProfile(288.706, 40.0, 1e-3))
    gas = model.at(np.linspace(0.0, 1e5, 7))
    for p in np.geomspace(1e5, 1e7, 9):
        back = gas.pressure(gas.density(p))
        assert np.max(np.abs(back - p) / p) <= 1e-10


@pytest.mark.parametrize("decay_rate", [1e-3, 1e-4])
def test_nonisothermal_binding_matches_pointwise(decay_rate):
    # a pipe's end gases are cells of its bound gas, so binding on the
    # cell centers must agree bit for bit with binding at each position
    model = NonIsothermalCnga(TemperatureProfile(288.706, 40.0, decay_rate))
    xc = (np.arange(500) + 0.5) * 200.0
    gas = model.at(xc)
    for i, x in enumerate(xc):
        point = model.at(float(x))
        assert (gas[i].b1, gas[i].b2, gas[i].rt) == \
            (point.b1, point.b2, point.rt)
        assert (gas.b1[i], gas.b2[i], gas.rt[i]) == \
            (point.b1, point.b2, point.rt)
        fit = CngaGas.from_temperature(model.profile.temperature(float(x)))
        assert (fit.b1, fit.b2, fit.rt) == (point.b1, point.b2, point.rt)


def test_ideal_gas_is_the_b2_zero_cnga_exactly():
    c = 377.9683
    ideal = IdealGas(c)
    assert (ideal.b1, ideal.b2, ideal.rt) == (1.0, 0.0, c ** 2)
    rho = np.geomspace(1e-3, 200.0, 1000)
    assert np.array_equal(ideal.pressure(rho), c ** 2 * rho)
    assert np.array_equal(ideal.density(c ** 2 * rho), c ** 2 * rho / c ** 2)
    assert ideal.at(rho) is ideal and ideal[3] is ideal
    assert repr(ideal) == "IdealGas(wave_speed=377.9683)"
    assert make_eos("cnga", b2=0.0).b2 == 0.0
    with pytest.raises(ValueError):
        CngaGas(b2=-1e-9)


def test_scalar_and_per_cell_gas_agree_bitwise():
    # the flat network layout binds a shared gas as scalars and any other
    # as per-cell arrays; the two forms must give the same bits
    b1, b2, rt = 1.226889791275418, DEFAULT_B2, DEFAULT_RT
    rho = np.geomspace(1e-3, 200.0, 1000)
    scalar = CngaGas(b1=b1, b2=b2, rt=rt)
    cells = CngaGas(*(np.full(rho.size, c) for c in (b1, b2, rt)))
    assert np.array_equal(scalar.pressure(rho), cells.pressure(rho))
    assert np.array_equal(scalar.wave_speed_sq(rho), cells.wave_speed_sq(rho))


def test_pressure_strictly_increasing():
    model = CngaGas()
    rho = np.linspace(1e-3, 200.0, 1000)
    p = model.pressure(rho)
    assert np.all(np.diff(p) > 0)


@pytest.mark.parametrize("model,x", [
    (IdealGas(338.25), None),
    (CngaGas(), None),
    (NonIsothermalCnga(TemperatureProfile(288.706, 40.0, 1e-3)), 123.0),
])
def test_wave_speed_matches_finite_difference(model, x):
    gas = model.at(x)
    h = 1e-4
    for rho in (5.0, 56.817, 150.0):
        fd = (gas.pressure(rho + h) - gas.pressure(rho - h)) / (2 * h)
        assert gas.wave_speed_sq(rho) == pytest.approx(fd, rel=1e-6)


def test_wave_speed_limits_and_errors():
    assert IdealGas(338.25).wave_speed_sq(1.0) == pytest.approx(338.25 ** 2)
    cnga = CngaGas()
    assert cnga.wave_speed_sq(1e-12) == pytest.approx(DEFAULT_RT / DEFAULT_B1,
                                                      rel=1e-6)
    with pytest.raises(ValueError):
        cnga.wave_speed_sq(0.0)


def test_ideal_gas_limit_of_cnga():
    # as b2 -> 0 and b1 -> 1 the non-ideal maps converge to the ideal gas
    # with c^2 = RT; the relative gap is bounded by 10 b2 p
    rt = 1.368207e5
    b2 = 1e-12
    near = CngaGas(b1=1.0, b2=b2, rt=rt)
    ideal = IdealGas(math.sqrt(rt))
    for p in np.geomspace(1e4, 2e7, 40):
        gap = abs(near.density(p) - ideal.density(p)) / ideal.density(p)
        assert gap <= 10.0 * b2 * p


def test_gas_constant_from_gravity():
    assert gas_constant_from_gravity(1.0) == pytest.approx(
        8314.46 / 28.9626, rel=1e-12)
    assert gas_constant_from_gravity(DEFAULT_GRAVITY) == pytest.approx(
        441.1, abs=0.1)
    assert gas_constant_from_gravity(1e9) < 1e-5
    with pytest.raises(ValueError):
        gas_constant_from_gravity(0.0)


def test_detailed_matches_isothermal_pair():
    model = CngaGas.from_temperature(T_REF, DEFAULT_GRAVITY)
    assert model.b1 == pytest.approx(DEFAULT_B1, rel=1e-2)
    assert model.b2 == pytest.approx(DEFAULT_B2, rel=1e-2)


def test_temperature_profile():
    prof = TemperatureProfile(ambient=288.706, jump=40.0, decay_rate=1e-3)
    assert prof.temperature(0.0) == pytest.approx(328.706)
    assert prof.temperature(1e7) == pytest.approx(288.706)
    assert prof.temperature(1000.0) == pytest.approx(288.706 + 40.0 / math.e)
    with pytest.raises(ValueError):
        TemperatureProfile(ambient=-1.0)


def test_make_eos_variants():
    assert isinstance(make_eos("ideal", wave_speed=338.25), IdealGas)
    default = make_eos("cnga")
    assert (default.b1, default.b2, default.rt) == \
        (DEFAULT_B1, DEFAULT_B2, DEFAULT_RT)
    detailed = make_eos("cnga_detailed", t_kelvin=T_REF,
                        gas_gravity=DEFAULT_GRAVITY)
    assert isinstance(detailed, CngaGas)
    noniso = make_eos("cnga_nonisothermal", t_ambient=288.706, t_jump=40.0,
                      decay_rate=1e-3, gas_gravity=DEFAULT_GRAVITY)
    assert isinstance(noniso, NonIsothermalCnga)
    with pytest.raises(ValueError):
        make_eos("van_der_waals")


def test_nonisothermal_requires_position():
    model = NonIsothermalCnga(TemperatureProfile(288.706, 40.0, 1e-3))
    with pytest.raises(ValueError):
        model.at(None)
