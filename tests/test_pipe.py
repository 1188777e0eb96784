import numpy as np
import pytest

from gasnetsim import pipe as pipe_ops
from gasnetsim.eos import CngaGas, IdealGas
from gasnetsim.errors import PositivityError, UnstableRunError
from gasnetsim.pipe import (FluxBC, PipeGeometry, PipeGrid, PipeState,
                            PressureBC, cfl_max_dt, density_update,
                            friction_invert, interior_flux_update, step,
                            total_mass, uniform_state)
from gasnetsim.profiles import Constant


def bisect_friction(y, a, lo=-1e7, hi=1e7, iters=200):
    """Independent bisection oracle for x (1 + a|x|) = y."""
    f = lambda x: x * (1.0 + a * abs(x)) - y
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(lo) * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


class TestFrictionInvert:
    def test_zero_friction_is_identity(self):
        y = np.linspace(-1e4, 1e4, 101)
        assert np.array_equal(friction_invert(y, 0.0), y)

    def test_exact_algebra_point(self):
        # F(1) = 1 * (1 + 1*|1|) = 2
        assert friction_invert(2.0, 1.0) == pytest.approx(1.0, rel=1e-15)

    def test_antisymmetry_exact(self):
        rng = np.random.default_rng(42)
        y = rng.uniform(-1e4, 1e4, 500)
        a = rng.uniform(0.0, 1.0, 500)
        plus = friction_invert(y, a)
        minus = friction_invert(-y, a)
        assert np.array_equal(minus, -plus)

    def test_inverse_against_bisection(self):
        for y, a in [(417.0, 3.2e-5), (-93.0, 0.01), (1e4, 0.9),
                     (0.5, 1e-12)]:
            assert friction_invert(y, a) == pytest.approx(
                bisect_friction(y, a), rel=1e-12, abs=1e-12)

    def test_round_trip_residual(self):
        rng = np.random.default_rng(7)
        y = rng.uniform(-1e4, 1e4, 10000)
        a = rng.uniform(0.0, 1.0, 10000)
        x = friction_invert(y, a)
        resid = np.abs(x * (1.0 + a * np.abs(x)) - y)
        assert np.all(resid <= 1e-12 * np.maximum(1.0, np.abs(y)))

    def test_negative_a_rejected(self):
        with pytest.raises(ValueError):
            friction_invert(1.0, -1e-9)

    def test_root_matches_the_sign_form_bitwise(self):
        def sign_form(y, a):
            """The root as ``sign(y) 2|y| / den``."""
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

        rng = np.random.default_rng(2024)
        n = 200_000
        y = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-330, 308.2, n)
        a = 10.0 ** rng.uniform(-330, 308.2, n)
        a[::7] = 0.0
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324,
                            -5e-324, 2.2e-308, -1e-310, 1.0, -1.0,
                            np.finfo(float).max, -np.finfo(float).max])
        y = np.concatenate((y, np.repeat(special, special.size)))
        a = np.concatenate((a, np.abs(np.tile(special, special.size))))
        with np.errstate(all="ignore"):
            want = sign_form(y.copy(), a)
            got = pipe_ops._friction_root(y.copy(), a)
            scratch = [np.empty_like(y) for _ in range(2)]
            into = pipe_ops._friction_root(y.copy(), a, *scratch)
        for root in (got, into):
            nan = np.isnan(want)
            assert np.array_equal(np.isnan(root), nan)
            assert np.array_equal(root[~nan].view(np.int64),
                                  want[~nan].view(np.int64))
        # the root of -0.0 is 0.0
        negative_zero = (y == 0.0) & np.signbit(y) & ~nan
        assert nan.any() and np.isinf(want).any() and negative_zero.any()
        assert not np.signbit(want[negative_zero]).any()


@pytest.fixture
def cnga():
    return CngaGas()


def make_setup(n_cells=20, length=10e3, friction=0.01):
    geom = PipeGeometry(length=length, diameter=0.9144, friction=friction)
    grid = PipeGrid(length=length, n_cells=n_cells)
    return geom, grid


class TestInteriorFluxUpdate:
    def test_frictionless_ideal_reduces_to_linear_update(self):
        geom, grid = make_setup(friction=0.0)
        eos = IdealGas(377.9683)
        rng = np.random.default_rng(3)
        rho = 56.0 + rng.uniform(-1.0, 1.0, grid.n_cells)
        phi = rng.uniform(-100.0, 100.0, grid.n_cells + 1)
        state = PipeState(rho.copy(), phi.copy())
        dt = 0.5
        interior_flux_update(state, geom, grid, eos, dt)
        c2 = 377.9683 ** 2
        expect = phi[1:-1] - (dt * c2 / grid.dx) * (rho[1:] - rho[:-1])
        assert state.phi[1:-1] == pytest.approx(expect, rel=1e-14)

    def test_uniform_state_stays_at_rest(self, cnga):
        geom, grid = make_setup()
        state = uniform_state(grid, 56.817, 0.0)
        interior_flux_update(state, geom, grid, cnga, 1.0)
        assert np.all(state.phi == 0.0)

    def test_single_face_matches_bisection_oracle(self, cnga):
        # one interior face between two cells at the nominal slow-transient
        # state; the update must solve the implicit relation exactly
        geom = PipeGeometry(length=1000.0, diameter=0.9144, friction=0.01)
        grid = PipeGrid(length=1000.0, n_cells=2)
        state = PipeState(np.array([56.817, 56.817]),
                          np.array([240.0, 240.0, 240.0]))
        dt = 1.0
        p = cnga.pressure(state.rho)
        a = geom.beta * dt / (state.rho[0] + state.rho[1])
        y = 240.0 - (dt / grid.dx) * (p[1] - p[0]) - a * 240.0 * abs(240.0)
        oracle = bisect_friction(y, a)
        interior_flux_update(state, geom, grid, cnga, dt)
        assert state.phi[1] == pytest.approx(oracle, rel=1e-12)

    def test_grid_reversal_symmetry_is_exact(self, cnga):
        geom, grid = make_setup()
        rng = np.random.default_rng(11)
        rho = 50.0 + rng.uniform(0.0, 10.0, grid.n_cells)
        phi = rng.uniform(-300.0, 300.0, grid.n_cells + 1)
        dt = 0.5
        fwd = PipeState(rho.copy(), phi.copy())
        interior_flux_update(fwd, geom, grid, cnga, dt)
        rev = PipeState(rho[::-1].copy(), -phi[::-1].copy())
        interior_flux_update(rev, geom, grid, cnga, dt)
        assert np.array_equal(-rev.phi[::-1], fwd.phi)

    def test_nonfinite_flux_raises(self, cnga):
        geom, grid = make_setup()
        state = uniform_state(grid, 56.817, 1e300)
        state.rho[3] = 1e-300
        with pytest.raises(UnstableRunError) as err:
            interior_flux_update(state, geom, grid, cnga, 10.0, "p9")
        assert "p9" in str(err.value)


class TestBoundaryFlux:
    def test_steady_closed_end(self, cnga):
        geom, grid = make_setup()
        state = uniform_state(grid, cnga.density(6.5e6), 0.0)
        step(state, geom, grid, cnga, FluxBC(Constant(0.0)),
             PressureBC(Constant(6.5e6)), 1.0)
        assert state.phi[-1] == 0.0

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_boundary_cell_lands_on_target(self, cnga, side):
        geom, grid = make_setup()
        rng = np.random.default_rng(5)
        state = PipeState(56.0 + rng.uniform(-1, 1, grid.n_cells),
                          rng.uniform(-50, 50, grid.n_cells + 1))
        dt = 0.8
        target = 57.3
        bcs = [PressureBC(Constant(cnga.pressure(target))),
               FluxBC(Constant(0.0))]
        if side == "right":
            bcs.reverse()
        step(state, geom, grid, cnga, *bcs, dt)
        cell = 0 if side == "left" else -1
        assert state.rho[cell] == pytest.approx(target, rel=1e-12)

    def test_pressure_bc_equivalent_to_density_target(self, cnga):
        # 6.5 MPa through the non-ideal map corresponds to 56.817 kg/m^3
        geom, grid = make_setup()
        state = uniform_state(grid, 56.0, 0.0)
        bc = PressureBC(Constant(6.5e6))
        step(state, geom, grid, cnga, FluxBC(Constant(0.0)), bc, 1.0)
        assert state.rho[-1] == pytest.approx(56.817, abs=0.01)
        assert cnga.pressure(state.rho[-1]) == pytest.approx(6.5e6, rel=1e-12)


class TestDensityUpdate:
    def test_uniform_flux_leaves_density(self, cnga):
        geom, grid = make_setup()
        state = uniform_state(grid, 56.817, 123.0)
        rho0 = state.rho.copy()
        density_update(state, grid, 1.0)
        assert np.array_equal(state.rho, rho0)
        assert state.step_index == 1 and state.time == 1.0

    def test_closed_pipe_conserves_mass_per_step(self, cnga):
        geom, grid = make_setup()
        rng = np.random.default_rng(9)
        state = PipeState(56.0 + rng.uniform(-2, 2, grid.n_cells),
                          rng.uniform(-100, 100, grid.n_cells + 1))
        state.phi[0] = state.phi[-1] = 0.0
        m0 = total_mass(state, geom, grid)
        for _ in range(50):
            interior_flux_update(state, geom, grid, cnga, 0.5)
            state.phi[0] = state.phi[-1] = 0.0
            m_prev = total_mass(state, geom, grid)
            density_update(state, grid, 0.5)
            m = total_mass(state, geom, grid)
            assert abs(m - m_prev) <= 1e-13 * m
        assert abs(total_mass(state, geom, grid) - m0) <= 1e-12 * m0

    def test_ledger_identity(self, cnga):
        geom, grid = make_setup()
        rng = np.random.default_rng(13)
        state = PipeState(56.0 + rng.uniform(-2, 2, grid.n_cells),
                          rng.uniform(-100, 100, grid.n_cells + 1))
        dt = 0.5
        m_before = total_mass(state, geom, grid)
        density_update(state, grid, dt)
        m_after = total_mass(state, geom, grid)
        inflow = dt * geom.area * (state.phi[0] - state.phi[-1])
        assert m_after - m_before == pytest.approx(inflow,
                                                   abs=1e-12 * m_after)

    def test_positivity_loss_reported(self, cnga):
        geom, grid = make_setup()
        state = uniform_state(grid, 0.1, 0.0)
        state.phi[5] = 1e5
        with pytest.raises(PositivityError) as err:
            density_update(state, grid, 1.0, "p2")
        assert "p2" in str(err.value)


class TestCflAndMass:
    def test_ideal_bound(self):
        geom, grid = make_setup(n_cells=100, length=10e3)  # dx = 100 m
        state = uniform_state(grid, 50.0, 0.0)
        dt = cfl_max_dt(state, grid, IdealGas(338.25), 1.0)
        assert dt == pytest.approx(100.0 / 338.25, rel=1e-12)
        assert dt == pytest.approx(0.29565, rel=1e-3)

    def test_reference_ratio_is_stable(self):
        # the order-study resolution ratio exceeds its wave speed
        assert 1e4 / 22.0 > 377.9683

    def test_safety_validation(self):
        geom, grid = make_setup()
        state = uniform_state(grid, 50.0, 0.0)
        with pytest.raises(ValueError):
            cfl_max_dt(state, grid, IdealGas(338.25), 0.0)

    def test_total_mass_uniform(self):
        geom = PipeGeometry(length=20e3, diameter=0.9144, friction=0.01)
        grid = PipeGrid(length=20e3, n_cells=40)
        state = uniform_state(grid, 56.817, 0.0)
        expect = 56.817 * 20e3 * np.pi * 0.9144 ** 2 / 4.0
        assert total_mass(state, geom, grid) == pytest.approx(expect,
                                                              rel=1e-12)
        half = uniform_state(grid, 56.817 / 2, 0.0)
        assert total_mass(half, geom, grid) == pytest.approx(expect / 2,
                                                             rel=1e-12)


class TestStep:
    def test_steady_uniform_state_is_fixed_point(self):
        geom, grid = make_setup(friction=0.0)
        eos = IdealGas(338.25)
        state = uniform_state(grid, 56.817, 0.0)
        bc = FluxBC(Constant(0.0))
        for _ in range(20):
            step(state, geom, grid, eos, bc, bc, 0.5)
        assert np.all(state.rho == 56.817)
        assert np.all(state.phi == 0.0)

    def test_identical_runs_are_bitwise_identical(self):
        # determinism fixture for the step-flux scenario machinery
        def run():
            geom, grid = make_setup(n_cells=50, length=20e3)
            eos = CngaGas()
            state = uniform_state(grid, eos.density(6.5e6), 0.0)
            bc_l = PressureBC(Constant(6.5e6))
            from gasnetsim.profiles import StepSequence
            bc_r = FluxBC(StepSequence([(600.0, 0.0), (1800.0, 1200.0),
                                        (1e30, 120.0)]))
            for _ in range(600):
                step(state, geom, grid, eos, bc_l, bc_r, 1.0)
            return state
        a, b = run(), run()
        assert np.array_equal(a.rho, b.rho)
        assert np.array_equal(a.phi, b.phi)


def test_grid_and_geometry_validation():
    with pytest.raises(ValueError):
        PipeGrid(length=100.0, n_cells=1)
    with pytest.raises(ValueError):
        PipeGeometry(length=0.0, diameter=1.0, friction=0.01)
    grid = PipeGrid(length=100.0, n_cells=4)
    assert grid.dx == 25.0
    assert grid.cell_centers[0] == 12.5
    assert grid.faces[-1] == 100.0
    geom = PipeGeometry(length=100.0, diameter=0.9144, friction=0.01)
    assert geom.beta == pytest.approx(0.01 / (2 * 0.9144))
    assert geom.area == pytest.approx(np.pi * 0.9144 ** 2 / 4)


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan])
def test_initial_density_must_be_positive(bad):
    with pytest.raises(ValueError, match="positive"):
        PipeState(np.array([bad, 1.0]), np.zeros(3))
