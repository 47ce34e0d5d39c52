import numpy as np
import pytest

from relaxlab.models import (
    FluxValidationError,
    JinXinModel,
    JinXinState,
    LimitState,
    builtin_fluxes,
    darcy_velocity,
    effective_Z,
    effective_z,
    flux_coeffs,
    flux_fields,
    make_flux,
    rebuild_flux,
)
from relaxlab.spectral_core import Grid, SpectralField, lp_norm, spectral_derivative
from relaxlab.spectral_analysis import generator_matrix

from oracles import jinxin_rhs, limit_rhs


@pytest.fixture
def grid():
    return Grid(1, 64, 2 * np.pi)


@pytest.fixture
def grid2d():
    return Grid(2, 32, 2 * np.pi)


def random_state(model, grid, rng, scale=0.1):
    def f():
        raw = SpectralField.from_physical(
            grid, scale * rng.standard_normal((model.n,) + grid.shape)
        )
        return raw.dealias()

    return JinXinState(f(), [f() for _ in range(model.d)])


class TestFluxCatalog:
    def test_burgers2d_values(self):
        fl = make_flux("burgers2d")
        u = np.array([[1.0], [2.0]])
        f1, f2 = fl.evaluate(u)
        assert f1[:, 0] == pytest.approx([1.0, 2.0])
        assert f2[:, 0] == pytest.approx([2.0, 4.0])

    def test_burgers1d_value(self):
        fl = make_flux("burgers1d")
        assert fl.evaluate(np.array([[3.0]]))[0][0, 0] == pytest.approx(4.5)

    def test_zero_flux(self):
        fl = make_flux("zero", 2, 2)
        vals = fl.evaluate(np.ones((2, 4)))
        assert all(np.all(v == 0) for v in vals)
        assert fl.is_zero

    def test_catalog_ids(self):
        assert set(builtin_fluxes()) == {"burgers1d", "burgers2d", "zero"}

    def test_polynomial_flux(self):
        terms = [{"direction": 0, "component": 0, "exponents": [2], "coefficient": 1.5}]
        fl = make_flux("polynomial", 1, 1, terms)
        assert fl.evaluate(np.array([[2.0]]))[0][0, 0] == pytest.approx(6.0)

    def test_polynomial_rejects_linear_part(self):
        terms = [{"direction": 0, "component": 0, "exponents": [1], "coefficient": 1.0}]
        with pytest.raises(FluxValidationError, match="f\\(0\\)=Df\\(0\\)=0"):
            make_flux("polynomial", 1, 1, terms)

    def test_unknown_id(self):
        with pytest.raises(FluxValidationError, match="unknown flux id"):
            make_flux("nope")

    def test_origin_check_quadratic(self):
        for fid in ("burgers1d", "burgers2d"):
            make_flux(fid).check_origin()  # does not raise

    def test_rebuild_roundtrip(self):
        fl = make_flux("burgers2d")
        fl2 = rebuild_flux(fl.spec)
        u = np.array([[0.2], [0.4]])
        for a, b in zip(fl.evaluate(u), fl2.evaluate(u)):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("args,spec", [
        (("zero", 2, 2), ("zero", 2, 2, None)),
        (("burgers1d",), ("burgers1d", None, None, None)),
        (("polynomial", 2, 1, [{"direction": 0, "component": 1, "exponents": [1, 2],
                                "coefficient": 0.5}]),
         ("polynomial", 2, 1, ((("direction", 0), ("component", 1), ("exponents", [1, 2]),
                                ("coefficient", 0.5)),))),
    ])
    def test_rebuild_roundtrip_every_kind(self, args, spec):
        fl = make_flux(*args)
        assert fl.spec == spec
        fl2 = rebuild_flux(fl.spec)
        assert (fl2.spec, fl2.name, fl2.n, fl2.d, fl2.is_zero) == (fl.spec, fl.name, fl.n, fl.d,
                                                                   fl.is_zero)
        u = np.random.default_rng(0).standard_normal((fl.n, 5))
        for a, b in zip(fl.evaluate(u), fl2.evaluate(u), strict=True):
            assert np.array_equal(a, b)


class TestFluxCoeffs:
    @pytest.mark.parametrize("name,d,N", [("burgers1d", 1, 32), ("burgers2d", 2, 16)])
    def test_matches_nd_reference(self, name, d, N):
        # u carries modes above N/3, which the flux must not see, and the
        # product's modes above N/3 must be cut from the result
        g = Grid(d, N, 2 * np.pi)
        fl = make_flux(name)
        axes = tuple(range(1, d + 1))
        x = np.random.default_rng(1).standard_normal((fl.n,) + g.shape)
        c = np.fft.rfftn(x, axes=axes, norm="forward")
        mask = g.dealias_mask()
        phys = np.fft.irfftn(c * mask, s=g.shape, axes=axes, norm="forward")
        ref = [np.fft.rfftn(f, axes=axes, norm="forward") * mask for f in fl.evaluate(phys)]
        out = flux_coeffs(fl, g, c)
        assert len(out) == fl.d
        for a, b in zip(out, ref):
            assert np.array_equal(a, b)
        for a, b in zip(flux_fields(fl, SpectralField(g, c)), ref):
            assert np.array_equal(a.coeffs, b)

    def test_zero_flux(self, grid2d):
        out = flux_coeffs(make_flux("zero", 2, 2), grid2d, np.ones((2,) + grid2d.spectral_shape))
        assert [c.shape for c in out] == [(2,) + grid2d.spectral_shape] * 2
        assert not any(np.any(c) for c in out)


class TestModelValidation:
    def test_positive_coefficients(self):
        fl = make_flux("burgers1d")
        with pytest.raises(ValueError, match="positive"):
            JinXinModel(fl, (-1.0,), 0.5)
        with pytest.raises(ValueError, match="positive"):
            JinXinModel(fl, (1.0,), 0.0)

    def test_component_cap(self):
        terms = [{"direction": 0, "component": 0, "exponents": [2, 0, 0, 0, 0], "coefficient": 1.0}]
        fl = make_flux("polynomial", 5, 1, terms)
        with pytest.raises(ValueError, match="components"):
            JinXinModel(fl, (1.0,), 0.5)


class TestJinXinRHS:
    def test_zero_state(self, grid):
        model = JinXinModel(make_flux("burgers1d"), (1.0,), 0.5)
        st = JinXinState(SpectralField.zero(grid), [SpectralField.zero(grid)])
        du, dv = jinxin_rhs(model, st)
        assert lp_norm(du, 2) == 0.0 and lp_norm(dv[0], 2) == 0.0

    def test_homogeneous_equilibrium(self, grid):
        model = JinXinModel(make_flux("burgers1d"), (1.0,), 0.5)
        c = 0.4
        u = SpectralField.from_physical(grid, np.full(grid.shape, c))
        v = SpectralField.from_physical(grid, np.full(grid.shape, 0.5 * c * c))
        du, dv = jinxin_rhs(model, JinXinState(u, [v]))
        assert lp_norm(du, 2) <= 1e-14
        assert lp_norm(dv[0], 2) <= 1e-13

    def test_linear_action_matches_generator(self, grid):
        # per-mode rates equal the generator applied to (u_hat, eps*v_hat)
        eps = 1.0
        model = JinXinModel(make_flux("zero", 1, 1), (1.0,), eps)
        x = grid.coords()[0]
        u = SpectralField.from_physical(grid, 0.3 * np.cos(x))
        v = SpectralField.from_physical(grid, 0.1 * np.sin(x))
        du, dv = jinxin_rhs(model, JinXinState(u, [v]))
        kap = grid.kappa_axes()[0].ravel()
        for idx in np.where(np.isclose(np.abs(kap), 1.0))[0]:
            A = generator_matrix([kap[idx]], eps, [1.0])
            w = np.array([u.coeffs[0, idx], eps * v.coeffs[0, idx]])
            rate = A @ w
            assert du.coeffs[0, idx] == pytest.approx(rate[0], abs=1e-12)
            assert dv[0].coeffs[0, idx] == pytest.approx(rate[1] / eps, abs=1e-12)

    def test_divergence_form_means(self, grid):
        rng = np.random.default_rng(5)
        model = JinXinModel(make_flux("burgers1d"), (1.0,), 0.3)
        st = random_state(model, grid, rng)
        du, _ = jinxin_rhs(model, st)
        assert np.max(np.abs(du.mean())) <= 1e-14


class TestLimitRHS:
    def test_heat_multiplier(self, grid):
        fl = make_flux("zero", 1, 1)
        x = grid.coords()[0]
        u = SpectralField.from_physical(grid, np.cos(3 * x))
        rate = limit_rhs(fl, (2.0,), LimitState(u))
        expected = -2.0 * 9.0 * u.coeffs
        assert np.max(np.abs(rate.coeffs - expected)) <= 1e-12

    def test_constant_state(self, grid):
        fl = make_flux("burgers1d")
        u = SpectralField.from_physical(grid, np.full(grid.shape, 0.7))
        assert lp_norm(limit_rhs(fl, (1.0,), LimitState(u)), 2) <= 1e-13

    def test_burgers2d_closed_form(self, grid2d):
        # u = (sin x1, 0): rate = (-sin 2x1 - sin x1, 0)
        fl = make_flux("burgers2d")
        x1 = grid2d.coords()[0]
        phys = np.stack([np.sin(x1) * np.ones(grid2d.shape), np.zeros(grid2d.shape)])
        u = SpectralField.from_physical(grid2d, phys)
        rate = limit_rhs(fl, (1.0, 1.0), LimitState(u)).to_physical()
        expected0 = -np.sin(2 * x1) - np.sin(x1)
        assert np.max(np.abs(rate[0] - expected0 * np.ones(grid2d.shape))) <= 1e-10
        assert np.max(np.abs(rate[1])) <= 1e-12

    def test_mean_preserved(self, grid):
        rng = np.random.default_rng(7)
        fl = make_flux("burgers1d")
        u = SpectralField.from_physical(grid, 0.1 * rng.standard_normal(grid.shape))
        rate = limit_rhs(fl, (1.0,), LimitState(u))
        assert np.max(np.abs(rate.mean())) <= 1e-14


class TestDarcyAndEffective:
    def test_darcy_constant(self, grid):
        fl = make_flux("burgers1d")
        u = SpectralField.from_physical(grid, np.full(grid.shape, 0.5))
        v = darcy_velocity(fl, (1.0,), u)[0]
        assert np.max(np.abs(v.to_physical()[0] - 0.125)) <= 1e-13

    def test_darcy_sine(self, grid):
        fl = make_flux("zero", 1, 1)
        x = grid.coords()[0]
        u = SpectralField.from_physical(grid, np.sin(2 * np.pi * x / grid.L))
        v = darcy_velocity(fl, (1.5,), u)[0].to_physical()[0]
        expected = -1.5 * (2 * np.pi / grid.L) * np.cos(2 * np.pi * x / grid.L)
        assert np.max(np.abs(v - expected)) <= 1e-12

    def test_darcy_matches_dense_oracle(self, grid):
        rng = np.random.default_rng(2)
        fl = make_flux("burgers1d")
        u = SpectralField.from_physical(grid, 0.2 * rng.standard_normal(grid.shape)).dealias()
        v = darcy_velocity(fl, (1.3,), u)[0]
        oracle = SpectralField(
            grid,
            -1.3 * spectral_derivative(u, 0).coeffs + flux_fields(fl, u)[0].coeffs,
        )
        assert np.max(np.abs(v.coeffs - oracle.coeffs)) <= 1e-10

    def test_z_kills_darcy_gradient_part(self, grid):
        rng = np.random.default_rng(3)
        model = JinXinModel(make_flux("zero", 1, 1), (2.0,), 0.5)
        u = SpectralField.from_physical(grid, rng.standard_normal(grid.shape)).dealias()
        v = [SpectralField(grid, -2.0 * spectral_derivative(u, 0).coeffs)]
        z = effective_z(model, JinXinState(u, v))[0]
        assert lp_norm(z, 2) <= 1e-12 * lp_norm(u, 2)

    def test_z_equals_v_when_u_zero(self, grid):
        rng = np.random.default_rng(4)
        model = JinXinModel(make_flux("burgers1d"), (1.0,), 0.5)
        v = [SpectralField.from_physical(grid, rng.standard_normal(grid.shape)).dealias()]
        st = JinXinState(SpectralField.zero(grid), v)
        z = effective_z(model, st)[0]
        assert np.max(np.abs(z.coeffs - v[0].coeffs)) <= 1e-14

    def test_Z_vanishes_on_darcy_data(self, grid):
        rng = np.random.default_rng(5)
        model = JinXinModel(make_flux("burgers1d"), (1.0,), 0.2)
        u = SpectralField.from_physical(grid, 0.1 * rng.standard_normal(grid.shape)).dealias()
        v = darcy_velocity(model.flux, model.a, u)
        Z = effective_Z(model, JinXinState(u, v))[0]
        assert lp_norm(Z, 2) <= 1e-10

    def test_Z_equals_z_for_zero_flux(self, grid):
        rng = np.random.default_rng(6)
        model = JinXinModel(make_flux("zero", 1, 1), (1.0,), 0.5)
        st = random_state(model, grid, rng)
        z = effective_z(model, st)[0]
        Z = effective_Z(model, st)[0]
        assert np.array_equal(z.coeffs, Z.coeffs)

    def test_Z_consistency_identity(self, grid):
        rng = np.random.default_rng(7)
        model = JinXinModel(make_flux("burgers1d"), (1.0,), 0.4)
        st = random_state(model, grid, rng)
        z = effective_z(model, st)[0]
        Z = effective_Z(model, st)[0]
        f = flux_fields(model.flux, st.u)[0]
        assert np.max(np.abs(Z.coeffs - (z.coeffs - f.coeffs))) <= 1e-14
