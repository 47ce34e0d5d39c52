import json
import math
import re
import struct

import numpy as np
import pytest

from relaxlab.spectral_core import (
    ConfigError,
    DyadicRangeError,
    Grid,
    GridMismatchError,
    NormSeries,
    SpectralField,
    base_block,
    besov_norm,
    block_lp_norms,
    chemin_lerner_norm,
    diffusion_symbol,
    dyadic_block,
    load_field,
    lp_norm,
    nonlinear_product,
    save_field,
    scheme_for,
    spectral_derivative,
    _dealiased_physical,
    _lp_physical,
)


@pytest.fixture
def grid1d():
    return Grid(1, 256, 2 * np.pi)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def random_field(grid, rng, mean_free=True):
    f = SpectralField.from_physical(grid, rng.standard_normal(grid.shape))
    if mean_free:
        c = f.coeffs.copy()
        c[(slice(None),) + (0,) * grid.d] = 0.0
        f = SpectralField(grid, c)
    return f


def band_field(grid, k_lo, k_hi, rng):
    """Random Hermitian field supported on k_lo <= |kappa| <= k_hi."""
    f = random_field(grid, rng)
    mag = grid.kappa_mag()
    sel = (mag >= k_lo) & (mag <= k_hi) & grid.dealias_mask()
    return SpectralField(grid, f.coeffs * sel)


class TestGrid:
    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            Grid(1, 100, 1.0)
        with pytest.raises(ValueError):
            Grid(1, 4, 1.0)

    def test_three_dimensions_rejected(self):
        with pytest.raises(ValueError, match="d must be 1 or 2"):
            Grid(3, 16, 1.0)

    @pytest.mark.parametrize("L", [1e300, 1e160, 1e-300])
    def test_box_length_out_of_float_range_rejected(self, L):
        # (2 pi/L)^2 underflows to 0 for huge L, (pi N/L)^2 overflows for tiny L
        with pytest.raises(ValueError, match="out of range"):
            Grid(2, 16, L)

    @pytest.mark.parametrize("args,path", [((3, 16, 1.0), "config.model.d"), ((1, 12, 1.0), "config.grid.N"),
                                           ((1, 16, -1), "config.grid.L"), ((1, 16, 10**400), "config.grid.L")])
    def test_errors_name_their_config_path(self, args, path):
        with pytest.raises(ConfigError, match=rf"^{re.escape(path)}: "):
            Grid(*args)

    def test_box_length_is_a_float(self):
        assert type(Grid(1, 16, 3).L) is float and Grid(1, 16, 3) == Grid(1, 16, 3.0)

    @pytest.mark.parametrize("L", [1e150, 1e-150])
    def test_box_length_in_float_range_accepted(self, L):
        g = Grid(2, 16, L)
        assert np.all(np.isfinite(g.kappa_mag())) and g.kappa_min**2 > 0

    def test_wavenumber_range(self, grid1d):
        # the last axis stores the rfftn modes 0..N/2
        kap = grid1d.kappa_axes()[0].ravel()
        assert kap.max() == grid1d.kappa_min * grid1d.N / 2
        assert grid1d.kappa_grid_max <= np.pi * grid1d.N / grid1d.L


class TestDyadicScheme:
    def test_partition_of_unity(self, grid1d):
        sch = scheme_for(grid1d)
        total = sch.base_multiplier.copy()
        for j in sch.j_indices:
            total += sch.multipliers[j]
        mask = grid1d.dealias_mask()
        assert np.max(np.abs(total[mask] - 1.0)) <= 1e-12

    def test_partition_of_unity_2d(self):
        g = Grid(2, 64, 7.3)
        sch = scheme_for(g)
        total = sch.base_multiplier.copy()
        for j in sch.j_indices:
            total += sch.multipliers[j]
        assert np.max(np.abs(total[g.dealias_mask()] - 1.0)) <= 1e-12

    def test_multiplier_support(self, grid1d):
        sch = scheme_for(grid1d)
        mag = grid1d.kappa_mag()
        for j in sch.j_indices:
            outside = (mag < 0.75 * 2.0**j - 1e-12) | (mag > 8 / 3 * 2.0**j + 1e-12)
            assert np.max(np.abs(sch.multipliers[j][outside])) == 0.0


class TestDyadicBlock:
    def test_identity_on_pure_annulus(self, grid1d, rng):
        # phi_j equals one on [4/3, 3/2] * 2^j
        sch = scheme_for(grid1d)
        j = 2
        f = band_field(grid1d, 4 / 3 * 2.0**j, 1.5 * 2.0**j, rng)
        out = dyadic_block(f, j)
        assert np.max(np.abs(out.coeffs - f.coeffs)) <= 1e-12 * np.max(np.abs(f.coeffs))

    def test_disjoint_support_vanishes(self, grid1d, rng):
        j = 2
        f = band_field(grid1d, 4 / 3 * 2.0**j, 1.5 * 2.0**j, rng)
        out = dyadic_block(f, 5)
        assert np.max(np.abs(out.coeffs)) <= 1e-12

    def test_reconstruction(self, grid1d, rng):
        f = random_field(grid1d, rng).dealias()
        sch = scheme_for(grid1d)
        recon = base_block(f)
        for j in sch.j_indices:
            recon = recon + dyadic_block(f, j)
        rel = np.max(np.abs(recon.coeffs - f.coeffs)) / np.max(np.abs(f.coeffs))
        assert rel <= 1e-10

    def test_almost_orthogonality(self, grid1d, rng):
        f = random_field(grid1d, rng)
        sch = scheme_for(grid1d)
        j = sch.j_min + 2
        double = dyadic_block(dyadic_block(f, j), j + 2)
        assert lp_norm(double, 2) <= 1e-12 * lp_norm(f, 2)

    def test_range_error_names_window(self, grid1d, rng):
        sch = scheme_for(grid1d)
        f = random_field(grid1d, rng)
        with pytest.raises(DyadicRangeError, match=rf"\[{sch.j_min}, {sch.j_max}\]"):
            dyadic_block(f, sch.j_max + 3)


def low_part(f, J):
    """The base cutoff plus every block with j <= J-1."""
    out = base_block(f)
    for j in range(scheme_for(f.grid).j_min, J):
        out = out + dyadic_block(f, j)
    return out


class TestLowfreqCutoff:
    def test_full_cutoff_is_identity(self, grid1d, rng):
        sch = scheme_for(grid1d)
        f = random_field(grid1d, rng).dealias()
        out = low_part(f, sch.j_max + 1)
        assert np.max(np.abs(out.coeffs - f.coeffs)) <= 1e-12 * np.max(np.abs(f.coeffs))

    def test_vanishes_on_high_band(self, grid1d, rng):
        J = 2
        f = band_field(grid1d, 2.0 ** (J + 1) * (8 / 3), grid1d.kappa_grid_max, rng)
        assert np.max(np.abs(low_part(f, J).coeffs)) <= 1e-12

    def test_low_high_decomposition(self, grid1d, rng):
        sch = scheme_for(grid1d)
        f = random_field(grid1d, rng).dealias()
        J = (sch.j_min + sch.j_max) // 2
        low = low_part(f, J)
        high = SpectralField.zero(grid1d, f.n)
        for j in range(J, sch.j_max + 1):
            high = high + dyadic_block(f, j)
        err = np.max(np.abs(low.coeffs + high.coeffs - f.coeffs))
        assert err <= 1e-12 * max(1.0, np.max(np.abs(f.coeffs)))


class TestBesovNorm:
    def test_single_block_value(self, grid1d, rng):
        sch = scheme_for(grid1d)
        j0 = 1
        f = band_field(grid1d, 4 / 3 * 2.0**j0, 1.5 * 2.0**j0, rng)
        m = lp_norm(f, 2)
        for r in (1, 2, np.inf):
            val = besov_norm(f, 0.7, 2, r)
            assert val == pytest.approx(2.0 ** (j0 * 0.7) * m, rel=1e-12)

    def test_plancherel_ratio(self, grid1d, rng):
        f = random_field(grid1d, rng).dealias()
        ratio = besov_norm(f, 0.0, 2, 2) / lp_norm(f, 2)
        assert 0.7 <= ratio <= 1.0

    def test_window_bookkeeping(self, grid1d, rng):
        f = random_field(grid1d, rng).dealias()
        sch = scheme_for(grid1d)
        J = 0
        r = 2
        full = besov_norm(f, 0.3, 2, r)
        low = besov_norm(f, 0.3, 2, r, ("low", J))
        high = besov_norm(f, 0.3, 2, r, ("high", J))
        assert low**r + high**r >= full**r - 1e-12
        # equality once the doubly-counted boundary blocks J-1, J are removed
        norms = block_lp_norms(f, 2, sch)
        overlap = sum(
            (2.0 ** (j * 0.3) * norms[list(sch.j_indices).index(j)]) ** r
            for j in (J - 1, J)
            if sch.j_min <= j <= sch.j_max
        )
        assert low**r + high**r - overlap == pytest.approx(full**r, rel=1e-10)

    def test_absolute_homogeneity(self, grid1d, rng):
        f = random_field(grid1d, rng)
        b = besov_norm(f, 0.4, 2, 1)
        assert besov_norm(f * (-3.7), 0.4, 2, 1) == pytest.approx(3.7 * b, rel=1e-12)

    def test_empty_window_warns_and_returns_zero(self, grid1d, rng):
        f = random_field(grid1d, rng)
        sch = scheme_for(grid1d)
        with pytest.warns(UserWarning, match="empty"):
            assert besov_norm(f, 0.0, 2, 1, ("high", sch.j_max + 5)) == 0.0

    def test_mean_mode_excluded(self, grid1d):
        f = SpectralField.from_physical(grid1d, np.full(grid1d.shape, 3.0))
        assert besov_norm(f, 0.0, 2, 1) <= 1e-14


class TestCheminLerner:
    def _series(self, grid, j0, values, times):
        sch = scheme_for(grid)
        table = np.zeros((sch.j_indices.size, len(times)))
        table[list(sch.j_indices).index(j0)] = values
        return NormSeries(sch.j_indices, 2, times, table)

    def test_constant_single_block_sup(self, grid1d):
        s = self._series(grid1d, 1, [0.8, 0.8, 0.8], [0.0, 0.5, 1.0])
        val = chemin_lerner_norm(s, np.inf, 0.6, 1)
        assert val == pytest.approx(2.0**0.6 * 0.8, rel=1e-12)

    def test_exponential_block_time_integral(self, grid1d):
        times = np.linspace(0.0, 30.0, 4001)
        s = self._series(grid1d, 2, np.exp(-times), times)
        val = chemin_lerner_norm(s, 1, 0.25, 1)
        assert val == pytest.approx(2.0**0.5 * (1 - np.exp(-30.0)), rel=1e-4)

    def test_minkowski_ordering(self, grid1d, rng):
        # r=1 >= rho=1: block-wise time integral then sum dominates the
        # time integral of the instantaneous l^1 sum (equality), and the
        # tilde norm dominates for r >= rho on random tables
        sch = scheme_for(grid1d)
        times = np.linspace(0.0, 1.0, 5)
        table = rng.uniform(0.1, 1.0, size=(sch.j_indices.size, 5))
        s = NormSeries(sch.j_indices, 2, times, table)
        tilde = chemin_lerner_norm(s, 1, 0.3, 1)
        plain = np.trapezoid(s.besov_curve(0.3, 1), times)
        assert tilde >= plain - 1e-12

    def test_too_few_samples(self, grid1d):
        s = self._series(grid1d, 1, [1.0], [0.0])
        with pytest.raises(ValueError, match="2 time samples"):
            chemin_lerner_norm(s, 1, 0.0, 1)

    def test_series_invariants(self, grid1d):
        js = scheme_for(grid1d).j_indices
        NormSeries(js, 2, [0.0, 1.0], np.zeros((js.size, 2)))
        with pytest.raises(ValueError, match="strictly increasing"):
            NormSeries(js, 2, [0.0, 0.0], np.zeros((js.size, 2)))
        with pytest.raises(ValueError, match="nonnegative"):
            NormSeries(js, 2, [0.0, 1.0], -np.ones((js.size, 2)))
        with pytest.raises(ValueError, match="not \\(blocks, times\\)"):
            NormSeries(js, 2, [0.0, 1.0], np.zeros((2, js.size)))

    @pytest.mark.parametrize("window,j_lo,j_hi", [("full", -4, 13), (("low", 6), -4, 6),
                                                  (("high", 6), 5, 13)])
    @pytest.mark.parametrize("rho", [1, 3, np.inf])
    @pytest.mark.parametrize("r", [1, 3])
    def test_reductions_bitwise(self, rng, window, j_lo, j_hi, rho, r):
        # each curve value and each per-block time norm is the sum a lone
        # column or row gets: the windows hold 18, 11 and 9 blocks, past the
        # 8 where numpy's pairwise sum starts to depend on memory order, and
        # the roots are taken as for a lone sum, which numpy's array power
        # misses in the last bit for a few percent of the values at r = 3
        js = np.arange(-4, 14)
        times = np.cumsum(rng.uniform(0.01, 0.1, 400))
        table = rng.uniform(0.0, 1.0, (js.size, times.size))
        s, sig = NormSeries(js, 2, times, table), 0.3
        sel = (js >= j_lo) & (js <= j_hi)
        w, tab = 2.0 ** (js[sel] * sig), table[sel]

        def ell(values):
            return np.sum(values**r) ** (1.0 / r)

        curve = [ell(w * tab[:, i]) for i in range(times.size)]
        assert np.array_equal(s.besov_curve(sig, r, window), curve)
        if np.isinf(rho):
            per_j = [np.max(row) for row in tab]
        else:
            per_j = [np.trapezoid(row**rho, times) ** (1.0 / rho) for row in tab]
        assert chemin_lerner_norm(s, rho, sig, r, window) == ell(w * np.array(per_j))


class TestDerivatives:
    def test_sine(self, grid1d):
        x = grid1d.coords()[0]
        f = SpectralField.from_physical(grid1d, np.sin(2 * np.pi * x / grid1d.L))
        df = spectral_derivative(f, 0).to_physical()[0]
        expected = (2 * np.pi / grid1d.L) * np.cos(2 * np.pi * x / grid1d.L)
        assert np.max(np.abs(df - expected)) <= 1e-12

    def test_constant(self, grid1d):
        f = SpectralField.from_physical(grid1d, np.ones(grid1d.shape))
        assert np.max(np.abs(spectral_derivative(f, 0).coeffs)) == 0.0

    def test_mixed_partials_commute(self, rng):
        g = Grid(2, 32, 5.0)
        f = random_field(g, rng).dealias()
        dxy = spectral_derivative(spectral_derivative(f, 0), 1)
        dyx = spectral_derivative(spectral_derivative(f, 1), 0)
        assert np.max(np.abs(dxy.coeffs - dyx.coeffs)) <= 1e-12

    def test_laplacian_weights(self, rng):
        g = Grid(2, 32, 5.0)
        f = random_field(g, rng).dealias()
        lap = -diffusion_symbol(g, (2.0, 3.0)) * f.coeffs
        manual = (2.0 * spectral_derivative(spectral_derivative(f, 0), 0).coeffs
                  + 3.0 * spectral_derivative(spectral_derivative(f, 1), 1).coeffs)
        assert np.max(np.abs(lap - manual)) <= 1e-12


class TestNonlinearProduct:
    def test_identity_times_field(self, grid1d, rng):
        one = SpectralField.from_physical(grid1d, np.ones(grid1d.shape))
        f = random_field(grid1d, rng).dealias()
        out = nonlinear_product(one, f)
        assert np.max(np.abs(out.coeffs - f.coeffs)) <= 1e-12

    def test_mode_addition_and_mask(self, grid1d):
        x = grid1d.coords()[0]
        k1, k2 = 30, 40
        a = SpectralField.from_physical(grid1d, np.cos(k1 * 2 * np.pi * x / grid1d.L))
        b = SpectralField.from_physical(grid1d, np.cos(k2 * 2 * np.pi * x / grid1d.L))
        out = nonlinear_product(a, b)
        modes = np.fft.rfftfreq(grid1d.N, d=1.0 / grid1d.N)
        idx_sum = np.where(np.isclose(modes, k1 + k2))[0]
        idx_diff = np.where(np.isclose(modes, k2 - k1))[0]
        # k1+k2=70 = beyond the N/3=85... inside: check both produced lines
        assert abs(out.coeffs[0, idx_sum[0]] - 0.25) <= 1e-12
        assert abs(out.coeffs[0, idx_diff[0]] - 0.25) <= 1e-12
        # product of modes near the cutoff aliases out of the mask: zero
        k3 = 80
        c = SpectralField.from_physical(grid1d, np.cos(k3 * 2 * np.pi * x / grid1d.L))
        out2 = nonlinear_product(c, c)
        # 2*k3 = 160 wraps to -96 on N=256, stored as its conjugate +96;
        # both lie outside the mask
        idx_bad = np.where(np.isclose(modes, grid1d.N - 2 * k3))[0]
        assert np.max(np.abs(out2.coeffs[0, idx_bad])) == 0.0

    def test_holder_bound(self, grid1d, rng):
        a = random_field(grid1d, rng).dealias()
        b = random_field(grid1d, rng).dealias()
        lhs = lp_norm(nonlinear_product(a, b), 2)
        assert lhs <= lp_norm(a, np.inf) * lp_norm(b, 2) * (1 + 1e-10)

    def test_grid_mismatch(self, grid1d, rng):
        other = Grid(1, 128, 2 * np.pi)
        with pytest.raises(GridMismatchError):
            nonlinear_product(random_field(grid1d, rng), random_field(other, rng))


class TestBernstein:
    @pytest.mark.parametrize("p", [2, np.inf])
    def test_derivative_ratio_bounds(self, grid1d, rng, p):
        sch = scheme_for(grid1d)
        for _ in range(10):
            j = int(rng.integers(sch.j_min + 2, sch.j_max - 1))
            blk = dyadic_block(random_field(grid1d, rng), j)
            ratio = lp_norm(spectral_derivative(blk, 0), p) / lp_norm(blk, p)
            assert 0.25 * 2.0**j <= ratio <= 4.0 * 2.0**j


class TestHermitian:
    def test_pipeline_preserves_reality(self, grid1d, rng):
        f = random_field(grid1d, rng).dealias()
        for out in (
            spectral_derivative(f, 0),
            dyadic_block(f, 1),
            nonlinear_product(f, f),
        ):
            assert out.hermitian_defect() <= 1e-10

    def test_defect_detects_asymmetry(self, grid1d, rng):
        # an imaginary mean: a self-conjugate mode that is not its own conjugate
        c = random_field(grid1d, rng).coeffs.copy()
        c[0, 0] += 1j * np.max(np.abs(c))
        assert SpectralField(grid1d, c).hermitian_defect() > 1e-3


def _full_lattice(c, N):
    """The full fftn lattice of (n, ...) half-spectrum coefficients: the
    last-axis modes above N/2 are the conjugates of their mirrors."""
    upper = np.conj(c[..., N // 2 - 1 : 0 : -1])
    for ax in range(1, c.ndim - 1):
        upper = np.roll(np.flip(upper, axis=ax), 1, axis=ax)
    return np.concatenate([c, upper], axis=-1)


def _c2c_lp(coeffs, grid, p):
    """Reference L^p norm through the complex inverse transform."""
    axes = tuple(range(1, coeffs.ndim))
    phys = np.fft.ifftn(_full_lattice(coeffs, grid.N) * grid.N**grid.d, axes=axes).real
    mag = np.sqrt(np.sum(phys**2, axis=0))
    if np.isinf(p):
        return np.max(mag)
    return (np.sum(mag**p) * grid.dx**grid.d) ** (1.0 / p)


class TestRealTransforms:
    @pytest.mark.parametrize("d,N", [(1, 16), (1, 512), (2, 64)])
    def test_from_physical_matches_fftn_and_is_hermitian(self, rng, d, N):
        g = Grid(d, N, 3.0)
        x = rng.standard_normal((2,) + g.shape)
        axes = tuple(range(1, d + 1))
        c = SpectralField.from_physical(g, x, dealias=False).coeffs
        ref = np.fft.fftn(x, axes=axes)[..., : N // 2 + 1] / N**d
        assert np.max(np.abs(c - ref)) <= 1e-15 * np.max(np.abs(c))
        # the half spectrum of real samples, Hermitian by construction
        assert np.array_equal(c, np.fft.rfftn(x, axes=axes) / N**d)

    @pytest.mark.parametrize("d,N", [(1, 16), (1, 512), (2, 64)])
    def test_to_physical_matches_ifftn(self, rng, d, N):
        g = Grid(d, N, 3.0)
        f = SpectralField.from_physical(g, rng.standard_normal((2,) + g.shape), dealias=False)
        for field in (f, spectral_derivative(f.dealias(), d - 1), nonlinear_product(f, f)):
            ref = np.fft.ifftn(_full_lattice(field.coeffs, N) * N**d, axes=tuple(range(1, d + 1))).real
            assert np.max(np.abs(field.to_physical() - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("d,N", [(1, 16), (1, 512), (2, 64)])
    def test_transforms_equal_numpy_nd(self, rng, d, N):
        # the grid-axis transforms are rfftn/irfftn spelled out per axis
        g = Grid(d, N, 3.0)
        axes = tuple(range(1, d + 1))
        x = rng.standard_normal((2,) + g.shape)
        f = SpectralField.from_physical(g, x, dealias=False)
        assert np.array_equal(f.coeffs, np.fft.rfftn(x, axes=axes, norm="forward"))
        c = f.coeffs * (1.0 + rng.standard_normal(f.coeffs.shape))
        assert np.array_equal(SpectralField(g, c).to_physical(),
                              np.fft.irfftn(c, s=g.shape, axes=axes, norm="forward"))

    @pytest.mark.parametrize("d,N", [(1, 16), (1, 512), (2, 64)])
    def test_parseval_weights_multiplicity(self, rng, d, N):
        # without dealiasing the Nyquist planes carry mass, so a wrong weight
        # on the last-axis planes 0 or N/2 shows in the field and its blocks
        g = Grid(d, N, 3.0)
        f = SpectralField.from_physical(g, rng.standard_normal((2,) + g.shape), dealias=False)
        sch = scheme_for(g)

        def rect_l2(field):
            return math.sqrt(np.sum(field.to_physical() ** 2) * g.dx**d)

        assert lp_norm(f, 2) == pytest.approx(rect_l2(f), rel=1e-12, abs=0.0)
        got = block_lp_norms(f, 2, sch)
        for i, j in enumerate(sch.j_indices):
            assert got[i] == pytest.approx(rect_l2(dyadic_block(f, j)), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("d,N", [(1, 256), (2, 64)])
    @pytest.mark.parametrize("p", [4, np.inf])
    def test_block_norms_match_per_block(self, rng, d, N, p):
        g = Grid(d, N, 2 * np.pi)
        f = SpectralField.from_physical(g, rng.standard_normal((2,) + g.shape))
        sch = scheme_for(g)
        got = block_lp_norms(f, p, sch)
        for i, j in enumerate(sch.j_indices):
            blk = dyadic_block(f, j)
            for ref in (lp_norm(blk, p), _c2c_lp(blk.coeffs, g, p)):
                assert got[i] == pytest.approx(ref, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("d,N,L_over_pi", [(1, 256, 32), (2, 64, 16)])
    @pytest.mark.parametrize("p", [1, 3, 4, np.inf])
    def test_pruned_block_norms_equal_full_inverse(self, rng, d, N, L_over_pi, p):
        # without dealiasing every block has mass in the last column of its
        # support (the top ones reach N/2), so an inverse over too few
        # last-axis columns shows, and over the right ones changes no bit
        g = Grid(d, N, L_over_pi * np.pi)
        f = SpectralField.from_physical(g, rng.standard_normal((2,) + g.shape), dealias=False)
        sch = scheme_for(g)
        axes = tuple(range(1, d + 1))
        got = block_lp_norms(f, p, sch)
        for i, j in enumerate(sch.j_indices):
            full = np.fft.irfftn(f.coeffs * sch.multipliers[j], s=g.shape, axes=axes, norm="forward")
            if sch.eval_size(j, p) == N:
                assert got[i] == _lp_physical(full, p, g)
            else:
                # an even-p block on its coarser exact grid moves by roundoff
                assert got[i] == pytest.approx(_lp_physical(full, p, g), rel=1e-14, abs=0.0)
        for j, K in sch.reach.items():
            assert sch.multipliers[j][..., K].any() and not sch.multipliers[j][..., K + 1 :].any()
        assert sch.reach[sch.j_min] < sch.reach[sch.j_max] == N // 2

    @pytest.mark.parametrize("d,N,L_over_pi", [(1, 256, 32), (2, 64, 16)])
    @pytest.mark.parametrize("p", [4, 6])
    @pytest.mark.parametrize("dealias", [True, False])
    def test_even_p_block_norms_match_padded_grid(self, rng, d, N, L_over_pi, p, dealias):
        # |block_j f|^p has degree p*reach[j]; wherever that is below N, the
        # rectangle rule on 2N points integrates it exactly, as the coarse
        # grid and the N-point grid do, so the three agree to roundoff
        g = Grid(d, N, L_over_pi * np.pi)
        f = SpectralField.from_physical(g, rng.standard_normal((2,) + g.shape), dealias=dealias)
        sch = scheme_for(g)
        got = block_lp_norms(f, p, sch)
        exact = [i for i, j in enumerate(sch.j_indices) if p * sch.reach[j] < N]
        assert any(sch.eval_size(j, p) < N for j in sch.j_indices[exact])
        for i in exact:
            blk = f.coeffs * sch.multipliers[sch.j_indices[i]]
            padded = np.zeros((2,) + (2 * N,) * (d - 1) + (N + 1,), dtype=complex)
            if d == 1:
                padded[:, : N // 2 + 1] = blk
            else:  # nonnegative modes lead axis -2, negative ones end it
                padded[:, : N // 2, : N // 2 + 1] = blk[:, : N // 2]
                padded[:, -(N // 2) :, : N // 2 + 1] = blk[:, N // 2 :]
            phys = np.fft.irfftn(padded, s=(2 * N,) * d, axes=tuple(range(1, d + 1)), norm="forward")
            ref = (np.sum(np.sum(phys**2, axis=0) ** (p / 2)) * (g.L / (2 * N)) ** d) ** (1 / p)
            assert got[i] == pytest.approx(ref, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("d,N,L", [(1, 4096, 200 * np.pi), (2, 256, 64 * np.pi), (2, 64, 3.0)])
    def test_eval_sizes(self, d, N, L):
        sch = scheme_for(Grid(d, N, L))
        smooth = {2**a * 3**b for a in range(1, 13) for b in range(8)}
        modes = np.meshgrid(*[np.abs(np.fft.fftfreq(N, 1.0 / N))] * (d - 1), np.arange(N // 2 + 1),
                            indexing="ij")
        for j in sch.j_indices:
            K, nonzero = sch.reach[j], sch.multipliers[j] != 0
            assert K == max(k[nonzero].max() for k in modes)
            for p in (2, 4, 6):
                # the smallest even 2^a 3^b above p*K, where that is below N
                M = sch.eval_size(j, p)
                above = min(s for s in smooth if s > p * K)
                assert M == (above if above < N else N)
                assert p * K < M <= N or (M == N <= p * K)
            for p in (1, 3, 2.5, np.inf):
                assert sch.eval_size(j, p) == N
        if (d, N) == (2, 256):
            assert [sch.eval_size(j, 4) for j in sch.j_indices] == [6, 12, 24, 48, 96, 192, 256, 256, 256]

    @pytest.mark.parametrize("d,N", [(1, 512), (2, 64)])
    def test_dealiased_transforms_equal_numpy_nd(self, rng, d, N):
        g = Grid(d, N, 3.0)
        axes = tuple(range(1, d + 1))
        mask = g.dealias_mask()
        # every survivor lies in the band's first N // 3 + 1 last-axis columns
        band = mask[..., : N // 3 + 1]
        assert band.sum() == mask.sum() and (d == 2 or band.all())
        x = rng.standard_normal((2,) + g.shape)
        c = np.fft.rfftn(x, axes=axes, norm="forward")
        assert np.array_equal(SpectralField.from_physical(g, x).coeffs, c * mask)
        assert np.array_equal(_dealiased_physical(c, g),
                              np.fft.irfftn(c * mask, s=g.shape, axes=axes, norm="forward"))


class TestSerialization:
    def test_roundtrip(self, grid1d, rng, tmp_path):
        f = random_field(grid1d, rng)
        path = tmp_path / "field.bin"
        save_field(f, path)
        g = load_field(path)
        assert g.grid == f.grid
        assert np.array_equal(g.coeffs, f.coeffs)

    def test_full_layout_rejected(self, grid1d, rng, tmp_path):
        # a container of the earlier full-lattice layout: header and data
        header = {"d": 1, "n": 1, "N": grid1d.N, "L": grid1d.L,
                  "layout": "complex interleaved, row-major wavevector"}
        hb = json.dumps(header, sort_keys=True).encode()
        path = tmp_path / "full.bin"
        coeffs = np.fft.fft(rng.standard_normal(grid1d.N)) / grid1d.N
        path.write_bytes(b"RLXF" + struct.pack("<I", len(hb)) + hb + coeffs.tobytes())
        with pytest.raises(ValueError, match="complex interleaved, row-major wavevector") as e:
            load_field(path)
        assert str(path) in str(e.value)
