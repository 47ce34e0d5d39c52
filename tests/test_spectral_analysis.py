import math

import numpy as np
import pytest

from relaxlab.spectral_analysis import (
    classify_regime,
    decay_rate_omega,
    eigenvalues,
    exact_linear_propagator,
    exp_slow_block,
    generator_matrix,
    mode_symbol,
    threshold_J,
)
from relaxlab.spectral_core import Grid


class TestEigenvalues:
    def test_conserved_mode_1d(self):
        lams = eigenvalues([0.0], 1.0, [1.0])
        assert sorted(l.real for l in lams) == pytest.approx([-1.0, 0.0])

    def test_double_root(self):
        lams = eigenvalues([0.5], 1.0, [1.0])
        assert all(l == pytest.approx(-0.5) for l in lams)

    def test_2d_complex_pair(self):
        lams = eigenvalues([1.0, 1.0], 1.0, (1.0, 1.0))
        assert lams[0] == pytest.approx(-1.0)
        assert lams[1] == pytest.approx(-0.5 + 1j * math.sqrt(7) / 2)
        assert lams[2] == pytest.approx(-0.5 - 1j * math.sqrt(7) / 2)

    def test_vieta_relations(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            d = int(rng.integers(1, 3))
            xi = rng.uniform(-4, 4, d)
            eps = 10.0 ** rng.uniform(-2, 0.3)
            a = 10.0 ** rng.uniform(-0.5, 0.5, d)
            lams = eigenvalues(xi, eps, a)
            lam_d, lam_d1 = lams[-2], lams[-1]
            assert lam_d + lam_d1 == pytest.approx(-1.0 / eps**2, rel=1e-10)
            assert lam_d * lam_d1 == pytest.approx(mode_symbol(xi, a) / eps**2, rel=1e-10)
            assert all(l.real <= 1e-15 for l in lams)

    def test_charpoly_residual(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            d = int(rng.integers(1, 3))
            xi = rng.uniform(-6, 6, d)
            eps = 10.0 ** rng.uniform(-2, 0.5)
            a = 10.0 ** rng.uniform(-1, 1, d)
            A = generator_matrix(xi, eps, a)
            bound = 1e-8 * (1 + np.linalg.norm(A, 2) ** (d + 1))
            for lam in eigenvalues(xi, eps, a):
                assert abs(np.linalg.det(A - lam * np.eye(d + 1))) <= bound


class TestDecayRate:
    def test_peak_value(self):
        # friction exactly at the peak: omega = 2S
        assert decay_rate_omega([1.0], 0.5, [1.0]) == pytest.approx(2.0)

    def test_parabolic_limit(self):
        assert decay_rate_omega([1.0], 1e-4, [1.0]) == pytest.approx(1.0, abs=1e-6)

    def test_oscillatory_branch(self):
        assert decay_rate_omega([1.0], 1.0, [1.0]) == pytest.approx(0.5)

    def test_conserved(self):
        assert decay_rate_omega([0.0], 0.3, [1.0]) == 0.0

    def test_overdamping_shape(self):
        # fixed S: nondecreasing up to the peak, nonincreasing after, max 2S
        S = 1.7
        xi = [math.sqrt(S)]
        peak = 2.0 * math.sqrt(S)
        inv = np.unique(np.append(np.geomspace(0.05, 50.0, 100), peak))
        om = np.array([decay_rate_omega(xi, 1.0 / ie, [1.0]) for ie in inv])
        up = inv <= peak
        assert np.all(np.diff(om[up]) >= -1e-12)
        assert np.all(np.diff(om[~up]) <= 1e-12)
        assert np.max(om) == pytest.approx(2 * S, rel=1e-7)  # sqrt halves the float precision at the peak


class TestThreshold:
    def test_power_of_two(self):
        assert threshold_J(1 / 8) == 3

    def test_offset(self):
        assert threshold_J(1.0, 2) == 2

    def test_floor_convention(self):
        assert threshold_J(0.1) == 4
        assert 2**4 >= 1 / 0.1 and 2**4 < 2 / 0.1

    def test_bracket_guarantee(self):
        rng = np.random.default_rng(2)
        for eps in 10.0 ** rng.uniform(-3, 1, 50):
            J = threshold_J(eps)
            assert 1.0 / eps <= 2.0**J < 2.0 / eps


class TestRegimes:
    def test_low(self):
        assert classify_regime([0.1], 1.0, [1.0]) == "low"

    def test_high_real_part(self):
        assert classify_regime([10.0], 1.0, [1.0]) == "high"
        assert eigenvalues([10.0], 1.0, [1.0])[-1].real == pytest.approx(-0.5)

    def test_transitional(self):
        assert classify_regime([0.5], 1.0, [1.0]) == "transitional"

    @pytest.mark.parametrize("eps", [1.0, 0.01, 0.001])
    def test_transitional_band_on_one_scale(self, eps):
        # a relative 1e-7 past the defective point 1/eps^2 = 4S is oscillatory
        # at every eps, the band being a relative 1e-12 on the 1/eps^2 scale
        xi = math.sqrt((1.0 + 1e-7) / (4.0 * eps**2))
        assert classify_regime([xi], eps, [1.0]) == "high"


class TestPropagator:
    def test_identity_at_zero(self):
        P = exact_linear_propagator([1.2], 0.5, [1.0], 0.0)
        assert np.max(np.abs(P - np.eye(2))) == 0.0

    def test_zero_mode_structure(self):
        P = exact_linear_propagator([0.0, 0.0], 0.5, [1.0, 2.0], 0.3)
        damp = math.exp(-0.3 / 0.25)
        expected = np.diag([1.0, damp, damp])
        assert np.max(np.abs(P - expected)) <= 1e-14

    def test_rk4_agreement(self):
        A = generator_matrix([1.0], 1.0, [1.0])
        P = exact_linear_propagator([1.0], 1.0, [1.0], 1.0)
        w = np.eye(2, dtype=complex)
        h = 1e-4
        for _ in range(10000):
            k1 = A @ w
            k2 = A @ (w + h / 2 * k1)
            k3 = A @ (w + h / 2 * k2)
            k4 = A @ (w + h * k3)
            w = w + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        assert np.max(np.abs(P - w)) <= 1e-8

    @pytest.mark.parametrize(
        "xi,eps,a",
        [
            ((0.5,), 1.0, (1.0,)),             # defective point
            ((1.3,), 0.3, (1.0,)),
            ((0.2, 0.7), 0.11, (1.0, 2.0)),
            ((3.0, 0.1), 1.7, (0.5, 2.5)),
        ],
    )
    def test_semigroup(self, xi, eps, a):
        P1 = exact_linear_propagator(xi, eps, a, 0.7)
        P2 = exact_linear_propagator(xi, eps, a, 1.1)
        P3 = exact_linear_propagator(xi, eps, a, 1.8)
        rel = np.max(np.abs(P1 @ P2 - P3)) / np.max(np.abs(P3))
        assert rel <= 1e-9

    def test_spectral_abscissa(self):
        # operator norm decay over [50, 100]/omega matches the analytic rate
        for xi, eps in (([1.0], 0.2), ([0.6], 1.3)):
            om = decay_rate_omega(xi, eps, [1.0])
            assert classify_regime(xi, eps, [1.0]) != "transitional"
            t1, t2 = 50.0 / om, 100.0 / om
            n1 = np.linalg.norm(exact_linear_propagator(xi, eps, [1.0], t1), 2)
            n2 = np.linalg.norm(exact_linear_propagator(xi, eps, [1.0], t2), 2)
            measured = -math.log(n2 / n1) / (t2 - t1)
            assert measured == pytest.approx(om, rel=0.02)

    def test_defective_point_finite(self):
        P = exact_linear_propagator([0.5], 1.0, [1.0], 2.0)
        assert np.all(np.isfinite(P))
        # Jordan structure: algebraic growth factor against exp(-t/2)
        expected_norm = math.exp(-1.0)
        assert np.linalg.norm(P, 2) == pytest.approx(expected_norm, rel=1.5)


def _expm_reference(A):
    """exp(A) by a Taylor series with scaling and squaring, in numpy alone."""
    s = max(0, math.ceil(math.log2(np.abs(A).sum(axis=1).max() / 0.25)))
    X = A / 2.0**s
    term = np.eye(len(A), dtype=complex)
    out = term.copy()
    for k in range(1, 25):
        term = term @ X / k
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


def _rel_err(P, R):
    return np.max(np.abs(P - R)) / np.max(np.abs(R))


def _defective_xi(eps, delta, a):
    """xi along (1, ..., 1) with 4 eps^2 S = 1 - delta: relative distance
    |delta| from the defective point, overdamped for delta > 0."""
    a = np.asarray(a, dtype=float)
    S = (1.0 - delta) / (4.0 * eps**2)
    return np.full(a.size, math.sqrt(S / a.sum()))


_TIMES_OVER_EPS2 = (0.5, 1.0, 2.0, 4.0, 8.0)


class TestSlowBlockReference:
    """The closed-form slow block against exp(t*generator_matrix) across the
    defective point 1/eps = 2 sqrt(S), where the pair of eigenvalues merges."""

    @pytest.mark.parametrize("eps", [0.01, 0.3, 3.0])
    @pytest.mark.parametrize("delta,tol", [(1e-7, 1e-12), (1e-5, 1e-12), (1e-9, 1e-7)])
    def test_near_defective_point(self, eps, delta, tol):
        # both sides of the defective point in one call over an array of S;
        # in 1D with a = 1 the block is generator_matrix conjugated by diag(1, xi)
        xi = np.array([_defective_xi(eps, s * delta, [1.0])[0] for s in (1.0, -1.0)])
        S = xi**2
        for t in eps**2 * np.array(_TIMES_OVER_EPS2):
            E00, E01, E10, E11 = exp_slow_block(S, eps, t)
            for k in range(S.size):
                P = np.array([[E00[k], E01[k] / xi[k]], [E10[k] * xi[k], E11[k]]])
                R = _expm_reference(t * generator_matrix([xi[k]], eps, [1.0]))
                assert _rel_err(P, R) <= tol, (t / eps**2, S[k])

    @pytest.mark.parametrize(
        "xi,eps,a",
        [
            (tuple(_defective_xi(0.01, 1e-5, [1.0, 2.0])), 0.01, (1.0, 2.0)),
            ((0.0, 0.0), 0.5, (1.0, 2.0)),  # S = 0
        ],
    )
    def test_propagator(self, xi, eps, a):
        for t in eps**2 * np.array(_TIMES_OVER_EPS2):
            P = exact_linear_propagator(xi, eps, a, t)
            R = _expm_reference(t * generator_matrix(xi, eps, a))
            assert _rel_err(P, R) <= 1e-12, t / eps**2


class TestMergedPairLongTimes:
    """The slow block where its pair nearly merges, at the long times
    t/eps^2 >= 100 an exponential integrator at dt_max reaches: the branch
    follows |t(lam_+ - lam_-)|, not the relative discriminant alone (whose
    Jordan limit was off by 1e-5 at eps = 0.01, delta = 1e-9, t/eps^2 = 500)."""

    @pytest.mark.parametrize("eps", [0.01, 0.1, 1.0])
    @pytest.mark.parametrize("delta", [1e-9, -1e-9, 0.0, 1e-5, -1e-5, 1e-3, -1e-3])
    @pytest.mark.parametrize("t_over_eps2", [1e-6, 5.0, 100.0, 500.0])
    def test_near_defective_point(self, eps, delta, t_over_eps2):
        # delta inside the old 1e-8 band on both sides, on the point, and outside;
        # t/eps^2 = 1e-6 gives |t lam| << 1
        xi = _defective_xi(eps, delta, [1.0])
        t = t_over_eps2 * eps**2
        P = exact_linear_propagator(xi, eps, [1.0], t)
        R = _expm_reference(t * generator_matrix(xi, eps, [1.0]))
        assert _rel_err(P, R) <= 1e-10

    @pytest.mark.parametrize("xi,a", [((0.0,), (1.0,)), ((0.0, 0.0), (1.0, 2.0)),
                                      (tuple(_defective_xi(0.01, 1e-9, [1.0, 2.0])), (1.0, 2.0))])
    @pytest.mark.parametrize("t_over_eps2", [1e-6, 100.0, 500.0])
    def test_zero_symbol_and_2d(self, xi, a, t_over_eps2):
        eps = 0.01 if any(xi) else 0.5
        t = t_over_eps2 * eps**2
        P = exact_linear_propagator(xi, eps, a, t)
        R = _expm_reference(t * generator_matrix(xi, eps, a))
        assert _rel_err(P, R) <= 1e-10


def _grid_wavevectors(grid):
    return np.stack(np.broadcast_arrays(*grid.kappa_axes()), -1)


class TestVectorizedPropagator:
    """exact_linear_propagator over every stored wavevector of a 2D grid.

    On L = 2 pi the wavevectors are integers and a = (1, 2) gives S = 1 at
    (+-1, 0), so eps = 1/2 puts those modes exactly on the defective point
    and the second eps puts them a relative 1e-7 off it; (0, 0) is S = 0.
    """

    A = (1.0, 2.0)
    EPS = (0.5, 0.5 * math.sqrt(1.0 - 1e-7), 0.05)

    @pytest.mark.parametrize("eps", EPS)
    def test_every_mode_matches_matrix_exponential(self, eps):
        xi = _grid_wavevectors(Grid(2, 8, 2 * np.pi))
        for t in eps**2 * np.array(_TIMES_OVER_EPS2):
            P = exact_linear_propagator(xi, eps, self.A, t)
            assert P.shape == xi.shape[:-1] + (3, 3)
            for idx in np.ndindex(xi.shape[:-1]):
                R = _expm_reference(t * generator_matrix(xi[idx], eps, self.A))
                assert _rel_err(P[idx], R) <= 1e-12, (t / eps**2, xi[idx])

    @pytest.mark.parametrize("eps", EPS)
    def test_batch_equals_scalar_calls(self, eps):
        xi = _grid_wavevectors(Grid(2, 8, 2 * np.pi))
        P = exact_linear_propagator(xi, eps, self.A, 0.7 * eps**2)
        for idx in np.ndindex(xi.shape[:-1]):
            assert np.array_equal(P[idx], exact_linear_propagator(tuple(xi[idx]), eps, self.A, 0.7 * eps**2))

    def test_conserved_mode_exact(self):
        # exp_slow_block's E00 at S = 0 is 1 - 2^-53 here; the mean must not drift
        assert exp_slow_block(0.0, 0.3, 0.05)[0] != 1.0
        P = exact_linear_propagator(np.zeros((2, 1)), 0.3, (1.0,), 0.05)
        assert np.array_equal(P[:, 0, 0], [1.0, 1.0])
        assert np.array_equal(P[:, 0, 1], [0.0, 0.0]) and np.array_equal(P[:, 1, 0], [0.0, 0.0])
