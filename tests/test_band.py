"""The relaxation system steps on the 2/3-rule band: the band kernels and
transforms give, value for value, what the whole half lattice gives on the
band and zero off it (tests/oracles.py keeps the half-lattice forms), and a
state with a nonzero coefficient off the band is rejected."""

import numpy as np
import pytest

from relaxlab.integrators import (
    StepperConfig,
    _JinXinStepper,
    _stacked,
    evolve,
    step_jinxin,
    step_limit,
)
from relaxlab.models import (
    JinXinModel,
    JinXinState,
    darcy_velocity,
    effective_Z,
    effective_z,
    flux_band,
    make_flux,
    polynomial_flux,
)
from relaxlab.spectral_core import (
    Grid,
    SpectralField,
    _band,
    _band_physical,
    _expand,
    _physical_band,
    block_lp_norms,
    lp_norm,
    scheme_for,
)

from oracles import FullLatticeStepper, dealiased_physical, rfft_dealiased

POLYNOMIAL_N2 = [{"direction": 0, "component": 0, "exponents": [2, 0], "coefficient": 0.5},
                 {"direction": 0, "component": 1, "exponents": [1, 1], "coefficient": -0.75},
                 {"direction": 0, "component": 0, "exponents": [0, 3], "coefficient": 0.25}]


def _state(flux, grid, seed):
    """Smooth dealiased u and v = v*(u) plus a dealiased perturbation."""
    rng = np.random.default_rng(seed)
    x = grid.coords()
    comps = []
    for _ in range(flux.n):
        k, phase = rng.integers(1, 4, size=2), rng.uniform(0, 2 * np.pi, size=2)
        comps.append(0.2 * np.cos(k[0] * x[0] * grid.kappa_min + phase[0])
                     + 0.1 * np.sin(k[1] * x[-1] * grid.kappa_min + phase[1]))
    u = SpectralField.from_physical(grid, np.stack(comps))
    kick = [SpectralField.from_physical(grid, 0.05 * rng.standard_normal((flux.n,) + grid.shape))
            for _ in range(flux.d)]
    return [u] + [vi + ki for vi, ki in zip(darcy_velocity(flux, (1.0,) * flux.d, u), kick)]


CASES = [
    ("burgers1d", 1, 512, 1),
    ("burgers2d", 2, 32, 2),
    ("polynomial", 1, 64, 1),
    ("burgers1d", 1, 8, 1),
    ("burgers2d", 2, 8, 1),
]


def _flux(name):
    return polynomial_flux(2, 1, POLYNOMIAL_N2) if name == "polynomial" else make_flux(name)


@pytest.mark.parametrize("name,d,N,members", CASES)
@pytest.mark.parametrize("scheme", ["imex_ssp2", "if_rk2"])
def test_band_kernel_equals_half_lattice_step(name, d, N, members, scheme):
    g = Grid(d, N, 2 * np.pi)
    flux = _flux(name)
    a = (1.0,) * d
    eps = [0.3, 0.15][:members]
    states = [_state(flux, g, seed) for seed in range(members)]
    full = [np.stack(col, axis=1) if members > 1 else col[0]
            for col in zip(*([f.coeffs for f in st] for st in states))]
    if scheme == "if_rk2":
        full = full[:1]
    stepper, oracle = _JinXinStepper(flux, a, g), FullLatticeStepper(flux, a, g)
    dt = [0.4 * e * g.dx for e in eps] if scheme == "imex_ssp2" else [0.01, 0.02][:members]
    per_member = [(h, e) if scheme == "imex_ssp2" else (h,) for h, e in zip(dt, eps)]
    kernel, _ = stepper.prepare(scheme, *per_member[0])
    if members > 1:
        coeffs = _stacked([stepper.prepare(scheme, *args)[1] for args in per_member], d)
        ref_coeffs = _stacked([oracle.prepare(scheme, *args)[1] for args in per_member], d)
    else:
        coeffs, ref_coeffs = stepper.prepare(scheme, *per_member[0])[1], oracle.prepare(scheme, *per_member[0])[1]
    ref = getattr(oracle, kernel.__name__)(full, ref_coeffs)
    # twice through the band kernel: its transform buffers are reused
    for _ in range(2):
        out = kernel([_band(c, g) for c in full], coeffs)
        assert len(out) == len(ref)
        for b, r in zip(out, ref):
            assert b.shape == r.shape[: r.ndim - d] + ((2 * (N // 3) + 1,) if d == 2 else ()) + (N // 3 + 1,)
            assert np.array_equal(_expand(b, g), r)


@pytest.mark.parametrize("d,N", [(1, 16), (2, 16), (2, 8)])
def test_zero_flux_exact_linear_equals_half_lattice_step(d, N):
    g = Grid(d, N, 2 * np.pi)
    flux = make_flux("zero", 1, d)
    a = (1.0, 2.0)[:d]
    w = [f.coeffs[:1] for f in _state(make_flux("burgers1d" if d == 1 else "burgers2d"), g, 3)]
    kernel, coeffs = _JinXinStepper(flux, a, g).prepare("exact_linear", 0.07, 0.3)
    ref_kernel, ref_coeffs = FullLatticeStepper(flux, a, g).prepare("exact_linear", 0.07, 0.3)
    for b, r in zip(kernel([_band(c, g) for c in w], coeffs), ref_kernel(w, ref_coeffs)):
        assert np.array_equal(_expand(b, g), r)


@pytest.mark.parametrize("d,N,n", [(1, 512, 1), (1, 8, 2), (2, 32, 2), (2, 8, 1)])
def test_band_transforms_equal_half_lattice_transforms(d, N, n):
    g = Grid(d, N, 3.0)
    rng = np.random.default_rng(N + d)
    x = rng.standard_normal((n,) + g.shape)
    # coefficients with modes above N/3, which the band transform drops
    c = np.fft.rfft(x, axis=-1, norm="forward")
    c = c if d == 1 else np.fft.fft(c, axis=-2, norm="forward")
    work = {}
    for _ in range(2):
        assert np.array_equal(_band_physical(_band(c, g), g), dealiased_physical(c, g))
        assert np.array_equal(_band_physical(_band(c, g), g, work), dealiased_physical(c, g))
        assert np.array_equal(_expand(_physical_band(x, g), g), rfft_dealiased(x.copy(), g))
        assert np.array_equal(_expand(_physical_band(x, g, work), g), rfft_dealiased(x.copy(), g))


def test_flux_band_is_flux_on_the_band():
    g = Grid(2, 32, 2 * np.pi)
    flux = make_flux("burgers2d")
    u = _state(flux, g, 0)[0]
    ref = FullLatticeStepper(flux, (1.0, 1.0), g)._flux(u.coeffs)
    for b, r in zip(flux_band(flux, g, _band(u.coeffs, g), {}), ref):
        assert np.array_equal(_expand(b, g), r)


@pytest.mark.parametrize("d", [1, 2])
def test_tracked_fields_on_the_band_equal_the_field_formulas(d):
    # a sample builds v, z and Z on the band; they are the stacks of the
    # state's fields and of models' effective_z and effective_Z
    g = Grid(d, 32, 2 * np.pi)
    flux = make_flux("burgers1d" if d == 1 else "burgers2d")
    model = JinXinModel(flux, (1.0,) * d, 0.3)
    u, *v = _state(flux, g, 5)
    trackers = [(name, p) for name in ("u", "v", "z", "Z") for p in (2, 4)]
    traj = evolve(model, JinXinState(u, v), StepperConfig(cfl=0.4, dt_max=0.02), trackers, sample_times=[0.1, 0.2])
    st = traj.final_state
    fields = {"u": st.u, "v": SpectralField.stack(st.v), "z": SpectralField.stack(effective_z(model, st)),
              "Z": SpectralField.stack(effective_Z(model, st))}
    for name, p in trackers:
        assert np.array_equal(traj.get(name, p).table[:, -1], block_lp_norms(fields[name], p))


class TestOutOfBandState:
    """A coefficient off the band would be dropped by the first step; the
    steppers name the largest one instead."""

    @pytest.fixture
    def setup(self):
        g = Grid(1, 32, 2 * np.pi)
        model = JinXinModel(make_flux("burgers1d"), (1.0,), 0.5)
        u = SpectralField.from_physical(g, 0.1 * np.cos(g.coords()[0]))
        c = u.coeffs.copy()
        c[0, 12] = 0.25  # mode 12 > N/3 = 10
        return g, model, SpectralField(g, c), u

    def test_evolve_rejects_out_of_band_u(self, setup):
        g, model, bad, u = setup
        with pytest.raises(ValueError, match=r"outside the 2/3-rule band \|k_i\| <= 10, the largest of size 0.25"):
            evolve(model, JinXinState(bad, [u.copy()]), StepperConfig(t_end=0.1), [("u", 2)])

    def test_evolve_rejects_out_of_band_v_of_a_member(self, setup):
        g, model, bad, u = setup
        good = JinXinState(u, [u.copy()])
        with pytest.raises(ValueError, match="largest of size 0.25"):
            evolve([model, model], [good, JinXinState(u, [bad])], StepperConfig(t_end=0.1), [("u", 2)])

    def test_step_jinxin_and_step_limit_reject(self, setup):
        g, model, bad, u = setup
        with pytest.raises(ValueError, match="largest of size 0.25"):
            step_jinxin(model, JinXinState(bad, [u.copy()]), 0.01)
        with pytest.raises(ValueError, match="largest of size 0.25"):
            step_limit(model.flux, model.a, bad, 0.01)

    def test_dealiased_state_steps(self, setup):
        g, model, bad, u = setup
        out = step_jinxin(model, JinXinState(bad.dealias(), [u.copy()]), 0.01)
        assert np.isfinite(out.u.coeffs).all() and not out.u.coeffs[0, 11:].any()


# grids whose top dyadic block reaches past the band's last mode c = N // 3
REACH_GRIDS = [(1, 16, 2 * np.pi), (2, 32, 2 * np.pi), (2, 256, 64 * np.pi)]


def _band_limited(g, n, seed):
    """(n,) + spectral_shape coefficients of a random field, zero off the band."""
    x = np.random.default_rng(seed).standard_normal((n,) + g.shape)
    return _expand(_physical_band(x, g), g)


@pytest.mark.parametrize("d,N,L", REACH_GRIDS)
def test_reach_grids_reach_past_the_band(d, N, L):
    reach = scheme_for(Grid(d, N, L)).reach
    assert max(reach.values()) == N // 2 > N // 3


@pytest.mark.parametrize("n", [1, 4])
@pytest.mark.parametrize("d,N,L", REACH_GRIDS)
def test_block_norms_of_a_band_equal_the_field_form(d, N, L, n):
    g = Grid(d, N, L)
    sch = scheme_for(g)
    c = _band_limited(g, n, N + n)
    band = _band(c, g)
    for p in (1, 2, 3, 4, 6, np.inf):
        assert np.array_equal(block_lp_norms(band, p, sch), block_lp_norms(SpectralField(g, c), p))


@pytest.mark.parametrize("d,N,L", REACH_GRIDS[:2])
def test_block_norms_of_a_half_lattice_array_equal_the_field_form(d, N, L):
    g = Grid(d, N, L)
    # modes past the band too, which the half-lattice array keeps
    c = SpectralField.from_physical(g, np.random.default_rng(d).standard_normal((2,) + g.shape), dealias=False).coeffs
    for p in (1, 2, 3, 4, 6, np.inf):
        assert np.array_equal(block_lp_norms(c, p, scheme_for(g)), block_lp_norms(SpectralField(g, c), p))


def test_block_norms_of_an_array_need_the_scheme():
    g = Grid(1, 16, 2 * np.pi)
    with pytest.raises(ValueError, match=r"shape \(1, 6\)"):
        block_lp_norms(_band(_band_limited(g, 1, 0), g), 4)


def test_block_norms_reject_an_array_of_another_shape():
    g = Grid(2, 32, 2 * np.pi)
    with pytest.raises(ValueError, match=r"shape \(2, 21, 10\)"):
        block_lp_norms(np.zeros((2, 21, 10), dtype=complex), 2, scheme_for(g))


@pytest.mark.parametrize("d", [1, 2])
def test_evolve_max_abs_u_and_mean_drift_read_the_sample_states(d):
    # a run to each sample time ends in that sample's state
    g = Grid(d, 32, 2 * np.pi)
    flux = make_flux("burgers1d" if d == 1 else "burgers2d")
    model = JinXinModel(flux, (1.0,) * d, 0.3)
    u, *v = _state(flux, g, 7)
    start, config, ladder = JinXinState(u, v), StepperConfig(cfl=0.4, dt_max=0.02), [0.1, 0.2, 0.3]
    traj = evolve(model, start, config, [("u", 2)], sample_times=ladder)
    states = [evolve(model, start, config, [("u", 2)], sample_times=ladder[:k]).final_state.u for k in range(4)]
    assert traj.max_abs_u == max(lp_norm(s, np.inf) for s in states)
    assert traj.mean_drift == max(float(np.max(np.abs(s.mean() - u.mean()))) for s in states)
