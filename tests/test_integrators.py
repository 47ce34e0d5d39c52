import json
import math
import weakref

import numpy as np
import pytest

from relaxlab.integrators import (
    CFLError,
    StepperConfig,
    evolve,
    jinxin_dt_bound,
    limit_advective_speed,
    step_jinxin,
    step_limit,
    _JinXinStepper,
)
from relaxlab.models import (
    JinXinModel,
    JinXinState,
    darcy_velocity,
    make_flux,
)
from relaxlab.spectral_core import Grid, SpectralField, besov_norm, block_lp_norms, lp_norm, scheme_for
from relaxlab.spectral_analysis import exact_linear_propagator

from oracles import jinxin_rhs, limit_rhs


@pytest.fixture
def grid():
    return Grid(1, 16, 2 * np.pi)


def single_mode_state(grid, eps, amp_u=0.1, amp_v=0.05):
    x = grid.coords()[0]
    u = SpectralField.from_physical(grid, amp_u * np.cos(x))
    v = SpectralField.from_physical(grid, amp_v * np.sin(x))
    return JinXinState(u, [v])


def exact_mode_solution(grid, state, eps, a, T):
    kap = grid.kappa_axes()[0].ravel()
    uo, vo = state.u.coeffs.copy(), state.v[0].coeffs.copy()
    un, vn = np.zeros_like(uo), np.zeros_like(vo)
    for idx in range(kap.size):
        P = exact_linear_propagator([kap[idx]], eps, [a], T)
        w = P @ np.array([uo[0, idx], eps * vo[0, idx]])
        un[0, idx], vn[0, idx] = w[0], w[1] / eps
    return un, vn


class TestStepJinXin:
    def test_equilibrium_fixed_point(self, grid):
        model = JinXinModel(make_flux("burgers1d"), (1.0,), 0.5)
        c = 0.3
        u = SpectralField.from_physical(grid, np.full(grid.shape, c))
        v = SpectralField.from_physical(grid, np.full(grid.shape, 0.5 * c * c))
        st = JinXinState(u, [v])
        out = step_jinxin(model, st, 1e-3, "imex_ssp2")
        assert np.max(np.abs(out.u.coeffs - u.coeffs)) <= 1e-14
        assert np.max(np.abs(out.v[0].coeffs - v.coeffs)) <= 1e-14

    @pytest.mark.parametrize("eps", [1.0, 0.1])
    def test_ssp2_second_order_linear(self, grid, eps):
        model = JinXinModel(make_flux("zero", 1, 1), (1.0,), eps)
        st0 = single_mode_state(grid, eps)
        T = eps
        ue, ve = exact_mode_solution(grid, st0, eps, 1.0, T)
        errs, dts = [], [eps * 2.0 ** (-k) for k in range(6, 10)]
        for dt in dts:
            st = st0.copy()
            for _ in range(int(round(T / dt))):
                st = step_jinxin(model, st, dt, "imex_ssp2")
            errs.append(np.max(np.abs(st.u.coeffs - ue)) + np.max(np.abs(st.v[0].coeffs - ve)))
        slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert slope >= 1.9

    def test_euler_consistency_richardson(self, grid):
        # one imex_ssp2 step agrees with forward Euler on the full rhs to O(dt^2)
        rng = np.random.default_rng(0)
        u = SpectralField.from_physical(grid, 0.01 * rng.standard_normal(grid.shape)).dealias()
        v = SpectralField.from_physical(grid, 0.01 * rng.standard_normal(grid.shape)).dealias()
        st = JinXinState(u, [v])
        dts = [1e-2, 5e-3, 2.5e-3]
        for eps in (1.0, 0.3):
            model = JinXinModel(make_flux("burgers1d"), (1.0,), eps)
            du, dv = jinxin_rhs(model, st)
            gaps = []
            for dt in dts:
                out = step_jinxin(model, st, dt, "imex_ssp2")
                fe_u = st.u.coeffs + dt * du.coeffs
                fe_v = st.v[0].coeffs + dt * dv[0].coeffs
                gaps.append(np.max(np.abs(out.u.coeffs - fe_u)) + np.max(np.abs(out.v[0].coeffs - fe_v)))
            slope = np.polyfit(np.log(dts), np.log(gaps), 1)[0]
            assert slope >= 1.9, (eps, slope)

    def test_linear_fidelity_uniform_in_eps(self, grid):
        # matched dt = eps/256: the error in the scaled variables (u, eps*v)
        # stays uniformly small from eps=1 down to eps=1e-3
        errs = []
        for eps in (1.0, 0.1, 0.01, 1e-3):
            model = JinXinModel(make_flux("zero", 1, 1), (1.0,), eps)
            st0 = single_mode_state(grid, eps)
            ue, ve = exact_mode_solution(grid, st0, eps, 1.0, eps)
            st = st0.copy()
            dt = eps * 2.0**-8
            for _ in range(256):
                st = step_jinxin(model, st, dt, "imex_ssp2")
            errs.append(np.max(np.abs(st.u.coeffs - ue))
                        + eps * np.max(np.abs(st.v[0].coeffs - ve)))
        assert max(errs) <= 1e-7
        assert max(errs) / min(errs) <= 3.0

    def test_cfl_violation_proposes_dt(self, grid):
        model = JinXinModel(make_flux("zero", 1, 1), (1.0,), 0.01)
        st = single_mode_state(grid, 0.01)
        bound = jinxin_dt_bound(model, grid)
        with pytest.raises(CFLError) as e:
            step_jinxin(model, st, 10 * bound, "imex_ssp2")
        assert e.value.admissible == pytest.approx(bound)

    def test_mean_unchanged(self, grid):
        model = JinXinModel(make_flux("burgers1d"), (1.0,), 0.5)
        x = grid.coords()[0]
        u = SpectralField.from_physical(grid, 0.2 + 0.1 * np.cos(x))
        st = JinXinState(u, darcy_velocity(model.flux, model.a, u))
        out = step_jinxin(model, st, 1e-3, "imex_ssp2")
        assert np.max(np.abs(out.u.mean() - u.mean())) <= 1e-15

    def test_ap_contraction_frozen_u(self, grid):
        # with u frozen, the implicit update contracts Z by eps^2/(eps^2+dt)
        from relaxlab.models import effective_Z, flux_fields
        from relaxlab.spectral_core import spectral_derivative

        rng = np.random.default_rng(1)
        eps, dt = 0.3, 0.05
        model = JinXinModel(make_flux("burgers1d"), (1.0,), eps)
        u = SpectralField.from_physical(grid, 0.1 * rng.standard_normal(grid.shape)).dealias()
        v = [SpectralField.from_physical(grid, rng.standard_normal(grid.shape)).dealias()]
        st = JinXinState(u, v)
        Z0 = effective_Z(model, st)[0]
        fv = flux_fields(model.flux, u)[0]
        v1 = SpectralField(
            grid,
            (eps**2 * v[0].coeffs + dt * (-spectral_derivative(u, 0).coeffs + fv.coeffs))
            / (eps**2 + dt),
        )
        Z1 = effective_Z(model, JinXinState(u, [v1]))[0]
        assert lp_norm(Z1, 2) / lp_norm(Z0, 2) == pytest.approx(eps**2 / (eps**2 + dt), rel=1e-12)

    def test_exact_linear_matches_propagator(self, grid):
        eps = 0.37
        model = JinXinModel(make_flux("zero", 1, 1), (1.0,), eps)
        st0 = single_mode_state(grid, eps)
        out = step_jinxin(model, st0, 0.9, "exact_linear")
        ue, ve = exact_mode_solution(grid, st0, eps, 1.0, 0.9)
        assert np.max(np.abs(out.u.coeffs - ue)) <= 1e-12
        assert np.max(np.abs(out.v[0].coeffs - ve)) <= 1e-12

    def test_exact_linear_rejects_nonzero_flux(self, grid):
        model = JinXinModel(make_flux("burgers1d"), (1.0,), 0.5)
        with pytest.raises(ValueError, match="zero flux"):
            step_jinxin(model, single_mode_state(grid, 0.5), 0.1, "exact_linear")

    def test_odd_symmetry_preserved(self):
        g = Grid(1, 64, 2 * np.pi)
        x = g.coords()[0]
        model = JinXinModel(make_flux("burgers1d"), (1.0,), 0.5)
        u = SpectralField.from_physical(g, 0.1 * np.sin(x) + 0.05 * np.sin(3 * x))
        st = JinXinState(u, darcy_velocity(model.flux, model.a, u))
        dt = 0.4 * jinxin_dt_bound(model, g)
        for _ in range(200):
            st = step_jinxin(model, st, dt, "imex_ssp2")
        phys = st.u.to_physical()[0]
        flipped = np.roll(phys[::-1], 1)  # x -> -x on the periodic grid
        assert np.max(np.abs(phys + flipped)) <= 1e-10


class TestStepLimit:
    def test_exact_heat_decay(self, grid):
        fl = make_flux("zero", 1, 1)
        x = grid.coords()[0]
        u = SpectralField.from_physical(grid, np.cos(2 * x))
        out = step_limit(fl, (1.5,), u, 0.37)
        kap = grid.kappa_axes()[0].ravel()
        sel = np.isclose(np.abs(kap), 2.0)
        expected = u.coeffs[0, sel] * math.exp(-1.5 * 4.0 * 0.37)
        assert np.max(np.abs(out.coeffs[0, sel] - expected)) <= 1e-15

    def test_constant_unchanged(self, grid):
        fl = make_flux("burgers1d")
        u = SpectralField.from_physical(grid, np.full(grid.shape, 0.4))
        out = step_limit(fl, (1.0,), u, 0.2)
        assert np.max(np.abs(out.coeffs - u.coeffs)) <= 1e-14

    def test_euler_consistency_richardson(self, grid):
        # one if_rk2 step agrees with forward Euler on the full rhs to O(dt^2);
        # low modes only, so that dt*S stays small on every mode
        fl = make_flux("burgers1d")
        x = grid.coords()[0]
        st = SpectralField.from_physical(grid, 0.2 * np.cos(x) + 0.1 * np.sin(2 * x))
        rate = limit_rhs(fl, (1.0,), st)
        dts = [1e-2, 5e-3, 2.5e-3]
        gaps = []
        for dt in dts:
            out = step_limit(fl, (1.0,), st, dt)
            gaps.append(np.max(np.abs(out.coeffs - st.coeffs - dt * rate.coeffs)))
        slope = np.polyfit(np.log(dts), np.log(gaps), 1)[0]
        assert slope >= 1.9

    def test_self_convergence_order(self):
        g = Grid(1, 128, 2 * np.pi)
        fl = make_flux("burgers1d")
        x = g.coords()[0]
        u0 = SpectralField.from_physical(g, 0.3 * np.sin(x))
        T = 1.0

        def advance(dt):
            st = u0
            for _ in range(int(round(T / dt))):
                st = step_limit(fl, (1.0,), st, dt)
            return st.coeffs

        ref = advance(2.0**-13)
        errs, dts = [], [2.0**-k for k in range(4, 8)]
        for dt in dts:
            errs.append(np.max(np.abs(advance(dt) - ref)))
        slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert slope >= 1.9


class TestEvolve:
    def test_zero_data_zero_norms(self, grid):
        model = JinXinModel(make_flux("burgers1d"), (1.0,), 0.5)
        st = JinXinState(SpectralField.zero(grid), [SpectralField.zero(grid)])
        traj = evolve(model, st, StepperConfig(t_end=1.0, sample_every=0.25), [("u", 2), ("v", 2)])
        assert np.max(traj.get("u", 2).table) == 0.0
        assert np.max(traj.get("v", 2).table) == 0.0

    def test_linear_mode_tracks_propagator(self, grid):
        eps = 0.4
        model = JinXinModel(make_flux("zero", 1, 1), (1.0,), eps)
        st0 = single_mode_state(grid, eps, amp_u=0.2, amp_v=0.0)
        cfg = StepperConfig(scheme="imex_ssp2", cfl=0.2, dt_max=1e-3, t_end=2.0, sample_every=0.5)
        traj = evolve(model, st0, cfg, [("u", 2)])
        kap = 1.0
        u0_hat = st0.u.coeffs[0, 1]
        for i, t in enumerate(traj.times):
            P = exact_linear_propagator([kap], eps, [1.0], t)
            expected = abs(P[0, 0] * u0_hat) * math.sqrt(2 * grid.L)  # two conjugate modes
            measured = traj.get("u", 2).table[:, i].sum()  # single block holds the mode
            assert measured == pytest.approx(expected, abs=1e-6)

    def test_heat_l2_monotone(self, grid):
        fl = make_flux("zero", 1, 1)
        x = grid.coords()[0]
        st = SpectralField.from_physical(grid, np.cos(x) + 0.3 * np.cos(3 * x))
        times = np.linspace(0.0, 2.0, 21)
        curve = [besov_norm(st, 0.0, 2, 2)]
        for span in zip(times[:-1], times[1:]):
            st = _hand_loop(lambda s, h: step_limit(fl, (1.0,), s, h), st, span, 0.05)
            curve.append(besov_norm(st, 0.0, 2, 2))
        assert np.all(np.diff(curve) <= 1e-14)

    def test_divergence_reported_with_time(self, grid):
        model = JinXinModel(make_flux("burgers1d"), (1.0,), 0.5)
        with np.errstate(all="ignore"):
            huge = SpectralField.from_physical(grid, 1e200 * np.cos(grid.coords()[0]))
        st = JinXinState(huge, [huge.copy()])
        from relaxlab.models import DivergenceError

        with np.errstate(all="ignore"), pytest.raises(DivergenceError):
            evolve(model, st, StepperConfig(t_end=5.0, sample_every=0.5), [("u", 2)])

    def test_mean_drift_tracked(self, grid):
        model = JinXinModel(make_flux("burgers1d"), (1.0,), 0.5)
        x = grid.coords()[0]
        u = SpectralField.from_physical(grid, 0.1 + 0.05 * np.cos(x))
        st = JinXinState(u, darcy_velocity(model.flux, model.a, u))
        traj = evolve(model, st, StepperConfig(t_end=2.0, sample_every=0.5), [("u", 2)])
        assert traj.mean_drift <= 1e-13

    def test_cached_propagator_trajectory_identical(self, grid):
        # evolve reuses one stepper, whose exact propagator is kept between
        # steps of one size; step_jinxin builds a fresh stepper every step
        eps = 0.3
        model = JinXinModel(make_flux("zero", 1, 1), (1.0,), eps)
        st0 = single_mode_state(grid, eps)
        cfg = StepperConfig(scheme="exact_linear", dt_max=0.1)
        # three intervals with three different step sizes
        traj = evolve(model, st0, cfg, [("u", 2)], sample_times=[0.25, 0.55, 1.0])
        st = st0
        for span in np.diff(traj.times):
            n_sub = max(1, int(math.ceil(span / cfg.dt_max - 1e-12)))
            for _ in range(n_sub):
                st = step_jinxin(model, st, span / n_sub, "exact_linear")
        assert traj.steps == 11
        assert np.array_equal(traj.final_state.u.coeffs, st.u.coeffs)
        assert np.array_equal(traj.final_state.v[0].coeffs, st.v[0].coeffs)


class TestCoEvolve:
    def test_difference_vanishes_for_matched_linear_heat(self):
        # eps -> small: relaxation difference is O(eps); check it shrinks
        g = Grid(1, 64, 2 * np.pi)
        fl = make_flux("zero", 1, 1)
        x = g.coords()[0]
        u0 = SpectralField.from_physical(g, 0.1 * np.cos(x))
        sups = []
        for eps in (0.2, 0.05):
            model = JinXinModel(fl, (1.0,), eps)
            jx0 = JinXinState(u0.copy(), darcy_velocity(fl, (1.0,), u0))
            cfg = StepperConfig(scheme="imex_ssp2", cfl=0.4, dt_max=0.02, t_end=2.0)
            ts = np.linspace(0.1, 2.0, 20)
            du = evolve(model, jx0, cfg, [("du", 2)], sample_times=ts).get("du", 2)
            sups.append(max(du.besov_curve(0.0, 1)))
        assert sups[1] < sups[0] / 2


class TestLimitCompanion:
    """A du or dv tracker makes evolve co-run the limit equation."""

    def setup_runs(self, scheme="imex_ssp2"):
        g = Grid(1, 32, 2 * np.pi)
        fl = make_flux("burgers1d")
        x = g.coords()[0]
        u0 = SpectralField.from_physical(g, 0.2 * np.cos(x) + 0.1 * np.sin(2 * x))
        model = JinXinModel(fl, (1.0,), 0.3)
        jx0 = JinXinState(u0.copy(), darcy_velocity(fl, (1.0,), u0))
        cfg = StepperConfig(scheme=scheme, cfl=0.4, dt_max=0.02, t_end=0.6, sample_every=0.2)
        return model, jx0, cfg

    def test_relaxation_run_unchanged_by_companion(self):
        model, jx0, cfg = self.setup_runs()
        alone = evolve(model, jx0, cfg, [("u", 4)])
        co = evolve(model, jx0, cfg, [("u", 4), ("du", 4)])
        assert np.array_equal(co.get("u", 4).table, alone.get("u", 4).table)
        assert np.array_equal(co.final_state.u.coeffs, alone.final_state.u.coeffs)
        assert np.array_equal(co.final_state.v[0].coeffs, alone.final_state.v[0].coeffs)
        assert co.max_abs_u == alone.max_abs_u
        assert co.mean_drift == alone.mean_drift

    def test_difference_equals_lone_runs(self):
        model, jx0, cfg = self.setup_runs()
        co = evolve(model, jx0, cfg, [("du", 4), ("dv", 2)])
        alone = evolve(model, jx0, cfg, [("u", 2)])
        # the companion starts from the relaxation system's own u0, flux and a
        lim_steps = []
        lone_lim = _hand_loop(lambda s, h: lim_steps.append(h) or step_limit(model.flux, model.a, s, h),
                              jx0.u, co.times, co.runs[1]["dt"])
        u, u_star = alone.final_state.u, lone_lim
        sch = scheme_for(u.grid)
        assert np.array_equal(co.get("du", 4).table[:, -1], block_lp_norms(u - u_star, 4, sch))
        vstar = darcy_velocity(model.flux, model.a, u_star)
        dv = SpectralField.stack([alone.final_state.v[0] - vstar[0]])
        assert np.array_equal(co.get("dv", 2).table[:, -1], block_lp_norms(dv, 2, sch))
        assert co.steps == alone.steps + len(lim_steps)

    def test_limit_dt_below_dt_min_rejected(self):
        # |u| = 10 makes the limit's advective dt 0.45*dx/10 ~ 0.018, below
        # dt_min, while the relaxation system steps at dt_max
        g = Grid(1, 16, 2 * np.pi)
        fl = make_flux("burgers1d")
        u0 = SpectralField.from_physical(g, np.full(g.shape, 10.0))
        model = JinXinModel(fl, (1.0,), 0.5)
        jx0 = JinXinState(u0.copy(), darcy_velocity(fl, (1.0,), u0))
        cfg = StepperConfig(dt_min=0.03, dt_max=0.05, t_end=0.05, sample_every=0.05)
        assert evolve(model, jx0, cfg, [("u", 2)]).steps == 1
        with pytest.raises(ValueError, match="dt_min"):
            evolve(model, jx0, cfg, [("du", 2)])

    def test_limit_velocities_must_match_dimension(self):
        u = SpectralField.zero(Grid(2, 8, 2 * np.pi))
        with pytest.raises(ValueError, match="need 2 diffusion coefficients"):
            step_limit(make_flux("zero", 1, 2), (1.0,), u, 0.1)


def _hand_loop(step, state, times, dt):
    """One step(state, h) call per sub-step of evolve's subdivision of times."""
    for span in np.diff(times):
        n_sub = max(1, int(math.ceil(span / dt - 1e-12)))
        for _ in range(n_sub):
            state = step(state, span / n_sub)
    return state


def _burgers_state(g, eps):
    x = g.coords()
    phys = 0.2 * np.cos(x[0]) + 0.1 * np.sin(2 * x[-1])
    fl = make_flux("burgers1d" if g.d == 1 else "burgers2d")
    u0 = SpectralField.from_physical(g, np.stack([phys] * fl.n))
    model = JinXinModel(fl, (1.0,) * g.d, eps)
    return model, JinXinState(u0, darcy_velocity(fl, model.a, u0))


class TestAdvance:
    """evolve advances each interval on raw arrays; step_jinxin is one sub-step of it."""

    @pytest.mark.parametrize("scheme,d", [("imex_ssp2", 1), ("imex_ssp2", 2), ("exact_linear", 1)])
    def test_evolve_equals_step_loop(self, scheme, d):
        g = Grid(d, 32 if d == 1 else 16, 2 * np.pi)
        model, st0 = _burgers_state(g, 0.3)
        if scheme == "exact_linear":
            model = JinXinModel(make_flux("zero", 1, 1), (1.0,), 0.3)
            st0 = single_mode_state(g, 0.3)
        cfg = StepperConfig(scheme=scheme, cfl=0.4, dt_max=0.02)
        traj = evolve(model, st0, cfg, [("u", 2)], sample_times=[0.1, 0.25, 0.3])
        st = _hand_loop(lambda s, h: step_jinxin(model, s, h, scheme), st0, traj.times,
                        traj.runs[0]["dt"])
        assert traj.steps > len(traj.times)
        assert np.array_equal(traj.final_state.u.coeffs, st.u.coeffs)
        for vi, wi in zip(traj.final_state.v, st.v):
            assert np.array_equal(vi.coeffs, wi.coeffs)
        assert traj.final_state.t == st.t

    def test_limit_companion_equals_step_loop(self):
        g = Grid(1, 32, 2 * np.pi)
        model, jx0 = _burgers_state(g, 0.3)
        cfg = StepperConfig(scheme="imex_ssp2", cfl=0.4, dt_max=0.02)
        co = evolve(model, jx0, cfg, [("du", 2), ("dv", 2)], sample_times=[0.1, 0.25, 0.3])
        jx, ls = jx0, jx0.u
        sch = scheme_for(g)
        # every sample of the companion, not only the last, is its step loop's
        for k, span in enumerate(zip(co.times[:-1], co.times[1:]), start=1):
            jx = _hand_loop(lambda s, h: step_jinxin(model, s, h, "imex_ssp2"), jx, span,
                            co.runs[0]["dt"])
            ls = _hand_loop(lambda s, h: step_limit(model.flux, model.a, s, h), ls, span,
                            co.runs[1]["dt"])
            assert np.array_equal(co.get("du", 2).table[:, k],
                                  block_lp_norms(jx.u - ls, 2, sch))
            vstar = darcy_velocity(model.flux, model.a, ls)
            assert np.array_equal(co.get("dv", 2).table[:, k],
                                  block_lp_norms(SpectralField.stack([jx.v[0] - vstar[0]]), 2, sch))
        assert np.array_equal(co.final_state.u.coeffs, jx.u.coeffs)
        assert co.final_state.t == jx.t

    def test_evolve_frees_the_arrays_each_step_consumed(self, monkeypatch):
        # evolve hands each interval's arrays over to advance and keeps no
        # reference, so the arrays the first step of an interval consumed are
        # dead by its third step; the first interval starts from st0, held here
        g = Grid(1, 32, 2 * np.pi)
        model, st0 = _burgers_state(g, 0.3)
        prepare = _JinXinStepper.prepare
        freed = []

        def spying_prepare(self, *args, **kwargs):
            kernel, coeffs = prepare(self, *args, **kwargs)
            consumed = []

            def spy(w, coeffs):
                if len(consumed) == 2:
                    freed.append([ref() is None for ref in consumed[0]])
                consumed.append([weakref.ref(wi) for wi in w])
                return kernel(w, coeffs)

            return spy, coeffs

        monkeypatch.setattr(_JinXinStepper, "prepare", spying_prepare)
        cfg = StepperConfig(scheme="imex_ssp2", cfl=0.4, dt_max=0.02)
        traj = evolve(model, st0, cfg, [("u", 2)], sample_times=[0.1, 0.2, 0.3])
        assert traj.runs[0]["steps"] == 15 and len(freed) == 3
        assert freed[0] == [False, False] and freed[1:] == [[True, True]] * 2

    def test_evolve_frees_the_last_tables_before_the_next(self, grid, monkeypatch):
        # an interval's exact_linear propagator is gone when prepare builds the next
        model = JinXinModel(make_flux("zero", 1, 1), (1.0,), 0.3)
        prepare = _JinXinStepper.prepare
        last, alive = [], []

        def spying_prepare(self, *args, **kwargs):
            alive.extend(ref() is not None for ref in last)
            kernel, coeffs = prepare(self, *args, **kwargs)
            last[:] = [weakref.ref(coeffs[0])]
            return kernel, coeffs

        monkeypatch.setattr(_JinXinStepper, "prepare", spying_prepare)
        cfg = StepperConfig(scheme="exact_linear", dt_max=0.1)
        evolve(model, single_mode_state(grid, 0.3), cfg, [("u", 2)], sample_times=[0.25, 0.55, 1.0])
        assert alive == [False, False]

    def test_divergence_time_is_first_bad_step(self, grid):
        # u ~ 1e20 overflows the Burgers flux on the third step of size 0.05,
        # well inside the first sampling interval [0, 0.5]
        model = JinXinModel(make_flux("burgers1d"), (1.0,), 0.5)
        u = SpectralField.from_physical(grid, 1e20 * np.cos(grid.coords()[0]))
        st = JinXinState(u, [u.copy()])
        from relaxlab.models import DivergenceError

        with np.errstate(all="ignore"), pytest.raises(DivergenceError) as err:
            evolve(model, st, StepperConfig(t_end=5.0, sample_every=0.5, dt_max=0.05), [("u", 2)])
        assert err.value.t == pytest.approx(3 * 0.05, rel=1e-12)

    def test_runs_record_dt_bound_and_steps(self):
        g = Grid(1, 32, 2 * np.pi)
        model, jx0 = _burgers_state(g, 0.3)
        cfg = StepperConfig(scheme="imex_ssp2", cfl=0.4, dt_max=0.05, t_end=0.3, sample_every=0.1)
        co = evolve(model, jx0, cfg, [("du", 2)])
        relax, limit = co.runs
        assert relax["scheme"] == "imex_ssp2" and limit["scheme"] == "if_rk2"
        assert relax["bound"] == jinxin_dt_bound(model, g)
        assert relax["dt"] == 0.4 * relax["bound"] < cfg.dt_max
        assert limit["bound"] == g.dx / limit_advective_speed(model.flux, jx0.u)
        assert limit["dt"] == cfg.dt_max
        assert relax["steps"] == 3 * math.ceil(0.1 / relax["dt"]) and limit["steps"] == 6
        assert relax["steps"] + limit["steps"] == co.steps
        assert json.loads(json.dumps(co.summary()))["runs"] == co.runs

    def test_runs_record_no_bound_for_exact_linear(self, grid):
        model = JinXinModel(make_flux("zero", 1, 1), (1.0,), 0.3)
        cfg = StepperConfig(scheme="exact_linear", dt_max=0.1, t_end=0.5, sample_every=0.25)
        traj = evolve(model, single_mode_state(grid, 0.3), cfg, [("u", 2)])
        assert traj.runs == [{"scheme": "exact_linear", "dt": 0.1, "bound": None, "steps": 6}]


class TestSampleTimes:
    @pytest.mark.parametrize("times,pair", [([0.5, 0.25], "0.5 then 0.25"),
                                            ([0.2, 0.2], "0.2 then 0.2"),
                                            ([-0.1, 0.3], "0 then -0.1"),
                                            ([0.1, np.nan], "0.1 then nan"),
                                            ([0.1, np.inf], "0.1 then inf")])
    def test_bad_sample_times_rejected(self, grid, times, pair):
        model = JinXinModel(make_flux("zero", 1, 1), (1.0,), 0.5)
        for trackers in ([], [("u", 2)]):
            with pytest.raises(ValueError, match=f"strictly increasing from 0; got {pair}"):
                evolve(model, single_mode_state(grid, 0.5), StepperConfig(t_end=1.0), trackers,
                       sample_times=times)

    def test_leading_zero_kept_once(self, grid):
        model = JinXinModel(make_flux("zero", 1, 1), (1.0,), 0.5)
        traj = evolve(model, single_mode_state(grid, 0.5), StepperConfig(), [("u", 2)],
                      sample_times=[0.0, 0.1, 0.2])
        assert traj.times.tolist() == [0.0, 0.1, 0.2]


class TestExactLinearMean:
    def test_mean_bit_exact_over_1000_steps(self, grid):
        # at eps = 0.3, dt = 0.05 the closed-form slow block puts 1 - 2^-53 on
        # the mean mode; the stepper must keep the mean of u bit for bit
        eps, dt = 0.3, 0.05
        model = JinXinModel(make_flux("zero", 1, 1), (1.0,), eps)
        x = grid.coords()[0]
        u = SpectralField.from_physical(grid, 0.7 + 0.1 * np.cos(x))
        v = SpectralField.from_physical(grid, 0.2 + 0.05 * np.sin(x))
        st0 = JinXinState(u, [v])
        cfg = StepperConfig(scheme="exact_linear", dt_max=dt)
        traj = evolve(model, st0, cfg, [("u", 2)], sample_times=[1000 * dt])
        assert traj.steps == 1000
        assert np.array_equal(traj.final_state.u.coeffs[:, 0], st0.u.coeffs[:, 0])
        assert traj.mean_drift == 0.0


def _fig1_frictions():
    # the 21 frictions 1/eps of the fig1-overdamping preset (mode 1 on L = 2 pi: S = 1)
    from relaxlab.harness import friction_grid

    return 1.0 / friction_grid(1.0, (0.5, 4.0), 20)


class TestMemberColumns:
    @pytest.mark.parametrize("scheme", ["imex_ssp2", "exact_linear"])
    def test_column_prepare_equals_float_prepare(self, grid, scheme):
        eps = [float(e) for e in _fig1_frictions()]
        assert len(eps) == 21
        stepper = _JinXinStepper(make_flux("zero", 1, 1), (1.0,), grid)
        dt = [0.3 * e * grid.dx for e in eps]
        column = (-1, 1, 1)  # against (members, n, N/2+1)
        kernel, coeffs = stepper.prepare(scheme, np.reshape(dt, column), np.reshape(eps, column))
        for m, (e, h) in enumerate(zip(eps, dt)):
            kernel_m, coeffs_m = stepper.prepare(scheme, h, e)
            assert kernel == kernel_m and len(coeffs) == len(coeffs_m)
            for entry, entry_m in zip(coeffs, coeffs_m):
                assert np.array_equal(entry[m].reshape(np.shape(entry_m)), entry_m)

    def test_member_over_cfl_bound_named(self, grid):
        stepper = _JinXinStepper(make_flux("zero", 1, 1), (1.0,), grid)
        eps = np.array([0.5, 0.25, 0.1]).reshape(-1, 1, 1)
        bound = eps * grid.dx
        dt = 0.3 * bound
        dt[1] = 2.0 * bound[1]
        with pytest.raises(CFLError) as e:
            stepper.prepare("imex_ssp2", dt, eps)
        assert e.value.admissible == bound[1].item()
        assert f"dt={dt[1].item():g} " in str(e.value)
