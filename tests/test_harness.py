import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

from relaxlab import harness, spectral_core
from relaxlab.harness import (
    InitialDataSpec,
    _decay_end,
    _hermitian_randomize,
    _sorted_union,
    check_sigma1_admissible,
    fit_rate,
    friction_grid,
    functional_X,
    functional_X0,
    functional_X_at,
    make_initial_data,
    run_decay_study,
    run_epsilon_convergence,
    run_overdamping_scan,
    run_selftest,
    run_spectrum,
    run_uniformity_study,
)
from relaxlab.integrators import StepperConfig, advance, evolve
from relaxlab.models import ConfigError, DivergenceError, JinXinModel, effective_Z, make_flux
from relaxlab.spectral_core import (
    Grid,
    NormSeries,
    SpectralField,
    besov_norm,
    block_lp_norms,
    lp_norm,
    load_field,
    scheme_for,
)
from relaxlab.spectral_analysis import decay_rate_omega, threshold_J


def flat_profile_ratio(u: SpectralField, sigma1: float, J: int, p=2) -> float:
    """max/min of 2^(j*sigma1)*||block_j u|| over fully-populated low blocks.

    Boundary blocks whose annulus extends beyond the populated band are
    excluded; they are underfilled by construction.
    """
    sch = scheme_for(u.grid)
    mag = u.grid.kappa_mag()
    pop = np.abs(u.coeffs[0]) > 0
    for c in range(1, u.n):
        pop |= np.abs(u.coeffs[c]) > 0
    k_lo, k_hi = mag[pop].min(), mag[pop].max()
    vals = []
    norms = block_lp_norms(u, p, sch)
    for i, j in enumerate(sch.j_indices):
        if j > J:
            continue
        if 0.75 * 2.0**j >= k_lo and (8.0 / 3.0) * 2.0**j <= k_hi:
            vals.append(2.0 ** (j * sigma1) * norms[i])
    if len(vals) < 2:
        raise ValueError("fewer than two fully-populated blocks in the low window")
    return max(vals) / min(vals)


@pytest.fixture
def grid():
    return Grid(1, 256, 2 * np.pi * 16)


class TestInitialData:
    def test_darcy_prepared_closure(self, grid):
        model = JinXinModel(make_flux("burgers1d"), (1.0,), 0.2)
        spec = InitialDataSpec(kind="gaussian_bump", amplitude=0.1, width=3.0, v_kind="darcy")
        jx = make_initial_data(spec, grid, model)
        Z = effective_Z(model, jx)[0]
        assert lp_norm(Z, 2) <= 1e-10

    def test_single_mode_besov(self, grid):
        model = JinXinModel(make_flux("zero", 1, 1), (1.0,), 0.5)
        spec = InitialDataSpec(kind="single_mode", amplitude=0.3, mode=(16,), v_kind="zero")
        jx = make_initial_data(spec, grid, model)
        # kappa = 16 * kmin = 1.0: the annuli at that radius carry the mode
        m = lp_norm(jx.u, 2)
        s = 0.8
        sch = scheme_for(grid)
        idx = np.argwhere(np.abs(jx.u.coeffs[0]) > 1e-12)[0][0]
        expected = sum(2.0 ** (j * s) * sch.multipliers[j][idx] * m for j in sch.j_indices)
        assert besov_norm(jx.u, s, 2, 1) == pytest.approx(expected, rel=1e-10)

    def test_random_spectrum_flat_profile(self):
        # the synthesis contract: factor-2 flatness over fully-populated blocks
        g = Grid(1, 2048, 200 * np.pi)
        model = JinXinModel(make_flux("zero", 1, 1), (1.0,), 0.1)
        spec = InitialDataSpec(kind="random_spectrum", amplitude=0.02, sigma1=-0.5,
                               seed=7, v_kind="zero")
        jx = make_initial_data(spec, g, model)
        J = threshold_J(0.1)
        assert flat_profile_ratio(jx.u, -0.5, J) <= 2.0

    def test_random_spectrum_deterministic_moduli(self):
        g = Grid(1, 512, 64.0)
        model = JinXinModel(make_flux("zero", 1, 1), (1.0,), 0.2)
        spec = InitialDataSpec(kind="random_spectrum", amplitude=0.02, sigma1=-0.5, seed=1)
        a1 = make_initial_data(spec, g, model)
        a2 = make_initial_data(dataclasses.replace(spec, seed=99), g, model)
        # phases differ, moduli identical
        assert not np.array_equal(a1.u.coeffs, a2.u.coeffs)
        assert np.allclose(np.abs(a1.u.coeffs), np.abs(a2.u.coeffs), atol=1e-15)
        assert a1.u.hermitian_defect() <= 1e-12

    def test_ill_prepared_norm(self, grid):
        model = JinXinModel(make_flux("burgers1d"), (1.0,), 0.2)
        spec = InitialDataSpec(kind="gaussian_bump", amplitude=0.05,
                               v_kind="ill_prepared", v_scale=0.7, v_band_hi=1.0, seed=3)
        jx = make_initial_data(spec, grid, model)
        total = math.sqrt(sum(lp_norm(v, 2) ** 2 for v in jx.v))
        assert total == pytest.approx(0.7, rel=1e-12)

    @pytest.mark.parametrize("field,value,message", [
        ("kind", "bogus", "unknown initial data kind 'bogus'"),
        ("v_kind", "bogus", "unknown v preparation 'bogus'"),
        ("v_scale_mode", "bogus", "unknown v_scale_mode 'bogus'"),
    ])
    def test_unknown_names_are_value_errors(self, grid, field, value, message):
        model = JinXinModel(make_flux("burgers1d"), (1.0,), 0.2)
        spec = InitialDataSpec(kind="gaussian_bump", v_kind="ill_prepared", v_scale=0.7)
        with pytest.raises(ValueError, match=message):
            make_initial_data(dataclasses.replace(spec, **{field: value}), grid, model)

    @pytest.mark.parametrize("cls,field,value", [(InitialDataSpec, "kind", "bogus"), (StepperConfig, "cfl", 2)])
    def test_config_dataclasses_check_and_freeze_their_values(self, cls, field, value):
        # each is a config section: a rejected value names config.<section>.<field>
        section = "data" if cls is InitialDataSpec else "stepper"
        with pytest.raises(ConfigError) as e:
            cls(**{field: value})
        assert str(e.value).startswith(f"config.{section}.{field}: ")
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cls(), field, value)

    def test_sigma1_admissibility(self):
        check_sigma1_admissible(-0.5, 1, 2)
        with pytest.raises(ValueError, match="admissible range"):
            check_sigma1_admissible(0.3, 1, 2)

    def test_sigma1_admissibility_needs_p_at_most_2d(self):
        check_sigma1_admissible(-0.5, 2, 4)
        with pytest.raises(ValueError, match=r"needs p <= 2d"):
            check_sigma1_admissible(-0.5, 1, 4)


def _initial_series(model, jx, p):
    """The series functional_X takes, from a one-step trajectory starting at jx."""
    return evolve(model, jx, StepperConfig(), harness._X_TRACKERS(p), sample_times=[1e-3]).series


class TestFunctionalX:
    def _zero_series(self, grid, p):
        js = scheme_for(grid).j_indices
        return NormSeries(js, p, [0.0, 0.5, 1.0], np.zeros((js.size, 3)))

    def test_zero_trajectory(self, grid):
        series = {(n, 2): self._zero_series(grid, 2) for n in ("u", "v")}
        X = functional_X(series, 0.5, 2, 1, 1)
        assert X["total"] == 0.0
        assert all(v == 0.0 for v in X["terms"].values())

    def test_missing_tracker_listed(self, grid):
        series = {("u", 2): self._zero_series(grid, 2)}
        with pytest.raises(KeyError, match="missing.*v"):
            functional_X(series, 0.5, 2, 1, 1)

    def test_single_block_closed_form(self, grid):
        # one low block decaying like e^{-t}: every term is a scalar integral
        sch = scheme_for(grid)
        eps, p, d = 0.5, 2, 1
        J = threshold_J(eps)
        j0 = J - 2
        i0 = list(sch.j_indices).index(j0)
        times = np.linspace(0.0, 8.0, 2001)
        table = np.zeros((sch.j_indices.size, times.size))
        table[i0] = np.exp(-times)
        series = {(name, 2): NormSeries(sch.j_indices, 2, times, table) for name in ("u", "v")}
        X = functional_X(series, eps, p, J, d)
        w = lambda s: 2.0 ** (j0 * s)
        integral = 1.0 - math.exp(-8.0)
        dp = d / p
        assert X["terms"]["u_low_sup"] == pytest.approx(w(dp - 1) + w(dp), rel=1e-12)
        assert X["terms"]["u_low_int"] == pytest.approx((w(dp + 1) + w(dp + 2)) * integral, rel=5e-6)
        assert X["terms"]["v_low_sup"] == pytest.approx(eps**2 * (w(dp) + w(dp + 1)), rel=1e-12)
        assert X["terms"]["v_low_int"] == pytest.approx((w(dp) + w(dp + 1)) * integral, rel=5e-6)
        # block j0 = J-2 lies outside the high window j >= J-1
        assert X["terms"]["u_high_sup"] == 0.0
        assert X["total"] == pytest.approx(sum(X["terms"].values()))

    def test_x0_weights(self, grid):
        model = JinXinModel(make_flux("burgers1d"), (1.0,), 0.5)
        spec = InitialDataSpec(kind="gaussian_bump", amplitude=0.05, width=2.0)
        jx = make_initial_data(spec, grid, model)
        J = threshold_J(0.5)
        x0 = functional_X0(_initial_series(model, jx, 2), 0.5, 2, J, 1)
        u0, vs = jx.u, SpectralField.stack(jx.v)
        manual = (besov_norm(u0, -0.5, 2, 1, ("low", J)) + besov_norm(u0, 0.5, 2, 1, ("low", J))
                  + 0.25 * (besov_norm(vs, 0.5, 2, 1, ("low", J)) + besov_norm(vs, 1.5, 2, 1, ("low", J)))
                  + 1.5 * besov_norm(u0, 0.5, 2, 1, ("high", J))
                  + 0.75 * besov_norm(vs, 0.5, 2, 1, ("high", J)))
        assert x0 == pytest.approx(manual, rel=1e-12)

    @pytest.mark.parametrize("p,tables", [(4, 4), (2, 2)])
    def test_x0_one_table_per_field_and_exponent(self, grid, monkeypatch, p, tables):
        # the 2^{js} weights go on the t = 0 column of the trajectory's one
        # table per (field, p), which changes no bit of the sum of besov_norm
        # terms, and X0 computes no block norms of its own
        model = JinXinModel(make_flux("burgers1d"), (1.0,), 0.5)
        spec = InitialDataSpec(kind="gaussian_bump", amplitude=0.05, width=2.0)
        jx = make_initial_data(spec, grid, model)
        series = _initial_series(model, jx, p)
        assert len(series) == tables
        eps, J, dp = 0.5, threshold_J(0.5), 1 / p
        u0, vs = jx.u, SpectralField.stack(jx.v)
        lo, hi = ("low", J), ("high", J)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            manual = (besov_norm(u0, dp - 1, p, 1, lo) + besov_norm(u0, dp, p, 1, lo)
                      + eps**2 * (besov_norm(vs, dp, p, 1, lo) + besov_norm(vs, dp + 1, p, 1, lo))
                      + (1 + eps) * besov_norm(u0, 0.5, 2, 1, hi)
                      + eps * (1 + eps) * besov_norm(vs, 0.5, 2, 1, hi))
        calls = []
        real = spectral_core.block_lp_norms
        for mod in (harness, spectral_core):
            monkeypatch.setattr(mod, "block_lp_norms", lambda *a: calls.append(a[1]) or real(*a))
        assert functional_X0(series, eps, p, J, 1) == manual
        assert calls == []


class TestFitRate:
    def test_exact_power_law(self):
        ts = np.geomspace(1.0, 100.0, 30)
        y = (1.0 + ts) ** -0.25
        f = fit_rate(ts, y, kind="time")
        assert f["exponent"] == pytest.approx(-0.25, abs=1e-12)
        assert f["r_squared"] == pytest.approx(1.0, abs=1e-12)

    def test_linear_epsilon_slope(self):
        eps = [0.2, 0.1, 0.05, 0.025]
        y = [3.0 * e for e in eps]
        f = fit_rate(eps, y, kind="plain", min_points=3)
        assert f["exponent"] == pytest.approx(1.0, abs=1e-12)

    def test_exponential_flagged(self):
        ts = np.geomspace(1.0, 100.0, 40)
        y = np.exp(-ts / 10)
        f = fit_rate(ts, y, kind="time")
        assert f["low_r2"]

    def test_degenerate_window(self):
        with pytest.raises(ValueError, match="points"):
            fit_rate([1.0, 2.0], [1.0, 2.0], kind="plain")


class TestDecayEnd:
    """The high-frequency fit window ends where the trace stops falling."""

    def test_exponential_plus_floor(self):
        # e^{-50 t} + 2e-23 on a geometric ladder (ratio 40^(1/23)): the
        # trace falls by at least 2 on every step up to t=1.059 (1.0e-23 +
        # floor), then by 1.5 to t=1.243, so the window ends at t=0.902
        t = np.concatenate([[0.0], np.geomspace(0.25, 10.0, 24)])
        y = np.exp(-50.0 * t) + 2e-23 * (1.0 + 0.01 * np.sin(t))
        end = _decay_end(t, y)
        assert end == t[9] == pytest.approx(0.902, abs=1e-3)
        assert y[t > end].max() < 1e-2 * y[t == end][0]

    def test_pure_exponential_runs_to_the_last_step(self):
        t = np.linspace(0.0, 1.0, 11)
        assert _decay_end(t, np.exp(-20.0 * t)) == t[-2]

    def test_no_fall(self):
        t = np.linspace(0.0, 1.0, 11)
        assert _decay_end(t, np.exp(-t)) == t[1]


class TestExperiments:
    def test_sweeps_in_worker_processes_match_serial(self):
        # two workers get each flux by pickle and hand back rows in eps order
        g = Grid(1, 32, 8 * np.pi)
        flux = make_flux("burgers1d")
        data = InitialDataSpec(kind="gaussian_bump", amplitude=0.05, width=2.0,
                               v_kind="ill_prepared", v_scale=0.1)
        stepper = StepperConfig(dt_max=0.05, t_end=1.5, sample_every=0.25)
        eps_list = [0.3, 0.2, 0.1]
        for run in (run_uniformity_study, run_epsilon_convergence):
            serial = run(g, flux, (1.0,), eps_list, data, stepper, jobs=1)["fits"]
            assert run(g, flux, (1.0,), eps_list, data, stepper, jobs=2)["fits"] == serial

    def test_epsilon_convergence_linear_oracle(self):
        # zero flux + exact per-mode propagator: difference closed-form, slope 1
        g = Grid(1, 32, 2 * np.pi)
        flux = make_flux("zero", 1, 1)
        data = InitialDataSpec(kind="single_mode", amplitude=0.1, mode=(1,),
                               v_kind="ill_prepared", v_scale=0.2, v_scale_mode="inv_eps",
                               v_band_hi=1.5, seed=0)
        stepper = StepperConfig(scheme="exact_linear", dt_max=0.05, t_end=10.0, sample_every=0.2)
        out = run_epsilon_convergence(g, flux, (1.0,), [0.1, 0.05, 0.025, 0.0125],
                                      data, stepper, p=2)
        f = out["fits"]["fit_sup_du"]
        assert abs(f["exponent"] - 1.0) <= 3 * max(f["stderr"], 0.02)
        assert out["fits"]["fit_int_Zlow"]["exponent"] >= 0.85

    def test_uniformity_growth_onset_follows_plateau(self):
        # kappa=1 at eps=1 sits on the oscillatory side, where the decay rate
        # is the plateau 1/(2 eps^2): X still grows well past t=1 and only
        # saturates after the onset t1 = max(1, 10 eps^2) = 10
        g = Grid(1, 16, 2 * np.pi)
        flux = make_flux("zero", 1, 1)
        data = InitialDataSpec(kind="single_mode", amplitude=0.1, mode=(1,), v_kind="darcy")
        stepper = StepperConfig(scheme="imex_ssp2", dt_max=0.05, t_end=20.0)
        row = run_uniformity_study(g, flux, (1.0,), [1.0], data, stepper)["fits"]["variants"]["darcy"]["rows"][0]
        assert row["t1"] == 10.0
        assert row["growth_after_t1"] <= 1.05
        # the same trajectory measured from t=1 grows past the bound
        model = JinXinModel(flux, (1.0,), 1.0)
        jx0 = make_initial_data(data, g, model)
        trackers = [("u", 2), ("v", 2)]
        traj = evolve(model, jx0, stepper, trackers, sample_times=np.linspace(0.0, 20.0, 401))
        J = threshold_J(1.0)
        i1 = int(np.searchsorted(traj.times, 1.0, side="right"))
        growth_from_1 = (functional_X(traj.series, 1.0, 2, J, 1)["total"]
                         / functional_X_at(traj.series, 1.0, 2, J, 1, i1))
        assert growth_from_1 > 1.05

    def test_half_eps_level_ratio_is_the_median_ratio_of_two_difference_studies(self):
        # the half-eps run is the with_difference study at eps/2 on the same
        # sample times, so the level ratio is the median of d1/d2 over the window
        g = Grid(1, 64, 200.0)
        args = (g, make_flux("burgers1d"), (1.0,))
        data = InitialDataSpec(kind="random_spectrum", amplitude=0.02, sigma1=-0.5, v_kind="darcy")
        kw = {"stepper": StepperConfig(), "fit_window": (2.0, 40.0), "with_difference": True}
        both = run_decay_study(*args, 0.5, data, compare_half_eps=True, **kw)
        d1, d2 = (run_decay_study(*args, eps, data, **kw)["csv_curves"] for eps in (0.5, 0.25))
        t = np.asarray(d1["t"])
        assert t.tolist() == d2["t"] == both["csv_curves"]["t"]
        sel = (t >= 2.0) & (t <= 40.0)
        ratio = float(np.median(np.asarray(d1["du"])[sel] / np.asarray(d2["du"])[sel]))
        assert both["fits"]["half_eps_level_ratio"] == ratio != 1.0

    def test_uniformity_onset_past_t_end_rejected(self):
        # at eps=1 the onset is t1=10: with t_end=5 no sample follows it and
        # the growth check would pass vacuously
        g = Grid(1, 16, 2 * np.pi)
        flux = make_flux("zero", 1, 1)
        data = InitialDataSpec(kind="single_mode", amplitude=0.1, mode=(1,), v_kind="darcy")
        stepper = StepperConfig(scheme="imex_ssp2", dt_max=0.05, t_end=5.0)
        with pytest.raises(ValueError, match=r"eps=1\b.*t1=.*=10\b.*t_end=5\b"):
            run_uniformity_study(g, flux, (1.0,), [0.1, 1.0], data, stepper)

    def test_decay_window_guard(self):
        g = Grid(1, 256, 2 * np.pi * 16)  # cutoff time 0.05*16^2 = 12.8
        flux = make_flux("burgers1d")
        data = InitialDataSpec(kind="random_spectrum", amplitude=0.02, sigma1=-0.5)
        with pytest.raises(ValueError, match="cutoff"):
            run_decay_study(g, flux, (1.0,), 0.1, data,
                            StepperConfig(scheme="imex_ssp2"), fit_window=(1.0, 100.0))

    @pytest.mark.parametrize("eps_list", [[0.2, 0.1], [0.2, 0.2, 0.2]])
    def test_epsilon_convergence_needs_three_distinct_eps(self, monkeypatch, eps_list):
        # a slope in eps needs three distinct points; the sweep stops before its first run
        def no_run(*args, **kwargs):
            raise AssertionError("evolve called")

        monkeypatch.setattr(harness, "evolve", no_run)
        with pytest.raises(ConfigError, match=r"^config\.model\.eps_list: .*3 distinct eps"):
            run_epsilon_convergence(Grid(1, 64, 2 * np.pi), make_flux("burgers1d"), (1.0,), eps_list,
                                    InitialDataSpec(), StepperConfig())

    def test_decay_window_with_too_few_samples_rejected_before_stepping(self, monkeypatch):
        # 48 geometric samples from 0.25 to 10 put one of them (t = 10) in [9.9, 10]
        def no_run(*args, **kwargs):
            raise AssertionError("evolve called")

        monkeypatch.setattr(harness, "evolve", no_run)
        g = Grid(1, 256, 2 * np.pi * 16)  # cutoff time 12.8
        with pytest.raises(ConfigError, match=r"^config\.fit\.window: .* holds 1 of the run's sample times"):
            run_decay_study(g, make_flux("burgers1d"), (1.0,), 0.1, InitialDataSpec(), StepperConfig(),
                            fit_window=(9.9, 10.0))

    def test_decay_pure_exponential_flagged(self):
        # a single mode decays exponentially; the power-law fit must flag it
        g = Grid(1, 64, 2 * np.pi * 16)
        flux = make_flux("zero", 1, 1)
        data = InitialDataSpec(kind="single_mode", amplitude=0.1, mode=(16,),
                               sigma1=-0.5, v_kind="darcy")
        out = run_decay_study(g, flux, (1.0,), 0.1, data,
                              StepperConfig(scheme="imex_ssp2", dt_max=0.02),
                              fit_window=(1.0, 12.0), sigma_list=(0.0,))
        assert out["fits"]["rows"][0]["low_r2"]

    def test_decay_reports_empty_high_window(self):
        # eps = 0.05 gives J = 5: the high window j >= 4 lies above this
        # grid's last block, so the high-frequency fit is skipped with a reason
        g = Grid(1, 64, 2 * np.pi * 16)
        assert scheme_for(g).j_max < threshold_J(0.05) - 1
        data = InitialDataSpec(kind="random_spectrum", amplitude=0.02, sigma1=-0.5)
        out = run_decay_study(g, make_flux("burgers1d"), (1.0,), 0.05, data,
                              StepperConfig(scheme="imex_ssp2", dt_max=0.05),
                              fit_window=(1.0, 12.0))
        fits = out["fits"]
        assert "high_freq_fit" not in fits
        assert fits["high_freq_fit_skipped"] == (
            f"the high window j >= J-1 = 4 lies above the grid's last block j = {scheme_for(g).j_max}")

    def test_overdamping_scan_small(self):
        g = Grid(1, 16, 2 * np.pi)
        out = run_overdamping_scan(g, (1.0,), (1,), eps_grid=[1.0, 0.5, 0.25])
        for row in out["fits"]["rows"]:
            assert row["rel_err"] <= 0.02
        # the peak friction 1/eps = 2 is in the grid: measured 2S within 2%
        peak = out["fits"]["peak"]
        assert abs(peak["omega_measured"] - peak["target"]) <= 0.02 * peak["target"]

    @pytest.mark.parametrize("scheme", ["imex_ssp2", "exact_linear"])
    def test_overdamping_batch_matches_single_frictions(self, scheme):
        # the frictions step together at different dt; each row must equal
        # the row of that friction scanned alone, bit for bit
        g = Grid(1, 16, 2 * np.pi)
        grid_eps = [1.0, 0.5, 0.25]
        rows = run_overdamping_scan(g, (1.0,), (1,), eps_grid=grid_eps, scheme=scheme)["fits"]["rows"]
        alone = [run_overdamping_scan(g, (1.0,), (1,), eps_grid=[e], scheme=scheme)["fits"]["rows"][0]
                 for e in grid_eps]
        assert rows == sorted(alone, key=lambda r: r["inv_eps"])

    @pytest.mark.parametrize("mode", [(6,), (-7,), (0,)])
    def test_overdamping_rejects_mode_the_grid_cannot_hold(self, mode):
        # N = 16 keeps |k| <= 5 under the 2/3 rule, and mode 0 has nothing to decay
        g = Grid(1, 16, 2 * np.pi)
        with pytest.raises(ValueError, match=r"2/3-rule cut \|k_i\| <= N/3 = 5"):
            run_overdamping_scan(g, (1.0,), mode, eps_grid=[1.0, 0.5])

    def test_overdamping_rejects_limit_scheme(self):
        g = Grid(1, 16, 2 * np.pi)
        with pytest.raises(ValueError, match="if_rk2"):
            run_overdamping_scan(g, (1.0,), (1,), eps_grid=[1.0, 0.5], scheme="if_rk2")

    def test_zero_mode_no_decay(self):
        # the conserved mean mode never decays
        g = Grid(1, 16, 2 * np.pi)
        flux = make_flux("zero", 1, 1)
        model = JinXinModel(flux, (1.0,), 0.5)
        u = SpectralField.from_physical(g, np.full(g.shape, 0.3))
        from relaxlab.models import JinXinState
        from relaxlab.integrators import step_jinxin

        st = JinXinState(u, [SpectralField.zero(g)])
        for _ in range(100):
            st = step_jinxin(model, st, 1e-3, "imex_ssp2")
        assert abs(st.u.mean()[0] - 0.3) <= 1e-10

    @pytest.mark.parametrize("S,span,points", [
        (1.0, (0.5, 4.0), 1), (1.0, (0.5, 4.0), 2), (1.0, (0.5, 4.0), 20), (1 / 256, (0.25, 4.0), 41),
        # geometric values 0.5, 1, 2, 4, 8 that hold the peak 2
        (1.0, (0.25, 4.0), 5),
    ])
    def test_friction_grid_is_unique_of_geometric_values_and_peak(self, S, span, points):
        peak = 2 * math.sqrt(S)
        expected = np.unique(np.append(np.geomspace(span[0] * peak, span[1] * peak, points), peak))
        got = friction_grid(S, span, points)
        assert got.dtype == expected.dtype and np.array_equal(got, expected)

    @pytest.mark.parametrize("t_end,sample_every,eps,fit_window", [
        (1.0, 0.1, 1.0, (1.0, 10.0)), (20.0, 0.25, 0.025, (5.0, 500.0)), (50.0, 0.1, 0.02, (4.0, 50.0)),
        (0.5, 0.3, 0.1, (0.5, 0.6)),
    ])
    def test_sorted_union_is_unique_of_the_concatenated_ladders(self, t_end, sample_every, eps, fit_window):
        # the sample ladders of the uniformity, convergence and decay runs
        ladders = [
            [np.geomspace(min(0.01, t_end / 100), 1.0, 25), np.linspace(1.0, t_end, 140)],
            [np.geomspace(max(1e-4, eps**2 / 4), 1.0, 30),
             np.linspace(1.0, t_end, int(t_end / sample_every) + 1)],
            [np.geomspace(min(0.25, fit_window[0] / 4), fit_window[1], 48),
             np.geomspace((eps / 2) ** 2 / 8, 25 * eps**2, 16)],
        ]
        for parts in ladders:
            expected = np.unique(np.concatenate(parts))
            got = _sorted_union(*parts)
            assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("N", [8, 16, 64, 256])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_hermitian_randomize_matches_full_lattice_pairing(self, d, N, seed):
        from oracles import full_lattice_hermitian_randomize

        g = Grid(d, N, 2 * np.pi)
        modulus = np.random.default_rng(100 + seed).uniform(0.0, 1.0, g.spectral_shape)
        modulus[modulus < 0.2] = 0.0  # zero moduli carry signed zeros
        got = _hermitian_randomize(g, modulus, np.random.default_rng(seed))
        expected = full_lattice_hermitian_randomize(g, modulus, np.random.default_rng(seed))
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("call,path", [
        (lambda: friction_grid(0.0, (0.5, 4), 20), "config.scan.mode"),
        (lambda: run_spectrum((1.0,), span=(1e-300, 4)), "config.scan.span"),
        (lambda: run_spectrum((1.0,), span=(0.5, 1e300)), "config.scan.span"),
        (lambda: run_spectrum((1.0,), mode_kappa=(0.0,)), "config.scan.mode"),
        (lambda: run_overdamping_scan(Grid(1, 16, 2 * np.pi), (1.0,), (0,), eps_grid=[1.0]), "config.scan.mode"),
        (lambda: run_overdamping_scan(Grid(1, 16, 1e154), (1.0,), (1,), eps_grid=[1e153]), "config.grid.L"),
    ])
    def test_library_scan_entry_points_name_their_config_path(self, call, path):
        # the library, not only the CLI, rejects a scan it cannot run, before numpy can warn
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError) as e:
                call()
        assert str(e.value).startswith(f"{path}: ")

    def test_spectrum_rows(self):
        out = run_spectrum((1.0,), mode_kappa=(1.0,), points=11)
        rows = out["fits"]["rows"]
        assert len(rows) == 11
        regimes = {r["regime"] for r in rows}
        assert {"low", "high"} <= regimes

    def test_selftest_all_pass(self):
        out = run_selftest(N=64)
        assert out["fits"]["passed"] == out["fits"]["total"]

    def test_grid_refinement_stability(self):
        # doubling N moves the fitted exponent by less than the fit stderr
        flux = make_flux("burgers1d")
        data = InitialDataSpec(kind="random_spectrum", amplitude=0.02, sigma1=-0.5,
                               ir_compensation=True, ir_sigma_fit=0.0, ir_t_hi=100.0,
                               v_kind="darcy", seed=0)
        stepper = StepperConfig(scheme="imex_ssp2", cfl=0.45, dt_max=0.05)
        fits = []
        for N in (1024, 2048):
            g = Grid(1, N, 200 * np.pi)
            out = run_decay_study(g, flux, (1.0,), 0.1, data, stepper,
                                  fit_window=(5.0, 100.0), sigma_list=(0.0,))
            fits.append(out["fits"]["rows"][0])
        gap = abs(fits[0]["exponent"] - fits[1]["exponent"])
        assert gap <= max(fits[0]["stderr"], fits[1]["stderr"])


# (d, a, mode) of the march cases: S = 1, 4, 9, 4 and 19 on L = 2 pi
_MARCH_CASES = [
    (1, (1.0,), (1,)),
    (1, (1.0,), (-2,)),
    (2, (1.0, 2.0), (1, 2)),
    (2, (1.0, 2.0), (2, 0)),
    (2, (1.0, 2.0), (1, -3)),
]


class TestModeMarch:
    """The overdamping scan marches powers of the one-step matrix at its mode."""

    @pytest.mark.parametrize("scheme", ["imex_ssp2", "exact_linear"])
    @pytest.mark.parametrize("d,a,mode", _MARCH_CASES)
    def test_energies_match_stepped_lattice(self, d, a, mode, scheme):
        # three frictions around and at the peak 2 sqrt(S), at the scan's
        # dt = 0.3 eps dx / max sqrt(a_i); 260 steps are a full chunk and a
        # part one, 100 a part one. At the peak the mode matrix is a Jordan
        # block, and the two marches drift apart about as steps^2 (4e-13 at
        # 260 steps, 4e-12 at 600, with the energy down to 1e-150 and below)
        from oracles import stepped_mode_energies

        g = Grid(d, 16, 2 * np.pi)
        assert harness._CHUNK_STEPS < 260 < 2 * harness._CHUNK_STEPS
        S = sum(ai * k * k for ai, k in zip(a, mode))
        eps = [1.0 / (f * 2 * math.sqrt(S)) for f in (0.5, 1.0, 4.0)]
        dt = np.array([0.3 * e * g.dx / math.sqrt(max(a)) for e in eps])
        for steps in (260, 100):
            got = harness._mode_energies(g, a, mode, eps, dt, steps, scheme)
            ref = stepped_mode_energies(g, a, mode, eps, dt, steps, scheme)
            assert got.shape == ref.shape == (steps, 3)
            assert np.max(np.abs(got - ref) / ref) <= 1e-12

    @pytest.mark.parametrize("scheme", ["imex_ssp2", "exact_linear"])
    def test_overdamping_batch_matches_single_frictions_2d(self, scheme):
        g = Grid(2, 16, 2 * np.pi)
        grid_eps = [1 / 3, 1 / 6, 1 / 12]  # 1/eps = 3, 6 = 2 sqrt(S) and 12 at S = 9
        rows = run_overdamping_scan(g, (1.0, 2.0), (1, 2), eps_grid=grid_eps, scheme=scheme)["fits"]["rows"]
        alone = [run_overdamping_scan(g, (1.0, 2.0), (1, 2), eps_grid=[e], scheme=scheme)["fits"]["rows"][0]
                 for e in grid_eps]
        assert rows == sorted(alone, key=lambda r: r["inv_eps"])
        assert all(r["rel_err"] <= 0.02 for r in rows)

    def test_one_advance_per_chunk(self, monkeypatch):
        # the step counts of the scan, from its dt rule written out here
        g = Grid(1, 16, 2 * np.pi)
        eps = [1.0, 0.5, 0.125]
        om = np.array([decay_rate_omega((1.0,), e, (1.0,)) for e in eps])
        dt = np.minimum.reduce([0.3 * np.array(eps) * g.dx, 0.02 / om, 200.0 / om / 4000.0])
        steps = int(np.ceil(300.0 / om / dt).max())
        calls = []

        def counted(kernel, coeffs, w, n_sub, t, h):
            calls.append((n_sub, len(coeffs)))
            return advance(kernel, coeffs, w, n_sub, t, h)

        monkeypatch.setattr(harness, "advance", counted)
        run_overdamping_scan(g, (1.0,), (1,), eps_grid=eps)
        assert steps > 10 * harness._CHUNK_STEPS
        assert len(calls) <= math.ceil(steps / harness._CHUNK_STEPS)
        # every chunk is one advance of one step; its table holds the chunk's steps
        assert all(n_sub == 1 for n_sub, _ in calls)
        assert sum(m for _, m in calls) == steps

    def test_non_finite_chunk_is_divergence(self, monkeypatch):
        # a kernel that multiplies by 1e100 gives M = 1e100 I, whose powers overflow
        def prepare(self, scheme, dt, eps=None):
            return (lambda w, coeffs: [1e100 * wi for wi in w]), None

        monkeypatch.setattr(harness._JinXinStepper, "prepare", prepare)
        g = Grid(1, 16, 2 * np.pi)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError, match="non-finite"):
                run_overdamping_scan(g, (1.0,), (1,), eps_grid=[1.0, 0.5])


class TestWriteResults:
    def test_writes_fields_and_stamps_each_sidecar(self, tmp_path):
        g = Grid(1, 16, 2 * math.pi)
        u = SpectralField.from_physical(g, np.sin(g.coords()[0]))
        result = {"fits": {"experiment": "synthetic"},
                  "extra_files": {"a.json": {"x": 1}, "trajectory.json": {"t_samples": [0.0, 1.0]}},
                  "fields": {"u_final.bin": u, "v_final.bin": SpectralField.stack([u, -1.0 * u])}}
        rundir = harness.write_results(str(tmp_path), {"experiment": "synthetic"}, "0123abcd", result)
        run = tmp_path / "0123abcd"
        assert rundir == str(run)
        assert sorted(p.name for p in run.iterdir()) == [
            "a.json", "config.json", "fields", "fits.json", "norms.csv", "trajectory.json"]
        for name, tree in result["extra_files"].items():
            assert json.loads((run / name).read_text()) == {**tree, "config_hash": "0123abcd"}
        assert sorted(p.name for p in (run / "fields").iterdir()) == ["u_final.bin", "v_final.bin"]
        for name, field in result["fields"].items():
            np.testing.assert_array_equal(load_field(run / "fields" / name).coeffs, field.coeffs)
