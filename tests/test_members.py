"""evolve's member form: members marched together equal their solo runs bit for bit."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from relaxlab.cli import main
from relaxlab.harness import InitialDataSpec, make_initial_data, run_uniformity_study
from relaxlab.integrators import StepperConfig, evolve
from relaxlab.models import DivergenceError, JinXinModel, JinXinState, darcy_velocity, make_flux
from relaxlab.spectral_core import Grid, SpectralField


def _square_mismatch_eps() -> float:
    """An eps whose Python square eps**2 differs from numpy's square of an
    eps column, so that a member's coefficients must come from its own
    float prepare and not from a prepare of the stacked columns."""
    for e in np.linspace(0.07, 0.09, 2001):
        e = float(e)
        if np.square(np.array([e]))[0] != e**2:
            return e
    raise AssertionError("no eps in the range squares differently")


def _assert_same_run(packed, solo):
    assert np.array_equal(packed.times, solo.times)
    assert packed.series.keys() == solo.series.keys()
    for key, ser in solo.series.items():
        assert np.array_equal(packed.series[key].table, ser.table), key
        assert np.array_equal(packed.series[key].times, ser.times)
    assert np.array_equal(packed.final_state.u.coeffs, solo.final_state.u.coeffs)
    assert len(packed.final_state.v) == len(solo.final_state.v)
    for vp, vs in zip(packed.final_state.v, solo.final_state.v):
        assert np.array_equal(vp.coeffs, vs.coeffs)
    assert packed.final_state.t == solo.final_state.t
    assert packed.steps == solo.steps
    assert packed.runs == solo.runs
    assert packed.max_abs_u == solo.max_abs_u
    assert packed.mean_drift == solo.mean_drift


def _members(grid, flux, a, eps_list, data):
    models = [JinXinModel(flux, a, eps) for eps in eps_list]
    return models, [make_initial_data(data, grid, m) for m in models]


def _assert_members_are_solo_runs(models, initials, cfg, trackers, ladders):
    packed = evolve(models, initials, cfg, trackers, ladders)
    assert len(packed) == len(models)
    assert len({traj.wall_time for traj in packed}) == 1  # the whole march's
    for m, st, ts, traj in zip(models, initials, ladders, packed):
        _assert_same_run(traj, evolve(m, st, cfg, trackers, sample_times=ts))
    return packed


class TestPackedEqualsSolo:
    def test_square_mismatch_eps_exists(self):
        e = _square_mismatch_eps()
        assert np.square(np.array([e]))[0] != e**2

    def test_burgers_1d_with_companions_on_own_ladders(self):
        # the shape of thm2-epsilon: ill-prepared data, du/dv companions, and
        # each eps sampled on its own geometric-then-linear ladder
        g = Grid(1, 64, 8 * np.pi)
        data = InitialDataSpec(kind="gaussian_bump", amplitude=0.05, width=2.0, v_kind="ill_prepared",
                               v_scale=0.3, v_scale_mode="inv_eps", v_band_hi=1.0)
        eps_list = [0.2, _square_mismatch_eps(), 0.05, 0.1]
        cfg = StepperConfig(scheme="imex_ssp2", cfl=0.45, dt_max=0.02, t_end=1.5, sample_every=0.25)
        ladders = [np.union1d(np.geomspace(max(1e-4, e**2 / 4), 1.0, 30), np.linspace(1.0, 1.5, 3))
                   for e in eps_list]
        assert not any(np.array_equal(ladders[0], ts) for ts in ladders[1:])
        models, initials = _members(g, make_flux("burgers1d"), (1.0,), eps_list, data)
        packed = _assert_members_are_solo_runs(models, initials, cfg, [("Z", 2), ("du", 2), ("dv", 2)], ladders)
        # members of different eps took different step counts in the same rounds
        assert len({traj.runs[0]["steps"] for traj in packed}) == len(eps_list)
        assert all(traj.runs[1]["scheme"] == "if_rk2" for traj in packed)

    def test_ladders_of_different_lengths(self):
        g = Grid(1, 32, 2 * np.pi)
        data = InitialDataSpec(kind="gaussian_bump", amplitude=0.1, width=1.0, v_kind="darcy")
        eps_list = [0.3, _square_mismatch_eps(), 0.5]
        cfg = StepperConfig(cfl=0.4, dt_max=0.05)
        ladders = [[0.1, 0.3], None, np.linspace(0.0, 0.7, 8)]
        models, initials = _members(g, make_flux("burgers1d"), (1.0,), eps_list, data)
        packed = _assert_members_are_solo_runs(models, initials, cfg, [("u", 2), ("du", 2)], ladders)
        assert [traj.times.size for traj in packed] == [3, 11, 8]

    def test_burgers_2d_with_p4_trackers(self):
        g = Grid(2, 32, 4 * np.pi)
        data = InitialDataSpec(kind="random_spectrum", amplitude=0.04, sigma1=-1.0, ir_compensation=True,
                               v_kind="ill_prepared", v_scale=0.1, v_scale_mode="inv_eps", v_band_hi=1.0,
                               seed=3)
        eps_list = [0.3, _square_mismatch_eps(), 0.15]
        cfg = StepperConfig(scheme="imex_ssp2", cfl=0.45, dt_max=0.05, t_end=0.4, sample_every=0.1)
        ladders = [np.linspace(0.0, 0.4, 5), np.geomspace(0.01, 0.4, 6), np.linspace(0.0, 0.4, 5)]
        models, initials = _members(g, make_flux("burgers2d"), (1.0, 1.0), eps_list, data)
        _assert_members_are_solo_runs(models, initials, cfg, [("u", 4), ("Z", 4), ("du", 4)], ladders)

    def test_exact_linear_members(self):
        g = Grid(1, 32, 4 * np.pi)
        data = InitialDataSpec(kind="gaussian_bump", amplitude=0.2, width=1.0, v_kind="ill_prepared",
                               v_scale=0.5, v_band_hi=1.0)
        eps_list = [0.5, _square_mismatch_eps(), 0.2]
        cfg = StepperConfig(scheme="exact_linear", dt_max=0.03, t_end=0.5, sample_every=0.1)
        ladders = [None, np.geomspace(1e-3, 0.5, 7), [0.05, 0.125, 0.5]]
        models, initials = _members(g, make_flux("zero", 1, 1), (1.0,), eps_list, data)
        _assert_members_are_solo_runs(models, initials, cfg, [("u", 2), ("v", 2), ("du", 2)], ladders)

    def test_members_must_share_grid(self):
        model = JinXinModel(make_flux("zero", 1, 1), (1.0,), 0.5)
        states = [JinXinState(SpectralField.zero(Grid(1, n, 2 * np.pi)), [SpectralField.zero(Grid(1, n, 2 * np.pi))])
                  for n in (16, 32)]
        with pytest.raises(ValueError, match="share flux, a and grid"):
            evolve([model, model], states, StepperConfig(), [("u", 2)])


class TestDivergenceInAPack:
    def test_diverging_member_reported_at_its_own_time_and_eps(self):
        # u ~ 1e20 overflows the Burgers flux on the third step of its member,
        # inside the first sampling interval; the other members are stable and,
        # with their longer steps, ahead of it in time when it fails
        g = Grid(1, 16, 2 * np.pi)
        fl = make_flux("burgers1d")
        x = g.coords()[0]
        calm = SpectralField.from_physical(g, 0.1 * np.cos(x))
        huge = SpectralField.from_physical(g, 1e20 * np.cos(x))
        eps_list = [0.5, 0.2, 0.3]
        models = [JinXinModel(fl, (1.0,), e) for e in eps_list]
        initials = [JinXinState(calm, darcy_velocity(fl, (1.0,), calm)), JinXinState(huge, [huge.copy()]),
                    JinXinState(calm, darcy_velocity(fl, (1.0,), calm))]
        cfg = StepperConfig(t_end=2.0, sample_every=0.5, dt_max=0.05)
        with np.errstate(all="ignore"), pytest.raises(DivergenceError) as solo:
            evolve(models[1], initials[1], cfg, [("u", 2)])
        with np.errstate(all="ignore"), pytest.raises(DivergenceError) as packed:
            evolve(models, initials, cfg, [("u", 2)])
        h = 0.5 / math.ceil(0.5 / min(0.05, 0.45 * 0.2 * g.dx))
        assert h < 0.05
        assert packed.value.t == solo.value.t == pytest.approx(3 * h, rel=1e-12)
        assert packed.value.eps == solo.value.eps == 0.2
        assert str(packed.value) == str(solo.value) == f"non-finite values in state at t={solo.value.t} " \
                                                       "of the run at eps=0.2"


class TestUniformityVariants:
    def test_variants_in_one_march_equal_separate_sweeps(self):
        g = Grid(1, 32, 8 * np.pi)
        flux = make_flux("burgers1d")
        data = InitialDataSpec(kind="gaussian_bump", amplitude=0.05, width=2.0, v_kind="darcy",
                               v_scale=0.1, v_band_hi=1.0)
        stepper = StepperConfig(dt_max=0.05, t_end=1.5)
        eps_list = [0.3, 0.2, 0.1]
        kinds = ["darcy", "ill_prepared", "zero"]
        fits = run_uniformity_study(g, flux, (1.0,), eps_list, data, stepper, variants=kinds)["fits"]
        assert fits["experiment"] == "uniformity" and list(fits["variants"]) == kinds
        for vk in kinds:
            alone = run_uniformity_study(g, flux, (1.0,), eps_list, replace(data, v_kind=vk), stepper)["fits"]
            assert fits["variants"][vk] == alone
        assert run_uniformity_study(g, flux, (1.0,), eps_list, data, stepper, jobs=2, variants=kinds)["fits"] == fits


class TestOversizedGrid:
    @pytest.mark.parametrize("N", [2**62, 2**63, 2**64])
    def test_lattice_numpy_cannot_address_names_grid_N(self, tmp_path, capsys, N):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"experiment": "simulate", "grid": {"N": N}}))
        assert main(["run", "--config", str(p), "--out", str(tmp_path / "runs")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config.grid.N: ") and err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "runs").exists()

    def test_grid_rejects_lattice_beyond_intp(self):
        from relaxlab.models import ConfigError

        limit = np.iinfo(np.intp).max
        big = 1 << ((limit.bit_length() - 4) // 2)  # 16 N^2 about limit / 2 for d = 2
        Grid(2, big // 2, 1.0)
        with pytest.raises(ConfigError, match=r"^config\.grid\.N: "):
            Grid(2, big * 2, 1.0)


class TestDivergenceInWorkers:
    def test_divergence_from_a_worker_process_keeps_its_message(self, tmp_path, capsys):
        # with two jobs the error comes back pickled from a worker process
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"experiment": "epsilon-convergence",
                                 "model": {"flux": "burgers1d", "eps_list": [0.3, 0.2, 0.1]},
                                 "grid": {"N": 32}, "data": {"amplitude": 1e6}, "stepper": {"t_end": 1}}))
        assert main(["run", "--config", str(p), "--out", str(tmp_path / "runs"), "--jobs", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: non-finite values in state at t=") and err.count("non-finite") == 1
        assert " of the run at eps=" in err and err.count("\n") == 1
