import dataclasses
import json
import math
import warnings

import pytest

from relaxlab import harness
from relaxlab.cli import (
    _DATA_SCHEMA,
    _STEPPER_SCHEMA,
    PRESETS,
    ConfigError,
    _build_common,
    dispatch,
    main,
    parse_config,
    parse_config_dict,
    plot_emit,
)
from relaxlab.harness import InitialDataSpec
from relaxlab.integrators import StepperConfig


class TestParseConfig:
    def test_minimal_spectrum_defaults_and_stable_hash(self):
        tree = {"experiment": "spectrum", "model": {"a": [1], "eps": 1, "d": 1}}
        cfg, h1 = parse_config_dict(tree)
        assert cfg["grid"]["N"] == 256
        assert cfg["stepper"]["scheme"] == "imex_ssp2"
        assert cfg["seed"] == 0
        _, h2 = parse_config_dict({"experiment": "spectrum", "model": {"a": [1], "eps": 1, "d": 1}})
        assert h1 == h2

    def test_sample_every_rule_is_single_eps_simulate_only(self):
        # epsilon-convergence and the eps_list sweep build their own sample times
        stepper = {"sample_every": 5, "t_end": 1}
        parse_config_dict({"experiment": "epsilon-convergence", "stepper": stepper})
        parse_config_dict({"experiment": "simulate", "model": {"eps_list": [0.5, 0.25]}, "stepper": stepper})
        # 1 / 1.9 rounds to one interval: samples at 0 and t_end
        parse_config_dict({"experiment": "simulate", "stepper": {"sample_every": 1.9, "t_end": 1}})
        with pytest.raises(ConfigError, match="config.stepper.sample_every"):
            parse_config_dict({"experiment": "simulate", "stepper": {"sample_every": 2, "t_end": 1}})

    def test_negative_a_rejected(self):
        with pytest.raises(ConfigError, match="a_i > 0"):
            parse_config_dict({"experiment": "spectrum", "model": {"a": [-1]}})

    def test_eps_list_on_decay_rejected(self):
        with pytest.raises(ConfigError, match="single-eps"):
            parse_config_dict({"experiment": "decay", "model": {"eps_list": [0.1, 0.2]}})

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="config.grid.resolution"):
            parse_config_dict({"experiment": "spectrum", "grid": {"resolution": 9}})

    def test_bad_type_named(self):
        with pytest.raises(ConfigError, match="config.stepper.cfl"):
            parse_config_dict({"experiment": "spectrum", "stepper": {"cfl": "fast"}})

    def test_data_and_stepper_schemas_spell_the_dataclass_fields(self):
        # seed, ir_sigma_fit and ir_t_hi come from config.seed and config.fit
        def names(cls):
            return {f.name for f in dataclasses.fields(cls)}
        assert set(_DATA_SCHEMA) == names(InitialDataSpec) - {"seed", "ir_sigma_fit", "ir_t_hi"}
        assert set(_STEPPER_SCHEMA) == names(StepperConfig)

    def test_defaults_build_the_dataclass_defaults(self):
        _, _, _, data, stepper = _build_common(parse_config_dict({"experiment": "simulate"})[0])
        # repr tells -1 from -1.0, which == does not
        assert repr(data) == repr(InitialDataSpec(ir_t_hi=10.0))
        assert repr(stepper) == repr(StepperConfig())

    def test_int_and_float_spellings_build_equal_dataclasses(self):
        data = {"amplitude": 1, "width": 2, "carrier": 3, "sigma1": -1, "band_lo": 0, "band_hi": 9,
                "ir_compensation": True, "v_scale": 0, "v_band_hi": 1}
        stepper = {"cfl": 1, "dt_max": 1, "dt_min": 1, "t_end": 4, "sample_every": 1}
        fit = {"window": [1, 10], "sigma_list": [0]}
        built = []
        for spell in (lambda v: v, lambda v: float(v) if type(v) is int else v):
            tree = {"experiment": "simulate", "data": {k: spell(v) for k, v in data.items()},
                    "stepper": {k: spell(v) for k, v in stepper.items()},
                    "fit": {k: [spell(x) for x in v] for k, v in fit.items()}}
            built.append(_build_common(parse_config_dict(tree)[0])[3:])
        (data_i, stepper_i), (data_f, stepper_f) = built
        assert repr(data_i) == repr(data_f) and repr(stepper_i) == repr(stepper_f)
        assert data_i.ir_compensation is True and data_i.mode == (1,) and data_i.seed == 0

    def test_infinite_exponents_accepted(self):
        # L^inf and l^inf: the one place a config number may be infinite
        cfg, _ = parse_config_dict({"experiment": "simulate", "p": math.inf, "trackers": [
            {"field": "u", "s": 0.0, "p": math.inf, "r": math.inf}]})
        assert cfg["p"] == cfg["trackers"][0]["p"] == cfg["trackers"][0]["r"] == math.inf

    @pytest.mark.parametrize("tree,message", [
        ({"trackers": [{"field": "u", "s": 0.5, "p": "x", "r": 1}]},
         "config.trackers[0].p: expected one of ['int', 'float'], got str"),
        ({"trackers": [{"field": "u", "s": 0.5, "p": 2, "r": True}]},
         "config.trackers[0].r: expected one of ['int', 'float'], got bool"),
        ({"trackers": [{"field": "u", "s": 0.5, "p": 0, "r": 1}]}, "config.trackers[0].p: must be positive, got 0"),
        ({"trackers": [{"field": "w", "s": 0.5, "p": 2, "r": 1}]},
         "config.trackers[0].field: must be u, v, z or Z, got 'w'"),
        ({"trackers": [{"field": "u", "s": 0.5}]}, "config.trackers[0]: need keys field, s, p, r (optional window)"),
        ({"grid": {"L": True}}, "config.grid.L: expected one of ['int', 'float'], got bool"),
    ])
    def test_tracker_errors_read_like_other_sections(self, tree, message):
        with pytest.raises(ConfigError) as e:
            parse_config_dict({"experiment": "simulate", **tree})
        assert str(e.value) == message

    def test_tracker_entry_is_kept_as_given(self):
        # no window is filled in, so the config hash of a tracker config stays put
        entry = {"field": "Z", "s": 0.5, "p": 4, "r": 1}
        cfg, _ = parse_config_dict({"experiment": "simulate", "trackers": [dict(entry)]})
        assert cfg["trackers"] == [entry]

    def test_roundtrip(self, tmp_path):
        cfg, h = parse_config_dict(PRESETS["thm2-epsilon"])
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg, sort_keys=True, indent=2))
        cfg2, h2 = parse_config(path)
        assert cfg2 == cfg and h2 == h

    def test_all_presets_parse(self):
        for name, tree in PRESETS.items():
            cfg, h = parse_config_dict(json.loads(json.dumps(tree)))
            assert len(h) == 16, name

    def test_preset_hashes_are_pinned(self):
        # a schema that drops or retypes a default moves every run directory
        pinned = {"selftest": "25097c1652c88cbc", "fig1-overdamping": "3dd57ac1f061bc6f",
                  "spectrum": "62f2e3eeb9edae48", "thm1-uniform": "88b692c0f4a041b5",
                  "thm2-epsilon": "de4a6797e3fae056", "thm3-decay-1d": "97f9a22d30ea94e2",
                  "thm3-decay-2d": "d4116c488f51de17"}
        assert {name: parse_config_dict(json.loads(json.dumps(tree)))[1]
                for name, tree in PRESETS.items()} == pinned

    def test_worker_count_is_not_hashed(self, tmp_path, capsys):
        # jobs changes how a sweep is scheduled, not what it writes, so both
        # configs share one run directory and write one config.json
        cfg1, h1 = parse_config_dict({"experiment": "spectrum"})
        cfg2, h2 = parse_config_dict({"experiment": "spectrum", "jobs": 2})
        assert h1 == h2 == "58ec1833e5000265" and cfg2["jobs"] == 2
        written = []
        for i, (cfg, h) in enumerate(((cfg1, h1), (cfg2, h2))):
            assert dispatch(cfg, h, out_dir=str(tmp_path / str(i))) == 0
            written.append(tmp_path / str(i) / h / "config.json")
        assert written[0].read_bytes() == written[1].read_bytes()
        assert parse_config(written[1]) == (cfg1, h1)

    def test_invalid_json_reported(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{nope")
        with pytest.raises(ConfigError, match="invalid JSON"):
            parse_config(p)


class TestDispatch:
    def test_selftest_exit_zero(self, tmp_path, capsys):
        cfg, h = parse_config_dict({"experiment": "selftest"})
        rc = dispatch(cfg, h, out_dir=str(tmp_path))
        assert rc == 0
        out = capsys.readouterr().out
        assert "selftest" in out and "checks passed" in out
        rundir = tmp_path / h
        assert (rundir / "config.json").exists()
        assert (rundir / "fits.json").exists()
        assert (rundir / "norms.csv").exists()

    def test_spectrum_emits_curves(self, tmp_path):
        cfg, h = parse_config_dict(json.loads(json.dumps(PRESETS["spectrum"])))
        assert dispatch(cfg, h, out_dir=str(tmp_path)) == 0
        rundir = tmp_path / h
        assert (rundir / "curves.csv").exists()
        svg = (rundir / "curves.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg

    def test_reproducible_fits(self, tmp_path):
        cfg, h = parse_config_dict(json.loads(json.dumps(PRESETS["spectrum"])))
        dispatch(cfg, h, out_dir=str(tmp_path / "a"))
        dispatch(cfg, h, out_dir=str(tmp_path / "b"))
        fa = (tmp_path / "a" / h / "fits.json").read_bytes()
        fb = (tmp_path / "b" / h / "fits.json").read_bytes()
        assert fa == fb

    def test_main_entry(self, tmp_path):
        rc = main(["run", "--preset", "selftest", "--out", str(tmp_path)])
        assert rc == 0

    def test_main_bad_config(self, tmp_path, capsys):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"experiment": "decay", "model": {"eps_list": [0.1]}}))
        rc = main(["run", "--config", str(p), "--out", str(tmp_path)])
        assert rc == 2
        assert "single-eps" in capsys.readouterr().err

    def test_main_missing_config(self, tmp_path, capsys):
        p = tmp_path / "missing.json"
        rc = main(["run", "--config", str(p), "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(p) in err and "Traceback" not in err

    @pytest.mark.parametrize("tree,path", [
        ({"experiment": "simulate", "trackers": [{"field": "w", "s": 0.5, "p": 2, "r": 1}]},
         "config.trackers[0].field"),
        ({"experiment": "simulate", "trackers": [{"field": "du", "s": 0.5, "p": 2, "r": 1}]},
         "config.trackers[0].field"),
        ({"experiment": "simulate", "trackers": [{"field": "u", "s": 0.5, "p": "x", "r": 1}]},
         "config.trackers[0].p"),
        ({"experiment": "simulate", "trackers": [{"field": "u", "s": "a", "p": 2, "r": 1}]},
         "config.trackers[0].s"),
        ({"experiment": "simulate", "trackers": [{"field": "u", "s": 0.5, "p": 2, "r": True}]},
         "config.trackers[0].r"),
        ({"experiment": "simulate", "trackers": [{"field": "u", "s": 0.5, "p": 0, "r": 1}]},
         "config.trackers[0].p"),
        ({"experiment": "overdamping", "scan": {"mode": [1, 1]}}, "config.scan.mode"),
        ({"experiment": "overdamping", "scan": {"span": [0.5]}}, "config.scan.span"),
        ({"experiment": "spectrum", "scan": {"span": [4.0, 0.5]}}, "config.scan.span"),
        ({"experiment": "decay", "fit": {"window": [5]}}, "config.fit.window"),
        ({"experiment": "decay", "fit": {"sigma_list": []}}, "config.fit.sigma_list"),
        ({"experiment": "decay", "fit": {"sigma_list": ["0"]}}, "config.fit.sigma_list"),
        ({"experiment": "simulate", "p": 0}, "config.p"),
        ({"experiment": "decay", "p": -2.5}, "config.p"),
        ({"experiment": "simulate", "model": {"flux": "burgers2d", "n": 2, "d": 2, "a": [1, 1]},
          "data": {"kind": "single_mode", "mode": [1]}}, "config.data.mode"),
        ({"experiment": "simulate", "data": {"kind": "single_mode", "mode": ["x"]}}, "config.data.mode"),
        ({"experiment": "simulate", "trackers": [{"field": "u", "s": 0.5, "p": 2, "r": 1, "wndow": "low"}]},
         "config.trackers[0].wndow"),
        # not relaxation schemes: an unknown name and the limit equation's scheme
        ({"experiment": "simulate", "stepper": {"scheme": "imex_euler"}}, "config.stepper.scheme"),
        ({"experiment": "simulate", "stepper": {"scheme": "if_rk2"}}, "config.stepper.scheme"),
        # the exact propagator steps the linear system only
        ({"experiment": "simulate", "model": {"flux": "burgers1d"}, "stepper": {"scheme": "exact_linear"}},
         "config.stepper.scheme"),
        ({"experiment": "epsilon-convergence", "model": {"flux": "burgers1d"},
          "stepper": {"scheme": "exact_linear"}}, "config.stepper.scheme"),
        ({"experiment": "decay", "model": {"flux": "burgers1d"}, "stepper": {"scheme": "exact_linear"}},
         "config.stepper.scheme"),
        # JSON's NaN and Infinity: infinite only where L^inf / l^inf is meant
        ({"experiment": "simulate", "stepper": {"t_end": math.inf}}, "config.stepper.t_end"),
        ({"experiment": "simulate", "grid": {"L": math.inf}}, "config.grid.L"),
        ({"experiment": "simulate", "model": {"eps": math.inf}}, "config.model.eps"),
        ({"experiment": "simulate", "data": {"v_scale": math.nan}}, "config.data.v_scale"),
        ({"experiment": "decay", "fit": {"sigma_list": [-math.inf]}}, "config.fit.sigma_list[0]"),
        ({"experiment": "simulate", "p": math.nan}, "config.p"),
        ({"experiment": "simulate", "trackers": [{"field": "u", "s": 0.5, "p": 2, "r": math.nan}]},
         "config.trackers[0].r"),
        ({"experiment": "simulate", "trackers": [{"field": "u", "s": math.inf, "p": 2, "r": 1}]},
         "config.trackers[0].s"),
        # booleans are JSON numbers to Python, not to the model
        ({"experiment": "simulate", "model": {"a": [True]}}, "config.model.a[0]"),
        ({"experiment": "epsilon-convergence", "model": {"eps_list": [True, 0.5, 0.25]}},
         "config.model.eps_list[0]"),
        # squared wavenumbers that underflow to 0 or overflow
        ({"experiment": "simulate", "grid": {"L": 1e300}}, "config.grid.L"),
        ({"experiment": "simulate", "grid": {"L": 1e-300}}, "config.grid.L"),
        ({"experiment": "overdamping", "grid": {"L": 1e300}}, "config.grid.L"),
        ({"experiment": "overdamping", "grid": {"L": 1e-300}}, "config.grid.L"),
        # N = 16 keeps |k| <= 5 under the 2/3 rule: the scan would start from zero data
        ({"experiment": "overdamping", "grid": {"N": 16}, "scan": {"mode": [7]}}, "config.scan.mode"),
        ({"experiment": "overdamping", "grid": {"N": 16}, "scan": {"mode": [-16]}}, "config.scan.mode"),
        # the Grid holds L = 1e154, but the scan's rate omega ~ 4e-307 puts 100/omega beyond the floats
        ({"experiment": "overdamping", "grid": {"N": 16, "L": 1e154}}, "config.grid.L"),
        # cross-field stepper rules; a single-eps simulate run samples t_end / sample_every intervals
        ({"experiment": "simulate", "stepper": {"dt_min": 0.1, "dt_max": 0.05}}, "config.stepper.dt_min"),
        ({"experiment": "simulate", "stepper": {"sample_every": 5, "t_end": 1}}, "config.stepper.sample_every"),
        # the flux builds under config.model, with the model's n and d
        ({"experiment": "simulate", "model": {"flux": "polynomial", "terms": [1]}}, "config.model.terms"),
        ({"experiment": "simulate", "model": {"flux": "polynomial", "terms": [{"direction": 0}]}},
         "config.model.terms"),
        ({"experiment": "simulate", "model": {"flux": "polynomial", "terms": [
            {"direction": 0, "component": 0, "exponents": [1], "coefficient": 1.0}]}}, "config.model.terms"),
        ({"experiment": "simulate", "model": {"flux": "polynomial", "n": 2, "terms": [
            {"direction": 0, "component": 0, "exponents": [3, -1], "coefficient": 1.0}]}}, "config.model.terms"),
        ({"experiment": "simulate", "model": {"flux": "burgers1d", "terms": []}}, "config.model.terms"),
        ({"experiment": "simulate", "model": {"flux": "burgers1d", "n": 3}}, "config.model.flux"),
        ({"experiment": "simulate", "model": {"flux": "burgers1d", "d": 2, "a": [1, 1]}}, "config.model.flux"),
        ({"experiment": "simulate", "model": {"flux": "burgers2d"}}, "config.model.flux"),
        ({"experiment": "simulate", "model": {"flux": "bogus"}}, "config.model.flux"),
        ({"experiment": "simulate", "model": {"n": 5}}, "config.model.n"),
        ({"experiment": "simulate", "model": {"n": 0}}, "config.model.n"),
        # the mean mode has S = 0 and no overdamping peak
        ({"experiment": "overdamping", "grid": {"N": 16}, "scan": {"mode": [0]}}, "config.scan.mode"),
        ({"experiment": "spectrum", "scan": {"mode": [0]}}, "config.scan.mode"),
        # frictions whose eps^2 or 1/eps^2 leave the floats
        ({"experiment": "overdamping", "grid": {"N": 16}, "scan": {"span": [1e-300, 4]}}, "config.scan.span"),
        ({"experiment": "spectrum", "scan": {"span": [1e-300, 4]}}, "config.scan.span"),
        ({"experiment": "overdamping", "grid": {"N": 16}, "scan": {"span": [0.5, 1e300]}}, "config.scan.span"),
        ({"experiment": "spectrum", "scan": {"span": [0.5, 1e300]}}, "config.scan.span"),
        # a finite eps^2 = 2.5e23 that asks for about 2.5e15 steps per friction
        ({"experiment": "overdamping", "grid": {"N": 16}, "scan": {"span": [1e-12, 4]}}, "config.scan.span"),
        # rejections the experiments make once the run starts, before any file is written
        ({"experiment": "decay", "grid": {"N": 64, "L": 2 * math.pi}, "fit": {"window": [1, 10]}},
         "config.fit.window"),
        ({"experiment": "decay", "data": {"sigma1": 0.5}}, "config.data.sigma1"),
        ({"experiment": "decay", "p": 4}, "config.p"),
        ({"experiment": "simulate", "model": {"eps_list": [2.0, 1.0]}, "stepper": {"t_end": 5}},
         "config.stepper.t_end"),
        ({"experiment": "simulate", "data": {"kind": "random_spectrum", "band_lo": 1e6}}, "config.data"),
        ({"experiment": "simulate", "data": {"v_kind": "ill_prepared", "v_band_hi": 1e-9}},
         "config.data.v_band_hi"),
        ({"experiment": "simulate", "model": {"eps": 0.01}, "stepper": {"dt_min": 0.01}},
         "config.stepper.dt_min"),
        ({"experiment": "decay", "data": {"kind": "random_spectrum", "ir_compensation": True},
          "fit": {"sigma_list": [-0.6], "window": [1, 10]}}, "config.fit.sigma_list"),
        # a slope in eps needs three distinct eps, checked before the first run
        ({"experiment": "epsilon-convergence", "model": {"flux": "burgers1d", "eps_list": [0.2, 0.1]},
          "grid": {"N": 64}}, "config.model.eps_list"),
        ({"experiment": "epsilon-convergence", "model": {"flux": "burgers1d", "eps_list": [0.2, 0.2, 0.2]},
          "grid": {"N": 64}}, "config.model.eps_list"),
        # one of the decay run's 48 geometric samples falls in the window, checked before stepping
        ({"experiment": "decay", "fit": {"window": [9.9, 10]}}, "config.fit.window"),
        # tracker entries are checked like every other section
        ({"experiment": "simulate", "trackers": [{"field": "u", "s": "x", "p": 2, "r": 1}]},
         "config.trackers[0].s"),
        ({"experiment": "simulate", "trackers": [{"field": "u", "s": 0.5, "p": True, "r": 1}]},
         "config.trackers[0].p"),
        ({"experiment": "simulate", "trackers": [{"field": "u", "s": 0.5, "p": 2, "r": 1, "window": 3}]},
         "config.trackers[0].window"),
        ({"experiment": "simulate", "trackers": [{"field": 7, "s": 0.5, "p": 2, "r": 1}]},
         "config.trackers[0].field"),
        # an explicit null where the section has no null
        ({"experiment": "simulate", "trackers": [{"field": "u", "s": None, "p": 2, "r": 1}]},
         "config.trackers[0].s"),
        ({"experiment": "simulate", "grid": {"N": None}}, "config.grid.N"),
        ({"experiment": "simulate", "stepper": {"cfl": None}}, "config.stepper.cfl"),
        # the seed and each data variant are checked at parse time, before any run
        ({"experiment": "simulate", "seed": -1}, "config.seed"),
        ({"experiment": "simulate", "model": {"eps_list": [0.5, 0.25]}, "data_variants": ["darcy", "bogus"]},
         "config.data_variants[1]"),
        ({"experiment": "simulate", "model": {"eps_list": [0.5, 0.25]}, "data_variants": [7]},
         "config.data_variants[0]"),
        # only a simulate eps sweep runs data variants
        ({"experiment": "simulate", "grid": {"N": 32}, "data_variants": ["ill_prepared"]}, "config.data_variants"),
        ({"experiment": "spectrum", "data_variants": ["darcy"]}, "config.data_variants"),
        # the data and stepper values InitialDataSpec and StepperConfig reject
        ({"experiment": "simulate", "data": {"kind": "bogus"}}, "config.data.kind"),
        ({"experiment": "simulate", "data": {"v_kind": "bogus"}}, "config.data.v_kind"),
        ({"experiment": "simulate", "data": {"v_scale_mode": "bogus"}}, "config.data.v_scale_mode"),
        ({"experiment": "simulate", "data": {"amplitude": 0}}, "config.data.amplitude"),
        ({"experiment": "simulate", "data": {"width": -1}}, "config.data.width"),
        ({"experiment": "simulate", "data": {"v_band_hi": 0}}, "config.data.v_band_hi"),
        ({"experiment": "simulate", "stepper": {"cfl": 2}}, "config.stepper.cfl"),
        ({"experiment": "simulate", "stepper": {"dt_max": 0}}, "config.stepper.dt_max"),
        ({"experiment": "simulate", "stepper": {"t_end": 0}}, "config.stepper.t_end"),
        ({"experiment": "simulate", "stepper": {"sample_every": 0}}, "config.stepper.sample_every"),
        # an empty eps sweep has no eps to run
        ({"experiment": "simulate", "model": {"eps_list": []}}, "config.model.eps_list"),
        ({"experiment": "epsilon-convergence", "model": {"eps_list": []}}, "config.model.eps_list"),
        # make_flux checks the model's sizes before the flux id and the terms
        ({"experiment": "simulate", "model": {"flux": "burgers1d", "n": 5}}, "config.model.n"),
        ({"experiment": "simulate", "model": {"flux": "polynomial", "n": 5, "terms": [{"direction": 0}]}},
         "config.model.n"),
        ({"experiment": "simulate", "model": {"flux": "bogus", "n": 0}}, "config.model.n"),
        # checked_velocities checks each a_i, then one a per dimension
        ({"experiment": "simulate", "model": {"a": [1, 2]}}, "config.model.a"),
        ({"experiment": "simulate", "model": {"a": [0]}}, "config.model.a[0]"),
        # Grid checks d, N and L and is built before the flux, so d = 3 is not reported as a wrong-sized a
        ({"experiment": "simulate", "grid": {"N": 12}}, "config.grid.N"),
        ({"experiment": "simulate", "grid": {"N": 4}}, "config.grid.N"),
        ({"experiment": "simulate", "model": {"d": 3}}, "config.model.d"),
        ({"experiment": "simulate", "model": {"d": 0}}, "config.model.d"),
        ({"experiment": "simulate", "grid": {"L": -1}}, "config.grid.L"),
        ({"experiment": "simulate", "grid": {"L": 0}}, "config.grid.L"),
        ({"experiment": "simulate", "grid": {"L": 10**400}}, "config.grid.L"),
        ({"experiment": "simulate", "grid": {"N": 2**1100}}, "config.grid.N"),
    ])
    def test_main_malformed_config_lists(self, tmp_path, capsys, tree, path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps(tree))
        # a rejected config ends in its one error line, with no numpy warning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["run", "--config", str(p), "--out", str(tmp_path / "runs")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and "Traceback" not in err
        assert not (tmp_path / "runs").exists()

    def test_main_steep_quadratic_flux_runs(self, tmp_path):
        # 150 u^2 has no constant or linear part, so it runs however large its coefficient
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"experiment": "simulate", "grid": {"N": 32}, "stepper": {"t_end": 1},
                                 "model": {"flux": "polynomial", "terms": [
                                     {"direction": 0, "component": 0, "exponents": [2], "coefficient": 150}]}}))
        assert main(["run", "--config", str(p), "--out", str(tmp_path / "runs")]) == 0
        (rundir,) = (tmp_path / "runs").iterdir()
        assert (rundir / "fits.json").is_file()

    @pytest.mark.parametrize("preset", ["spectrum", "selftest"])
    def test_main_negative_seed_flag(self, tmp_path, capsys, preset):
        rc = main(["run", "--preset", preset, "--seed", "-1", "--out", str(tmp_path / "runs")])
        assert rc == 2
        assert capsys.readouterr().err == "error: config.seed: must be a non-negative integer, got -1\n"
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("tree", [
        {"experiment": "simulate", "grid": {"N": 2**40}},  # 8 TiB of grid coordinates
        {"experiment": "simulate", "grid": {"N": 16}, "stepper": {"t_end": 1e12, "sample_every": 1e-3}},
    ])
    def test_main_oversized_run_is_an_error(self, tmp_path, capsys, tree):
        # numpy refuses these sizes before it touches memory
        p = tmp_path / "c.json"
        p.write_text(json.dumps(tree))
        assert main(["run", "--config", str(p), "--out", str(tmp_path / "runs")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
        assert "config.grid.N" in err and "config.stepper.t_end" in err
        assert not (tmp_path / "runs").exists()

    def test_main_seed_flag_replaces_the_file_seed(self, tmp_path, monkeypatch):
        # the file is parsed once, after --seed replaces its seed, so an invalid seed there is no error
        from relaxlab import cli
        calls = []
        monkeypatch.setattr(cli, "parse_config_dict", lambda tree: calls.append(tree) or parse_config_dict(tree))
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"experiment": "spectrum", "seed": -1}))
        assert main(["run", "--config", str(p), "--seed", "3", "--out", str(tmp_path / "runs")]) == 0
        assert calls == [{"experiment": "spectrum", "seed": 3}]
        (rundir,) = (tmp_path / "runs").iterdir()
        assert json.loads((rundir / "config.json").read_text())["seed"] == 3

    def test_main_overdamping_default_span_on_fine_grid_runs(self, tmp_path, capsys):
        # about 1.28M steps at 1/eps = 0.5 and a 1.28M x 21 energy table (215 MB):
        # long, but it fits in memory, so the scan runs
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"experiment": "overdamping", "grid": {"N": 1024}}))
        assert main(["run", "--config", str(p), "--out", str(tmp_path / "runs")]) == 0
        assert "over 21 frictions" in capsys.readouterr().out

    def test_main_divergence_is_an_error(self, tmp_path, capsys):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"experiment": "simulate", "model": {"flux": "burgers1d"},
                                 "grid": {"N": 64}, "data": {"amplitude": 1e6},
                                 "stepper": {"t_end": 1}}))
        # the overflow on the way to the finiteness check must not warn
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["run", "--config", str(p), "--out", str(tmp_path / "runs")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: non-finite values in state at t=") and "Traceback" not in err
        assert err.count("\n") == 1 and err.endswith("\n")

    def test_overdamping_exact_linear_with_any_model_flux(self, tmp_path):
        # the scan steps the zero flux whatever model.flux names
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"experiment": "overdamping", "model": {"flux": "burgers1d"},
                                 "grid": {"N": 16}, "scan": {"points": 3},
                                 "stepper": {"scheme": "exact_linear"}}))
        assert main(["run", "--config", str(p), "--out", str(tmp_path / "runs")]) == 0

    def test_spectrum_honours_scan_points_and_span(self, tmp_path):
        # default grid L = 32 pi and mode 1: S = 1/256, the peak 1/eps = 2 sqrt(S) = 0.125
        cfg, h = parse_config_dict({"experiment": "spectrum", "scan": {"points": 5, "span": [0.5, 2.0]}})
        assert dispatch(cfg, h, out_dir=str(tmp_path)) == 0
        rows = json.loads((tmp_path / h / "fits.json").read_text())["rows"]
        inv = [r["inv_eps"] for r in rows]
        assert len(rows) in (5, 6) and inv == sorted(inv)
        assert inv[0] == pytest.approx(0.0625) and inv[-1] == pytest.approx(0.25)
        assert 0.125 in inv
        assert {"low", "high"} <= {r["regime"] for r in rows}

    @pytest.mark.parametrize("jobs", ["0", "-3", "abc", "1.5"])
    def test_main_bad_jobs_flag(self, tmp_path, capsys, jobs):
        rc = main(["run", "--preset", "selftest", "--jobs", jobs, "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --jobs: ") and repr(jobs) in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("jobs", ["abc", "0", "-3", ""])
    def test_main_bad_jobs_env(self, tmp_path, capsys, monkeypatch, jobs):
        monkeypatch.setenv("RELAXLAB_JOBS", jobs)
        rc = main(["run", "--preset", "selftest", "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: RELAXLAB_JOBS: ") and "Traceback" not in err

    def test_decay_honours_v_scale_mode(self, tmp_path, monkeypatch):
        seen = {}

        def record(grid, flux, a, eps, data, *args, **kwargs):
            seen["data"] = data
            raise RuntimeError("recorded")

        monkeypatch.setattr(harness, "run_decay_study", record)
        for mode in ("fixed", "inv_eps2"):
            cfg, h = parse_config_dict({"experiment": "decay", "data": {
                "v_kind": "ill_prepared", "v_scale": 0.1, "v_scale_mode": mode}})
            with pytest.raises(RuntimeError, match="recorded"):
                dispatch(cfg, h, out_dir=str(tmp_path))
            assert seen["data"].v_scale_mode == mode

    @staticmethod
    def _ill_prepared(mode, **model):
        return {"experiment": "simulate", "model": {"flux": "burgers1d", **model},
                "grid": {"N": 32, "L": 8 * math.pi},
                "data": {"v_kind": "ill_prepared", "v_scale": 0.1, "v_scale_mode": mode},
                "stepper": {"t_end": 3.0, "sample_every": 0.5},
                "trackers": [{"field": "v", "s": 0.0, "p": 2, "r": 1}]}

    def test_simulate_honours_v_scale_mode(self, tmp_path):
        # at eps = 0.5, inv_eps starts v at twice the fixed scale
        v0 = {}
        for mode in ("fixed", "inv_eps"):
            cfg, h = parse_config_dict(self._ill_prepared(mode, eps=0.5))
            assert dispatch(cfg, h, out_dir=str(tmp_path)) == 0
            rows = (tmp_path / h / "norms.csv").read_text().splitlines()[1:]
            v0[mode] = float(next(r for r in rows if r.startswith("0.0,v,")).split(",")[-1])
        assert v0["inv_eps"] == pytest.approx(2.0 * v0["fixed"], rel=1e-12)

    def test_uniformity_sweep_honours_v_scale_mode(self, tmp_path):
        # v_scale 0.1 at inv_eps is v_scale 0.1/eps at fixed, eps by eps
        def sweep_rows(mode, v_scale, eps_list):
            tree = self._ill_prepared(mode, eps_list=eps_list)
            tree["data"]["v_scale"] = v_scale
            cfg, h = parse_config_dict(tree)
            assert dispatch(cfg, h, out_dir=str(tmp_path)) == 0
            fits = json.loads((tmp_path / h / "fits.json").read_text())
            return fits["variants"]["ill_prepared"]["rows"]

        scaled = sweep_rows("inv_eps", 0.1, [0.5, 0.25])
        assert scaled[0] == sweep_rows("fixed", 0.2, [0.5])[0]
        assert scaled[1] == sweep_rows("fixed", 0.4, [0.25])[0]
        assert scaled != sweep_rows("fixed", 0.1, [0.5, 0.25])

    def test_spectrum_accepts_mode_beyond_cut(self, tmp_path):
        cfg, h = parse_config_dict({"experiment": "spectrum", "grid": {"N": 16, "L": 2 * math.pi},
                                    "scan": {"mode": [7], "points": 3}})
        assert dispatch(cfg, h, out_dir=str(tmp_path)) == 0

    def test_overdamping_nan_rate_fails(self, tmp_path, monkeypatch):
        nan = float("nan")

        def nan_scan(*args, **kwargs):
            fits = {"rows": [{}], "worst_rel_err": nan, "S": 1.0,
                    "peak": {"omega_measured": nan, "target": 2.0}}
            return {"fits": fits, "norm_rows": [], "csv_curves": None}

        monkeypatch.setattr(harness, "run_overdamping_scan", nan_scan)
        cfg, h = parse_config_dict({"experiment": "overdamping", "grid": {"N": 16, "L": 2 * math.pi},
                                    "scan": {"points": 3}})
        assert dispatch(cfg, h, out_dir=str(tmp_path)) == 1

    def test_main_jobs_flag_overrides_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RELAXLAB_JOBS", "abc")
        assert main(["run", "--preset", "selftest", "--jobs", "2", "--out", str(tmp_path)]) == 0


class TestPlotEmit:
    def test_two_column_monotone(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("x,y\n1.0,10.0\n2.0,5.0\n4.0,2.5\n8.0,1.25\n")
        out = plot_emit(str(p), "loglog")
        svg = open(out).read()
        assert svg.count("<polyline") == 1
        assert "<svg" in svg and "</svg>" in svg

    def test_overlay_two_series(self, tmp_path):
        p = tmp_path / "over.csv"
        p.write_text("inv_eps,omega_measured,omega_analytic\n1,0.5,0.5\n2,2.0,2.0\n4,1.07,1.07\n")
        svg = open(plot_emit(str(p), "loglog")).read()
        assert svg.count("<polyline") == 2

    def test_empty_csv_rejected(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("x,y\n")
        with pytest.raises(ValueError, match="empty"):
            plot_emit(str(p))

    def test_malformed_row_rejected(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("x,y\n1.0\n")
        with pytest.raises(ValueError, match="malformed"):
            plot_emit(str(p))

    def test_main_missing_csv(self, tmp_path, capsys):
        p = tmp_path / "missing.csv"
        assert main(["plot", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(p) in err and "Traceback" not in err

    def test_main_no_numeric_pair(self, tmp_path, capsys):
        p = tmp_path / "labels.csv"
        p.write_text("inv_eps,regime\n1.0,low\n2.0,high\n")
        assert main(["plot", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "two numeric columns" in err

    def test_run_curves_svg_is_the_plot_of_its_curves_csv(self, tmp_path):
        cfg, h = parse_config_dict(json.loads(json.dumps(PRESETS["spectrum"])))
        assert dispatch(cfg, h, out_dir=str(tmp_path)) == 0
        run = tmp_path / h
        # the regime column is text, which the plot leaves out
        assert (run / "curves.csv").read_text().startswith("inv_eps,omega,regime\n")
        replot = plot_emit(str(run / "curves.csv"), "loglog", str(tmp_path / "replot.svg"))
        assert (run / "curves.svg").read_text() == open(replot).read()

    def test_deterministic_bytes(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("x,y\n1.0,3.0\n2.0,1.5\n4.0,0.75\n8.0,0.375\n")
        s1 = open(plot_emit(str(p), "loglog", str(tmp_path / "a.svg"))).read()
        s2 = open(plot_emit(str(p), "loglog", str(tmp_path / "b.svg"))).read()
        assert s1 == s2
