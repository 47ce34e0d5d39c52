import json

import pytest

from relaxlab import harness
from relaxlab.cli import (
    PRESETS,
    ConfigError,
    dispatch,
    main,
    parse_config,
    parse_config_dict,
    plot_emit,
    serialize_config,
)


class TestParseConfig:
    def test_minimal_spectrum_defaults_and_stable_hash(self):
        tree = {"experiment": "spectrum", "model": {"a": [1], "eps": 1, "d": 1}}
        cfg, h1 = parse_config_dict(tree)
        assert cfg["grid"]["N"] == 256
        assert cfg["stepper"]["scheme"] == "imex_ssp2"
        assert cfg["seed"] == 0
        _, h2 = parse_config_dict({"experiment": "spectrum", "model": {"a": [1], "eps": 1, "d": 1}})
        assert h1 == h2

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

    def test_roundtrip(self, tmp_path):
        cfg, h = parse_config_dict(PRESETS["thm2-epsilon"])
        path = tmp_path / "cfg.json"
        path.write_text(serialize_config(cfg))
        cfg2, h2 = parse_config(path)
        assert cfg2 == cfg and h2 == h

    def test_all_presets_parse(self):
        for name, tree in PRESETS.items():
            cfg, h = parse_config_dict(json.loads(json.dumps(tree)))
            assert len(h) == 16, name

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
    ])
    def test_main_malformed_config_lists(self, tmp_path, capsys, tree, path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps(tree))
        rc = main(["run", "--config", str(p), "--out", str(tmp_path / "runs")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and "Traceback" not in err
        assert not (tmp_path / "runs").exists()

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

        def record(*args, **kwargs):
            seen.update(kwargs)
            raise RuntimeError("recorded")

        monkeypatch.setattr(harness, "run_decay_study", record)
        for mode in ("fixed", "inv_eps2"):
            cfg, h = parse_config_dict({"experiment": "decay", "data": {
                "v_kind": "ill_prepared", "v_scale": 0.1, "v_scale_mode": mode}})
            with pytest.raises(RuntimeError, match="recorded"):
                dispatch(cfg, h, out_dir=str(tmp_path))
            assert seen["v_scale_mode"] == mode

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

    def test_deterministic_bytes(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("x,y\n1.0,3.0\n2.0,1.5\n4.0,0.75\n8.0,0.375\n")
        s1 = open(plot_emit(str(p), "loglog", str(tmp_path / "a.svg"))).read()
        s2 = open(plot_emit(str(p), "loglog", str(tmp_path / "b.svg"))).read()
        assert s1 == s2
