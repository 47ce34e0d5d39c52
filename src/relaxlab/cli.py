"""Operator surface: config ingestion, experiment dispatch, result files.

Config files are JSON trees validated against an explicit schema: unknown
keys are rejected, defaults are filled, and the canonicalized tree is hashed
so identical configs land in identical run directories.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import re
import sys

from . import harness
from .harness import InitialDataSpec, StepperConfig, write_results
from .integrators import JINXIN_SCHEMES
from .models import MAX_COMPONENTS, DivergenceError, make_flux
from .spectral_analysis import mode_symbol
from .spectral_core import Grid
from .svgplot import render_csv

__all__ = ["parse_config", "parse_config_dict", "dispatch", "plot_emit", "PRESETS", "main"]

EXPERIMENTS = ("simulate", "epsilon-convergence", "decay", "overdamping", "spectrum", "selftest")


class ConfigError(ValueError):
    pass


def _positive(path, v):
    if not v > 0:
        raise ConfigError(f"{path}: must be positive (the model assumes a_i > 0, eps > 0), got {v}")


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _increasing_pair(path, v):
    if not (len(v) == 2 and all(_is_number(x) and math.isfinite(x) for x in v) and 0 < v[0] < v[1]):
        _fail(path, f"need two increasing positive numbers, got {v!r}")


def _finite_numbers(path, v):
    """No NaN anywhere, and +-inf only in the exponents that may be infinite
    (L^inf and l^inf): top-level p and tracker p and r."""
    if isinstance(v, dict):
        for key, x in v.items():
            _finite_numbers(f"{path}.{key}", x)
    for i, x in enumerate(v if isinstance(v, list) else ()):
        _finite_numbers(f"{path}[{i}]", x)
    if isinstance(v, float) and (math.isnan(v) or math.isinf(v) and not _MAY_BE_INFINITE.fullmatch(path)):
        _fail(path, f"must be a finite number (p and tracker p, r may be inf), got {v!r}")


def _numbers(path, v):
    if not (v and all(_is_number(x) for x in v)):
        _fail(path, f"need a non-empty list of numbers, got {v!r}")


# schema: name -> (type(s), default, validator or None)
_MODEL_SCHEMA = {
    "flux": ((str,), "zero", None),
    "n": ((int,), 1, lambda p, v: 1 <= v <= MAX_COMPONENTS or _fail(p, f"need 1 <= n <= {MAX_COMPONENTS}, got {v}")),
    "d": ((int,), 1, lambda p, v: v in (1, 2) or _fail(p, "d must be 1 or 2")),
    "a": ((list,), [1.0], None),
    "eps": ((int, float, type(None)), None, None),
    "eps_list": ((list, type(None)), None, None),
    "terms": ((list, type(None)), None, None),
}
_GRID_SCHEMA = {
    "N": ((int,), 256, lambda p, v: (v >= 8 and (v & (v - 1)) == 0) or _fail(p, "N must be a power of two >= 8")),
    "L": ((int, float), 2 * math.pi * 16, lambda p, v: _positive(p, v)),
}
_DATA_SCHEMA = {
    "kind": ((str,), "gaussian_bump",
             lambda p, v: v in ("gaussian_bump", "random_spectrum", "single_mode") or _fail(p, f"unknown kind {v!r}")),
    "amplitude": ((int, float), 0.05, lambda p, v: _positive(p, v)),
    "width": ((int, float), 2.0, lambda p, v: _positive(p, v)),
    "carrier": ((int, float), 0.0, None),
    "sigma1": ((int, float), -0.5, None),
    "mode": ((list,), [1], None),
    "band_lo": ((int, float), 0.0, None),
    "band_hi": ((int, float, type(None)), None, None),
    "ir_compensation": ((bool,), False, None),
    "v_kind": ((str,), "darcy",
               lambda p, v: v in ("darcy", "ill_prepared", "zero") or _fail(p, f"unknown v_kind {v!r}")),
    "v_scale": ((int, float), 0.0, None),
    "v_scale_mode": ((str,), "fixed",
                     lambda p, v: v in ("fixed", "inv_eps", "inv_eps2") or _fail(p, f"unknown v_scale_mode {v!r}")),
    "v_band_hi": ((int, float), 1.0, lambda p, v: _positive(p, v)),
}
_STEPPER_SCHEMA = {
    # every experiment steps a relaxation system (a limit companion runs if_rk2)
    "scheme": ((str,), "imex_ssp2",
               lambda p, v: v in JINXIN_SCHEMES or _fail(p, f"must be one of {JINXIN_SCHEMES}, got {v!r}")),
    "cfl": ((int, float), 0.45, lambda p, v: (0 < v <= 1) or _fail(p, "cfl must lie in (0, 1]")),
    "dt_max": ((int, float), 0.05, lambda p, v: _positive(p, v)),
    "dt_min": ((int, float), 1e-12, lambda p, v: _positive(p, v)),
    "t_end": ((int, float), 1.0, lambda p, v: _positive(p, v)),
    "sample_every": ((int, float), 0.1, lambda p, v: _positive(p, v)),
}
_FIT_SCHEMA = {
    "window": ((list,), [1.0, 10.0], _increasing_pair),
    "sigma_list": ((list,), [0.0], _numbers),
    "with_difference": ((bool,), False, None),
    "compare_half_eps": ((bool,), False, None),
}
_SCAN_SCHEMA = {
    "mode": ((list,), [1], None),
    "points": ((int,), 20, lambda p, v: _positive(p, v)),
    "span": ((list,), [0.5, 4.0], _increasing_pair),
}
_TOP_SCHEMA = {
    "experiment": ((str,), None, lambda p, v: v in EXPERIMENTS or _fail(p, f"must be one of {EXPERIMENTS}")),
    "seed": ((int,), 0, None),
    "k0": ((int,), 0, None),
    "p": ((int, float), 2, lambda p, v: v > 0 or _fail(p, f"must be positive, got {v!r}")),
    "jobs": ((int,), 1, lambda p, v: _positive(p, v)),
    "model": ((dict,), {}, None),
    "grid": ((dict,), {}, None),
    "data": ((dict,), {}, None),
    "stepper": ((dict,), {}, None),
    "fit": ((dict,), {}, None),
    "scan": ((dict,), {}, None),
    "trackers": ((list,), [], None),
    "data_variants": ((list, type(None)), None, None),
}


_TRACKER_KEYS = {"field", "s", "p", "r", "window"}
_MAY_BE_INFINITE = re.compile(r"config\.p|config\.trackers\[\d+\]\.[pr]")


def _fail(path, msg):
    raise ConfigError(f"{path}: {msg}")


def _mode(path, mode, d):
    """An integer wavevector of d entries."""
    if len(mode) != d or not all(isinstance(k, int) and not isinstance(k, bool) for k in mode):
        _fail(path, f"need d={d} integers, got {mode!r}")


def _check_flux(m: dict):
    """The model's flux builds, with the model's n and d."""
    if m["terms"] is not None and m["flux"] != "polynomial":
        _fail("config.model.terms", f"only the polynomial flux takes terms, got flux {m['flux']!r}")
    try:
        flux = make_flux(m["flux"], m["n"], m["d"], m["terms"])
    except ValueError as e:
        _fail("config.model.terms" if m["terms"] else "config.model.flux", str(e))
    if (flux.n, flux.d) != (m["n"], m["d"]):
        _fail("config.model.flux", f"{m['flux']} has n={flux.n}, d={flux.d}; "
              f"the model says n={m['n']}, d={m['d']}")


def _check_scan(scan: dict, S: float):
    """Frictions 1/eps whose squares and those of eps stay positive floats.

    harness.friction_grid spans min(span[0], 1) to max(span[1], 1) times the
    peak 2 sqrt(S); the squares are monotone, so its two ends decide.
    """
    if not S > 0:
        _fail("config.scan.mode", f"the scanned mode has S = {S:g}; the mean mode has no overdamping peak")
    peak = 2 * math.sqrt(S)
    for inv_eps in (min(scan["span"][0], 1) * peak, max(scan["span"][1], 1) * peak):
        eps = 1.0 / inv_eps if inv_eps > 0 else math.inf
        if not all(0.0 < x * x < math.inf for x in (inv_eps, eps)):
            _fail("config.scan.span", f"the friction 1/eps = {inv_eps:g} of S = {S:g} puts eps^2 "
                  "or 1/eps^2 outside the floats; use a narrower span")


def _validate_section(tree: dict, schema: dict, path: str) -> dict:
    if not isinstance(tree, dict):
        raise ConfigError(f"{path}: expected an object, got {type(tree).__name__}")
    for key in tree:
        if key not in schema:
            raise ConfigError(f"{path}.{key}: unknown key (allowed: {sorted(schema)})")
    out = {}
    for key, (types, default, check) in schema.items():
        val = tree.get(key, default)
        if isinstance(val, bool) and bool not in types:
            raise ConfigError(f"{path}.{key}: expected {types}, got bool")
        if val is not None and not isinstance(val, types):
            raise ConfigError(f"{path}.{key}: expected one of {[t.__name__ for t in types]}, "
                              f"got {type(val).__name__}")
        if check is not None and val is not None:
            check(f"{path}.{key}", val)
        out[key] = val
    return out


def parse_config_dict(tree: dict) -> tuple:
    """Validate a config tree, fill defaults, return (config, hash)."""
    _finite_numbers("config", tree)
    cfg = _validate_section(tree, _TOP_SCHEMA, "config")
    if cfg["experiment"] is None:
        raise ConfigError("config.experiment: required")
    cfg["model"] = _validate_section(cfg["model"], _MODEL_SCHEMA, "config.model")
    cfg["grid"] = _validate_section(cfg["grid"], _GRID_SCHEMA, "config.grid")
    cfg["data"] = _validate_section(cfg["data"], _DATA_SCHEMA, "config.data")
    cfg["stepper"] = _validate_section(cfg["stepper"], _STEPPER_SCHEMA, "config.stepper")
    cfg["fit"] = _validate_section(cfg["fit"], _FIT_SCHEMA, "config.fit")
    cfg["scan"] = _validate_section(cfg["scan"], _SCAN_SCHEMA, "config.scan")

    m = cfg["model"]
    for i, ai in enumerate(m["a"]):
        if not (_is_number(ai) and ai > 0):
            raise ConfigError(f"config.model.a[{i}]: a_i > 0 is required by the relaxation model, got {ai}")
    if len(m["a"]) != m["d"]:
        raise ConfigError(f"config.model.a: need d={m['d']} entries, got {len(m['a'])}")
    _check_flux(m)
    if m["eps"] is not None and not m["eps"] > 0:
        raise ConfigError("config.model.eps: must be positive")
    if m["eps_list"] is not None:
        if cfg["experiment"] in ("decay", "overdamping", "spectrum", "selftest"):
            raise ConfigError(
                f"config.model.eps_list: {cfg['experiment']} is a single-eps experiment; use model.eps")
        for i, e in enumerate(m["eps_list"]):
            if not (_is_number(e) and e > 0):
                raise ConfigError(f"config.model.eps_list[{i}]: must be a positive number, got {e!r}")
    if cfg["experiment"] in ("simulate", "decay") and m["eps"] is None and m["eps_list"] is None:
        cfg["model"]["eps"] = 1.0
    st = cfg["stepper"]
    if st["dt_min"] > st["dt_max"]:
        _fail("config.stepper.dt_min", f"need dt_min <= dt_max, got {st['dt_min']!r} > {st['dt_max']!r}")
    if cfg["experiment"] == "simulate" and m["eps_list"] is None and not st["t_end"] / st["sample_every"] > 0.5:
        # a single-eps simulate run samples t_end in round(t_end / sample_every) intervals
        _fail("config.stepper.sample_every", f"t_end / sample_every = {st['t_end']!r} / "
              f"{st['sample_every']!r} rounds to no sampling interval; need at least 2 time samples")
    if cfg["experiment"] == "epsilon-convergence" and m["eps_list"] is None:
        cfg["model"]["eps_list"] = [0.2, 0.1, 0.05, 0.025]
    if (cfg["experiment"] in ("simulate", "epsilon-convergence", "decay")
            and cfg["stepper"]["scheme"] == "exact_linear" and m["flux"] != "zero"):
        # the overdamping scan always steps the zero flux, whatever model.flux says
        raise ConfigError(f"config.stepper.scheme: exact_linear applies to the linear system "
                          f"(model.flux zero) only, got model.flux {m['flux']!r}")
    if cfg["experiment"] in ("overdamping", "spectrum"):
        _mode("config.scan.mode", cfg["scan"]["mode"], m["d"])
    if cfg["experiment"] == "overdamping" and any(3 * abs(k) > cfg["grid"]["N"] for k in cfg["scan"]["mode"]):
        _fail("config.scan.mode", f"the stepped scan needs |k_i| <= N/3, the 2/3-rule cut; got {cfg['scan']['mode']}")
    try:
        Grid(m["d"], cfg["grid"]["N"], float(cfg["grid"]["L"]))
    except (ValueError, OverflowError) as e:
        _fail("config.grid.L", str(e))
    if cfg["experiment"] in ("overdamping", "spectrum"):
        _check_scan(cfg["scan"], mode_symbol(tuple(2 * math.pi * k / float(cfg["grid"]["L"])
                                                   for k in cfg["scan"]["mode"]), m["a"]))
    if cfg["data"]["kind"] == "single_mode":
        _mode("config.data.mode", cfg["data"]["mode"], m["d"])
    for i, t in enumerate(cfg["trackers"]):
        path = f"config.trackers[{i}]"
        if not isinstance(t, dict) or not {"field", "s", "p", "r"} <= set(t):
            raise ConfigError(f"{path}: need keys field, s, p, r (optional window)")
        unknown = sorted(set(t) - _TRACKER_KEYS)
        if unknown:
            raise ConfigError(f"{path}.{unknown[0]}: unknown key (allowed: {sorted(_TRACKER_KEYS)})")
        if t["field"] not in ("u", "v", "z", "Z"):
            raise ConfigError(f"{path}.field: must be u, v, z or Z, got {t['field']!r}")
        for key in ("s", "p", "r"):
            if not _is_number(t[key]):
                raise ConfigError(f"{path}.{key}: must be a number, got {t[key]!r}")
        for key in ("p", "r"):
            if not t[key] > 0:
                raise ConfigError(f"{path}.{key}: must be positive, got {t[key]!r}")
        if t.get("window", "full") not in ("full", "low", "high"):
            raise ConfigError(f"{path}.window: must be full, low or high")

    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return cfg, hashlib.sha256(canon.encode()).hexdigest()[:16]


def parse_config(path: str) -> tuple:
    try:
        fh = open(path)
    except OSError as e:
        raise ConfigError(f"{path}: cannot read the config file ({e.strerror})") from e
    with fh:
        try:
            tree = json.load(fh)
        except json.JSONDecodeError as e:
            raise ConfigError(f"{path}: invalid JSON ({e})") from e
    return parse_config_dict(tree)


# ---------------------------------------------------------------------------
# presets

PRESETS: dict = {
    "selftest": {"experiment": "selftest"},
    "fig1-overdamping": {
        "experiment": "overdamping",
        "model": {"flux": "zero", "n": 1, "d": 1, "a": [1.0]},
        "grid": {"N": 16, "L": 2 * math.pi},
        "scan": {"mode": [1], "points": 20, "span": [0.5, 4.0]},
        "stepper": {"scheme": "imex_ssp2", "cfl": 0.3},
    },
    "spectrum": {
        "experiment": "spectrum",
        "model": {"flux": "zero", "n": 1, "d": 1, "a": [1.0], "eps": 1.0},
        "grid": {"N": 16, "L": 2 * math.pi},
        "scan": {"mode": [1], "points": 41, "span": [0.25, 4.0]},
    },
    "thm1-uniform": {
        "experiment": "simulate",
        "model": {"flux": "burgers1d", "n": 1, "d": 1, "a": [1.0],
                  "eps_list": [1.0, 0.5, 0.1, 0.02]},
        "grid": {"N": 1024, "L": 32 * math.pi},
        "data": {"kind": "gaussian_bump", "amplitude": 0.05, "width": 4.0, "carrier": 3.0,
                 "v_kind": "darcy", "v_scale": 0.02, "v_band_hi": 1.0},
        "data_variants": ["darcy", "ill_prepared"],
        "stepper": {"scheme": "imex_ssp2", "cfl": 0.45, "dt_max": 0.02, "t_end": 50.0},
    },
    "thm2-epsilon": {
        "experiment": "epsilon-convergence",
        "model": {"flux": "burgers1d", "n": 1, "d": 1, "a": [1.0],
                  "eps_list": [0.2, 0.1, 0.05, 0.025]},
        "grid": {"N": 512, "L": 32 * math.pi},
        "data": {"kind": "gaussian_bump", "amplitude": 0.05, "width": 2.0,
                 "v_kind": "ill_prepared", "v_scale": 0.3, "v_scale_mode": "inv_eps",
                 "v_band_hi": 1.0},
        "stepper": {"scheme": "imex_ssp2", "cfl": 0.45, "dt_max": 0.02,
                    "t_end": 20.0, "sample_every": 0.25},
    },
    "thm3-decay-1d": {
        "experiment": "decay",
        "model": {"flux": "burgers1d", "n": 1, "d": 1, "a": [1.0], "eps": 0.1},
        "grid": {"N": 4096, "L": 200 * math.pi},
        "data": {"kind": "random_spectrum", "amplitude": 0.02, "sigma1": -0.5,
                 "ir_compensation": True, "v_kind": "darcy"},
        "stepper": {"scheme": "imex_ssp2", "cfl": 0.45, "dt_max": 0.05},
        "fit": {"window": [5.0, 500.0], "sigma_list": [0.0]},
    },
    "thm3-decay-2d": {
        "experiment": "decay",
        "model": {"flux": "burgers2d", "n": 2, "d": 2, "a": [1.0, 1.0], "eps": 0.05},
        "grid": {"N": 256, "L": 64 * math.pi},
        "data": {"kind": "random_spectrum", "amplitude": 0.04, "sigma1": -1.0,
                 "ir_compensation": True, "v_kind": "ill_prepared", "v_scale": 0.1,
                 "v_scale_mode": "inv_eps", "v_band_hi": 1.0},
        "stepper": {"scheme": "imex_ssp2", "cfl": 0.45, "dt_max": 0.05},
        "fit": {"window": [4.0, 50.0], "sigma_list": [0.0],
                "with_difference": True, "compare_half_eps": True},
    },
}


# ---------------------------------------------------------------------------
# dispatch

def _build_common(cfg: dict):
    m = cfg["model"]
    grid = Grid(m["d"], cfg["grid"]["N"], float(cfg["grid"]["L"]))
    flux = make_flux(m["flux"], m["n"], m["d"], m["terms"])
    d = cfg["data"]
    data = InitialDataSpec(
        kind=d["kind"], amplitude=float(d["amplitude"]), width=float(d["width"]),
        carrier=float(d["carrier"]), sigma1=float(d["sigma1"]), seed=cfg["seed"],
        mode=tuple(d["mode"]), band_lo=float(d["band_lo"]),
        band_hi=float(d["band_hi"]) if d["band_hi"] is not None else math.inf,
        ir_compensation=d["ir_compensation"],
        ir_sigma_fit=float(cfg["fit"]["sigma_list"][0]),
        ir_t_hi=float(cfg["fit"]["window"][1]),
        v_kind=d["v_kind"], v_scale=float(d["v_scale"]), v_scale_mode=d["v_scale_mode"],
        v_band_hi=float(d["v_band_hi"]),
    )
    s = cfg["stepper"]
    stepper = StepperConfig(scheme=s["scheme"], cfl=float(s["cfl"]), dt_max=float(s["dt_max"]),
                            dt_min=float(s["dt_min"]), t_end=float(s["t_end"]),
                            sample_every=float(s["sample_every"]))
    return grid, flux, tuple(float(x) for x in m["a"]), data, stepper


def dispatch(cfg: dict, cfg_hash: str, out_dir: str = "runs", jobs: int | None = None) -> int:
    """Run the configured experiment; write artifacts; return exit status."""
    jobs = jobs or cfg["jobs"]
    exp = cfg["experiment"]
    m = cfg["model"]
    failures = []
    if exp != "selftest":
        grid, flux, a, data, stepper = _build_common(cfg)

    if exp == "selftest":
        result = harness.run_selftest(seed=cfg["seed"])
        checks = result["fits"]["checks"]
        failures = [c["name"] for c in checks if not c["pass"]]
        summary = (f"selftest: {result['fits']['passed']}/{result['fits']['total']} checks passed"
                   + (f" (FAILED: {', '.join(failures)})" if failures else ""))
    elif exp == "spectrum":
        scan = cfg["scan"]
        result = harness.run_spectrum(a, mode_kappa=tuple(2 * math.pi * k / grid.L for k in scan["mode"]),
                                      points=scan["points"], span=scan["span"])
        summary = f"spectrum: {len(result['fits']['rows'])} curve points (S={result['fits']['S']:.4g})"
    elif exp == "overdamping":
        scan = cfg["scan"]
        S = mode_symbol(tuple(2 * math.pi * k / grid.L for k in scan["mode"]), a)
        inv = harness.friction_grid(S, scan["span"], scan["points"])
        try:
            result = harness.run_overdamping_scan(grid, a, tuple(scan["mode"]),
                                                  eps_grid=1.0 / inv, scheme=stepper.scheme,
                                                  cfl=min(stepper.cfl, 0.3))
        except harness.ScanRangeError as e:
            raise ConfigError(f"config.grid.L: {e}") from None
        worst = result["fits"]["worst_rel_err"]
        pk = result["fits"]["peak"]
        # written so that a NaN rate fails
        if not worst <= 0.02:
            failures.append(f"worst rate error {worst:.3%} > 2%")
        if not abs(pk["omega_measured"] - pk["target"]) <= 0.02 * pk["target"]:
            failures.append("peak rate off by more than 2%")
        summary = f"overdamping: worst rate error {worst:.3%} over {len(result['fits']['rows'])} frictions"
    elif exp == "epsilon-convergence":
        result = harness.run_epsilon_convergence(
            grid, flux, a, m["eps_list"], data, stepper, p=cfg["p"], k0=cfg["k0"], jobs=jobs)
        f = result["fits"]
        summary = ("epsilon-convergence: slopes "
                   f"sup|u-u*|: {f['fit_sup_du']['exponent']:.3f}, "
                   f"int|v-v*|: {f['fit_int_dv']['exponent']:.3f}, "
                   f"int|Z^l|: {f['fit_int_Zlow']['exponent']:.3f}")
    elif exp == "decay":
        fitc = cfg["fit"]
        result = harness.run_decay_study(
            grid, flux, a, float(m["eps"]), data, stepper, p=cfg["p"], k0=cfg["k0"],
            fit_window=tuple(fitc["window"]), sigma_list=tuple(fitc["sigma_list"]),
            with_difference=fitc["with_difference"], compare_half_eps=fitc["compare_half_eps"])
        rows = result["fits"]["rows"]
        flagged = [r for r in rows if r["low_r2"]]
        if flagged:
            failures.append(f"{len(flagged)} fits flagged low-R^2 (not power-law decay)")
        summary = "decay: " + ", ".join(
            f"sigma={r['sigma']}: {r['exponent']:.3f}" for r in rows)
        if "difference_fit" in result["fits"]:
            summary += f"; difference: {result['fits']['difference_fit']['exponent']:.3f}"
    elif exp == "simulate":
        if m["eps_list"]:
            variants = cfg["data_variants"] or [data.v_kind]
            rows_all, fits_all = [], {}
            for vk in variants:
                dv = dataclasses.replace(data, v_kind=vk)
                res = harness.run_uniformity_study(grid, flux, a, m["eps_list"], dv, stepper,
                                                   p=cfg["p"], k0=cfg["k0"], jobs=jobs)
                fits_all[vk] = res["fits"]
                if not all(r["small_data_ok"] for r in res["fits"]["rows"]):
                    failures.append(f"{vk}: |u| exceeded the small-data bound")
            result = {"fits": {"experiment": "uniformity", "variants": fits_all},
                      "norm_rows": [], "csv_curves": None}
            spreads = {vk: fits_all[vk]["ratio_spread"] for vk in fits_all}
            summary = "uniformity: X(t_end)/X0 spread across eps " + ", ".join(
                f"{vk}: {v:.3f}" for vk, v in spreads.items())
        else:
            result = harness.run_simulate(grid, flux, a, float(m["eps"]), data, stepper,
                                          cfg["trackers"], p=cfg["p"], k0=cfg["k0"],
                                          dump_fields_to=os.path.join(out_dir, cfg_hash, "fields"),
                                          config_hash=cfg_hash)
            if result["fits"]["max_abs_u"] > 1.0:
                failures.append("|u| exceeded the small-data bound")
            summary = (f"simulate: {result['fits']['steps']} steps, "
                       f"X={result['fits']['functional_X']['total']:.4g}")
    else:
        raise ConfigError(f"unknown experiment {exp!r}")

    rundir = write_results(out_dir, cfg, cfg_hash, result)
    status = 1 if failures else 0
    print(f"[{cfg_hash}] {summary} -> {rundir}" + (f" FAIL: {failures[0]}" if failures else ""))
    return status


def plot_emit(csv_path: str, kind: str = "loglog", out_path: str | None = None) -> str:
    """Render a harness CSV to a standalone SVG; returns the SVG path."""
    svg = render_csv(csv_path, kind)
    out_path = out_path or os.path.splitext(csv_path)[0] + ".svg"
    with open(out_path, "w") as fh:
        fh.write(svg)
    return out_path


def _worker_count(text: str, source: str) -> int:
    """A worker count given on the command line or in the environment."""
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise ConfigError(f"{source}: worker count must be a positive integer, got {text!r}")
    return n


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="relaxlab",
        description="Pseudo-spectral relaxation-system experiments on periodic boxes",
    )
    parser.add_argument("command", nargs="?", default="run", choices=["run", "plot"],
                        help="run an experiment (default) or plot a results CSV")
    parser.add_argument("csv", nargs="?", help="CSV path for the plot command")
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--preset", choices=sorted(PRESETS), help="named experiment preset")
    parser.add_argument("--out", default="runs", help="results directory (default: runs)")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--jobs", default=None,
                        help="worker count (fallback: RELAXLAB_JOBS, then 1)")
    parser.add_argument("--kind", default="loglog", choices=["loglog", "linear"],
                        help="plot style for the plot command")
    args = parser.parse_args(argv)

    try:
        if args.command == "plot":
            if not args.csv:
                parser.error("plot requires a CSV path")
            print(plot_emit(args.csv, args.kind))
            return 0
        if args.jobs is not None:
            jobs = _worker_count(args.jobs, "--jobs")
        elif "RELAXLAB_JOBS" in os.environ:
            jobs = _worker_count(os.environ["RELAXLAB_JOBS"], "RELAXLAB_JOBS")
        else:
            jobs = None
        if args.config:
            # validated here for path-aware errors, and again below after the
            # seed override (validation is idempotent on its own output)
            tree, _ = parse_config(args.config)
        elif args.preset:
            tree = json.loads(json.dumps(PRESETS[args.preset]))
        else:
            parser.error("need --config or --preset")
        if args.seed is not None:
            tree["seed"] = args.seed
        cfg, cfg_hash = parse_config_dict(tree)
        return dispatch(cfg, cfg_hash, out_dir=args.out, jobs=jobs)
    except (ConfigError, ValueError, DivergenceError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
