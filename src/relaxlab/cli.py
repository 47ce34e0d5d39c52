"""Operator surface: config ingestion, experiment dispatch, result files.

Config files are JSON trees validated against an explicit schema: unknown
keys are rejected, defaults are filled, and the canonicalized tree is hashed
so identical configs land in identical run directories. The data and stepper
schemas are read from the fields of InitialDataSpec and StepperConfig, which
check the values themselves; make_flux and checked_velocities check the
model's flux, n, d, terms and a.
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
from .models import ConfigError, DivergenceError, _positive, checked_velocities, make_flux
from .spectral_analysis import mode_symbol
from .spectral_core import Grid
from .svgplot import plot_emit

__all__ = ["parse_config", "parse_config_dict", "dispatch", "plot_emit", "PRESETS", "main"]

EXPERIMENTS = ("simulate", "epsilon-convergence", "decay", "overdamping", "spectrum", "selftest")


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


# the JSON types of a dataclass field's default; a tuple is a JSON list
_JSON_TYPES = {str: (str,), bool: (bool,), float: (int, float), tuple: (list,)}


def _dataclass_schema(cls, omit=()) -> dict:
    """The schema of the section that fills cls, read from its fields but omit:
    each default, the JSON types of its type and no validator (cls checks)."""
    return {f.name: (_JSON_TYPES[type(f.default)], list(f.default) if type(f.default) is tuple else f.default, None)
            for f in dataclasses.fields(cls) if f.name not in omit}


# schema: name -> (type(s), default, validator or None)
_MODEL_SCHEMA = {
    "flux": ((str,), "zero", None),
    "n": ((int,), 1, None),
    "d": ((int,), 1, None),
    "a": ((list,), [1.0], None),
    "eps": ((int, float, type(None)), None, None),
    "eps_list": ((list, type(None)), None, None),
    "terms": ((list, type(None)), None, None),
}
_GRID_SCHEMA = {"N": ((int,), 256, None), "L": ((int, float), 2 * math.pi * 16, None)}
# seed, ir_sigma_fit and ir_t_hi come from config.seed and config.fit
_DATA_SCHEMA = {**_dataclass_schema(InitialDataSpec, omit=("seed", "ir_sigma_fit", "ir_t_hi")),
                "band_hi": ((int, float, type(None)), None, None)}  # null: no upper cut
_STEPPER_SCHEMA = _dataclass_schema(StepperConfig)
_FIT_SCHEMA = {
    "window": ((list,), [1.0, 10.0], _increasing_pair),
    "sigma_list": ((list,), [0.0], _numbers),
    "with_difference": ((bool,), False, None),
    "compare_half_eps": ((bool,), False, None),
}
_SCAN_SCHEMA = {
    "mode": ((list,), [1], None),
    "points": ((int,), 20, _positive),
    "span": ((list,), [0.5, 4.0], _increasing_pair),
}
_TOP_SCHEMA = {
    "experiment": ((str,), None, lambda p, v: v in EXPERIMENTS or _fail(p, f"must be one of {EXPERIMENTS}")),
    "seed": ((int,), 0, lambda p, v: v >= 0 or _fail(p, f"must be a non-negative integer, got {v}")),
    "k0": ((int,), 0, None),
    "p": ((int, float), 2, _positive),
    "jobs": ((int,), 1, _positive),
    "model": ((dict,), {}, None),
    "grid": ((dict,), {}, None),
    "data": ((dict,), {}, None),
    "stepper": ((dict,), {}, None),
    "fit": ((dict,), {}, None),
    "scan": ((dict,), {}, None),
    "trackers": ((list,), [], None),
    "data_variants": ((list, type(None)), None, None),
}
# one entry of config.trackers; field, s, p and r are required
_TRACKER_SCHEMA = {
    "field": ((str,), None, lambda p, v: v in ("u", "v", "z", "Z") or _fail(p, f"must be u, v, z or Z, got {v!r}")),
    "s": ((int, float), None, None),
    "p": ((int, float), None, _positive),
    "r": ((int, float), None, _positive),
    "window": ((str,), "full", lambda p, v: v in ("full", "low", "high") or _fail(p, "must be full, low or high")),
}


_MAY_BE_INFINITE = re.compile(r"config\.p|config\.trackers\[\d+\]\.[pr]")


def _fail(path, msg):
    raise ConfigError(f"{path}: {msg}")


def _mode(path, mode, d):
    """An integer wavevector of d entries."""
    if len(mode) != d or not all(isinstance(k, int) and not isinstance(k, bool) for k in mode):
        _fail(path, f"need d={d} integers, got {mode!r}")


def _validate_section(tree: dict, schema: dict, path: str) -> dict:
    if not isinstance(tree, dict):
        raise ConfigError(f"{path}: expected an object, got {type(tree).__name__}")
    for key in tree:
        if key not in schema:
            raise ConfigError(f"{path}.{key}: unknown key (allowed: {sorted(schema)})")
    out = {}
    for key, (types, default, check) in schema.items():
        val = tree.get(key, default)
        # a given value must have one of the types, and a bool is no number
        if key in tree and not (isinstance(val, types) and (bool in types or not isinstance(val, bool))):
            raise ConfigError(f"{path}.{key}: expected one of {[t.__name__ for t in types]}, "
                              f"got {type(val).__name__}")
        if check is not None and val is not None:
            check(f"{path}.{key}", val)
        out[key] = val
    return out


def _floats(section: dict) -> dict:
    """The section with each int value as a float; a bool stays a bool."""
    return {key: float(v) if type(v) is int else v for key, v in section.items()}


def _build_common(cfg: dict):
    """(grid, flux, a, data, stepper) of a config, the grid first so that it names
    a bad d; a value none of them takes raises ConfigError at its path."""
    m = cfg["model"]
    grid = Grid(m["d"], cfg["grid"]["N"], cfg["grid"]["L"])
    flux = make_flux(m["flux"], m["n"], m["d"], m["terms"])
    a = checked_velocities(flux, m["a"])
    d = _floats(cfg["data"])
    data = InitialDataSpec(**{**d, "mode": tuple(d["mode"]),
                              "band_hi": math.inf if d["band_hi"] is None else d["band_hi"],
                              "seed": cfg["seed"], "ir_sigma_fit": float(cfg["fit"]["sigma_list"][0]),
                              "ir_t_hi": float(cfg["fit"]["window"][1])})
    stepper = StepperConfig(**_floats(cfg["stepper"]))
    return grid, flux, a, data, stepper


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
    if m["eps"] is not None and not m["eps"] > 0:
        raise ConfigError("config.model.eps: must be positive")
    if m["eps_list"] is not None:
        if cfg["experiment"] in ("decay", "overdamping", "spectrum", "selftest"):
            raise ConfigError(
                f"config.model.eps_list: {cfg['experiment']} is a single-eps experiment; use model.eps")
        if not m["eps_list"]:
            raise ConfigError("config.model.eps_list: need a non-empty list of positive numbers, got []")
        for i, e in enumerate(m["eps_list"]):
            if not (_is_number(e) and e > 0):
                raise ConfigError(f"config.model.eps_list[{i}]: must be a positive number, got {e!r}")
    if cfg["experiment"] in ("simulate", "decay") and m["eps"] is None and m["eps_list"] is None:
        cfg["model"]["eps"] = 1.0
    # the grid, the flux, a and the data and stepper values, before the rules across sections
    _, _, _, data, _ = _build_common(cfg)
    st = cfg["stepper"]
    if cfg["experiment"] == "simulate" and m["eps_list"] is None and not st["t_end"] / st["sample_every"] > 0.5:
        # a single-eps simulate run samples t_end in round(t_end / sample_every) intervals
        _fail("config.stepper.sample_every", f"t_end / sample_every = {st['t_end']!r} / "
              f"{st['sample_every']!r} rounds to no sampling interval; need at least 2 time samples")
    if cfg["experiment"] == "epsilon-convergence" and m["eps_list"] is None:
        cfg["model"]["eps_list"] = [0.2, 0.1, 0.05, 0.025]
    if cfg["experiment"] in ("overdamping", "spectrum"):
        _mode("config.scan.mode", cfg["scan"]["mode"], m["d"])
    if cfg["data"]["kind"] == "single_mode":
        _mode("config.data.mode", cfg["data"]["mode"], m["d"])
    if cfg["data_variants"] is not None and not (cfg["experiment"] == "simulate" and m["eps_list"]):
        _fail("config.data_variants", "only a simulate eps sweep (model.eps_list) runs data variants")
    for i, vk in enumerate(cfg["data_variants"] or []):
        try:
            dataclasses.replace(data, v_kind=vk)
        except ConfigError as e:
            _fail(f"config.data_variants[{i}]", str(e).removeprefix("config.data.v_kind: "))
    for i, t in enumerate(cfg["trackers"]):
        path = f"config.trackers[{i}]"
        if not isinstance(t, dict) or not {"field", "s", "p", "r"} <= set(t):
            raise ConfigError(f"{path}: need keys field, s, p, r (optional window)")
        # checked, not filled in: the entry is hashed as given
        _validate_section(t, _TRACKER_SCHEMA, path)

    canon = json.dumps(_hashed_tree(cfg), sort_keys=True, separators=(",", ":"))
    return cfg, hashlib.sha256(canon.encode()).hexdigest()[:16]


def _hashed_tree(cfg: dict) -> dict:
    """The config a run is hashed by and writes to config.json: the worker
    count is pinned to its default, since it does not change the results."""
    return {**cfg, "jobs": _TOP_SCHEMA["jobs"][1]}


def _load_json(path: str):
    """The unvalidated JSON tree of a config file; a read or JSON error names the path."""
    try:
        fh = open(path)
    except OSError as e:
        raise ConfigError(f"{path}: cannot read the config file ({e.strerror})") from e
    with fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as e:
            raise ConfigError(f"{path}: invalid JSON ({e})") from e


def parse_config(path: str) -> tuple:
    return parse_config_dict(_load_json(path))


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
        result = harness.run_overdamping_scan(grid, a, tuple(scan["mode"]), eps_grid=1.0 / inv,
                                              scheme=stepper.scheme, cfl=min(stepper.cfl, 0.3))
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
            result = harness.run_uniformity_study(grid, flux, a, m["eps_list"], data, stepper, p=cfg["p"],
                                                  k0=cfg["k0"], jobs=jobs,
                                                  variants=cfg["data_variants"])
            fits_all = result["fits"]["variants"]
            failures = [f"{vk}: |u| exceeded the small-data bound" for vk, f in fits_all.items()
                        if not all(r["small_data_ok"] for r in f["rows"])]
            spreads = {vk: fits_all[vk]["ratio_spread"] for vk in fits_all}
            summary = "uniformity: X(t_end)/X0 spread across eps " + ", ".join(
                f"{vk}: {v:.3f}" for vk, v in spreads.items())
        else:
            result = harness.run_simulate(grid, flux, a, float(m["eps"]), data, stepper,
                                          cfg["trackers"], p=cfg["p"], k0=cfg["k0"])
            if result["fits"]["max_abs_u"] > 1.0:
                failures.append("|u| exceeded the small-data bound")
            summary = (f"simulate: {result['fits']['steps']} steps, "
                       f"X={result['fits']['functional_X']['total']:.4g}")
    else:
        raise ConfigError(f"unknown experiment {exp!r}")

    rundir = write_results(out_dir, _hashed_tree(cfg), cfg_hash, result)
    status = 1 if failures else 0
    print(f"[{cfg_hash}] {summary} -> {rundir}" + (f" FAIL: {failures[0]}" if failures else ""))
    return status


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
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--config", help="JSON config file")
    source.add_argument("--preset", choices=sorted(PRESETS), help="named experiment preset")
    parser.add_argument("--out", default="runs", help="results directory (default: runs)")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--jobs", default=None,
                        help="worker count (fallback: RELAXLAB_JOBS, then the config's jobs)")
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
            tree = _load_json(args.config)
        elif args.preset:
            tree = json.loads(json.dumps(PRESETS[args.preset]))
        else:
            parser.error("need --config or --preset")
        if args.seed is not None and isinstance(tree, dict):
            tree["seed"] = args.seed
        cfg, cfg_hash = parse_config_dict(tree)
        return dispatch(cfg, cfg_hash, out_dir=args.out, jobs=jobs)
    except (ConfigError, ValueError, DivergenceError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError as e:
        print(f"error: {e}; config.grid.N and config.stepper.t_end / sample_every set the largest arrays",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
