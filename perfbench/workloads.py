"""Benchmark workloads: the config each one hands to relaxlab, and its correctness gate.

The three workloads differ in where the time goes and in working-set size
relative to the caches:

* overdamping-n16: zero-flux relaxation on 16 points; the time is Python and
  object overhead per imex_ssp2 step, with no FFT after the initial data.
* epsilon-n512: the thm2-epsilon sweep; co_evolve runs the relaxation system
  and the if_rk2 limit at four eps on N=512, about a third of it in FFTs, with
  dt set by the hyperbolic CFL bound.
* tracking-2d-n256: a 2D Burgers trajectory on the thm3-decay-2d grid with
  p=4 trackers, so most time is p!=2 block norms and 2D flux transforms, and
  the state (about 6 MB) is larger than a core's L2.

Each gate returns the reasons a run's fits.json fails the acceptance
tolerances of tests/test_acceptance.py; an empty list is a pass.
"""

from __future__ import annotations

import math

# Criterion 4 tolerances: measured against analytic decay rate.
RATE_TOL = 0.02
# Criterion 6 tolerances on the fitted eps slopes.
SLOPE_DU = (0.85, 1.15)
SLOPE_ZLOW_MIN = 0.85
# Small-data bound on |u| used by relaxlab.cli.dispatch for simulate runs.
SMALL_DATA_U = 1.0
# Criterion 5a's spread constant, applied to X(t_end)/X0 of one trajectory.
X_RATIO_MAX = 3.0
# The mean of u is conserved; its drift must stay at roundoff.
MEAN_DRIFT_MAX = 1e-12


def overdamping_config(seed: int) -> dict:
    # The fig1-overdamping preset with 5 scan points (6 frictions with the
    # peak, 95k steps) instead of 20 (21 frictions, 324k steps, 29 s on a
    # 2-core Xeon VM): every friction costs about 15k steps, and one run must
    # fit several times into the benchmark's time slot. Grid, scheme, cfl and
    # span are the preset's, so the per-step cost is the preset's.
    return {
        "experiment": "overdamping", "seed": seed,
        "model": {"flux": "zero", "n": 1, "d": 1, "a": [1.0]},
        "grid": {"N": 16, "L": 2 * math.pi},
        "scan": {"mode": [1], "points": 5, "span": [0.5, 4.0]},
        "stepper": {"scheme": "imex_ssp2", "cfl": 0.3},
    }


def epsilon_config(seed: int) -> dict:
    # The thm2-epsilon preset as is.
    return {
        "experiment": "epsilon-convergence", "seed": seed,
        "model": {"flux": "burgers1d", "n": 1, "d": 1, "a": [1.0],
                  "eps_list": [0.2, 0.1, 0.05, 0.025]},
        "grid": {"N": 512, "L": 32 * math.pi},
        "data": {"kind": "gaussian_bump", "amplitude": 0.05, "width": 2.0,
                 "v_kind": "ill_prepared", "v_scale": 0.3, "v_scale_mode": "inv_eps",
                 "v_band_hi": 1.0},
        "stepper": {"scheme": "imex_ssp2", "cfl": 0.45, "dt_max": 0.02,
                    "t_end": 20.0, "sample_every": 0.25},
    }


def tracking_config(seed: int) -> dict:
    # The thm3-decay-2d grid and data at eps=0.1 as one simulate trajectory;
    # t_end=2 is 60 steps and 20 samples, about 7 s on a 2-core Xeon VM.
    return {
        "experiment": "simulate", "seed": seed, "p": 4,
        "model": {"flux": "burgers2d", "n": 2, "d": 2, "a": [1.0, 1.0], "eps": 0.1},
        "grid": {"N": 256, "L": 64 * math.pi},
        "data": {"kind": "random_spectrum", "amplitude": 0.04, "sigma1": -1.0,
                 "ir_compensation": True, "v_kind": "ill_prepared", "v_scale": 0.1,
                 "v_scale_mode": "inv_eps", "v_band_hi": 1.0},
        "stepper": {"scheme": "imex_ssp2", "cfl": 0.45, "dt_max": 0.05,
                    "t_end": 2.0, "sample_every": 0.1},
        "trackers": [{"field": "u", "s": 0.5, "p": 4, "r": 1},
                     {"field": "Z", "s": 0.5, "p": 4, "r": 1}],
    }


def overdamping_gate(fits: dict, cfg: dict) -> list:
    rows = fits["rows"]
    peak = fits["peak"]
    bad = []
    if len(rows) < cfg["scan"]["points"]:
        bad.append(f"{len(rows)} frictions reported, {cfg['scan']['points']} configured")
    if not fits["worst_rel_err"] <= RATE_TOL:
        bad.append(f"worst rate error {fits['worst_rel_err']:.3%} > {RATE_TOL:.0%}")
    if not abs(peak["omega_measured"] - peak["target"]) <= RATE_TOL * peak["target"]:
        bad.append("peak rate off by more than 2%")
    if not {"low", "high"} <= {r["regime"] for r in rows}:
        bad.append("scan does not span both regimes")
    meas = [(r["inv_eps"], r["omega_measured"]) for r in rows]
    rising = [om for ie, om in meas if ie <= peak["inv_eps"]]
    falling = [om for ie, om in meas if ie >= peak["inv_eps"]]
    if not (all(b >= a * 0.99 for a, b in zip(rising, rising[1:]))
            and all(b <= a * 1.01 for a, b in zip(falling, falling[1:]))):
        bad.append("measured rates do not rise then fall")
    return bad


def epsilon_gate(fits: dict, cfg: dict) -> list:
    s_du = fits["fit_sup_du"]["exponent"]
    s_z = fits["fit_int_Zlow"]["exponent"]
    bad = []
    if not SLOPE_DU[0] <= s_du <= SLOPE_DU[1]:
        bad.append(f"sup|u-u*| slope {s_du:.3f} outside {SLOPE_DU}")
    if not s_z >= SLOPE_ZLOW_MIN:
        bad.append(f"int|Z^l| slope {s_z:.3f} < {SLOPE_ZLOW_MIN}")
    return bad


def tracking_gate(fits: dict, cfg: dict) -> list:
    X = fits["functional_X"]
    ratio = X["total"] / X["x0"] if X["x0"] > 0 else math.inf
    bad = []
    if not fits["mean_drift"] <= MEAN_DRIFT_MAX:
        bad.append(f"mean drift {fits['mean_drift']:.3e} is above roundoff")
    if not fits["max_abs_u"] <= SMALL_DATA_U:
        bad.append(f"max|u| {fits['max_abs_u']:.3g} exceeds the small-data bound")
    if not (math.isfinite(ratio) and ratio < X_RATIO_MAX):
        bad.append(f"X/X0 = {ratio:.3g} is not finite and below {X_RATIO_MAX}")
    return bad


def state_bytes(cfg: dict) -> int:
    """Bytes of one relaxation state (u and the d components of v), complex128."""
    m, N = cfg["model"], cfg["grid"]["N"]
    return (m["n"] + m["n"] * m["d"]) * N ** m["d"] * 16


WORKLOADS = {
    "overdamping-n16": (overdamping_config, overdamping_gate),
    "epsilon-n512": (epsilon_config, epsilon_gate),
    "tracking-2d-n256": (tracking_config, tracking_gate),
}

