"""Experiments: initial-data synthesis, norm functionals, rate fits and the
sweeps that turn the asymptotic estimates into desk-scale numbers.

All randomness flows through numpy Generators seeded from the config, and
write_results writes every experiment's results in one layout:

    runs/<config-hash>/{config.json, fits.json, norms.csv, curves.csv,
                        curves.svg, trajectory.json, fields/*.bin}
"""

from __future__ import annotations

import json
import math
import os
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .models import (
    ConfigError,
    Flux,
    JinXinModel,
    JinXinState,
    _positive,
    darcy_velocity,
    effective_Z,
    flux_fields,
    make_flux,
)
from .integrators import (
    StepperConfig,
    evolve,
    jinxin_dt_bound,
    _arrays,
    _cfl_bound,
    _state,
    _JinXinStepper,
    _march_kernel,
    _powers,
    advance,
    checked_relaxation_scheme,
)
from .spectral_core import (
    Grid,
    NormSeries,
    SpectralField,
    besov_norm,
    block_lp_norms,
    chemin_lerner_norm,
    lp_norm,
    phi_profile,
    save_field,
    scheme_for,
    spectral_derivative,
    dyadic_block,
    base_block,
    nonlinear_product,
)
from .spectral_analysis import (
    classify_regime,
    decay_rate_omega,
    eigenvalues,
    exact_linear_propagator,
    generator_matrix,
    mode_symbol,
    threshold_J,
)
from .svgplot import plot_emit

__all__ = [
    "InitialDataSpec",
    "make_initial_data",
    "functional_X",
    "functional_X0",
    "fit_rate",
    "run_epsilon_convergence",
    "run_decay_study",
    "run_overdamping_scan",
    "friction_grid",
    "run_uniformity_study",
    "run_simulate",
    "run_spectrum",
    "run_selftest",
    "write_results",
]


# ---------------------------------------------------------------------------
# initial data

# v_scale_mode -> the power of 1/eps that scales an ill_prepared v0
_V_SCALE_POWER = {"fixed": 0, "inv_eps": 1, "inv_eps2": 2}


@dataclass(frozen=True)
class InitialDataSpec:
    """Recipe for (u0, v0); amplitude is the L2 size of u0 except for bumps
    and single modes, where it is the pointwise amplitude. The config's data
    section: a bad value raises ConfigError at config.data.<field>."""

    kind: str = "gaussian_bump"          # gaussian_bump | random_spectrum | single_mode
    amplitude: float = 0.05
    width: float = 2.0                   # bump width
    carrier: float = 0.0                 # bump modulation wavenumber (physical)
    sigma1: float = -0.5                 # random_spectrum regularity exponent
    seed: int = 0
    mode: tuple = (1,)                   # single_mode integer wavevector
    band_lo: float = 0.0                 # random_spectrum: drop |kappa| below this
    band_hi: float = math.inf            # random_spectrum: drop |kappa| above this
    ir_compensation: bool = False        # add the sub-box spectral tail (decay studies)
    ir_sigma_fit: float = 0.0            # regularity the compensation targets
    ir_t_hi: float = 100.0               # largest fitted time (sets the frozen range)
    v_kind: str = "darcy"                # darcy | ill_prepared | zero
    v_scale: float = 0.0                 # L2 norm of the stacked v0 when ill_prepared
    v_scale_mode: str = "fixed"          # fixed | inv_eps | inv_eps2: ill_prepared v0 at v_scale/eps^(0|1|2)
    v_band_hi: float = 1.0               # ill_prepared spectral cap

    def __post_init__(self):
        for name, known, what in (("kind", ("gaussian_bump", "random_spectrum", "single_mode"), "initial data kind"),
                                  ("v_kind", ("darcy", "ill_prepared", "zero"), "v preparation"),
                                  ("v_scale_mode", tuple(_V_SCALE_POWER), "v_scale_mode")):
            if getattr(self, name) not in known:
                raise ConfigError(f"config.data.{name}: unknown {what} {getattr(self, name)!r}")
        for name in ("amplitude", "width", "v_band_hi"):
            _positive(f"config.data.{name}", getattr(self, name))


def _hermitian_randomize(grid: Grid, modulus: np.ndarray, rng) -> np.ndarray:
    """Random phases on a prescribed modulus profile, even in kappa.

    The modulus of every coefficient is preserved, so L2-based block norms
    are deterministic functions of the profile alone. Phases are drawn on the
    full lattice; a stored mode whose conjugate -k mod N has the lower flat
    index takes the negated phase of that conjugate.
    """
    k = np.indices(grid.spectral_shape, sparse=True)
    idx = np.ravel_multi_index(k, grid.shape)
    conj_idx = np.ravel_multi_index([-ki % grid.N for ki in k], grid.shape)
    theta = rng.uniform(0.0, 2.0 * np.pi, size=grid.shape).reshape(-1)
    phase = np.where(idx <= conj_idx, theta[idx], -theta[conj_idx])
    c = modulus * np.exp(1j * phase)
    self_paired = idx == conj_idx
    c[self_paired] = np.abs(c[self_paired])
    return c


def _random_spectrum_profile(grid: Grid, spec: InitialDataSpec, eps: float, k0: int) -> np.ndarray:
    mag = grid.kappa_mag()
    J = threshold_J(eps, k0)
    top = min((8.0 / 3.0) * 2.0**J, spec.band_hi)
    band = grid.dealias_mask() & (mag > 0) & (mag <= top) & (mag >= max(spec.band_lo, 0.5 * grid.kappa_min))
    prof = np.zeros(grid.spectral_shape)
    prof[band] = mag[band] ** (-(spec.sigma1 + grid.d / 2.0))
    nrm = math.sqrt(grid.L**grid.d * np.sum(grid.multiplicity() * prof**2))
    if nrm == 0.0:
        raise ConfigError("config.data: random_spectrum: empty band; enlarge the grid or the threshold")
    prof *= spec.amplitude / nrm
    if spec.ir_compensation:
        prof = _add_ir_tail(grid, prof, spec.sigma1, spec.ir_sigma_fit, spec.ir_t_hi)
    return prof


def _add_ir_tail(grid: Grid, prof: np.ndarray, sigma1: float, sigma_fit: float, t_hi: float) -> np.ndarray:
    """Fold the sub-box continuum onto the lowest resolvable shell.

    A flat dyadic profile on R^d extends below the first lattice frequency;
    on the torus those blocks are missing and the fitted decay of l^1-type
    Besov norms bends downward once their frozen mass becomes comparable.
    The correction adds, on the |kappa| = 2*pi/L shell, the weighted mass of
    all blocks that stay frozen during the fit window plus the analytic
    continuum tail below the lattice, evaluated at the fitted regularity.
    """
    sch = scheme_for(grid)
    js = sch.j_indices
    bn = block_lp_norms(SpectralField(grid, prof[None].astype(complex)), 2, sch)
    c0 = float(np.median(2.0 ** (js * sigma1) * bn))
    gap = sigma_fit - sigma1
    if gap <= 0:
        raise ConfigError("config.fit.sigma_list: ir compensation requires sigma_fit > sigma1")
    j_freeze = int(math.floor(math.log2(0.7 / math.sqrt(t_hi))))
    deficit = c0 * 2.0 ** (sch.j_min * gap) * 2.0 ** (-gap) / (1.0 - 2.0 ** (-gap))
    for i, j in enumerate(js):
        if j <= j_freeze:
            deficit += 2.0 ** (j * sigma_fit) * max(c0 * 2.0 ** (-j * sigma1) - bn[i], 0.0)
    kmin = grid.kappa_min
    resp = sum(phi_profile(kmin / 2.0**j) * 2.0 ** (j * sigma_fit) for j in js)
    mag = grid.kappa_mag()
    shell = np.isclose(mag, kmin)
    out = prof.copy()
    out[shell] += (deficit / resp) / math.sqrt(grid.L**grid.d * np.sum(grid.multiplicity() * shell))
    return out


def _check_mode_on_grid(path: str, mode, grid: Grid):
    """A ConfigError at path unless mode is a nonzero wavevector inside the
    2/3-rule cut |k_i| <= N/3, where the grid holds data."""
    cut = grid.N // 3
    if not any(mode) or any(abs(k) > cut for k in mode):
        raise ConfigError(f"{path}: the mode must be a nonzero wavevector inside the 2/3-rule "
                          f"cut |k_i| <= N/3 = {cut} of N = {grid.N}, got {list(mode)}")


def make_initial_data(spec: InitialDataSpec, grid: Grid, model: JinXinModel, k0: int = 0) -> JinXinState:
    """Synthesize the relaxation system's initial state (u0, v0). Single-mode
    data needs a mode the grid holds, else a ConfigError at config.data.mode."""
    if spec.kind == "single_mode":
        _check_mode_on_grid("config.data.mode", spec.mode, grid)
    n, d = model.n, model.d
    rng = np.random.default_rng(spec.seed)
    coords = grid.coords()

    if spec.kind == "random_spectrum":
        prof = _random_spectrum_profile(grid, spec, model.eps, k0)
        comps = [_hermitian_randomize(grid, prof, rng) for _ in range(n)]
    else:
        comps = []
        for c in range(n):
            if spec.kind == "gaussian_bump":
                r2 = sum((coords[ax] - grid.L * (0.5 + 0.04 * c)) ** 2 for ax in range(d))
                vals = spec.amplitude * np.exp(-r2 / spec.width**2)
                if spec.carrier > 0:
                    vals = vals * np.cos(spec.carrier * (coords[0] - grid.L / 2) + 0.7 * c)
            else:  # single_mode
                phase = sum(2.0 * np.pi * spec.mode[ax] * coords[ax] / grid.L for ax in range(d))
                vals = spec.amplitude * np.cos(phase + 0.7 * c)
            cc = SpectralField.from_physical(grid, vals).coeffs[0]
            cc[(0,) * d] = 0.0  # zero mean (a cos quadrature leaves roundoff there)
            comps.append(cc)
    u0 = SpectralField(grid, np.stack(comps))

    if spec.v_kind == "darcy":
        v0 = darcy_velocity(model.flux, model.a, u0)
    elif spec.v_kind == "zero":
        v0 = [SpectralField.zero(grid, n) for _ in range(d)]
    else:  # ill_prepared
        mag = grid.kappa_mag()
        band = grid.dealias_mask() & (mag > 0) & (mag <= spec.v_band_hi)
        prof = np.zeros(grid.spectral_shape)
        prof[band] = 1.0
        total = math.sqrt(grid.L**grid.d * np.sum(grid.multiplicity() * prof**2) * n * d)
        if total == 0:
            raise ConfigError("config.data.v_band_hi: ill_prepared: empty band below v_band_hi")
        prof *= spec.v_scale / model.eps**_V_SCALE_POWER[spec.v_scale_mode] / total
        v0 = [
            SpectralField(grid, np.stack([_hermitian_randomize(grid, prof, rng) for _ in range(n)]))
            for _ in range(d)
        ]

    return JinXinState(u0, v0, 0.0)


def check_sigma1_admissible(sigma1: float, d: int, p: float):
    if p > 2 * d:
        raise ConfigError(f"config.p: a decay study needs p <= 2d, got p={p} at d={d}: "
                          "no sigma1 is admissible")
    if not (-d / p <= sigma1 <= d / p - 1):
        raise ConfigError(
            f"config.data.sigma1: sigma1={sigma1} outside the admissible range [{-d/p}, {d/p-1}] "
            f"for a decay study at d={d}, p={p}"
        )


# ---------------------------------------------------------------------------
# the uniform-bound functional

_X_TRACKERS = lambda p: sorted({("u", p), ("v", p), ("u", 2), ("v", 2)})


def functional_X(series: dict, eps: float, p, J: int, d: int) -> dict:
    """Assemble the eight weighted space-time norms of the uniform bound:
    {"terms": {name: norm}, "total": their sum}.

    series maps (field, p) to NormSeries for fields u and v at exponent p
    (low-window terms) and exponent 2 (high-window terms).
    """
    needed = _X_TRACKERS(p)
    missing = [k for k in needed if k not in series]
    if missing:
        raise KeyError(f"functional_X needs trackers {needed}; missing {missing}")
    lo, hi = ("low", J), ("high", J)
    dp = d / p
    cl = chemin_lerner_norm
    up, vp = series[("u", p)], series[("v", p)]
    u2, v2 = series[("u", 2)], series[("v", 2)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # empty high window is legitimate for tiny eps
        terms = {
            "u_low_sup": cl(up, np.inf, dp - 1, 1, lo) + cl(up, np.inf, dp, 1, lo),
            "u_low_int": cl(up, 1, dp + 1, 1, lo) + cl(up, 1, dp + 2, 1, lo),
            "u_high_sup": (1 + eps) * cl(u2, np.inf, d / 2, 1, hi),
            "u_high_int": (1 / eps + 1 / eps**2) * cl(u2, 1, d / 2, 1, hi),
            "v_low_sup": eps**2 * (cl(vp, np.inf, dp, 1, lo) + cl(vp, np.inf, dp + 1, 1, lo)),
            "v_low_int": cl(vp, 1, dp, 1, lo) + cl(vp, 1, dp + 1, 1, lo),
            "v_high_sup": (eps + eps**2) * cl(v2, np.inf, d / 2, 1, hi),
            "v_high_int": (1 + 1 / eps) * cl(v2, 1, d / 2, 1, hi),
        }
    return {"terms": terms, "total": float(sum(terms.values()))}


def functional_X0(series: dict, eps: float, p, J: int, d: int) -> float:
    """The initial-data functional paired with the uniform bound.

    It reads the t = 0 column of the series functional_X takes, which a
    trajectory that tracks _X_TRACKERS(p) samples from the initial state.
    """
    dp = d / p
    lo, hi = ("low", J), ("high", J)
    up, vp, u2, v2 = series["u", p], series["v", p], series["u", 2], series["v", 2]
    return float(
        up.besov_curve(dp - 1, 1, lo)[0]
        + up.besov_curve(dp, 1, lo)[0]
        + eps**2 * (vp.besov_curve(dp, 1, lo)[0] + vp.besov_curve(dp + 1, 1, lo)[0])
        + (1 + eps) * u2.besov_curve(d / 2, 1, hi)[0]
        + eps * (1 + eps) * v2.besov_curve(d / 2, 1, hi)[0]
    )


def functional_X_at(traj_series: dict, eps: float, p, J: int, d: int, upto: int) -> float:
    """X assembled from the first `upto` samples of each series."""
    cut = {key: NormSeries(s.j_indices, s.p, s.times[:upto], s.table[:, :upto])
           for key, s in traj_series.items()}
    return functional_X(cut, eps, p, J, d)["total"]


# ---------------------------------------------------------------------------
# rate fitting

def fit_rate(x, y, window=None, kind: str = "time", min_points: int = 5) -> dict:
    """OLS power-law fit: log y against log(1+t) or log(eps).

    kind="time" fits against 1+x; kind="plain" against x directly. Epsilon
    sweeps run four values by convention, so they lower min_points. The fit
    is the dict fits.json stores: exponent, intercept, window [lo, hi],
    r_squared, stderr, n_points, and low_r2, which flags r_squared < 0.98.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if window is not None:
        sel = (x >= window[0]) & (x <= window[1])
        x, y = x[sel], y[sel]
    else:
        window = (float(np.min(x)), float(np.max(x))) if x.size else (0.0, 0.0)
    if x.size < max(min_points, 3):
        raise ValueError(f"need >= {max(min_points, 3)} points in the fit window, got {x.size}")
    if np.any(y <= 0):
        raise ValueError("fit requires positive values on the window")
    lx = np.log(1.0 + x) if kind == "time" else np.log(x)
    ly = np.log(y)
    n = lx.size
    mx, my = lx.mean(), ly.mean()
    sxx = np.sum((lx - mx) ** 2)
    slope = float(np.sum((lx - mx) * (ly - my)) / sxx)
    intercept = float(my - slope * mx)
    resid = ly - (intercept + slope * lx)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((ly - my) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    stderr = math.sqrt(ss_res / (n - 2) / sxx) if n > 2 else math.inf
    return {"exponent": slope, "intercept": intercept, "window": [float(window[0]), float(window[1])],
            "r_squared": r2, "stderr": stderr, "n_points": n, "low_r2": r2 < 0.98}


# ---------------------------------------------------------------------------
# experiment drivers: take a Grid, a Flux and the config dataclasses, return result dicts

def _sorted_union(*parts) -> np.ndarray:
    """The parts' values, sorted and without repeats, as numpy's unique gives
    them, without the numpy.ma import of unique's first call."""
    x = np.sort(np.concatenate(parts))
    return x[np.append(True, x[1:] != x[:-1])]


def _eps_runs(grid: Grid, flux: Flux, a, members, stepper: StepperConfig, k0: int, trackers) -> list:
    """[(trajectory, threshold J)] of the runs (eps, data, ladder) at friction
    1/eps, marched together by evolve; each run samples at the sorted union
    of its ladder's arrays, or on evolve's linear ladder when it has none."""
    models = [JinXinModel(flux, tuple(a), eps) for eps, _, _ in members]
    trajectories = evolve(models, [make_initial_data(data, grid, m, k0) for m, (_, data, _) in zip(models, members)],
                          stepper, trackers, [_sorted_union(*ladder) if ladder else None for _, _, ladder in members])
    return [(traj, threshold_J(m.eps, k0)) for traj, m in zip(trajectories, models)]


def _sweep(row, grid: Grid, flux: Flux, a, members, stepper: StepperConfig, p, k0: int, trackers,
           jobs: int) -> list:
    """row(grid, p, eps, trajectory, J) of each run (eps, data, ladder) of
    members, in order. The runs are split into `jobs` groups of neighbours,
    each group one march of _eps_runs in its own worker process."""
    size = -(-len(members) // jobs)
    args = [(row, grid, flux, a, members[i:i + size], stepper, p, k0, trackers)
            for i in range(0, len(members), size)]
    return [r for rows in _pmap(_sweep_group, args, jobs) for r in rows]


def _sweep_group(arg):
    row, grid, flux, a, members, stepper, p, k0, trackers = arg
    return [row(grid, p, m[0], traj, J)
            for m, (traj, J) in zip(members, _eps_runs(grid, flux, a, members, stepper, k0, trackers))]


def run_uniformity_study(grid: Grid, flux: Flux, a, eps_list, data: InitialDataSpec,
                         stepper: StepperConfig, p=2, k0: int = 0, jobs: int = 1, variants=None) -> dict:
    """Uniform-bound experiment: X ratios across an eps sweep.

    The fits are {"experiment": "uniformity", "variants": {v_kind: fits}}
    over the v_kind variants, [data.v_kind] by default. Every (variant, eps)
    run is a member of one march.
    """
    for eps in eps_list:
        t1 = _growth_onset(eps)
        if t1 >= stepper.t_end:
            raise ConfigError(
                f"config.stepper.t_end: eps={eps:g}: the growth onset t1=max(1, 10 eps^2)={t1:g} "
                f"is not before t_end={stepper.t_end:g}, so the no-growth check would see no samples; "
                "raise stepper.t_end")
    kinds = variants or [data.v_kind]
    ladder = (np.geomspace(min(0.01, stepper.t_end / 100), 1.0, 25), np.linspace(1.0, stepper.t_end, 140))
    members = [(eps, replace(data, v_kind=vk), ladder) for vk in kinds for eps in eps_list]
    rows = _sweep(_uniformity_one, grid, flux, a, members, stepper, p, k0, _X_TRACKERS(p), jobs)
    fits = {}
    for i, vk in enumerate(kinds):
        part = rows[i * len(eps_list):(i + 1) * len(eps_list)]
        ratios = [r["ratio_end"] for r in part]
        fits[vk] = {
            "experiment": "uniformity",
            "p": p,
            "rows": part,
            "ratio_spread": max(ratios) / min(ratios),
            "max_growth_after_t1": max(r["growth_after_t1"] for r in part),
        }
    return {"fits": {"experiment": "uniformity", "variants": fits}}


def _uniformity_one(grid, p, eps, traj, J):
    d = grid.d
    x0 = functional_X0(traj.series, eps, p, J, d)
    t1 = _growth_onset(eps)
    i1 = int(np.searchsorted(traj.times, t1, side="right"))
    x_at_t1 = functional_X_at(traj.series, eps, p, J, d, i1)
    x_end = functional_X(traj.series, eps, p, J, d)["total"]
    return {
        "eps": eps,
        "x0": x0,
        "x_end": x_end,
        "ratio_end": x_end / x0,
        "t1": t1,
        "x_at_t1": x_at_t1,
        # every term of X is a time-sup or an integral of nonnegative norms,
        # so X is nondecreasing in its cut and the largest growth is at t_end
        "growth_after_t1": x_end / x_at_t1,
        "max_abs_u": traj.max_abs_u,
        "mean_drift": traj.mean_drift,
        "small_data_ok": traj.max_abs_u <= 1.0,
    }


def _growth_onset(eps: float) -> float:
    """Start of the no-growth window: five e-foldings of the slowest
    high-frequency mode, whose rate is the oscillatory-side plateau
    1/(2 eps^2) of decay_rate_omega."""
    return max(1.0, 5.0 / (0.5 / eps**2))


def run_epsilon_convergence(grid: Grid, flux: Flux, a, eps_list, data: InitialDataSpec,
                            stepper: StepperConfig, p=2, k0: int = 0, jobs: int = 1) -> dict:
    """Co-run the relaxation system and its limit; fit error norms in eps."""
    distinct = sorted(set(eps_list), reverse=True)
    if len(distinct) < 3:
        raise ConfigError(f"config.model.eps_list: a fit in eps needs at least 3 distinct eps, got {distinct}")
    members = [(eps, data, (np.geomspace(max(1e-4, eps**2 / 4), 1.0, 30),
                            np.linspace(1.0, stepper.t_end, int(stepper.t_end / stepper.sample_every) + 1)))
               for eps in sorted(eps_list, reverse=True)]
    rows = _sweep(_convergence_one, grid, flux, a, members, stepper, p, k0, [("Z", p), ("du", p), ("dv", p)], jobs)
    eps_arr = [r["eps"] for r in rows]
    fits = {"experiment": "epsilon-convergence", "p": p, "rows": rows}
    for key in ("sup_du", "int_dv", "int_Zlow"):
        fits[f"fit_{key}"] = fit_rate(eps_arr, [r[key] for r in rows], kind="plain", min_points=3)
    return {"fits": fits}


def _convergence_one(grid, p, eps, traj, J):
    dp = grid.d / p
    du = traj.get("du", p)
    dv = traj.get("dv", p)
    Zs = traj.get("Z", p)
    sup_du = max(du.besov_curve(dp - 1, 1, "full"))
    tarr = du.times
    int_dv = float(np.trapezoid(dv.besov_curve(dp, 1, "full"), tarr))
    int_Z = float(np.trapezoid(Zs.besov_curve(dp, 1, ("low", J)), tarr))
    return {"eps": eps, "sup_du": sup_du, "int_dv": int_dv, "int_Zlow": int_Z}


def run_decay_study(grid: Grid, flux: Flux, a, eps: float, data: InitialDataSpec,
                    stepper: StepperConfig, p=2, k0: int = 0,
                    fit_window=(5.0, 500.0), sigma_list=(0.0,),
                    with_difference: bool = False, compare_half_eps: bool = False) -> dict:
    """Long-time decay exponents of Besov norms, with optional difference.

    The half-eps comparison builds its data at eps/2, so ill-prepared
    velocity data with v_scale_mode inv_eps keeps eps*|v0| fixed across it.
    """
    d = grid.d
    check_sigma1_admissible(data.sigma1, d, p)
    t_cut = 0.05 * (grid.L / (2 * np.pi)) ** 2 / min(a)
    if fit_window[1] > t_cut * (1 + 1e-9):
        raise ConfigError(f"config.fit.window: fit window end {fit_window[1]} exceeds the box cutoff time "
                          f"{t_cut:.3g}; enlarge L or shorten the window")
    ladder = [np.geomspace(min(0.25, fit_window[0] / 4), fit_window[1], 48)]
    if data.v_kind == "ill_prepared":
        # the O(eps) kick develops on the relaxation layer t ~ eps^2; the
        # steps must resolve it or the kick amplitude is integrated wrong
        ladder.append(np.geomspace(min(eps, eps / 2 if compare_half_eps else eps) ** 2 / 8,
                                   25 * eps**2, 16))
    ts = _sorted_union(*ladder)
    in_window = int(np.count_nonzero((ts >= fit_window[0]) & (ts <= fit_window[1])))
    if in_window < 5:
        raise ConfigError(f"config.fit.window: the fit window [{fit_window[0]:g}, {fit_window[1]:g}] holds "
                          f"{in_window} of the run's sample times and a fit needs 5; widen the window")

    fits = {"experiment": "decay", "eps": eps, "p": p, "sigma1": data.sigma1, "rows": []}
    diff = with_difference or compare_half_eps
    [(traj, J)] = _eps_runs(grid, flux, a, [(eps, data, (ts,))], stepper, k0, [("u", p)] + [("du", p)] * diff)
    u_series = traj.get("u", p)
    du_series = traj.get("du", p) if diff else None

    tarr = u_series.times
    for sigma in sigma_list:
        curve = u_series.besov_curve(sigma, 1, "full")
        fits["rows"].append({"quantity": "u", "sigma": sigma, **fit_rate(tarr, curve, fit_window, kind="time")})
    # high-frequency trace decays faster than the full norm
    hi_curve = u_series.besov_curve(d / 2, 1, ("high", J))
    j_max = scheme_for(grid).j_max
    if j_max < J - 1:
        fits["high_freq_fit_skipped"] = (f"the high window j >= J-1 = {J - 1} lies above "
                                         f"the grid's last block j = {j_max}")
    elif not np.all(hi_curve[1:] > 0):
        fits["high_freq_fit_skipped"] = "the high-frequency trace vanishes at a sample"
    else:
        # fit only while the trace still decays, not along its roundoff floor
        end = min(fit_window[0] * 2, _decay_end(tarr, hi_curve))
        try:
            fits["high_freq_fit"] = fit_rate(tarr, hi_curve, (tarr[1], end), kind="time", min_points=4)
        except ValueError as e:
            fits["high_freq_fit_skipped"] = str(e)

    curves = {"t": tarr.tolist(), "u": u_series.besov_curve(sigma_list[0], 1, "full").tolist()}
    if du_series is not None:
        dcurve = du_series.besov_curve(sigma_list[0], 1, "full")
        fits["difference_fit"] = fit_rate(tarr[1:], dcurve[1:], fit_window, kind="time")
        curves["du"] = dcurve.tolist()
    if compare_half_eps:
        [(traj2, _)] = _eps_runs(grid, flux, a, [(eps / 2, data, (ts,))], stepper, k0, [("du", p)])
        d2 = traj2.get("du", p).besov_curve(sigma_list[0], 1, "full")
        d1 = np.asarray(curves["du"])
        sel = (tarr >= fit_window[0]) & (tarr <= fit_window[1])
        fits["half_eps_level_ratio"] = float(np.median(d1[sel] / d2[sel]))
    return {"fits": fits, "norm_rows": _norm_rows(u_series, "u"), "csv_curves": curves}


def _decay_end(t: np.ndarray, y: np.ndarray) -> float:
    """The last t_k such that y falls by at least a factor 2 on every step
    from t[1] through t[k+1]; past it the trace may sit at a floor."""
    k = 1
    while k + 1 < y.size and y[k + 1] <= 0.5 * y[k]:
        k += 1
    return t[max(k - 1, 1)]


# steps per chunk of the overdamping march: the powers M^1..M^B of the
# one-step matrix are built once, and each chunk maps the mode through them
_CHUNK_STEPS = 256


def _mode_energies(grid: Grid, a, mode, eps, dt, steps: int, scheme: str) -> np.ndarray:
    """(steps, members) energies of the initialized wavevector pair after
    steps 1..steps, member m at friction 1/eps[m] with step dt[m].

    The flux is zero, so a step of either scheme is linear and acts on each
    stored mode alone: at the read mode it is one (d+1)x(d+1) matrix M per
    member, found by applying the prepared kernel to unit states there. The
    march maps the mode through M^1..M^B in chunks of B = _CHUNK_STEPS
    steps, each one call of advance, so a DivergenceError reports the time
    at the end of the chunk with the first non-finite step. A table that
    cannot be allocated is a ConfigError of scan.span.
    """
    try:
        energy = np.empty((steps, len(eps)))
    except MemoryError:
        raise ConfigError(f"config.scan.span: the scan needs {steps} steps at each of {len(eps)} frictions, "
                          f"and a table of {steps} x {len(eps)} energies does not fit in memory; the span's "
                          "smallest friction sets the step count, which also grows with grid.N") from None
    flux = make_flux("zero", 1, grid.d)
    # single-mode data with v = 0 does not involve eps: one state serves every member
    spec = InitialDataSpec(kind="single_mode", amplitude=1.0, mode=tuple(mode), v_kind="zero")
    w0 = _arrays(make_initial_data(spec, grid, JinXinModel(flux, a, eps[0])))
    # energy of the initialized wavevector pair only, read at its stored mode
    # and weighted; the conserved mean and roundoff injected elsewhere must
    # not floor the measurement. The kernels step band arrays, whose axis -2
    # ends with the rows of k < 0
    stored = mode if mode[-1] >= 0 else tuple(-m for m in mode)
    sel = (0,) + tuple(m % (2 * (grid.N // 3) + 1) for m in stored[:-1]) + stored[-1:]
    weight = grid.multiplicity()[(0,) * (grid.d - 1) + sel[-1:]]

    shape = (len(eps),) + w0[0].shape
    column = (-1,) + (1,) * (len(shape) - 1)
    kernel, coeffs = _JinXinStepper(flux, a, grid).prepare(checked_relaxation_scheme(scheme),
                                                           np.reshape(dt, column), np.reshape(eps, column))
    at_mode = (slice(None),) + sel
    M = np.empty((len(eps), len(w0), len(w0)), dtype=complex)
    for j in range(len(w0)):
        unit = [np.zeros(shape, dtype=complex) for _ in w0]
        unit[j][at_mode] = 1.0
        M[:, :, j] = np.stack([c[at_mode] for c in kernel(unit, coeffs)], -1)
    powers = _powers(M, min(_CHUNK_STEPS, steps))

    x = np.broadcast_to(np.array([c[sel] for c in w0])[:, None], M.shape[:-1] + (1,))
    eps_row = np.asarray(eps)
    t = 0.0
    for start in range(0, steps, _CHUNK_STEPS):
        m = min(_CHUNK_STEPS, steps - start)
        (X,), t = advance(_march_kernel, powers[:m], [x], 1, t, m * dt)
        energy[start:start + m] = weight * (np.abs(X[..., 0, 0]) ** 2
                                            + sum(np.abs(eps_row * X[..., i, 0]) ** 2
                                                  for i in range(1, len(w0))))
        x = X[-1]
    return energy


def run_overdamping_scan(grid: Grid, a, mode, eps_grid, scheme: str = "imex_ssp2",
                         cfl: float = 0.3) -> dict:
    """Measured vs analytic decay rate of one linear mode across friction.

    Every friction is one member of a batch. Member m steps n_m times with
    its own dt_m and fits the energy decay of the initialized wavevector pair
    over t >= t0 = 100/omega; the batch marches max n_m steps (see
    _mode_energies) and member m reads only its first n_m. The mode must lie
    inside the 2/3-rule cut |k_i| <= N/3, or the grid holds no data to fit.
    Each rejection is a ConfigError naming the config path at fault.
    """
    _check_mode_on_grid("config.scan.mode", mode, grid)
    kap = tuple(2 * np.pi * m / grid.L for m in mode)
    S = mode_symbol(kap, a)
    a = tuple(a)
    eps = [float(e) for e in eps_grid]
    om = np.array([decay_rate_omega(kap, e, a) for e in eps])
    # 300/omega and the step counts must fit a float and an int64; each test
    # comes before its division, so none of them overflows
    in_range = np.all(om > 300.0 / np.finfo(float).max)
    if in_range:
        t0, t1 = 100.0 / om, 300.0 / om
        dt = np.minimum.reduce([cfl * _cfl_bound(np.array(eps), a, grid), 0.02 / om, (t1 - t0) / 4000.0])
        in_range = np.all(t1 / 2.0**62 < dt)
    if not in_range:
        raise ConfigError(f"config.grid.L: the scan's slowest decay rate omega={np.min(om):g} puts 300/omega "
                          "or its step count out of range; use a smaller box or a narrower scan.span")
    n = np.ceil(t1 / dt).astype(int)
    energy = _mode_energies(grid, a, mode, eps, dt, int(n.max()), scheme)

    rows = []
    for i, e in enumerate(eps):
        # a sequential sum: the same instants as stepping t += dt
        times = np.add.accumulate(np.full(n[i], dt[i]))
        keep = times >= t0[i]
        slope = np.polyfit(times[keep], np.log(energy[:n[i], i][keep]), 1)[0]
        om_meas = -0.5 * float(slope)
        rows.append({
            "inv_eps": 1.0 / e,
            "omega_measured": om_meas,
            "omega_analytic": om[i],
            "rel_err": abs(om_meas - om[i]) / om[i],
            "regime": classify_regime(kap, e, a),
        })
    rows.sort(key=lambda r: r["inv_eps"])
    worst = max(r["rel_err"] for r in rows)
    peak_row = min(rows, key=lambda r: abs(r["inv_eps"] - 2.0 * math.sqrt(S)))
    fits = {
        "experiment": "overdamping",
        "S": S,
        "rows": rows,
        "worst_rel_err": worst,
        "peak": {"inv_eps": peak_row["inv_eps"], "omega_measured": peak_row["omega_measured"],
                 "omega_analytic": peak_row["omega_analytic"], "target": 2.0 * S},
    }
    curves = {
        "inv_eps": [r["inv_eps"] for r in rows],
        "omega_measured": [r["omega_measured"] for r in rows],
        "omega_analytic": [r["omega_analytic"] for r in rows],
    }
    return {"fits": fits, "csv_curves": curves}


def run_simulate(grid: Grid, flux: Flux, a, eps: float, data: InitialDataSpec,
                 stepper: StepperConfig, trackers, p=2, k0: int = 0) -> dict:
    """Single trajectory with named Besov trackers, and its final fields."""
    base = sorted({(t["field"], t["p"]) for t in trackers} | set(_X_TRACKERS(p)))
    [(traj, J)] = _eps_runs(grid, flux, a, [(eps, data, ())], stepper, k0, base)
    rows = []
    for t in trackers:
        ser = traj.get(t["field"], t["p"])
        window = {"full": "full", "low": ("low", J), "high": ("high", J)}[t.get("window", "full")]
        curve = ser.besov_curve(t["s"], t["r"], window)
        for ti, val in zip(ser.times, curve):
            rows.append((ti, t["field"], t["s"], t["p"], t["r"], t.get("window", "full"), val))
    fits = {
        "experiment": "simulate",
        "eps": eps,
        "functional_X": {**functional_X(traj.series, eps, p, J, grid.d),
                         "x0": functional_X0(traj.series, eps, p, J, grid.d)},
        "steps": traj.steps,
        "mean_drift": traj.mean_drift,
        "max_abs_u": traj.max_abs_u,
    }
    return {"fits": fits, "norm_rows": rows,
            "csv_curves": {"t": list(traj.times),
                           "u": traj.get("u", p).besov_curve(grid.d / p, 1, "full").tolist()},
            "extra_files": {"trajectory.json": traj.summary()},
            "fields": {"u_final.bin": traj.final_state.u,
                       "v_final.bin": SpectralField.stack(traj.final_state.v)}}


def friction_grid(S: float, span, points: int) -> np.ndarray:
    """Frictions 1/eps of a one-mode scan, sorted and without repeats.

    `points` geometric values from span[0] to span[1] times the peak
    1/eps = 2 sqrt(S), and the peak itself, which adds a value only where
    the geometric values miss it. The two ends decide, in Python floats
    before numpy sees them, whether every eps^2 and 1/eps^2 is a positive float.
    """
    if not S > 0:
        raise ConfigError(f"config.scan.mode: the scanned mode has S = {S:g}; "
                          "the mean mode has no overdamping peak")
    peak = 2 * math.sqrt(S)
    for inv_eps in (min(float(span[0]), 1.0) * peak, max(float(span[1]), 1.0) * peak):
        eps = 1.0 / inv_eps if inv_eps > 0 else math.inf
        if not all(0.0 < x * x < math.inf for x in (inv_eps, eps)):
            raise ConfigError(f"config.scan.span: the friction 1/eps = {inv_eps:g} of S = {S:g} puts eps^2 "
                              "or 1/eps^2 outside the floats; use a narrower span")
    return _sorted_union(np.geomspace(span[0] * peak, span[1] * peak, points), [peak])


def run_spectrum(a, mode_kappa=(1.0,), points: int = 41, span=(0.25, 4.0)) -> dict:
    """Analytic overdamping curve: decay rate against the frictions of friction_grid."""
    S = mode_symbol(mode_kappa, a)
    rows = []
    for ie in friction_grid(S, span, points):
        eps = 1.0 / ie
        om = decay_rate_omega(mode_kappa, eps, a)
        rows.append({"inv_eps": float(ie), "omega": om, "regime": classify_regime(mode_kappa, eps, a)})
    return {
        "fits": {"experiment": "spectrum", "S": S, "rows": rows},
        "csv_curves": {"inv_eps": [r["inv_eps"] for r in rows],
                       "omega": [r["omega"] for r in rows],
                       "regime": [r["regime"] for r in rows]},
    }


# ---------------------------------------------------------------------------
# self test

def run_selftest(N: int = 256, seed: int = 0) -> dict:
    """The property suite: partition, disjointness, Bernstein, symmetry,
    eigen/propagator oracles, conservation, relaxation contraction."""
    rng = np.random.default_rng(seed)
    checks = []

    def record(name, value, bound, ok=None):
        checks.append({"name": name, "value": float(value), "bound": bound,
                       "pass": bool(value <= bound) if ok is None else bool(ok)})

    g = Grid(1, N, 2 * np.pi * 16)
    sch = scheme_for(g)
    mask = g.dealias_mask()
    total = sch.base_multiplier.copy()
    for j in sch.j_indices:
        total += sch.multipliers[j]
    record("partition_of_unity", np.max(np.abs(total[mask] - 1.0)), 1e-12)

    f = SpectralField.from_physical(g, rng.standard_normal(g.shape))
    c = f.coeffs.copy()
    c[:, 0] = 0
    f = SpectralField(g, c)
    j0 = (sch.j_min + sch.j_max) // 2
    b = dyadic_block(f, j0)
    record("block_disjointness", np.max(np.abs(dyadic_block(b, j0 + 2).coeffs)) / lp_norm(f, 2), 1e-12)
    recon = base_block(f)
    for j in sch.j_indices:
        recon = recon + dyadic_block(f, j)
    record("block_reconstruction", np.max(np.abs(recon.coeffs - f.coeffs)) / np.max(np.abs(f.coeffs)), 1e-10)

    worst_lo, worst_hi = math.inf, 0.0
    for _ in range(50):
        jj = int(rng.integers(sch.j_min + 2, sch.j_max - 1))
        raw = SpectralField.from_physical(g, rng.standard_normal(g.shape))
        blk = dyadic_block(raw, jj)
        for pexp in (2, np.inf):
            ratio = lp_norm(spectral_derivative(blk, 0), pexp) / lp_norm(blk, pexp) / 2.0**jj
            worst_lo = min(worst_lo, ratio)
            worst_hi = max(worst_hi, ratio)
    record("bernstein_lower", worst_lo, 4.0, ok=worst_lo >= 0.25)
    record("bernstein_upper", worst_hi, 4.0)

    prod = nonlinear_product(f, f)
    record("hermitian_product", prod.hermitian_defect(), 1e-10)
    # in 1D the self-conjugate plane 0 is the mean alone, which a derivative
    # removes; in 2D a derivative along axis 0 carries the whole plane
    x = f.to_physical()[0]
    f2 = SpectralField.from_physical(Grid(2, N, g.L), np.add.outer(x, x))
    record("hermitian_derivative", spectral_derivative(f2, 0).hermitian_defect(), 1e-10)

    worst = 0.0
    for _ in range(1000):
        d = int(rng.integers(1, 3))
        xi = rng.uniform(-6, 6, d)
        eps = 10.0 ** rng.uniform(-2, 0.5)
        a = 10.0 ** rng.uniform(-1, 1, d)
        A = generator_matrix(xi, eps, a)
        nrm = np.linalg.norm(A, 2)
        for lam in eigenvalues(xi, eps, a):
            worst = max(worst, abs(np.linalg.det(A - lam * np.eye(d + 1))) / (1 + nrm ** (d + 1)))
    record("charpoly_residual", worst, 1e-8)

    worst = 0.0
    cases = [((0.5,), 1.0, (1.0,)), ((1.3,), 0.3, (1.0,)), ((0.2, 0.7), 0.11, (1.0, 2.0))]
    for xi, eps, a in cases:
        P1 = exact_linear_propagator(xi, eps, a, 0.7)
        P2 = exact_linear_propagator(xi, eps, a, 1.1)
        P3 = exact_linear_propagator(xi, eps, a, 1.8)
        worst = max(worst, np.max(np.abs(P1 @ P2 - P3)) / np.max(np.abs(P3)))
    record("propagator_semigroup", worst, 1e-9)

    A = generator_matrix((1.0,), 1.0, (1.0,))
    P = exact_linear_propagator((1.0,), 1.0, (1.0,), 1.0)
    w = np.eye(2, dtype=complex)
    h, nst = 1e-4, 10000
    for _ in range(nst):
        k1 = A @ w
        k2 = A @ (w + h / 2 * k1)
        k3 = A @ (w + h / 2 * k2)
        k4 = A @ (w + h * k3)
        w = w + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    record("propagator_vs_rk4", np.max(np.abs(P - w)), 1e-8)

    flux = make_flux("burgers1d")
    gm = Grid(1, 64, 2 * np.pi)
    model = JinXinModel(flux, (1.0,), 0.5)
    spec = InitialDataSpec(kind="gaussian_bump", amplitude=0.05, width=1.0)
    st = make_initial_data(spec, gm, model)
    mean0 = st.u.mean()
    dt = 0.4 * jinxin_dt_bound(model, gm)
    kernel, coeffs = _JinXinStepper(flux, model.a, gm).prepare("imex_ssp2", dt, model.eps)
    w, t = advance(kernel, coeffs, _arrays(st), 10000, st.t, dt)
    record("mean_conservation", np.max(np.abs(_state(gm, w, t).u.mean() - mean0)), 1e-13)

    # frozen-u implicit update contracts the closure distance exactly
    eps, dt = 0.3, 0.05
    st2 = make_initial_data(InitialDataSpec(kind="gaussian_bump", amplitude=0.1,
                                            v_kind="ill_prepared", v_scale=0.5),
                            gm, JinXinModel(flux, (1.0,), eps))
    Z0 = SpectralField.stack(effective_Z(JinXinModel(flux, (1.0,), eps), st2))
    fv = flux_fields(flux, st2.u)
    v_new = [
        SpectralField(gm, (eps**2 * st2.v[i].coeffs
                           + dt * (-1.0 * spectral_derivative(st2.u, i).coeffs + fv[i].coeffs))
                      / (eps**2 + dt))
        for i in range(1)
    ]
    Z1 = SpectralField.stack(effective_Z(JinXinModel(flux, (1.0,), eps),
                                         JinXinState(st2.u, v_new, 0.0)))
    contraction = lp_norm(Z1, 2) / lp_norm(Z0, 2)
    record("relaxation_contraction", abs(contraction - eps**2 / (eps**2 + dt)), 1e-12)

    rnd = SpectralField.from_physical(g, rng.standard_normal(g.shape))
    b1 = besov_norm(rnd, 0.3, 2, 1)
    b2 = besov_norm(rnd * (-2.5), 0.3, 2, 1)
    record("besov_homogeneity", abs(b2 - 2.5 * b1) / b1, 1e-12)

    n_pass = sum(1 for c in checks if c["pass"])
    return {
        "fits": {"experiment": "selftest", "checks": checks,
                 "passed": n_pass, "total": len(checks)},
    }


# ---------------------------------------------------------------------------
# parallel map and results layout

def _pmap(fn, args, jobs: int):
    if jobs <= 1 or len(args) <= 1:
        return [fn(a) for a in args]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as ex:
        return list(ex.map(fn, args))


def _norm_rows(series: NormSeries, name: str):
    return [(t, name, 0.0, series.p, 1, "full", b)
            for t, b in zip(series.times, series.besov_curve(0.0, 1))]


def _json_default(o):
    if isinstance(o, (np.floating, np.integer)):
        return o.item()
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"not serializable: {type(o)}")


def _write_json(path: str, tree):
    with open(path, "w") as fh:
        json.dump(tree, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def write_results(outdir: str, config: dict, config_hash: str, result: dict) -> str:
    """Persist the canonical layout under outdir/<config-hash>/: the config,
    fits, norm rows, curves as CSV and as its `relaxlab plot` SVG, each JSON
    sidecar of result["extra_files"] stamped with the hash, and each field of
    result["fields"] under fields/."""
    rundir = os.path.join(outdir, config_hash)
    os.makedirs(rundir, exist_ok=True)
    _write_json(os.path.join(rundir, "config.json"), config)
    _write_json(os.path.join(rundir, "fits.json"), result["fits"])
    with open(os.path.join(rundir, "norms.csv"), "w") as fh:
        fh.write("t,name,s,p,r,window,value\n")
        for t, name, s, p, r, window, value in result.get("norm_rows", []):
            fh.write(f"{float(t)!r},{name},{float(s)!r},{p!r},{r!r},{window},{float(value)!r}\n")
    curves = result.get("csv_curves")
    if curves:
        # repr round-trips every float, so the SVG plots the values themselves
        csv_path = os.path.join(rundir, "curves.csv")
        with open(csv_path, "w") as fh:
            fh.write(",".join(curves) + "\n")
            for row in zip(*curves.values()):
                fh.write(",".join(v if isinstance(v, str) else repr(float(v)) for v in row) + "\n")
        plot_emit(csv_path)
    for name, tree in result.get("extra_files", {}).items():
        _write_json(os.path.join(rundir, name), {**tree, "config_hash": config_hash})
    for name, field in result.get("fields", {}).items():
        os.makedirs(os.path.join(rundir, "fields"), exist_ok=True)
        save_field(field, os.path.join(rundir, "fields", name))
    return rundir
