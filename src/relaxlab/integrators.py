"""Time integration: IMEX steppers for the stiff relaxation system and an
integrating-factor stepper for its viscous limit, all marched by one loop.

The relaxation source is linear in v, so the implicit solve is exact and
pointwise; the transport stays explicit and spectral. This removes the
1/eps^2 stiffness and keeps dt limited only by the hyperbolic CFL, with
characteristic speeds +-sqrt(a_i)/eps.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from .models import (
    DivergenceError,
    Flux,
    JinXinModel,
    JinXinState,
    checked_velocities,
    darcy_velocity,
    effective_Z,
    effective_z,
    flux_coeffs,
)
from .spectral_core import (
    NormSeries,
    SpectralField,
    _dealiased_physical,
    block_lp_norms,
    diffusion_symbol,
    lp_norm,
    scheme_for,
)
from .spectral_analysis import exact_linear_propagator

__all__ = [
    "StepperConfig",
    "CFLError",
    "advance",
    "step_jinxin",
    "step_limit",
    "evolve",
    "Trajectory",
    "jinxin_dt_bound",
    "limit_advective_speed",
]

JINXIN_SCHEMES = ("imex_ssp2", "exact_linear")

# ARS(2,2,2) coefficients
_GAMMA = 1.0 - 1.0 / math.sqrt(2.0)
_DELTA = 1.0 - 1.0 / (2.0 * _GAMMA)


class CFLError(ValueError):
    def __init__(self, dt: float, admissible: float):
        super().__init__(f"dt={dt:g} violates the CFL bound; use dt <= {admissible:g}")
        self.admissible = admissible


@dataclass
class StepperConfig:
    scheme: str = "imex_ssp2"
    cfl: float = 0.45
    dt_max: float = 0.05
    dt_min: float = 1e-12
    t_end: float = 1.0
    sample_every: float = 0.1

    def __post_init__(self):
        if not (0.0 < self.cfl <= 1.0):
            raise ValueError("cfl must lie in (0, 1]")
        if not (0.0 < self.dt_min <= self.dt_max):
            raise ValueError("need 0 < dt_min <= dt_max")
        checked_relaxation_scheme(self.scheme)


def jinxin_dt_bound(model: JinXinModel, grid) -> float:
    """Hard CFL limit eps*dx/max_i sqrt(a_i) for the relaxation system."""
    return _cfl_bound(model.eps, model.a, grid)


def _cfl_bound(eps, a, grid):
    """jinxin_dt_bound at friction 1/eps, a float or a member column."""
    return eps * grid.dx / max(math.sqrt(ai) for ai in a)


def limit_advective_speed(flux: Flux, u: SpectralField) -> float:
    """Estimate max |df/du| over the grid by central differences."""
    if flux.is_zero:
        return 0.0
    phys = _dealiased_physical(u.coeffs, u.grid)
    h = 1e-5 * (1.0 + np.max(np.abs(phys)))
    speed = 0.0
    for k in range(flux.n):
        up, um = phys.copy(), phys.copy()
        up[k] += h
        um[k] -= h
        fp, fm = flux.evaluate(up), flux.evaluate(um)
        for i in range(flux.d):
            speed = max(speed, float(np.max(np.abs(fp[i] - fm[i])) / (2 * h)))
    return speed


# ---------------------------------------------------------------------------
# the stepping loop

def advance(kernel, coeffs, w: list, n_sub: int, t, h):
    """n_sub steps w <- kernel(w, coeffs) of size h from t; returns (w, t).

    w lists raw coefficient arrays, [u, v_1, ..., v_d] or [u*]; t and h are
    floats or member columns. A non-finite step raises DivergenceError at its
    (largest) t. A caller that hands w over frees each step's input in turn.
    """
    # a diverging state overflows on its way to the check below
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(n_sub):
            w = kernel(w, coeffs)
            t += h
            if not all(np.isfinite(wi).all() for wi in w):
                raise DivergenceError(float(np.max(t)))
    return w, t


# ---------------------------------------------------------------------------
# the stepper

class _JinXinStepper:
    """Precomputed multipliers for one (flux, a, grid) and every scheme on it.

    The kernels of imex_ssp2 and exact_linear map [u, v_1, ..., v_d], raw
    coefficient arrays of shape (..., n, N...), one step on (see advance);
    if_rk2 steps [u*] of the limit u_t + div f(u) = sum_i a_i d_i^2 u. eps
    and dt enter only through prepare(), as floats or as member columns that
    broadcast against u, so one kernel advances a leading member axis of
    systems that share flux, a and grid but not eps or dt. All arithmetic is
    elementwise, so each member gets the numbers it would get stepped alone.
    """

    def __init__(self, flux: Flux, a, grid):
        self.flux = flux
        self.a = a
        self.grid = grid
        self.kap = grid.kappa_axes()
        self.deriv = [1j * kap for kap in self.kap]
        self.neg_a_deriv = [-a[i] * self.deriv[i] for i in range(flux.d)]

    def bound(self, scheme: str, eps, u0: SpectralField):
        """The bound dt of `scheme` is taken against at friction 1/eps from u0:
        the CFL bound for imex_ssp2, dx / limit speed for if_rk2, None at zero
        speed and for exact_linear.
        """
        if scheme == "imex_ssp2":
            return _cfl_bound(eps, self.a, self.grid)
        if scheme == "if_rk2":
            speed = limit_advective_speed(self.flux, u0)
            return self.grid.dx / speed if speed > 0 else None
        if scheme == "exact_linear":
            return None
        raise ValueError(f"unknown scheme {scheme!r}")

    def prepare(self, scheme: str, dt, eps=None) -> tuple:
        """(kernel, coefficients) of one step of `scheme` with size dt at friction 1/eps.

        imex_ssp2 checks every member against its hyperbolic CFL bound; the
        exact propagator has none. Its coefficients are the per-mode
        propagator P on the stored lattice and eps; those of if_rk2, which
        takes no eps, exp(-S dt) and dt. S is built here, so a stepper that
        never prepares if_rk2 keeps no S table.
        """
        if scheme == "imex_ssp2":
            dts, bounds = np.broadcast_arrays(dt, _cfl_bound(eps, self.a, self.grid))
            over = np.flatnonzero(dts > bounds * (1.0 + 1e-12))
            if over.size:
                raise CFLError(float(dts.flat[over[0]]), float(bounds.flat[over[0]]))
            e2 = eps**2
            g = dt * _GAMMA
            return self.ssp2, (dt, e2, g, e2 + g, dt * (1 - _GAMMA))
        if scheme == "exact_linear":
            if not self.flux.is_zero:
                raise ValueError("exact_linear applies to the linear system (zero flux) only")
            xi = np.stack(np.broadcast_arrays(*self.kap), -1)
            return self.exact_linear, (exact_linear_propagator(xi, eps, self.a, dt), eps)
        if scheme == "if_rk2":
            return self.if_rk2, (np.exp(-diffusion_symbol(self.grid, self.a) * dt), dt)
        raise ValueError(f"unknown scheme {scheme!r}")

    def _stiff(self, u):
        """[-a_i d_i u + f_i(u)], the relaxed targets of v."""
        s = [nad * u for nad in self.neg_a_deriv]
        if not self.flux.is_zero:
            for si, fi in zip(s, flux_coeffs(self.flux, self.grid, u)):
                si += fi
        return s

    def _div_v(self, v):
        return sum(self.deriv[i] * v[i] for i in range(len(v)))

    def ssp2(self, w, coeffs):
        dt, e2, g, e2g, dt_rest = coeffs
        u0, *v0 = w
        d = len(v0)
        # first implicit stage
        stiff2 = self._stiff(u0 - g * self._div_v(v0))
        v2 = [(e2 * v0[i] + g * stiff2[i]) / e2g for i in range(d)]
        s2 = [(stiff2[i] - v2[i]) / e2 for i in range(d)]
        # stage temporaries go before the next flux transform, the peak of a step
        del stiff2
        # second implicit stage (equals the update: stiffly accurate)
        u3 = u0 - dt * self._div_v([_DELTA * v0[i] + (1 - _DELTA) * v2[i] for i in range(d)])
        del v2
        stiff3 = self._stiff(u3)
        return [u3] + [(e2 * (v0[i] + dt_rest * s2[i]) + g * stiff3[i]) / e2g for i in range(d)]

    def exact_linear(self, w, coeffs):
        """w1 = P w0 mode by mode, w = (u_hat, eps*v_hat_1, ..., eps*v_hat_d)."""
        P, eps = coeffs
        u0, *v0 = w
        w0 = [u0] + [eps * vi for vi in v0]
        w1 = [sum(P[..., i, j] * wj for j, wj in enumerate(w0)) for i in range(len(w0))]
        return [w1[0]] + [wi / eps for wi in w1[1:]]

    def _nonlin(self, u):
        return -self._div_v(flux_coeffs(self.flux, self.grid, u))

    def if_rk2(self, w, coeffs):
        """One integrating-factor RK2 step of [u0]; ef = exp(-S dt)."""
        ef, dt = coeffs
        u0, = w
        if self.flux.is_zero:
            return [ef * u0]
        k1 = self._nonlin(u0)
        k2 = self._nonlin(ef * (u0 + dt * k1))
        return [ef * u0 + 0.5 * dt * (ef * k1 + k2)]


def checked_relaxation_scheme(scheme: str) -> str:
    """scheme, if it steps the relaxation system (if_rk2 steps its limit)."""
    if scheme not in JINXIN_SCHEMES:
        raise ValueError(f"unknown relaxation scheme {scheme!r}; need one of {JINXIN_SCHEMES}")
    return scheme


def _arrays(state: JinXinState) -> list:
    """[u, v_1, ..., v_d], the raw coefficient arrays of state."""
    return [state.u.coeffs] + [vi.coeffs for vi in state.v]


def _state(grid, w: list, t: float) -> JinXinState:
    """The relaxation state of raw coefficient arrays [u, v_1, ..., v_d] at time t."""
    return JinXinState(SpectralField(grid, w[0]), [SpectralField(grid, wi) for wi in w[1:]], t)


def step_jinxin(model: JinXinModel, state: JinXinState, dt: float, scheme: str = "imex_ssp2") -> JinXinState:
    """Advance the relaxation system by one step of `scheme`.

    A one-shot helper for tests and the benchmark's kernel table: every call
    builds a new stepper (wavenumber tables, CFL bound, step coefficients).
    Loops should go through evolve, which builds one per run.
    """
    stepper = _JinXinStepper(model.flux, model.a, state.grid)
    kernel, coeffs = stepper.prepare(checked_relaxation_scheme(scheme), dt, model.eps)
    return _state(state.grid, *advance(kernel, coeffs, _arrays(state), 1, state.t, dt))


def step_limit(flux: Flux, a, u_star: SpectralField, dt: float) -> SpectralField:
    """Advance the limit equation by one integrating-factor (if_rk2) step.

    A one-shot helper like step_jinxin: every call builds a new stepper
    (wavenumber tables, diffusion symbol, exp(-S dt)). Loops should go
    through evolve.
    """
    kernel, coeffs = _JinXinStepper(flux, checked_velocities(flux, a), u_star.grid).prepare("if_rk2", dt)
    return SpectralField(u_star.grid, advance(kernel, coeffs, [u_star.coeffs], 1, 0.0, dt)[0][0])


# ---------------------------------------------------------------------------
# trajectories

@dataclass
class Trajectory:
    times: np.ndarray
    series: dict            # (field, p) -> NormSeries
    final_state: object
    steps: int
    wall_time: float
    mean_drift: float
    max_abs_u: float
    runs: list              # per stepped system: scheme, dt, stability bound, steps

    def get(self, fieldname: str, p) -> NormSeries:
        return self.series[(fieldname, p)]

    def summary(self, config_hash: str = "") -> dict:
        """JSON-ready trajectory summary."""
        out = {
            "config_hash": config_hash,
            "t_samples": [float(t) for t in self.times],
            "step_count": self.steps,
            "wall_time": self.wall_time,
            "mean_drift": self.mean_drift,
            "max_abs_u": self.max_abs_u,
            "runs": self.runs,
            "tracked": {},
        }
        for (name, p), ser in sorted(self.series.items(), key=lambda kv: (kv[0][0], str(kv[0][1]))):
            out["tracked"][f"{name}@p={p}"] = {
                "j_indices": [int(j) for j in ser.j_indices],
                "table": ser.table.tolist(),
            }
        return out


def _tracked_field(model: JinXinModel, state: JinXinState, name: str,
                   u_star: SpectralField | None) -> SpectralField:
    """The named field of state; du/dv compare it with the limit u_star."""
    if name == "u":
        return state.u
    if name == "v":
        return SpectralField.stack(state.v)
    if name == "z":
        return SpectralField.stack(effective_z(model, state))
    if name == "Z":
        return SpectralField.stack(effective_Z(model, state))
    if name == "du":
        return state.u - u_star
    if name == "dv":
        vstar = darcy_velocity(model.flux, model.a, u_star)
        return SpectralField.stack([state.v[i] - vstar[i] for i in range(model.d)])
    raise KeyError(f"unknown tracker field {name!r}")


def sample_times_linear(t_end: float, every: float) -> np.ndarray:
    n = int(round(t_end / every))
    return np.linspace(0.0, t_end, n + 1)


def _stepper_for(model: JinXinModel, initial: JinXinState, config: StepperConfig,
                 companion: bool) -> list:
    """[(prepare, run)] of the relaxation system, then of its if_rk2 limit
    companion when asked for, on one stepper. prepare(h) gives (kernel,
    coefficients) of one step of size h; run records the scheme, dt, the
    stepper's bound for it and the steps."""
    stepper = _JinXinStepper(model.flux, model.a, initial.grid)
    runs = []
    for scheme in [config.scheme] + ["if_rk2"] * companion:
        bound = stepper.bound(scheme, model.eps, initial.u)
        dt = config.dt_max if bound is None else min(config.dt_max, config.cfl * bound)
        if dt < config.dt_min:
            raise ValueError(f"required dt {dt:g} is below dt_min {config.dt_min:g}")
        runs.append((partial(stepper.prepare, scheme, eps=model.eps),
                     {"scheme": scheme, "dt": dt, "bound": bound, "steps": 0}))
    return runs


def _checked_sample_times(sample_times) -> np.ndarray:
    """Finite sample times, strictly increasing from a prepended 0."""
    ts = np.asarray(sample_times, dtype=float)
    if ts.ndim != 1:
        raise ValueError("sample times must be a 1D sequence")
    if ts.size == 0 or ts[0] != 0.0:
        ts = np.concatenate([[0.0], ts])
    bad = np.flatnonzero(~(np.isfinite(ts[1:]) & (ts[1:] > ts[:-1])))
    if bad.size:
        k = bad[0]
        raise ValueError("sample times must be finite and strictly increasing from 0; "
                         f"got {ts[k]:g} then {ts[k + 1]:g}")
    return ts


def evolve(model: JinXinModel, initial: JinXinState, config: StepperConfig, trackers,
           sample_times=None) -> Trajectory:
    """March to t_end sampling per-block norms of the tracked quantities.

    trackers is a list of (field, p) pairs; field is one of u/v/z/Z, or
    du = u - u* and dv = v - v*(u*) against the viscous limit u* with the
    model's flux and a and the initial u. A du or dv tracker starts that
    limit as a companion run stepped with if_rk2 in lockstep.
    Deterministic for a fixed config; each run subdivides every sampling
    interval uniformly so samples land exactly on the requested instants,
    and advances over it on raw coefficient arrays. sample_times must be
    finite and strictly increasing; 0 is prepended when missing.
    """
    if sample_times is None:
        sample_times = sample_times_linear(config.t_end, config.sample_every)
    sample_times = _checked_sample_times(sample_times)

    companion = any(name in ("du", "dv") for name, _ in trackers)
    runs = _stepper_for(model, initial, config, companion)
    grid = initial.grid
    # each run's raw arrays and time; kernels never write their input, so the
    # companion may start from initial's own u
    arrays = [_arrays(initial)] + ([[initial.u.coeffs]] if companion else [])
    clocks = [initial.t] * len(runs)

    sch = scheme_for(grid)
    # one row of block norms per sample; each series reads the transpose
    rows = {key: np.empty((sample_times.size, sch.j_indices.size)) for key in trackers}
    t_start = time.perf_counter()
    mean0 = initial.u.mean()
    max_abs_u = 0.0
    mean_drift = 0.0

    def sample(k):
        nonlocal max_abs_u, mean_drift
        st = _state(grid, arrays[0], clocks[0])
        u_star = SpectralField(grid, arrays[1][0]) if companion else None
        max_abs_u = max(max_abs_u, lp_norm(st.u, np.inf))
        mean_drift = max(mean_drift, float(np.max(np.abs(st.u.mean() - mean0))))
        for (name, p), tab in rows.items():
            tab[k] = block_lp_norms(_tracked_field(model, st, name, u_star), p, sch)

    sample(0)
    for k in range(1, sample_times.size):
        span = sample_times[k] - sample_times[k - 1]
        for i, (prepare, run) in enumerate(runs):
            n_sub = max(1, int(math.ceil(span / run["dt"] - 1e-12)))
            h = span / n_sub
            kernel, coeffs = prepare(h)
            # popped into a plain call (no argument tuple), then w and the tables
            # unbound: advance frees each step's input, prepare the old tables
            w, clocks[i] = advance(kernel, coeffs, arrays.pop(i), n_sub, clocks[i], h)
            arrays.insert(i, w)
            del w, kernel, coeffs
            run["steps"] += n_sub
        sample(k)

    return Trajectory(
        times=sample_times,
        series={(name, p): NormSeries(sch.j_indices, p, sample_times, tab.T)
                for (name, p), tab in rows.items()},
        final_state=_state(grid, arrays[0], clocks[0]),
        steps=sum(run["steps"] for _, run in runs),
        wall_time=time.perf_counter() - t_start,
        mean_drift=mean_drift,
        max_abs_u=max_abs_u,
        runs=[run for _, run in runs],
    )
