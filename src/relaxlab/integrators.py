"""Time integration: IMEX steppers for the stiff relaxation system and an
integrating-factor stepper for its viscous limit.

The relaxation source is linear in v, so the implicit solve is exact and
pointwise; the transport stays explicit and spectral. This removes the
1/eps^2 stiffness and keeps dt limited only by the hyperbolic CFL, with
characteristic speeds +-sqrt(a_i)/eps.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .models import (
    DivergenceError,
    Flux,
    JinXinModel,
    JinXinState,
    LimitState,
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
        if self.scheme not in JINXIN_SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")


def jinxin_dt_bound(model: JinXinModel, grid) -> float:
    """Hard CFL limit eps*dx/max_i sqrt(a_i) for the relaxation system."""
    return model.eps * grid.dx / max(math.sqrt(ai) for ai in model.a)


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
# relaxation system steppers

class _JinXinStepper:
    """Precomputed multipliers for one (model, grid) pair.

    The scheme kernels work on raw coefficient arrays: u of shape
    (..., n, N...) and v a list of d arrays shaped like u. eps and dt enter
    only through the coefficient tuple from prepare(), as scalars or as
    arrays that broadcast against u, so one kernel advances a leading member
    axis of systems that share flux, a and grid but not eps or dt. All
    arithmetic is elementwise, so each member gets the numbers it would get
    stepped alone.
    """

    def __init__(self, model: JinXinModel, grid):
        self.model = model
        self.grid = grid
        self.kap = grid.kappa_axes()
        self.deriv = [1j * kap for kap in self.kap]
        self.neg_a_deriv = [-model.a[i] * self.deriv[i] for i in range(model.d)]
        self.bound = jinxin_dt_bound(model, grid)

    def check_dt(self, dt: float, scheme: str):
        """The hyperbolic CFL limit; the exact propagator has none."""
        if scheme != "exact_linear" and dt > self.bound * (1.0 + 1e-12):
            raise CFLError(dt, self.bound)

    def prepare(self, scheme: str, dt: float) -> tuple:
        """(kernel, coefficients) of one step of `scheme` with size dt.

        exact_linear's coefficients are the entries P[i, j] of the per-mode
        propagator on the stored lattice, row by row, then eps; one entry
        per tuple slot lets a batch stack each entry along its member axis.
        """
        eps = self.model.eps
        e2 = eps**2
        if scheme == "imex_ssp2":
            g = dt * _GAMMA
            return self.ssp2, (dt, e2, g, e2 + g, dt * (1 - _GAMMA))
        if scheme == "exact_linear":
            if not self.model.flux.is_zero:
                raise ValueError("exact_linear applies to the linear system (zero flux) only")
            xi = np.stack(np.broadcast_arrays(*self.kap), -1)
            P = exact_linear_propagator(xi, eps, self.model.a, dt)
            n = self.model.d + 1
            entries = tuple(np.ascontiguousarray(P[..., i, j]) for i in range(n) for j in range(n))
            return self.exact_linear, entries + (eps,)
        raise ValueError(f"unknown relaxation scheme {scheme!r}")

    def _stiff(self, u):
        """[-a_i d_i u + f_i(u)], the relaxed targets of v."""
        s = [nad * u for nad in self.neg_a_deriv]
        if not self.model.flux.is_zero:
            for si, fi in zip(s, flux_coeffs(self.model.flux, self.grid, u)):
                si += fi
        return s

    def _div_v(self, v):
        return sum(self.deriv[i] * v[i] for i in range(self.model.d))

    def ssp2(self, u0, v0, coeffs):
        dt, e2, g, e2g, dt_rest = coeffs
        d = self.model.d
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
        v3 = [(e2 * (v0[i] + dt_rest * s2[i]) + g * stiff3[i]) / e2g for i in range(d)]
        return u3, v3

    def exact_linear(self, u0, v0, coeffs):
        """w1 = P w0 mode by mode, w = (u_hat, eps*v_hat_1, ..., eps*v_hat_d)."""
        *P, eps = coeffs
        n = self.model.d + 1
        w0 = [u0] + [eps * vi for vi in v0]
        w1 = [sum(P[i * n + j] * w0[j] for j in range(n)) for i in range(n)]
        return w1[0], [wi / eps for wi in w1[1:]]

    def advance(self, state: JinXinState, h: float, n_sub: int, scheme: str) -> JinXinState:
        """n_sub steps of size h on raw coefficient arrays; one state at the end."""
        self.check_dt(h, scheme)
        kernel, coeffs = self.prepare(scheme, h)
        u, v, t = state.u.coeffs, [vi.coeffs for vi in state.v], state.t
        del state  # u and v hold its arrays now; the first step lets them go
        for _ in range(n_sub):
            u, v = kernel(u, v, coeffs)
            t += h
            if not (np.isfinite(u).all() and all(np.isfinite(vi).all() for vi in v)):
                raise DivergenceError(t)
        return JinXinState(SpectralField(self.grid, u), [SpectralField(self.grid, vi) for vi in v], t)

    def step(self, state: JinXinState, dt: float, scheme: str) -> JinXinState:
        return self.advance(state, dt, 1, scheme)


def step_jinxin(model: JinXinModel, state: JinXinState, dt: float, scheme: str = "imex_ssp2") -> JinXinState:
    """Advance the relaxation system by one step of `scheme`.

    A one-shot helper for tests and the benchmark's kernel table: every call
    builds a new stepper (wavenumber tables, CFL bound, step coefficients).
    Loops should go through evolve, which builds one per run.
    """
    return _JinXinStepper(model, state.grid).step(state, dt, scheme)


# ---------------------------------------------------------------------------
# limit equation stepper

class _LimitStepper:
    """The viscous conservation law u_t + div f(u) = sum_i a_i d_i^2 u."""

    def __init__(self, flux: Flux, a, grid):
        self.flux = flux
        self.grid = grid
        self.deriv = [1j * kap for kap in grid.kappa_axes()]
        self.S = diffusion_symbol(grid, a)

    def _nonlin(self, u):
        fv = flux_coeffs(self.flux, self.grid, u)
        return -sum(self.deriv[i] * fv[i] for i in range(self.flux.d))

    def if_rk2(self, u0, ef, dt: float):
        """One integrating-factor RK2 step of coefficients u0; ef = exp(-S dt)."""
        if self.flux.is_zero:
            return ef * u0
        k1 = self._nonlin(u0)
        k2 = self._nonlin(ef * (u0 + dt * k1))
        return ef * u0 + 0.5 * dt * (ef * k1 + k2)

    def advance(self, state: LimitState, h: float, n_sub: int, scheme: str = "if_rk2") -> LimitState:
        """n_sub steps of size h on raw coefficient arrays; one state at the end."""
        if scheme != "if_rk2":
            raise ValueError(f"unknown limit scheme {scheme!r}")
        ef = np.exp(-self.S * h)
        u, t = state.u_star.coeffs, state.t
        del state  # u holds its array now; the first step lets it go
        for _ in range(n_sub):
            u = self.if_rk2(u, ef, h)
            t += h
            if not np.isfinite(u).all():
                raise DivergenceError(t)
        return LimitState(SpectralField(self.grid, u), t)

    def step(self, state: LimitState, dt: float, scheme: str = "if_rk2") -> LimitState:
        return self.advance(state, dt, 1, scheme)


def step_limit(flux: Flux, a, state: LimitState, dt: float) -> LimitState:
    """Advance the limit equation by one integrating-factor (if_rk2) step.

    A one-shot helper like step_jinxin: every call builds a new stepper
    (wavenumber tables, diffusion symbol, exp(-S dt)). Loops should go
    through evolve.
    """
    return _LimitStepper(flux, checked_velocities(flux, a), state.grid).step(state, dt)


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
                "table": [[float(x) for x in row] for row in ser.table],
            }
        return out


def _tracked_field(model: JinXinModel, state: JinXinState, name: str,
                   lim: LimitState | None) -> SpectralField:
    """The named field of state; du/dv compare it with the limit state lim."""
    if name == "u":
        return state.u
    if name == "v":
        return SpectralField.stack(state.v)
    if name == "z":
        return SpectralField.stack(effective_z(model, state))
    if name == "Z":
        return SpectralField.stack(effective_Z(model, state))
    if name == "du":
        return state.u - lim.u_star
    if name == "dv":
        vstar = darcy_velocity(model.flux, model.a, lim.u_star)
        return SpectralField.stack([state.v[i] - vstar[i] for i in range(model.d)])
    raise KeyError(f"unknown tracker field {name!r}")


def sample_times_linear(t_end: float, every: float) -> np.ndarray:
    n = int(round(t_end / every))
    return np.linspace(0.0, t_end, n + 1)


def _stepper_for(model: JinXinModel, initial: JinXinState, config: StepperConfig,
                 companion: bool) -> list:
    """[(stepper, run)] of the relaxation system, then of its limit companion
    when asked for: the dt policy of each run evolve advances.

    run records the scheme, dt, the stability bound dt is taken against and
    the steps taken so far. The bound is the hyperbolic CFL bound of the
    relaxation system or dx/speed for the limit equation; it is None where
    there is none (exact_linear, or the limit at zero speed).
    """
    grid = initial.grid
    relax = _JinXinStepper(model, grid)
    plans = [(relax, config.scheme, None if config.scheme == "exact_linear" else relax.bound)]
    if companion:
        speed = limit_advective_speed(model.flux, initial.u)
        plans.append((_LimitStepper(model.flux, model.a, grid), "if_rk2",
                      grid.dx / speed if speed > 0 else None))
    runs = []
    for stepper, scheme, bound in plans:
        dt = config.dt_max if bound is None else min(config.dt_max, config.cfl * bound)
        if dt < config.dt_min:
            raise ValueError(f"required dt {dt:g} is below dt_min {config.dt_min:g}")
        runs.append((stepper, {"scheme": scheme, "dt": dt, "bound": bound, "steps": 0}))
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
    states = [initial]
    if companion:
        states.append(LimitState(initial.u.copy(), initial.t))

    sch = scheme_for(initial.grid)
    series = {(name, p): NormSeries(sch.j_indices, p) for (name, p) in trackers}
    t_start = time.perf_counter()
    mean0 = initial.u.mean()
    max_abs_u = 0.0
    mean_drift = 0.0

    def sample(t):
        nonlocal max_abs_u, mean_drift
        st, lim = states[0], (states[1] if companion else None)
        max_abs_u = max(max_abs_u, lp_norm(st.u, np.inf))
        mean_drift = max(mean_drift, float(np.max(np.abs(st.u.mean() - mean0))))
        for (name, p), ser in series.items():
            ser.append(t, block_lp_norms(_tracked_field(model, st, name, lim), p, sch))

    sample(0.0)
    for k in range(1, sample_times.size):
        span = sample_times[k] - sample_times[k - 1]
        for i, (stepper, run) in enumerate(runs):
            n_sub = max(1, int(math.ceil(span / run["dt"] - 1e-12)))
            # popped, not indexed: no reference to the old state stays here,
            # so its arrays are freed as soon as advance has unpacked them
            states.insert(i, stepper.advance(states.pop(i), span / n_sub, n_sub, run["scheme"]))
            run["steps"] += n_sub
        sample(sample_times[k])

    return Trajectory(
        times=sample_times,
        series=series,
        final_state=states[0],
        steps=sum(run["steps"] for _, run in runs),
        wall_time=time.perf_counter() - t_start,
        mean_drift=mean_drift,
        max_abs_u=max_abs_u,
        runs=[run for _, run in runs],
    )
