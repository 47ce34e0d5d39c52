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
    ConfigError,
    DivergenceError,
    Flux,
    JinXinModel,
    JinXinState,
    _closure_v,
    _closure_Z,
    _positive,
    checked_velocities,
    flux_band,
)
from .spectral_core import (
    NormSeries,
    SpectralField,
    _band,
    _dealiased_physical,
    _expand,
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


@dataclass(frozen=True)
class StepperConfig:
    """The config's stepper section; a bad value raises ConfigError at config.stepper.<field>."""

    scheme: str = "imex_ssp2"
    cfl: float = 0.45
    dt_max: float = 0.05
    dt_min: float = 1e-12
    t_end: float = 1.0
    sample_every: float = 0.1

    def __post_init__(self):
        checked_relaxation_scheme(self.scheme)
        if not 0.0 < self.cfl <= 1.0:
            raise ConfigError(f"config.stepper.cfl: cfl must lie in (0, 1], got {self.cfl!r}")
        for name in ("dt_max", "dt_min", "t_end", "sample_every"):
            _positive(f"config.stepper.{name}", getattr(self, name))
        if not self.dt_min <= self.dt_max:
            raise ConfigError(f"config.stepper.dt_min: need dt_min <= dt_max, got {self.dt_min!r} > {self.dt_max!r}")


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

    w lists band coefficient arrays, [u, v_1, ..., v_d] or [u*]; t and h are
    floats or member arrays, and member m is index m on axis 1 of every
    array of w. A non-finite step raises DivergenceError at the time of its
    first non-finite member, whose index it records as `member`. A caller
    that hands w over frees each step's input in turn.
    """
    # a diverging state overflows on its way to the check below
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(n_sub):
            w = kernel(w, coeffs)
            t += h
            if not all(np.isfinite(wi).all() for wi in w):
                if np.ndim(t) == 0:
                    raise DivergenceError(float(t))
                finite = [np.isfinite(wi).all(axis=tuple(ax for ax in range(wi.ndim) if ax != 1)) for wi in w]
                bad = np.flatnonzero(~np.logical_and.reduce(finite))[0]
                raise DivergenceError(float(np.ravel(t)[bad]), member=int(bad))
    return w, t


# powers of a per-member one-step matrix, for a linear mode marched in chunks

def _compose(T, A):
    """T @ A over the last two axes, as elementwise products summed in
    component order, so that a member's numbers do not depend on the batch
    around it (a matmul may take another code path by batch size)."""
    return sum(T[..., :, l, None] * A[..., None, l, :] for l in range(A.shape[-2]))


def _powers(M, count: int):
    """M^1, ..., M^count on a new leading axis, by doubling; a diverging M
    gives non-finite powers, which the march's advance reports."""
    table = M[None]
    with np.errstate(over="ignore", invalid="ignore"):
        while len(table) < count:
            table = np.concatenate([table, _compose(table, table[-1])])
    return table[:count]


def _march_kernel(w, powers):
    """[X], X[k] = M^(k+1) x, of w = [x]: one chunk of the mode march."""
    return [_compose(powers, w[0])]


# ---------------------------------------------------------------------------
# the stepper

class _JinXinStepper:
    """Precomputed multipliers for one (flux, a, grid) and every scheme on it.

    The kernels of imex_ssp2 and exact_linear map [u, v_1, ..., v_d], band
    coefficient arrays (spectral_core._band) of shape (n, [members,]) + band,
    one step on (see advance); a stepped state is zero off the 2/3-rule band,
    since the linear part acts on each mode alone and the flux is dealiased,
    so the band holds all of it.
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
        self.kap = [_band(kap, grid) for kap in grid.kappa_axes()]
        self.deriv = [1j * kap for kap in self.kap]
        self.neg_a_deriv = [-a[i] * self.deriv[i] for i in range(flux.d)]
        # buffers the flux transforms reuse from step to step; evolve empties
        # it after each round of steps, so that a sample reuses their memory
        self.work = {}

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

        imex_ssp2 checks every member against its hyperbolic CFL bound, and
        exact_linear that the flux is zero. Its coefficients are the per-mode
        propagator P on the band and eps; those of if_rk2, which
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
                raise ConfigError("config.stepper.scheme: exact_linear applies to the linear system "
                                  f"(zero flux) only, got flux {self.flux.name!r}")
            xi = np.stack(np.broadcast_arrays(*self.kap), -1)
            return self.exact_linear, (exact_linear_propagator(xi, eps, self.a, dt), eps)
        if scheme == "if_rk2":
            return self.if_rk2, (np.exp(-_band(diffusion_symbol(self.grid, self.a), self.grid) * dt), dt)
        raise ValueError(f"unknown scheme {scheme!r}")

    def _stiff(self, u):
        """[-a_i d_i u + f_i(u)], the relaxed targets of v."""
        s = [nad * u for nad in self.neg_a_deriv]
        if not self.flux.is_zero:
            for si, fi in zip(s, flux_band(self.flux, self.grid, u, self.work)):
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
        return -self._div_v(flux_band(self.flux, self.grid, u, self.work))

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
        raise ConfigError(f"config.stepper.scheme: unknown relaxation scheme {scheme!r}; need one of {JINXIN_SCHEMES}")
    return scheme


def _in_band(field: SpectralField) -> np.ndarray:
    """The band coefficients of a field that has no nonzero coefficient off
    the 2/3-rule band; a ValueError names the largest one otherwise, which
    the band kernels would drop."""
    g = field.grid
    off = np.max(np.abs(field.coeffs), where=~g.dealias_mask(), initial=0.0)
    if not off == 0.0:
        raise ValueError(f"the initial state has a nonzero coefficient outside the 2/3-rule band "
                         f"|k_i| <= {g.N // 3}, the largest of size {off:g}; dealias it first")
    return _band(field.coeffs, g)


def _arrays(state: JinXinState) -> list:
    """[u, v_1, ..., v_d], the band coefficient arrays of state (see _in_band)."""
    return [_in_band(f) for f in [state.u, *state.v]]


def _field(grid, band: np.ndarray) -> SpectralField:
    return SpectralField(grid, _expand(band, grid))


def _state(grid, w: list, t: float) -> JinXinState:
    """The relaxation state of band arrays [u, v_1, ..., v_d] at time t."""
    return JinXinState(_field(grid, w[0]), [_field(grid, wi) for wi in w[1:]], t)


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
    return _field(u_star.grid, advance(kernel, coeffs, [_in_band(u_star)], 1, 0.0, dt)[0][0])


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

    def summary(self) -> dict:
        """JSON-ready trajectory summary."""
        out = {
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


def _tracked(stepper: _JinXinStepper, w: list, name: str, u_star) -> np.ndarray:
    """The band array of a tracked field other than u, from the band arrays
    w = [u, v_1, ..., v_d]: the components of v, z or Z stacked, or du and
    dv against the limit's band u_star; models' formulas on the band."""
    u, *v = w
    a, deriv = stepper.a, stepper.deriv
    if name == "v":
        return np.concatenate(v)
    if name == "z":
        return np.concatenate(_closure_Z(a, deriv, u, v))
    if name == "Z":
        return np.concatenate(_closure_Z(a, deriv, u, v, flux_band(stepper.flux, stepper.grid, u)))
    if name == "du":
        return u - u_star
    if name == "dv":
        vstar = _closure_v(a, deriv, u_star, flux_band(stepper.flux, stepper.grid, u_star))
        return np.concatenate([vi - si for vi, si in zip(v, vstar)])
    raise KeyError(f"unknown tracker field {name!r}")


def _member_runs(stepper: _JinXinStepper, model: JinXinModel, initial: JinXinState,
                 config: StepperConfig, companion: bool) -> list:
    """[(prepare, run)] of one member's relaxation system, then of its if_rk2
    limit companion when asked for. prepare(h) gives (kernel, coefficients)
    of one step of size h at the member's eps; run records the scheme, dt,
    the stepper's bound for it and the steps."""
    runs = []
    for scheme in [config.scheme] + ["if_rk2"] * companion:
        bound = stepper.bound(scheme, model.eps, initial.u)
        dt = config.dt_max if bound is None else min(config.dt_max, config.cfl * bound)
        if dt < config.dt_min:
            raise ConfigError(f"config.stepper.dt_min: required dt {dt:g} is below dt_min {config.dt_min:g}")
        runs.append((partial(stepper.prepare, scheme, eps=model.eps),
                     {"scheme": scheme, "dt": dt, "bound": bound, "steps": 0}))
    return runs


def _plan(prepare, run: dict, span: float) -> tuple:
    """(n_sub, h, (kernel, coefficients)) of one member's sampling interval
    of length span: n_sub equal steps h <= run's dt, counted into run."""
    n_sub = max(1, int(math.ceil(span / run["dt"] - 1e-12)))
    run["steps"] += n_sub
    h = span / n_sub
    return n_sub, h, prepare(h)


def _stacked(member_coeffs: list, d: int) -> tuple:
    """The members' step coefficients as member columns on axis 0 that
    broadcast against arrays stacked on axis 1; every entry is the member's
    own float or table, so each member steps with its solo run's numbers."""
    out = []
    for entries in zip(*member_coeffs):
        c = np.stack(entries)
        out.append(c.reshape(c.shape + (1,) * d) if c.ndim == 1 else c)
    return tuple(out)


def _step_members(arrays: dict, clock: list, plans: dict, eps: list):
    """Step each planned member i, plans[i] = (n_sub, h, (kernel, coeffs)),
    n_sub times by h from clock[i]; arrays[i] lists its band arrays.

    The members that still need steps are stepped together, so the set
    shrinks as members reach their sample: their arrays are stacked on axis 1
    and their coefficients into member columns (_stacked), and each comes
    back as a contiguous copy, laid out as in its solo run. A member stepping
    alone hands its own arrays over, as a solo run does. A non-finite member
    raises DivergenceError at its own t, naming its eps.
    """
    done = 0
    for n in sorted({plan[0] for plan in plans.values()}):
        rows = [i for i, plan in plans.items() if plan[0] >= n]
        try:
            if len(rows) == 1:
                (i,) = rows
                kernel, coeffs = plans[i][2]
                arrays[i], clock[i] = advance(kernel, coeffs, arrays.pop(i), n - done, clock[i], plans[i][1])
            else:
                d = arrays[rows[0]][0].ndim - 1
                kernel = plans[rows[0]][2][0]
                w, t = advance(kernel, _stacked([plans[i][2][1] for i in rows], d),
                               [np.stack(col, axis=1) for col in zip(*(arrays.pop(i) for i in rows))],
                               n - done, np.array([clock[i] for i in rows]), np.array([plans[i][1] for i in rows]))
                for j, i in enumerate(rows):
                    arrays[i] = [np.ascontiguousarray(wi[:, j]) for wi in w]
                    clock[i] = float(t[j])
        except DivergenceError as e:
            raise DivergenceError(e.t, eps=eps[rows[e.member or 0]]) from None
        done = n


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


def evolve(model, initial, config: StepperConfig, trackers, sample_times=None):
    """March to t_end sampling per-block norms of the tracked quantities.

    trackers is a list of (field, p) pairs; field is one of u/v/z/Z, or
    du = u - u* and dv = v - v*(u*) against the viscous limit u* with the
    model's flux and a and the initial u. A du or dv tracker starts that
    limit as a companion run stepped with if_rk2 in lockstep.
    Deterministic for a fixed config; each run subdivides every sampling
    interval uniformly so samples land exactly on the requested instants,
    and advances over it on band coefficient arrays, which a sample and the
    final state expand to the half lattice. The initial states must be zero
    off the 2/3-rule band (ValueError otherwise). sample_times must be
    finite and strictly increasing; 0 is prepended when missing.

    Member form: model and initial are lists, one entry per member, the
    members sharing flux, a and grid; sample_times is None or a list of one
    ladder (or None) per member; the result is one Trajectory per member.
    The members are marched in one loop of sampling rounds: in round k each
    member steps over its own k-th interval with its own n_sub and h, and
    the members still stepping are stepped together (_step_members), so each
    member's numbers are those of its solo run, bit for bit. Each member's
    wall_time is that of the whole march.
    """
    single = isinstance(model, JinXinModel)
    models, initials = ([model], [initial]) if single else (list(model), list(initial))
    ladders = [sample_times] if single else list(sample_times or [None] * len(models))
    grid = initials[0].grid
    if not len(initials) == len(ladders) == len(models) or any(
            (m.flux, m.a, st.grid) != (models[0].flux, models[0].a, grid) for m, st in zip(models, initials)):
        raise ValueError("evolve's members need one initial state and one ladder each, and share flux, a and grid")
    default = np.linspace(0.0, config.t_end, int(round(config.t_end / config.sample_every)) + 1)
    ladders = [_checked_sample_times(default if ts is None else ts) for ts in ladders]

    companion = any(name in ("du", "dv") for name, _ in trackers)
    stepper = _JinXinStepper(models[0].flux, models[0].a, grid)
    runs = [_member_runs(stepper, m, st, config, companion) for m, st in zip(models, initials)]
    eps = [m.eps for m in models]
    # per system, the relaxation runs and then their companions, each member's
    # band arrays and time; kernels never write their input, so a companion
    # may start from its member's own u
    start = [_arrays(st) for st in initials]
    arrays = [dict(enumerate(start))]
    if companion:
        arrays.append(dict(enumerate([w[0]] for w in start)))
    clocks = [[float(st.t) for st in initials] for _ in arrays]

    sch = scheme_for(grid)
    # one row of block norms per sample; each series reads the transpose
    tables = [{key: np.empty((ts.size, sch.j_indices.size)) for key in trackers} for ts in ladders]
    t_start = time.perf_counter()
    mean0 = [st.u.mean() for st in initials]
    max_abs_u = [0.0] * len(models)
    mean_drift = [0.0] * len(models)

    p_of = {}
    for name, p in dict.fromkeys(trackers):
        p_of.setdefault(name, []).append(p)

    def sample(k, i):
        w = arrays[0][i]
        u_star = arrays[1][i][0] if companion else None
        u = _field(grid, w[0])
        max_abs_u[i] = max(max_abs_u[i], lp_norm(u, np.inf))
        mean_drift[i] = max(mean_drift[i], float(np.max(np.abs(u.mean() - mean0[i]))))
        for name, ps in p_of.items():
            # each field is expanded from the band once, for all its p
            field = u if name == "u" else _field(grid, _tracked(stepper, w, name, u_star))
            for p in ps:
                tables[i][(name, p)][k] = block_lp_norms(field, p, sch)

    for i in range(len(models)):
        sample(0, i)
    for k in range(1, max(ts.size for ts in ladders)):
        live = [i for i, ts in enumerate(ladders) if k < ts.size]
        for g, system in enumerate(arrays):
            # the plans, and with them the step tables, die with the call
            _step_members(system, clocks[g], {i: _plan(*runs[i][g], ladders[i][k] - ladders[i][k - 1])
                                              for i in live}, eps)
        stepper.work.clear()
        for i in live:
            sample(k, i)

    wall_time = time.perf_counter() - t_start
    trajectories = [Trajectory(
        times=ts,
        series={(name, p): NormSeries(sch.j_indices, p, ts, tab.T) for (name, p), tab in tables[i].items()},
        final_state=_state(grid, arrays[0][i], clocks[0][i]),
        steps=sum(run["steps"] for _, run in runs[i]),
        wall_time=wall_time,
        mean_drift=mean_drift[i],
        max_abs_u=max_abs_u[i],
        runs=[run for _, run in runs[i]],
    ) for i, ts in enumerate(ladders)]
    return trajectories[0] if single else trajectories
