"""Relaxation system, its viscous limit, flux families and effective unknowns.

The relaxation system couples a conserved field u with d auxiliary fields v_i:

    du/dt   = -sum_i d(v_i)/dx_i
    dv_i/dt = (1/eps^2) * (-a_i du/dx_i - v_i + f_i(u))

As eps -> 0 it relaxes to du*/dt = sum_i d_i(a_i d_i u*) - sum_i d_i f_i(u*)
with closure v*_i = -a_i d_i u* + f_i(u*).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from .spectral_core import (
    ConfigError,
    Grid,
    SpectralField,
    _band,
    _band_physical,
    _expand,
    _physical_band,
)

__all__ = [
    "Flux",
    "JinXinModel",
    "JinXinState",
    "ConfigError",
    "DivergenceError",
    "FluxValidationError",
    "darcy_velocity",
    "effective_z",
    "effective_Z",
    "builtin_fluxes",
    "make_flux",
    "polynomial_flux",
]

MAX_COMPONENTS = 4


def _positive(path: str, v):
    """A ConfigError at path unless v > 0 (NaN is not)."""
    if not v > 0:
        raise ConfigError(f"{path}: must be positive, got {v!r}")


class DivergenceError(RuntimeError):
    """A field picked up NaN/Inf coefficients; eps names the run, member its index in a march."""

    def __init__(self, t: float, eps=None, member=None):
        super().__init__(f"non-finite values in state at t={t}" + ("" if eps is None else f" of the run at eps={eps}"))
        self.t = t
        self.eps = eps
        self.member = member

    def __reduce__(self):
        # rebuilt from its fields, not its message, when a sweep worker hands it back
        return type(self), (self.t, self.eps, self.member)


class FluxValidationError(ConfigError):
    """An unknown flux id, sizes out of range or a term of degree < 2 (f(0)=Df(0)=0)."""


def _check_sizes(n, d):
    """A FluxValidationError unless 1 <= n <= MAX_COMPONENTS and d >= 1."""
    if not 1 <= n <= MAX_COMPONENTS:
        raise FluxValidationError(f"config.model.n: need 1 <= n <= {MAX_COMPONENTS} components, got n={n}")
    if not d >= 1:
        raise FluxValidationError(f"config.model.d: need d >= 1, got d={d}")


@dataclass(frozen=True)
class Flux:
    """Nonlinear flux family u -> (f_1(u), ..., f_d(u)), each R^n -> R^n.

    evaluate acts on physical-space samples of shape (n, ...) and returns a
    list of d arrays of the same shape. Sizes other than 1 <= n <=
    MAX_COMPONENTS and d >= 1 raise at config.model.n and config.model.d.
    """

    name: str
    n: int
    d: int
    evaluate: Callable = field(repr=False)
    is_zero: bool = False

    def __post_init__(self):
        _check_sizes(self.n, self.d)


# The evaluators are module-level functions, or partials of them, so that a
# Flux pickles into worker processes.

def _zero_eval(d: int, u):
    return [np.zeros_like(u) for _ in range(d)]


def _zero_flux(n: int, d: int) -> Flux:
    return Flux("zero", n, d, partial(_zero_eval, d), is_zero=True)


def _burgers1d_eval(u):
    return [0.5 * u * u]


def _burgers2d_eval(u):
    # f_1(u) = u_1 * u, f_2(u) = u_2 * u for u = (u_1, u_2)
    return [u[0:1] * u, u[1:2] * u]


def _polynomial_eval(d: int, parsed: tuple, u):
    out = [np.zeros_like(u) for _ in range(d)]
    for i, c, expo, coef in parsed:
        mono = coef * np.ones_like(u[0])
        for k, e in enumerate(expo):
            if e:
                mono = mono * u[k] ** e
        out[i][c] += mono
    return out


def polynomial_flux(n: int, d: int, terms: list) -> Flux:
    """Sparse polynomial flux from terms {direction, component, exponents, coefficient}.

    Every monomial must have total degree >= 2; a constant or linear part is
    rejected because the model assumes the flux vanishes to second order at
    the origin. The rule is exact: any other polynomial builds.
    """
    parsed = []
    for t in terms:
        try:
            i, c = int(t["direction"]), int(t["component"])
            expo = tuple(int(e) for e in t["exponents"])
            coef = float(t["coefficient"])
        except (TypeError, KeyError, ValueError):
            raise FluxValidationError(f"config.model.terms: malformed polynomial term {t!r}: need direction, "
                                      "component, exponents and coefficient") from None
        if not (0 <= i < d and 0 <= c < n) or len(expo) != n or min(expo) < 0:
            raise FluxValidationError(f"config.model.terms: malformed polynomial term {t!r}")
        if sum(expo) < 2 and coef != 0.0:
            raise FluxValidationError(
                f"config.model.terms: polynomial term {t!r} has total degree {sum(expo)} < 2; "
                "the flux must satisfy f(0)=Df(0)=0"
            )
        parsed.append((i, c, expo, coef))
    return Flux("polynomial", n, d, partial(_polynomial_eval, d, tuple(parsed)))


def builtin_fluxes() -> dict:
    """Catalog of named flux constructors addressable from config files."""
    return {
        "burgers1d": partial(Flux, "burgers1d", 1, 1, _burgers1d_eval),
        "burgers2d": partial(Flux, "burgers2d", 2, 2, _burgers2d_eval),
        "zero": _zero_flux,
    }


def make_flux(flux_id: str, n: int | None = None, d: int | None = None, terms=None) -> Flux:
    """Build a flux by string id; n and d, where given, are its sizes (the zero
    flux reads None as 1, the polynomial flux needs both). Each error is a
    FluxValidationError at the config.model key at fault, the size rule first."""
    if flux_id == "polynomial" and None in (n, d):
        raise FluxValidationError(f"config.model.n: the polynomial flux needs n and d, got n={n}, d={d}")
    sizes = (1 if n is None else n, 1 if d is None else d)
    _check_sizes(*sizes)
    if terms is not None and flux_id != "polynomial":
        raise FluxValidationError(f"config.model.terms: only the polynomial flux takes terms, got flux {flux_id!r}")
    if flux_id == "polynomial":
        return polynomial_flux(n, d, terms or [])
    if flux_id == "zero":
        return _zero_flux(*sizes)
    if flux_id not in builtin_fluxes():
        raise FluxValidationError(f"config.model.flux: unknown flux id {flux_id!r}")
    fl = builtin_fluxes()[flux_id]()
    if n not in (None, fl.n) or d not in (None, fl.d):
        raise FluxValidationError(f"config.model.flux: {flux_id} has n={fl.n}, d={fl.d}; "
                                  f"the model says n={n}, d={d}")
    return fl


# ---------------------------------------------------------------------------
# models and states

def checked_velocities(flux: Flux, a) -> tuple:
    """The closure velocities a as floats: each a positive number (not a bool),
    one per dimension; a ConfigError names config.model.a[i] or config.model.a."""
    a = tuple(a)
    for i, x in enumerate(a):
        if not (isinstance(x, numbers.Real) and not isinstance(x, bool) and x > 0):
            raise ConfigError(f"config.model.a[{i}]: a_i > 0 is required by the relaxation model; "
                              f"need a positive number, got {x!r}")
    if len(a) != flux.d:
        raise ConfigError(f"config.model.a: need {flux.d} diffusion coefficients, got {len(a)}")
    return tuple(float(x) for x in a)


@dataclass(frozen=True)
class JinXinModel:
    flux: Flux
    a: tuple
    eps: float

    def __post_init__(self):
        object.__setattr__(self, "a", checked_velocities(self.flux, self.a))
        if not self.eps > 0:
            raise ValueError("eps must be positive")

    @property
    def d(self) -> int:
        return self.flux.d

    @property
    def n(self) -> int:
        return self.flux.n


@dataclass
class JinXinState:
    u: SpectralField
    v: list  # d fields, each with n components
    t: float = 0.0

    def __post_init__(self):
        for vi in self.v:
            if vi.grid != self.u.grid:
                raise ValueError("u and v must share one grid")

    @property
    def grid(self) -> Grid:
        return self.u.grid

    def copy(self) -> "JinXinState":
        return JinXinState(self.u.copy(), [vi.copy() for vi in self.v], self.t)


# ---------------------------------------------------------------------------
# flux evaluation on spectral fields

def flux_band(flux: Flux, grid: Grid, band: np.ndarray, work: dict | None = None) -> list:
    """f_i(u) band arrays (spectral_core._band) of u's band coefficients:
    the flux is evaluated on grid samples of the band, and each f_i keeps its
    band coefficients only (2/3 rule). work lends the transforms buffers."""
    if flux.is_zero:
        return [np.zeros_like(band) for _ in range(flux.d)]
    return [_physical_band(val, grid, work) for val in flux.evaluate(_band_physical(band, grid, work))]


def flux_coeffs(flux: Flux, grid: Grid, coeffs: np.ndarray) -> list:
    """f_i(u) coefficient arrays of u's coefficients, dealiased.

    The flux is evaluated on grid samples of the dealiased u, and the
    coefficients of each f_i are dealiased again (2/3 rule).
    """
    return [_expand(c, grid) for c in flux_band(flux, grid, _band(coeffs, grid))]


def flux_fields(flux: Flux, u: SpectralField) -> list:
    """f_i(u) as dealiased spectral fields (physical-space evaluation)."""
    return [SpectralField(u.grid, c) for c in flux_coeffs(flux, u.grid, u.coeffs)]


# ---------------------------------------------------------------------------
# closure velocities and effective unknowns, each one formula over
# coefficient arrays with deriv[i] = i kappa_i on their lattice: the public
# functions apply it to fields, and a trajectory's samples to band arrays

def _closure_v(a, deriv, u, f) -> list:
    """[-a_i d_i u + f_i]."""
    return [-a[i] * (u * deriv[i]) + f[i] for i in range(len(f))]


def _closure_Z(a, deriv, u, v, f=None) -> list:
    """[a_i d_i u + v_i], less f_i where f is given."""
    z = [a[i] * (u * deriv[i]) + v[i] for i in range(len(v))]
    return z if f is None else [zi - fi for zi, fi in zip(z, f)]


def _fields(grid: Grid, arrays: list) -> list:
    return [SpectralField(grid, c) for c in arrays]


def _derivatives(grid: Grid) -> list:
    return [1j * kap for kap in grid.kappa_axes()]


def darcy_velocity(flux: Flux, a, u_star: SpectralField) -> list:
    """Closure velocities v*_i = -a_i d_i u* + f_i(u*)."""
    g = u_star.grid
    return _fields(g, _closure_v(a, _derivatives(g), u_star.coeffs, flux_coeffs(flux, g, u_star.coeffs)))


def effective_z(model: JinXinModel, state: JinXinState) -> list:
    """Damped combinations z_i = a_i d_i u + v_i."""
    g = state.grid
    return _fields(g, _closure_Z(model.a, _derivatives(g), state.u.coeffs, [vi.coeffs for vi in state.v]))


def effective_Z(model: JinXinModel, state: JinXinState) -> list:
    """Distance to the closure manifold: Z_i = a_i d_i u + v_i - f_i(u)."""
    g, u = state.grid, state.u.coeffs
    return _fields(g, _closure_Z(model.a, _derivatives(g), u, [vi.coeffs for vi in state.v],
                                 flux_coeffs(model.flux, g, u)))
