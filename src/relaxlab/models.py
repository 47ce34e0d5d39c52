"""Relaxation system, its viscous limit, flux families and effective unknowns.

The relaxation system couples a conserved field u with d auxiliary fields v_i:

    du/dt   = -sum_i d(v_i)/dx_i
    dv_i/dt = (1/eps^2) * (-a_i du/dx_i - v_i + f_i(u))

As eps -> 0 it relaxes to du*/dt = sum_i d_i(a_i d_i u*) - sum_i d_i f_i(u*)
with closure v*_i = -a_i d_i u* + f_i(u*).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from .spectral_core import (
    Grid,
    SpectralField,
    _dealiased_physical,
    _rfft_dealiased,
    spectral_derivative,
)

__all__ = [
    "Flux",
    "JinXinModel",
    "JinXinState",
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


class DivergenceError(RuntimeError):
    """A field picked up NaN/Inf coefficients."""

    def __init__(self, t: float, what: str = "state"):
        super().__init__(f"non-finite values in {what} at t={t}")
        self.t = t


class FluxValidationError(ValueError):
    """Flux violates the quadratic-at-origin requirement f(0)=Df(0)=0."""


@dataclass(frozen=True)
class Flux:
    """Nonlinear flux family u -> (f_1(u), ..., f_d(u)), each R^n -> R^n.

    evaluate acts on physical-space samples of shape (n, ...) and returns a
    list of d arrays of the same shape.
    """

    name: str
    n: int
    d: int
    evaluate: Callable = field(repr=False)
    is_zero: bool = False

    def check_origin(self):
        """Numerically verify f(0)=0 and Df(0)=0: |f(delta e_k)| <= C delta^2."""
        z = self.evaluate(np.zeros((self.n, 1)))
        if max(np.max(np.abs(f)) for f in z) > 1e-14:
            raise FluxValidationError(f"flux {self.name}: f(0) != 0")
        for delta in (1e-2, 1e-3):
            for k in range(self.n):
                u = np.zeros((self.n, 1))
                u[k, 0] = delta
                vals = self.evaluate(u)
                bound = 100.0 * delta**2
                if max(np.max(np.abs(f)) for f in vals) > bound:
                    raise FluxValidationError(
                        f"flux {self.name}: |f(delta e_{k})| exceeds C delta^2, "
                        "so f is not quadratic at the origin"
                    )


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


def polynomial_flux(n: int, d: int, terms: list, name: str = "polynomial") -> Flux:
    """Sparse polynomial flux from terms {direction, component, exponents, coefficient}.

    Every monomial must have total degree >= 2; a constant or linear part is
    rejected because the model assumes the flux vanishes to second order at
    the origin.
    """
    parsed = []
    for t in terms:
        try:
            i, c = int(t["direction"]), int(t["component"])
            expo = tuple(int(e) for e in t["exponents"])
            coef = float(t["coefficient"])
        except (TypeError, KeyError, ValueError):
            raise FluxValidationError(f"malformed polynomial term {t!r}: need direction, component, "
                                      "exponents and coefficient") from None
        if not (0 <= i < d and 0 <= c < n) or len(expo) != n or min(expo) < 0:
            raise FluxValidationError(f"malformed polynomial term {t!r}")
        if sum(expo) < 2 and coef != 0.0:
            raise FluxValidationError(
                f"polynomial term {t!r} has total degree {sum(expo)} < 2; "
                "the flux must satisfy f(0)=Df(0)=0"
            )
        parsed.append((i, c, expo, coef))
    return Flux(name, n, d, partial(_polynomial_eval, d, tuple(parsed)))


def builtin_fluxes() -> dict:
    """Catalog of named flux constructors addressable from config files."""
    return {
        "burgers1d": partial(Flux, "burgers1d", 1, 1, _burgers1d_eval),
        "burgers2d": partial(Flux, "burgers2d", 2, 2, _burgers2d_eval),
        "zero": _zero_flux,
    }


def make_flux(flux_id: str, n: int | None = None, d: int | None = None, terms=None) -> Flux:
    """Build a flux by string id, validating the origin conditions."""
    if flux_id == "zero":
        fl = _zero_flux(n or 1, d or 1)
    elif flux_id == "polynomial":
        fl = polynomial_flux(n, d, terms or [])
    elif flux_id in builtin_fluxes():
        fl = builtin_fluxes()[flux_id]()
    else:
        raise FluxValidationError(f"unknown flux id {flux_id!r}")
    fl.check_origin()
    return fl


# ---------------------------------------------------------------------------
# models and states

def checked_velocities(flux: Flux, a) -> tuple:
    """The closure velocities a as floats, one positive entry per dimension."""
    a = tuple(float(x) for x in a)
    if len(a) != flux.d:
        raise ValueError(f"need {flux.d} diffusion coefficients, got {len(a)}")
    if any(x <= 0 for x in a):
        raise ValueError("a_i must be positive")
    return a


@dataclass(frozen=True)
class JinXinModel:
    flux: Flux
    a: tuple
    eps: float

    def __post_init__(self):
        object.__setattr__(self, "a", checked_velocities(self.flux, self.a))
        if not self.eps > 0:
            raise ValueError("eps must be positive")
        if self.flux.n > MAX_COMPONENTS:
            raise ValueError(f"at most {MAX_COMPONENTS} components supported")

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

def flux_coeffs(flux: Flux, grid: Grid, coeffs: np.ndarray) -> list:
    """f_i(u) coefficient arrays of u's coefficients, dealiased.

    The flux is evaluated on grid samples of the dealiased u, and the
    coefficients of each f_i are dealiased again (2/3 rule).
    """
    if flux.is_zero:
        return [np.zeros((flux.n,) + grid.spectral_shape, dtype=complex) for _ in range(flux.d)]
    return [_rfft_dealiased(val, grid) for val in flux.evaluate(_dealiased_physical(coeffs, grid))]


def flux_fields(flux: Flux, u: SpectralField) -> list:
    """f_i(u) as dealiased spectral fields (physical-space evaluation)."""
    return [SpectralField(u.grid, c) for c in flux_coeffs(flux, u.grid, u.coeffs)]


# ---------------------------------------------------------------------------
# closure velocities and effective unknowns

def darcy_velocity(flux: Flux, a, u_star: SpectralField) -> list:
    """Closure velocities v*_i = -a_i d_i u* + f_i(u*)."""
    fvals = flux_fields(flux, u_star)
    return [
        SpectralField(
            u_star.grid,
            -a[i] * spectral_derivative(u_star, i).coeffs + fvals[i].coeffs,
        )
        for i in range(flux.d)
    ]


def effective_z(model: JinXinModel, state: JinXinState) -> list:
    """Damped combinations z_i = a_i d_i u + v_i."""
    return [
        SpectralField(
            state.grid,
            model.a[i] * spectral_derivative(state.u, i).coeffs + state.v[i].coeffs,
        )
        for i in range(model.d)
    ]


def effective_Z(model: JinXinModel, state: JinXinState) -> list:
    """Distance to the closure manifold: Z_i = a_i d_i u + v_i - f_i(u)."""
    z = effective_z(model, state)
    fvals = flux_fields(model.flux, state.u)
    return [SpectralField(state.grid, z[i].coeffs - fvals[i].coeffs) for i in range(model.d)]
