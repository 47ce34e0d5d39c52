"""Closed-form linear theory: per-mode eigenvalues, decay rates, propagator.

For a single Fourier mode xi the linearized relaxation system acting on
w = (u_hat, eps*v_hat_1, ..., eps*v_hat_d) has generator

    A(xi) = [[0,            -i xi_1/eps, ..., -i xi_d/eps],
             [-i a_1 xi_1/eps,  -1/eps^2,          0     ],
             [      ...,            ...,          ...    ],
             [-i a_d xi_d/eps,      0,         -1/eps^2  ]]

whose characteristic polynomial factors as
(lambda + 1/eps^2)^(d-1) * (lambda^2 + lambda/eps^2 + S/eps^2) with
S = sum_i a_i xi_i^2. The slow pair exhibits overdamping: its decay rate
peaks at friction 1/eps = 2*sqrt(S) with maximum value 2S.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "Regime",
    "RegimeLabel",
    "ModeSpectrum",
    "eigenvalues",
    "decay_rate_omega",
    "threshold_J",
    "classify_regime",
    "exact_linear_propagator",
    "exp_slow_block",
    "generator_matrix",
    "mode_symbol",
]

# relative discriminant size below which the slow pair is treated as defective
_DEFECTIVE_TOL = 1e-8
_TRANSITIONAL_TOL = 1e-12


class Regime(Enum):
    LOW = "low"
    HIGH = "high"
    TRANSITIONAL = "transitional"


@dataclass(frozen=True)
class RegimeLabel:
    regime: Regime
    discriminant: float
    dyadic_index_le_threshold: bool


@dataclass(frozen=True)
class ModeSpectrum:
    xi: tuple
    eps: float
    a: tuple
    eigenvalues: tuple  # d+1 complex values, damped ones first
    S: float

    @property
    def discriminant(self) -> float:
        return 1.0 / self.eps**2 - 4.0 * self.S


def mode_symbol(xi, a):
    """S = sum_i a_i xi_i^2 over the last axis of xi; a float for one wavevector."""
    xi, a = np.atleast_1d(xi).astype(float), np.atleast_1d(a)
    S = sum(a[i] * xi[..., i] * xi[..., i] for i in range(xi.shape[-1]))
    return float(S) if xi.ndim == 1 else S


def _slow_pair(S, eps: float):
    """The slow eigenvalues (lam_+, lam_-); S may be an array."""
    disc = 1.0 / eps**2 - 4.0 * np.asarray(S, dtype=float)
    root = np.sqrt(disc.astype(complex))
    lam_p = -0.5 / eps**2 + 0.5 / eps * root
    lam_m = -0.5 / eps**2 - 0.5 / eps * root
    return lam_p, lam_m


def eigenvalues(xi, eps: float, a) -> ModeSpectrum:
    """All d+1 eigenvalues of the per-mode generator."""
    xi = tuple(float(x) for x in np.atleast_1d(xi))
    a = tuple(float(x) for x in np.atleast_1d(a))
    if eps <= 0 or any(ai <= 0 for ai in a):
        raise ValueError("eps and all a_i must be positive")
    d = len(xi)
    S = mode_symbol(xi, a)
    lam_p, lam_m = _slow_pair(S, eps)
    lams = tuple([-1.0 / eps**2 + 0j] * (d - 1) + [lam_p, lam_m])
    return ModeSpectrum(xi, eps, a, lams, S)


def decay_rate_omega(xi, eps: float, a) -> float:
    """-Re of the slow eigenvalue: the observable decay rate of the mode.

    Equals 2S/(1+sqrt(1-4 eps^2 S)) on the overdamped side 1/eps >= 2 sqrt(S)
    and 1/(2 eps^2) on the oscillatory side; 0 for the conserved mode S=0.
    """
    xi = np.atleast_1d(xi)
    a = np.atleast_1d(a)
    S = mode_symbol(xi, a)
    if S == 0.0:
        return 0.0
    if 1.0 / eps >= 2.0 * math.sqrt(S):
        return 2.0 * S / (1.0 + math.sqrt(max(0.0, 1.0 - 4.0 * eps**2 * S)))
    return 0.5 / eps**2


def threshold_J(eps: float, k0: int = 0) -> int:
    """Low/high frequency threshold: J = -floor(log2 eps) + k0.

    Guarantees 2^(J-k0) in [1/eps, 2/eps).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    return -math.floor(math.log2(eps)) + k0


def classify_regime(xi, eps: float, a, k0: int = 0) -> RegimeLabel:
    """Low (real eigenvalues), high (complex pair) or transitional mode."""
    xi = np.atleast_1d(xi)
    a = np.atleast_1d(a)
    S = mode_symbol(xi, a)
    disc = 1.0 / eps**2 - 4.0 * S
    tol = _TRANSITIONAL_TOL * max(1.0 / eps**2, 16.0 * eps**2 * S * S)
    if abs(disc) <= tol:
        regime = Regime.TRANSITIONAL
    elif disc > 0:
        regime = Regime.LOW
    else:
        regime = Regime.HIGH
    mag = float(np.sqrt(np.sum(xi**2)))
    if mag > 0:
        below = math.floor(math.log2(mag)) <= threshold_J(eps, k0)
    else:
        below = True
    return RegimeLabel(regime, disc, below)


def generator_matrix(xi, eps: float, a) -> np.ndarray:
    """The (d+1)x(d+1) per-mode generator acting on (u_hat, eps*v_hat)."""
    xi = np.atleast_1d(xi).astype(float)
    a = np.atleast_1d(a).astype(float)
    d = xi.size
    A = np.zeros((d + 1, d + 1), dtype=complex)
    A[0, 1:] = -1j * xi / eps
    A[1:, 0] = -1j * a * xi / eps
    A[1:, 1:] = -np.eye(d) / eps**2
    return A


def exp_slow_block(S, eps: float, t: float) -> tuple:
    """Entries (E00, E01, E10, E11) of exp(t*B), B = [[0, -i S/eps], [-i/eps, -1/eps^2]].

    S may be an array; every entry is computed elementwise over it. Within a
    relative 1e-8 of the defective point 1/eps^2 = 4S, measured on the
    1/eps^2 scale, the spectral formula loses accuracy to cancellation and is
    replaced by the Jordan limit exp(lam t)(I + t(B - lam I)), lam = -1/(2 eps^2).
    """
    S = np.asarray(S, dtype=float)
    lam_p, lam_m = _slow_pair(S, eps)
    disc = 1.0 / eps**2 - 4.0 * S
    defective = np.abs(disc) < _DEFECTIVE_TOL * np.maximum(1.0 / eps**2, 16.0 * eps**2 * S**2)
    # spectral formula (e_+ (B - lam_- I) - e_- (B - lam_+ I)) / (lam_+ - lam_-)
    diff = np.where(defective, 1.0, lam_p - lam_m)
    ep, em = np.exp(lam_p * t), np.exp(lam_m * t)
    b11 = -1.0 / eps**2
    # Jordan limit at the double eigenvalue lam = -1/(2 eps^2), h = -lam t
    h = 0.5 * t / eps**2
    el = np.exp(-h)
    E00 = np.where(defective, el * (1.0 + h), (lam_p * em - lam_m * ep) / diff)
    cross = np.where(defective, el * t, (ep - em) / diff)  # common factor of E01 and E10
    E11 = np.where(defective, el * (1.0 - h), ((b11 - lam_m) * ep - (b11 - lam_p) * em) / diff)
    return E00, cross * (-1j * S / eps), cross * (-1j / eps), E11


def exact_linear_propagator(xi, eps: float, a, t: float) -> np.ndarray:
    """exp(t*A(xi)) on (u_hat, eps*v_hat_1, ..., eps*v_hat_d).

    xi is one wavevector or an array of them along its last axis, giving P
    of shape xi.shape[:-1] + (d+1, d+1); one wavevector runs as a batch of
    one, so a batch and the calls for its members agree bit for bit. The
    v-space splits into the driven direction c = (a_i xi_i) and a complement
    that decays as exp(-t/eps^2); the (u, c)-plane carries the 2x2 slow
    block, solved in closed form including the defective case.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    xi = np.asarray(xi, dtype=float)
    single = xi.ndim <= 1
    xi = np.atleast_2d(xi)
    c = np.atleast_1d(a).astype(float) * xi  # drives v from u
    S = mode_symbol(xi, a)
    beta0 = xi / np.where(S == 0.0, 1.0, S)[..., None]  # slow part of eps*v_hat_i = 1
    E00, E01, E10, E11 = exp_slow_block(S, eps, t)
    damp = np.exp(-t / eps**2)
    d = xi.shape[-1]
    P = np.empty(S.shape + (d + 1, d + 1), dtype=complex)
    P[..., 0, 0] = np.where(S == 0.0, 1.0, E00)  # the conserved mean stays exact
    P[..., 1:, 0] = E10[..., None] * c
    P[..., 0, 1:] = E01[..., None] * beta0
    P[..., 1:, 1:] = damp * np.eye(d) + c[..., :, None] * beta0[..., None, :] * (E11 - damp)[..., None, None]
    return P[0] if single else P
