"""Periodic-grid spectral fields and the discrete Littlewood-Paley toolkit.

Fields live on a uniform grid over the torus [0, L)^d and are stored as
complex Fourier coefficients; all frequency bookkeeping is done in physical
wavenumber units kappa = 2*pi*k/L so that dyadic scales 2^j are physically
meaningful regardless of the box size. Every field is real, so only the
real-to-complex half spectrum (last-axis modes 0..N/2) is stored, and every
table lives on that lattice; the other modes are conjugates of stored ones,
so Parseval sums weight each stored mode by its multiplicity.
"""

from __future__ import annotations

import json
import struct
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "ConfigError",
    "Grid",
    "SpectralField",
    "DyadicScheme",
    "NormSeries",
    "DyadicRangeError",
    "GridMismatchError",
    "dyadic_block",
    "besov_norm",
    "chemin_lerner_norm",
    "spectral_derivative",
    "diffusion_symbol",
    "nonlinear_product",
    "lp_norm",
    "block_lp_norms",
    "save_field",
    "load_field",
]


class ConfigError(ValueError):
    """A config value that cannot run; the message starts with its path, config.<section>.<key>."""


class DyadicRangeError(ValueError):
    """Requested dyadic index outside the resolvable window."""


class GridMismatchError(ValueError):
    """Operands live on different grids."""


# ---------------------------------------------------------------------------
# smooth cutoff profiles

def _bump(s: np.ndarray) -> np.ndarray:
    """C-infinity monotone step: 1 for s<=0, 0 for s>=1."""
    s = np.asarray(s, dtype=float)
    out = np.ones_like(s)
    out[s >= 1.0] = 0.0
    mid = (s > 0.0) & (s < 1.0)
    sm = s[mid]
    a = np.exp(-1.0 / (1.0 - sm))
    b = np.exp(-1.0 / sm)
    out[mid] = a / (a + b)
    return out


def chi_profile(xi) -> np.ndarray:
    """Radial non-increasing cutoff: 1 on |xi|<=3/4, 0 on |xi|>=4/3."""
    return _bump((np.abs(xi) - 0.75) / (4.0 / 3.0 - 0.75))


def phi_profile(xi) -> np.ndarray:
    """Annulus profile chi(xi/2) - chi(xi), supported on 3/4<=|xi|<=8/3."""
    xi = np.abs(xi)
    return chi_profile(xi / 2.0) - chi_profile(xi)


# ---------------------------------------------------------------------------
# grid

@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid: d dimensions, N points per axis, box length L.

    A bad value raises ConfigError at config.model.d, config.grid.N or
    config.grid.L; L is kept as a float.
    """

    d: int
    N: int
    L: float

    def __post_init__(self):
        if self.d not in (1, 2):
            raise ConfigError(f"config.model.d: d must be 1 or 2, got {self.d}")
        if self.N < 8 or (self.N & (self.N - 1)) != 0:
            raise ConfigError(f"config.grid.N: N must be a power of two >= 8, got {self.N}")
        if 16 * self.N**self.d > np.iinfo(np.intp).max:
            raise ConfigError(f"config.grid.N: a lattice of N^d = {self.N}^{self.d} complex numbers is "
                              "larger than numpy can address")
        try:
            object.__setattr__(self, "L", float(self.L))
        except OverflowError as e:
            raise ConfigError(f"config.grid.L: L is out of range ({e})") from None
        if not self.L > 0:
            raise ConfigError(f"config.grid.L: L must be positive, got {self.L}")
        k_lo, k_hi = 2.0 * np.pi / self.L, np.pi * self.N / self.L
        if not (k_lo * k_lo > 0.0 and k_hi * k_hi < np.inf and self.L * self.L < np.inf):
            raise ConfigError(f"config.grid.L: L={self.L:g} is out of range: "
                              "(2 pi/L)^2, (pi N/L)^2 or L^2 leaves the float range")

    @property
    def dx(self) -> float:
        return self.L / self.N

    @property
    def shape(self) -> tuple:
        return (self.N,) * self.d

    @property
    def spectral_shape(self) -> tuple:
        """Shape of the stored half spectrum: last-axis modes 0..N/2."""
        return (self.N,) * (self.d - 1) + (self.N // 2 + 1,)

    @property
    def kappa_min(self) -> float:
        """Smallest nonzero physical wavenumber, 2*pi/L."""
        return 2.0 * np.pi / self.L

    def kappa_axes(self) -> list:
        """Physical wavenumber arrays, one per axis, broadcastable to spectral_shape."""
        return list(_grid_tables(self.d, self.N, self.L)[0])

    def kappa_mag(self) -> np.ndarray:
        """|kappa| on the stored lattice."""
        return _grid_tables(self.d, self.N, self.L)[1]

    def dealias_mask(self) -> np.ndarray:
        """True where every |mode| <= N/3 (2/3-rule survivors)."""
        return _grid_tables(self.d, self.N, self.L)[2]

    def multiplicity(self) -> np.ndarray:
        """Full-lattice modes per stored mode: 1 on last-axis planes 0 and N/2, else 2."""
        return _grid_tables(self.d, self.N, self.L)[4]

    @property
    def kappa_grid_max(self) -> float:
        """Largest |kappa| among dealias survivors."""
        return float(_grid_tables(self.d, self.N, self.L)[3])

    def coords(self) -> list:
        """Physical coordinate arrays, one per axis, broadcastable."""
        x1 = np.arange(self.N) * self.dx
        out = []
        for ax in range(self.d):
            sh = [1] * self.d
            sh[ax] = self.N
            out.append(x1.reshape(sh))
        return out


@lru_cache(maxsize=32)
def _grid_tables(d: int, N: int, L: float):
    kmin = 2.0 * np.pi / L
    cut = np.floor(N / 3.0)
    kap, mag2, keep = [], 0.0, True
    for ax in range(d):
        k = np.fft.rfftfreq(N, d=1.0 / N) if ax == d - 1 else np.fft.fftfreq(N, d=1.0 / N)
        sh = [1] * d
        sh[ax] = k.size
        k = k.reshape(sh)
        kap.append(k * kmin)
        mag2 = mag2 + kap[-1] ** 2
        keep = keep & (np.abs(k) <= cut)
    mag = np.sqrt(mag2)
    kmax = mag[keep].max()
    weight = np.full(N // 2 + 1, 2.0)
    weight[[0, N // 2]] = 1.0
    return kap, mag, keep, kmax, weight.reshape((1,) * (d - 1) + (-1,))


def _support_reach(table: np.ndarray) -> int:
    """Largest |mode index| on any axis among the nonzeros of a half-lattice table."""
    N = 2 * (table.shape[-1] - 1)
    # index i on an axis of N points holds mode i or i - N, whichever is smaller in size
    return max((int(np.minimum(i, N - i).max(initial=0)) for i in np.nonzero(table)), default=0)


def _even_smooth_above(x) -> int:
    """The smallest even 2^a 3^b (a >= 1) above x."""
    best, t = np.inf, 2
    while t < best:
        m = t
        while m <= x:
            m *= 2
        best, t = min(best, m), 3 * t
    return best


def diffusion_symbol(grid: Grid, a) -> np.ndarray:
    """S = sum_i a_i kappa_i^2 on the stored lattice; -S is the symbol of sum_i a_i d_i^2."""
    return sum(a[ax] * kap**2 for ax, kap in enumerate(grid.kappa_axes()))


# rfftn/irfftn over the grid axes, spelled out: rfftn is an rfft of the last
# axis followed by an fft of the one before it (d=2), and irfftn the reverse.
def _rfft(values: np.ndarray, grid: Grid) -> np.ndarray:
    """(..., n) + spectral_shape coefficients of (..., n) + grid.shape samples."""
    c = np.fft.rfft(values, axis=-1, norm="forward")
    return c if grid.d == 1 else np.fft.fft(c, axis=-2, norm="forward")


def _irfft(coeffs: np.ndarray, grid: Grid) -> np.ndarray:
    """Grid samples (..., n) + grid.shape of (..., n) + spectral_shape coefficients.

    coeffs may stop short on the last axis: the missing columns count as zero.
    """
    if grid.d == 2:
        coeffs = np.fft.ifft(coeffs, axis=-2, norm="forward")
    return np.fft.irfft(coeffs, grid.N, axis=-1, norm="forward")


# The 2/3-rule band: the modes |k_i| <= c = N // 3 that dealiasing keeps.
# On the half lattice they are the first c + 1 last-axis columns and, in 2D,
# the rows k = 0..c and k = -c..-1 (indices N-c..N-1), which the band stores
# as its rows c+1..2c; a band array is (..., 2c+1, c+1) in 2D, (..., c+1) in 1D.

def _band(table: np.ndarray, grid: Grid) -> np.ndarray:
    """The band of a half-lattice array, as a new array. An axis of size 1
    broadcasts and stays so, so the take applies to wavenumber tables too."""
    c = grid.N // 3
    head = table[..., : c + 1]
    if grid.d == 1:
        return head.copy()
    return np.concatenate([head[..., : c + 1, :], head[..., grid.N - c :, :]], axis=-2)


def _expand(band: np.ndarray, grid: Grid, out: np.ndarray | None = None) -> np.ndarray:
    """The half-lattice array of a band array, zero off the band. A given
    out is filled instead: its first c + 1 last-axis columns, the rows
    between the band's rows zeroed."""
    c, N = grid.N // 3, grid.N
    if out is None:
        out = np.zeros(band.shape[: band.ndim - grid.d] + grid.spectral_shape, dtype=complex)
    cols = out[..., : c + 1]
    if grid.d == 1:
        cols[...] = band
    else:
        cols[..., : c + 1, :] = band[..., : c + 1, :]
        cols[..., c + 1 : N - c, :] = 0
        cols[..., N - c :, :] = band[..., c + 1 :, :]
    return out


def _buffer(work: dict | None, shape: tuple, dtype) -> np.ndarray:
    """An uninitialized array; with a work dict, the one it keeps for this
    shape and dtype, so repeated calls reuse one allocation."""
    if work is None:
        return np.empty(shape, dtype)
    buf = work.get((shape, dtype))
    if buf is None:
        buf = work[shape, dtype] = np.empty(shape, dtype)
    return buf


def _band_physical(band: np.ndarray, grid: Grid, work: dict | None = None) -> np.ndarray:
    """Grid samples (..., n) + grid.shape of (..., n) + band coefficients.

    With a work dict the samples are its buffer, valid until the next call
    that passes the same dict; without, a new array.
    """
    lead = band.shape[: band.ndim - grid.d]
    if grid.d == 2:
        # the axis -2 pass runs on the band's columns alone, and irfft
        # zero-pads the rest
        cols = _expand(band, grid, _buffer(work, lead + grid.spectral_shape, complex)[..., : grid.N // 3 + 1])
        band = np.fft.ifft(cols, axis=-2, norm="forward", out=cols)
    return np.fft.irfft(band, grid.N, axis=-1, norm="forward", out=_buffer(work, lead + grid.shape, float))


def _physical_band(values: np.ndarray, grid: Grid, work: dict | None = None) -> np.ndarray:
    """Band coefficients (..., n) + band of (..., n) + grid.shape samples, a
    new array; a work dict lends the transform its buffer."""
    full = _buffer(work, values.shape[: values.ndim - grid.d] + grid.spectral_shape, complex)
    np.fft.rfft(values, axis=-1, norm="forward", out=full)
    if grid.d == 2:
        # the axis -2 pass runs on the band's columns alone
        head = full[..., : grid.N // 3 + 1]
        np.fft.fft(head, axis=-2, norm="forward", out=head)
    return _band(full, grid)


def _dealiased_physical(coeffs: np.ndarray, grid: Grid) -> np.ndarray:
    """Grid samples of the 2/3-rule survivors of coeffs."""
    return _band_physical(_band(coeffs, grid), grid)


def _lp_physical(phys: np.ndarray, p, grid: Grid) -> float:
    """Rectangle-rule L^p norm of (n,) + (M,) * grid.d samples, Euclidean over n.

    The samples lie on the M-point grid of the box, M = grid.N or coarser.
    phys is overwritten with its squares.
    """
    sq = np.sum(np.square(phys, out=phys), axis=0)
    if np.isinf(p):
        return float(np.sqrt(np.max(sq)))
    sq **= p / 2
    return float((np.sum(sq) * (grid.L / phys.shape[-1]) ** grid.d) ** (1.0 / p))


# ---------------------------------------------------------------------------
# spectral fields

class SpectralField:
    """n-component complex Fourier coefficients of a real field on a Grid.

    coeffs has shape (n,) + grid.spectral_shape in numpy rfftn layout;
    coeffs[:, 0, ...] is the mean.
    """

    __slots__ = ("grid", "coeffs")

    def __init__(self, grid: Grid, coeffs: np.ndarray):
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.shape[1:] != grid.spectral_shape:
            raise ValueError(f"coefficient shape {coeffs.shape} does not match grid {grid.spectral_shape}")
        self.grid = grid
        self.coeffs = coeffs

    # -- constructors ------------------------------------------------------
    @classmethod
    def zero(cls, grid: Grid, n: int = 1) -> "SpectralField":
        return cls(grid, np.zeros((n,) + grid.spectral_shape, dtype=complex))

    @classmethod
    def from_physical(cls, grid: Grid, values: np.ndarray, dealias: bool = True) -> "SpectralField":
        values = np.asarray(values, dtype=float)
        if values.shape == grid.shape:
            values = values[None, ...]
        return cls(grid, _expand(_physical_band(values, grid), grid) if dealias else _rfft(values, grid))

    # -- basics ------------------------------------------------------------
    @property
    def n(self) -> int:
        return self.coeffs.shape[0]

    def copy(self) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs.copy())

    def to_physical(self) -> np.ndarray:
        """Real-valued grid samples, shape (n,) + grid.shape."""
        return _irfft(self.coeffs, self.grid)

    def hermitian_defect(self) -> float:
        """Round-trip error max|c - rfftn(irfftn(c))| relative to max|c|.

        The self-conjugate planes (last-axis modes 0 and N/2) must be
        Hermitian on their own for the coefficients to be those of a real
        field; the real inverse transform drops any part that is not.
        """
        c = self.coeffs
        back = _rfft(self.to_physical(), self.grid)
        scale = np.max(np.abs(c)) or 1.0
        return float(np.max(np.abs(c - back)) / scale)

    def dealias(self) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs * self.grid.dealias_mask())

    def mean(self) -> np.ndarray:
        """Mean value per component (the kappa=0 coefficient)."""
        return self.coeffs[(slice(None),) + (0,) * self.grid.d].real.copy()

    # -- arithmetic (pure, new buffers) -------------------------------------
    def _check(self, other: "SpectralField"):
        if other.grid != self.grid:
            raise GridMismatchError("fields live on different grids")

    def __add__(self, other: "SpectralField") -> "SpectralField":
        self._check(other)
        return SpectralField(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        self._check(other)
        return SpectralField(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, scalar) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs * scalar)

    __rmul__ = __mul__

    @staticmethod
    def stack(fields: list) -> "SpectralField":
        """Concatenate components of several fields on one grid."""
        g = fields[0].grid
        for f in fields[1:]:
            if f.grid != g:
                raise GridMismatchError("fields live on different grids")
        return SpectralField(g, np.concatenate([f.coeffs for f in fields], axis=0))


# ---------------------------------------------------------------------------
# dyadic scheme

class DyadicScheme:
    """Cached Fourier multipliers for the dyadic blocks of one grid.

    j_range covers every dyadic index whose annulus [3/4, 8/3]*2^j meets the
    nonzero dealiased lattice, so the base cutoff plus all blocks reproduce
    any dealiased field exactly (telescoping partition of unity).

    Each block's support is read from its multiplier: reach[j] is the
    largest |mode index| it reaches on any axis. The multiplier depends on
    |kappa| alone and every axis has the same L, so the block lives in the
    rows |k| <= reach[j] of the first reach[j] + 1 last-axis columns.
    eval_size(j, p) is the grid block_lp_norms samples block j on for an
    L^p norm.
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        kmin = grid.kappa_min
        kmax = grid.kappa_grid_max
        # smallest j whose annulus reaches above the first nonzero mode
        j = int(np.floor(np.log2(0.375 * kmin))) + 1
        while (8.0 / 3.0) * 2.0**j <= kmin * (1.0 + 1e-12):
            j += 1
        while (8.0 / 3.0) * 2.0 ** (j - 1) > kmin * (1.0 + 1e-12):
            j -= 1
        self.j_min = j
        # largest j whose annulus still meets the dealiased lattice
        j = int(np.ceil(np.log2(kmax * 4.0 / 3.0)))
        while 0.75 * 2.0**j > kmax * (1.0 + 1e-12):
            j -= 1
        self.j_max = j

        mag = grid.kappa_mag()
        self.multipliers = {
            jj: phi_profile(mag / 2.0**jj) for jj in range(self.j_min, self.j_max + 1)
        }
        self.reach = {jj: _support_reach(m) for jj, m in self.multipliers.items()}
        self.base_multiplier = chi_profile(mag / 2.0**self.j_min)

    def eval_size(self, j: int, p) -> int:
        """Points per axis of the grid on which block j's L^p norm is evaluated.

        For even integer p, |block_j f|^p is a trigonometric polynomial of
        degree p * reach[j], which the M-point rectangle rule integrates
        exactly for every M > p * reach[j] (the N-point rule too, when
        N > p * reach[j]). The block then takes the smallest even 2^a 3^b
        such M if it is below N. Every other p, and every other block, keep N.
        """
        N = self.grid.N
        bound = p * self.reach[j]
        if not (bound < N and p % 2 == 0):
            return N
        return min(_even_smooth_above(bound), N)

    @property
    def j_indices(self) -> np.ndarray:
        return np.arange(self.j_min, self.j_max + 1)

    def check_index(self, j: int):
        if j < self.j_min or j > self.j_max:
            raise DyadicRangeError(
                f"dyadic index {j} outside resolvable window [{self.j_min}, {self.j_max}]"
            )


def _window(j_indices: np.ndarray, window) -> slice:
    """The run of the ascending j_indices that 'full', ('low', J) or ('high', J) selects.

    Low means j <= J and high means j >= J-1; the two windows share the
    boundary blocks by construction.
    """
    if window is None or window == "full":
        return slice(None)
    kind, J = window
    if kind == "low":
        return slice(0, int(np.searchsorted(j_indices, J, side="right")))
    if kind == "high":
        return slice(int(np.searchsorted(j_indices, J - 1)), None)
    raise ValueError(f"unknown window {window!r}")


@lru_cache(maxsize=32)
def scheme_for(grid: Grid) -> DyadicScheme:
    return DyadicScheme(grid)


# ---------------------------------------------------------------------------
# operations

def dyadic_block(field: SpectralField, j: int) -> SpectralField:
    """Frequency-annulus projection at dyadic scale 2^j."""
    sch = scheme_for(field.grid)
    sch.check_index(j)
    return SpectralField(field.grid, field.coeffs * sch.multipliers[j])


def base_block(field: SpectralField) -> SpectralField:
    """Residual low cutoff below the first annulus (contains the mean)."""
    sch = scheme_for(field.grid)
    return SpectralField(field.grid, field.coeffs * sch.base_multiplier)


def spectral_derivative(field: SpectralField, axis: int) -> SpectralField:
    """Exact Fourier differentiation along one axis."""
    if axis >= field.grid.d:
        raise ValueError(f"axis {axis} >= d={field.grid.d}")
    kap = field.grid.kappa_axes()[axis]
    return SpectralField(field.grid, field.coeffs * (1j * kap))


def nonlinear_product(a: SpectralField, b: SpectralField) -> SpectralField:
    """Pointwise physical-space product with 2/3-rule dealiasing.

    Component counts must match, or one operand must be scalar (n=1), in
    which case it multiplies every component of the other.
    """
    if a.grid != b.grid:
        raise GridMismatchError("fields live on different grids")
    prod = _dealiased_physical(a.coeffs, a.grid) * _dealiased_physical(b.coeffs, b.grid)
    return SpectralField.from_physical(a.grid, prod, dealias=True)


def lp_norm(field: SpectralField, p) -> float:
    """Grid L^p norm; components enter through the pointwise Euclidean norm.

    p=2 is evaluated by Parseval on the coefficients (exact); other p use
    the rectangle rule on physical samples.
    """
    g = field.grid
    if p == 2:
        return float(np.sqrt(g.L**g.d * np.sum(np.abs(field.coeffs) ** 2 * g.multiplicity())))
    return _lp_physical(field.to_physical(), p, g)


def block_lp_norms(field, p, sch: DyadicScheme | None = None) -> np.ndarray:
    """||block_j field||_{L^p} for every j in the scheme's range.

    field is a SpectralField or, with sch, an (n,) + half-lattice or (n,) +
    band coefficient array of sch's grid (ValueError else). p=2 is Parseval
    weighted by the multiplicity on the half lattice, onto which a band's
    energy density is expanded. Every other p samples block j on the M-point
    grid, M = DyadicScheme.eval_size(j, p): its rows |k| <= K = reach[j] of
    its first K + 1 last-axis columns (K capped at the array's last column)
    go into an (n,) + (M,) * (d-1) + (K + 1,) view of one coefficient buffer
    and invert into an (n,) + (M,) * d view of one sample buffer, both
    reused by every block. M is N for odd p, p = inf and the top blocks;
    below N (even p only) the rectangle rule is exact, so the norm moves
    from the N-point rule's value by roundoff only.
    """
    if isinstance(field, SpectralField):
        g, c, sch = field.grid, field.coeffs, sch or scheme_for(field.grid)
    elif sch is None:
        raise ValueError(f"block_lp_norms of an array (shape {np.shape(field)}) needs the scheme of its grid")
    else:
        g, c, cut = sch.grid, np.asarray(field), sch.grid.N // 3
        band = (2 * cut + 1,) * (g.d - 1) + (cut + 1,)
        if c.shape[1:] not in (g.spectral_shape, band):
            raise ValueError(f"block_lp_norms: an array of shape {c.shape} is neither (n,) + the half "
                             f"lattice {g.spectral_shape} nor (n,) + the band {band} of its grid")
    out = np.empty(sch.j_max - sch.j_min + 1)
    if p == 2:
        e = np.sum(np.abs(c) ** 2, axis=0)
        e = (e if e.shape == g.spectral_shape else _expand(e, g, np.zeros(g.spectral_shape))) * g.multiplicity()
        for i, j in enumerate(sch.j_indices):
            out[i] = np.sqrt(g.L**g.d * np.sum(sch.multipliers[j] ** 2 * e))
        return out
    n, d, N, rows, top = c.shape[0], g.d, g.N, c.shape[-2], c.shape[-1] - 1
    cbuf = np.empty(n * N ** (d - 1) * (top + 1), dtype=complex)
    phys = np.empty((n,) + g.shape)
    for i, j in enumerate(sch.j_indices):
        K, M, mult = min(sch.reach[j], top), sch.eval_size(j, p), sch.multipliers[j]
        blk = cbuf[: n * M ** (d - 1) * (K + 1)].reshape((n,) + (M,) * (d - 1) + (K + 1,))
        x = phys.reshape(-1)[: n * M**d].reshape((n,) + (M,) * d)
        if d == 1:
            np.multiply(c[:, : K + 1], mult[: K + 1], out=blk)
        else:
            # modes k = 0..K lead axis -2 on every grid and array, and k = -K..-1 end it
            np.multiply(c[:, : K + 1, : K + 1], mult[: K + 1, : K + 1], out=blk[:, : K + 1])
            np.multiply(c[:, rows - K :, : K + 1], mult[N - K :, : K + 1], out=blk[:, M - K :])
            blk[:, K + 1 : M - K] = 0
            np.fft.ifft(blk, axis=-2, norm="forward", out=blk)
        np.fft.irfft(blk, M, axis=-1, norm="forward", out=x)
        out[i] = _lp_physical(x, p, g)
    return out


def _root(x, r):
    """x ** (1/r) value by value, as a lone sum takes its root: numpy's array
    power may round differently in the last bit from its scalar power."""
    return np.reshape([v ** (1.0 / r) for v in np.ravel(x)], np.shape(x))


def _besov_sum(js: np.ndarray, values: np.ndarray, s: float, r) -> np.ndarray:
    """(sum_j (2^{js} values_j)^r)^{1/r} over the last axis, the max for r = inf.

    The weighted values are reduced as a C-contiguous array, so each sum is
    the pairwise sum numpy takes of the same values alone; an empty window is 0.
    """
    weighted = np.multiply(2.0 ** (js * s), values, order="C")
    if np.isinf(r):
        return np.max(weighted, axis=-1, initial=0.0)
    return _root(np.sum(weighted**r, axis=-1), r)


def besov_norm(field: SpectralField, s: float, p, r=1, window="full") -> float:
    """Homogeneous Besov norm over the selected dyadic window.

    The mean mode never contributes (the annulus profiles vanish at 0).
    An empty window returns 0 and emits a warning.
    """
    sch = scheme_for(field.grid)
    w = _window(sch.j_indices, window)
    js = sch.j_indices[w]
    if js.size == 0:
        warnings.warn(f"besov_norm: empty dyadic window {window!r}", stacklevel=2)
        return 0.0
    return float(_besov_sum(js, block_lp_norms(field, p, sch)[w], s, r))


# ---------------------------------------------------------------------------
# time series of per-block norms

@dataclass(eq=False)
class NormSeries:
    """Per-block L^p norms of one tracked field along a trajectory.

    table[k, i] is the norm of block j_indices[k] at times[i].
    """

    j_indices: np.ndarray
    p: object
    times: np.ndarray
    table: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.table = np.asarray(self.table, dtype=float)
        if self.table.shape != (self.j_indices.size, self.times.size):
            raise ValueError(f"table shape {self.table.shape} is not (blocks, times)")
        if np.any(self.times[1:] <= self.times[:-1]):
            raise ValueError("times must be strictly increasing")
        if np.any(self.table < 0):
            raise ValueError("block norms must be nonnegative")

    def besov_curve(self, s: float, r=1, window="full") -> np.ndarray:
        """Instantaneous Besov norm at every stored time."""
        w = _window(self.j_indices, window)
        return _besov_sum(self.j_indices[w], self.table[w].T, s, r)


def chemin_lerner_norm(series: NormSeries, rho, s: float, r=1, window="full") -> float:
    """Mixed space-time norm: time-L^rho per block, then weighted l^r in j.

    Time integrals use the trapezoid rule on the stored instants.
    """
    w = _window(series.j_indices, window)
    js = series.j_indices[w]
    if js.size == 0:
        warnings.warn(f"chemin_lerner_norm: empty dyadic window {window!r}", stacklevel=2)
        return 0.0
    tab = np.ascontiguousarray(series.table[w])
    if np.isinf(rho):
        per_j = np.max(tab, axis=-1, initial=0.0)
    elif series.times.size < 2:
        raise ValueError("need at least 2 time samples for rho < inf")
    else:
        per_j = _root(np.trapezoid(tab**rho, series.times, axis=-1), rho)
    return float(_besov_sum(js, per_j, s, r))


# ---------------------------------------------------------------------------
# serialization

_MAGIC = b"RLXF"
_LAYOUT = "rfftn half spectrum, complex interleaved, row-major wavevector"


def save_field(field: SpectralField, path):
    """Self-describing binary container: JSON header + raw complex128."""
    header = {
        "d": field.grid.d,
        "n": field.n,
        "N": field.grid.N,
        "L": field.grid.L,
        "layout": _LAYOUT,
    }
    hb = json.dumps(header, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", len(hb)))
        fh.write(hb)
        fh.write(np.ascontiguousarray(field.coeffs, dtype=complex).tobytes())


def load_field(path) -> SpectralField:
    with open(path, "rb") as fh:
        if fh.read(4) != _MAGIC:
            raise ValueError(f"{path}: not a spectral field container")
        (hlen,) = struct.unpack("<I", fh.read(4))
        header = json.loads(fh.read(hlen).decode())
        if header.get("layout") != _LAYOUT:
            raise ValueError(f"{path}: field layout {header.get('layout')!r} is not {_LAYOUT!r}")
        grid = Grid(header["d"], header["N"], header["L"])
        raw = np.frombuffer(fh.read(), dtype=complex)
    coeffs = raw.reshape((header["n"],) + grid.spectral_shape).copy()
    return SpectralField(grid, coeffs)

