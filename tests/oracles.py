"""Independent references: the right-hand sides of the relaxation system
and its limit, written out field by field for the steppers, which fuse them
into their stage kernels; the imex_ssp2, exact_linear and if_rk2 steps and
the dealiased transforms on the whole half lattice, which the steppers and
the flux run on the 2/3-rule band instead; the per-step march of a zero-flux
mode on the whole lattice for the overdamping scan, which marches powers of
its one-step matrix instead; and the conjugate pairing of random phases
through full-lattice index tables, which the data synthesis finds on the
stored half lattice instead.
"""

import numpy as np

from relaxlab.harness import InitialDataSpec, make_initial_data
from relaxlab.integrators import _DELTA, _JinXinStepper, advance
from relaxlab.models import JinXinModel, JinXinState, flux_fields, make_flux
from relaxlab.spectral_analysis import exact_linear_propagator
from relaxlab.spectral_core import SpectralField, _irfft, diffusion_symbol, spectral_derivative


def jinxin_rhs(model: JinXinModel, state: JinXinState):
    """(du/dt, [dv_i/dt]) of the relaxation system, dealiased."""
    u, v = state.u, state.v
    du = SpectralField(u.grid, -sum(spectral_derivative(v[i], i).coeffs for i in range(model.d)))
    fvals = flux_fields(model.flux, u)
    dv = []
    for i in range(model.d):
        rate = (
            -model.a[i] * spectral_derivative(u, i).coeffs
            - v[i].coeffs
            + fvals[i].coeffs
        ) / model.eps**2
        dv.append(SpectralField(u.grid, rate).dealias())
    return du.dealias(), dv


def limit_rhs(flux, a, u: SpectralField) -> SpectralField:
    """du*/dt of the viscous conservation law at u*, dealiased."""
    g = u.grid
    rate = u.coeffs * -diffusion_symbol(g, a)
    if not flux.is_zero:
        fvals = flux_fields(flux, u)
        for i in range(flux.d):
            rate = rate - spectral_derivative(fvals[i], i).coeffs
    return SpectralField(g, rate).dealias()


def dealiased_physical(coeffs, grid):
    """Grid samples of the 2/3-rule survivors of half-lattice coefficients:
    the dealias mask on the first N/3 + 1 last-axis columns, which irfft
    zero-pads to N/2 + 1."""
    band = grid.dealias_mask()[..., : grid.N // 3 + 1]
    head = coeffs[..., : band.shape[-1]]
    return _irfft(head * band if grid.d == 2 else head, grid)


def rfft_dealiased(values, grid):
    """The 2/3-rule survivors of the half-lattice coefficients of grid
    samples; the other modes are zero."""
    band = grid.dealias_mask()[..., : grid.N // 3 + 1]
    m = band.shape[-1]
    c = np.fft.rfft(values, axis=-1, norm="forward")
    head = c[..., :m]
    if grid.d == 2:
        np.fft.fft(head, axis=-2, norm="forward", out=head)
        head *= band
    c[..., m:] = 0
    return c


class FullLatticeStepper:
    """The steps of _JinXinStepper on raw half-lattice arrays: the same
    prepare() protocol and step coefficients, with every table on the whole
    stored lattice and the flux through dealiased_physical and
    rfft_dealiased."""

    def __init__(self, flux, a, grid):
        self.flux = flux
        self.a = a
        self.grid = grid
        self.kap = grid.kappa_axes()
        self.deriv = [1j * kap for kap in self.kap]
        self.neg_a_deriv = [-a[i] * self.deriv[i] for i in range(flux.d)]

    def prepare(self, scheme, dt, eps=None):
        if scheme == "imex_ssp2":
            # scalars or member columns only, which no lattice enters
            return self.ssp2, _JinXinStepper(self.flux, self.a, self.grid).prepare(scheme, dt, eps)[1]
        if scheme == "exact_linear":
            xi = np.stack(np.broadcast_arrays(*self.kap), -1)
            return self.exact_linear, (exact_linear_propagator(xi, eps, self.a, dt), eps)
        if scheme == "if_rk2":
            return self.if_rk2, (np.exp(-diffusion_symbol(self.grid, self.a) * dt), dt)
        raise ValueError(f"unknown scheme {scheme!r}")

    def _flux(self, u):
        return [rfft_dealiased(val, self.grid) for val in self.flux.evaluate(dealiased_physical(u, self.grid))]

    def _stiff(self, u):
        s = [nad * u for nad in self.neg_a_deriv]
        if not self.flux.is_zero:
            for si, fi in zip(s, self._flux(u)):
                si += fi
        return s

    def _div_v(self, v):
        return sum(self.deriv[i] * v[i] for i in range(len(v)))

    def ssp2(self, w, coeffs):
        dt, e2, g, e2g, dt_rest = coeffs
        u0, *v0 = w
        d = len(v0)
        stiff2 = self._stiff(u0 - g * self._div_v(v0))
        v2 = [(e2 * v0[i] + g * stiff2[i]) / e2g for i in range(d)]
        s2 = [(stiff2[i] - v2[i]) / e2 for i in range(d)]
        u3 = u0 - dt * self._div_v([_DELTA * v0[i] + (1 - _DELTA) * v2[i] for i in range(d)])
        stiff3 = self._stiff(u3)
        return [u3] + [(e2 * (v0[i] + dt_rest * s2[i]) + g * stiff3[i]) / e2g for i in range(d)]

    def exact_linear(self, w, coeffs):
        P, eps = coeffs
        u0, *v0 = w
        w0 = [u0] + [eps * vi for vi in v0]
        w1 = [sum(P[..., i, j] * wj for j, wj in enumerate(w0)) for i in range(len(w0))]
        return [w1[0]] + [wi / eps for wi in w1[1:]]

    def _nonlin(self, u):
        return -self._div_v(self._flux(u))

    def if_rk2(self, w, coeffs):
        ef, dt = coeffs
        u0, = w
        if self.flux.is_zero:
            return [ef * u0]
        k1 = self._nonlin(u0)
        k2 = self._nonlin(ef * (u0 + dt * k1))
        return [ef * u0 + 0.5 * dt * (ef * k1 + k2)]


def stepped_mode_energies(grid, a, mode, eps, dt, steps: int, scheme: str):
    """(steps, members) energies of the initialized wavevector pair of a
    zero-flux single-mode run, one prepared step of `scheme` at a time on
    the whole packed lattice; member m has friction 1/eps[m] and step dt[m].
    """
    flux = make_flux("zero", 1, grid.d)
    spec = InitialDataSpec(kind="single_mode", amplitude=1.0, mode=tuple(mode), v_kind="zero")
    state = make_initial_data(spec, grid, JinXinModel(flux, a, eps[0]))
    w = [np.repeat(c[None], len(eps), axis=0) for c in [state.u.coeffs] + [vi.coeffs for vi in state.v]]
    column = (-1,) + (1,) * (w[0].ndim - 1)
    kernel, coeffs = FullLatticeStepper(flux, a, grid).prepare(scheme, np.reshape(dt, column),
                                                               np.reshape(eps, column))
    stored = mode if mode[-1] >= 0 else tuple(-m for m in mode)
    sel = tuple(m % grid.N for m in stored)
    weight = grid.multiplicity()[(0,) * (grid.d - 1) + sel[-1:]]
    idx = (slice(None), slice(None)) + sel
    eps_pair = np.reshape(eps, (-1, 1))
    energy = np.empty((steps, len(eps)))
    t = 0.0
    for k in range(steps):
        w, t = advance(kernel, coeffs, w, 1, t, np.asarray(dt))
        energy[k] = weight * (np.sum(np.abs(w[0][idx]) ** 2, axis=1)
                              + sum(np.sum(np.abs(eps_pair * vi[idx]) ** 2, axis=1) for vi in w[1:]))
    return energy


def full_lattice_hermitian_randomize(grid, modulus, rng):
    """Random phases on the half-spectrum modulus, paired through full-lattice
    flat-index tables: the conjugate table is the index table flipped and
    rolled by one along every axis."""
    idx = np.arange(grid.N**grid.d).reshape(grid.shape)
    conj_idx = idx
    for ax in range(grid.d):
        conj_idx = np.roll(np.flip(conj_idx, axis=ax), 1, axis=ax)
    theta = rng.uniform(0.0, 2.0 * np.pi, size=grid.shape)
    half = (Ellipsis, slice(0, grid.N // 2 + 1))
    idx, conj_idx = idx[half], conj_idx[half]
    phase = np.where(idx <= conj_idx, theta[half], -theta.reshape(-1)[conj_idx])
    c = modulus * np.exp(1j * phase)
    self_paired = idx == conj_idx
    c[self_paired] = np.abs(c[self_paired])
    return c
