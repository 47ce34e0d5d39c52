"""Independent references: the right-hand sides of the relaxation system
and its limit, written out field by field for the steppers, which fuse them
into their stage kernels; the per-step march of a zero-flux mode on the
whole lattice for the overdamping scan, which marches powers of its one-step
matrix instead; and the conjugate pairing of random phases through
full-lattice index tables, which the data synthesis finds on the stored half
lattice instead.
"""

import numpy as np

from relaxlab.harness import InitialDataSpec, make_initial_data
from relaxlab.integrators import _arrays, _JinXinStepper, advance
from relaxlab.models import JinXinModel, JinXinState, flux_fields, make_flux
from relaxlab.spectral_core import SpectralField, diffusion_symbol, spectral_derivative


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


def stepped_mode_energies(grid, a, mode, eps, dt, steps: int, scheme: str):
    """(steps, members) energies of the initialized wavevector pair of a
    zero-flux single-mode run, one prepared step of `scheme` at a time on
    the whole packed lattice; member m has friction 1/eps[m] and step dt[m].
    """
    flux = make_flux("zero", 1, grid.d)
    spec = InitialDataSpec(kind="single_mode", amplitude=1.0, mode=tuple(mode), v_kind="zero")
    state = make_initial_data(spec, grid, JinXinModel(flux, a, eps[0]))
    w = [np.repeat(c[None], len(eps), axis=0) for c in _arrays(state)]
    column = (-1,) + (1,) * (w[0].ndim - 1)
    kernel, coeffs = _JinXinStepper(flux, a, grid).prepare(scheme, np.reshape(dt, column),
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
