"""Right-hand sides of the relaxation system and its limit, written out field
by field as independent references for the steppers, which fuse them into
their stage kernels.
"""

from relaxlab.models import JinXinModel, JinXinState, flux_fields
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
