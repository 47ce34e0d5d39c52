"""Pseudo-spectral simulator and diagnostics for hyperbolic relaxation
systems in the diffusive scaling, and their viscous-conservation-law limit."""

from .spectral_core import (
    Grid,
    SpectralField,
    DyadicScheme,
    NormSeries,
    besov_norm,
    chemin_lerner_norm,
    dyadic_block,
    nonlinear_product,
    spectral_derivative,
)
from .models import (
    Flux,
    JinXinModel,
    JinXinState,
    LimitState,
    builtin_fluxes,
    darcy_velocity,
    effective_Z,
    effective_z,
    make_flux,
)
from .spectral_analysis import (
    classify_regime,
    decay_rate_omega,
    eigenvalues,
    exact_linear_propagator,
    threshold_J,
)
from .integrators import StepperConfig, evolve, step_jinxin, step_limit
from .harness import (
    InitialDataSpec,
    RateFit,
    fit_rate,
    functional_X,
    functional_X0,
    make_initial_data,
)

__version__ = "0.1.0"
