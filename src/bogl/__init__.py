"""Periodic Benjamin-Ono pseudo-spectral solver and estimate-verification lab."""

from .spectral import (
    SpatialGrid,
    RealField,
    ComplexField,
    make_grid,
    hilbert,
    project,
    fractional,
    free_propagate,
    lebesgue_norm,
    sobolev_norm,
)
from .lp import eta, phi, decompose, tilde_lp_norm, LPDecomposition
from .dynamics import (
    SimConfig,
    Trajectory,
    IntegrationError,
    step,
    simulate,
    momentum,
    energy,
    rescale,
    traveling_wave,
)

__version__ = "0.1.0"
