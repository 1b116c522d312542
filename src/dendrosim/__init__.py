"""Decoupled, unconditionally energy-stable steppers for anisotropic
phase-field dendritic crystal growth, with per-step energy-law verification
and desk-scale reproductions of the accuracy / stability / dendrite
experiments."""

from .grid import (
    GridSpec,
    divergence,
    grad_inner,
    grad_norm_sq,
    gradient,
    inner,
    integrate,
    laplacian,
    norm_sq,
)
from .model import (
    ConstantMobility,
    EnergyPositivityError,
    FieldMobility,
    ModelParams,
    SourceTerms,
    Anisotropy,
    aniso_flux,
    anisotropy,
    big_f_well,
    e1_energy,
    f_well,
    g_residual,
    h_latent,
    h_prime,
    kappa,
    modified_energy,
    original_energy,
)
from .solvers import SolverError, helmholtz_solve, variable_helmholtz_solve

__all__ = [
    "GridSpec",
    "gradient",
    "divergence",
    "laplacian",
    "inner",
    "norm_sq",
    "integrate",
    "grad_inner",
    "grad_norm_sq",
    "ModelParams",
    "ConstantMobility",
    "FieldMobility",
    "SourceTerms",
    "EnergyPositivityError",
    "f_well",
    "big_f_well",
    "h_latent",
    "h_prime",
    "Anisotropy",
    "anisotropy",
    "kappa",
    "aniso_flux",
    "g_residual",
    "e1_energy",
    "modified_energy",
    "original_energy",
    "SolverError",
    "helmholtz_solve",
    "variable_helmholtz_solve",
]

__version__ = "0.1.0"
