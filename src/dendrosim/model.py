"""Continuous-model ingredients for the anisotropic crystal growth system.

Holds the physical parameters, the double-well potential and latent-heat
nonlinearity, the fourfold anisotropy function and its gradient-space
derivative, the stabilized nonlinear residual driving the phase equation,
and the three energy functionals (auxiliary, modified-quadratic, original).

Conventions shared with the time steppers:

* pointwise anisotropy quantities (kappa, H, |grad phi|^2 weights) use the
  collocated centered gradient.  :func:`anisotropy` evaluates that geometry
  (gradient, kappa, |grad phi|^2) once per field; the residual and both
  energies take it as an optional argument, so a step that needs the
  residual and E1 of the same field shares one evaluation;
* quadratic gradient energies use the face-difference Dirichlet form
  ``grad_inner`` so they pair exactly with the compact Laplacian.  The
  auxiliary energy mixes both on purpose, which keeps
  original == modified + auxiliary split an exact identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .grid import (
    GridSpec,
    divergence,
    face_flux_divergence,
    grad_norm_sq,
    gradient,
    integrate,
    norm_sq,
)

__all__ = [
    "ConstantMobility",
    "FieldMobility",
    "ModelParams",
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
]

DEFAULT_GRAD_REG = 1e-12


class EnergyPositivityError(ValueError):
    """Auxiliary energy came out non-positive; the shift constant is too small."""


@dataclass(frozen=True)
class ConstantMobility:
    """Constant relaxation coefficient rho; mobility M = 1/rho."""

    rho: float

    def __post_init__(self):
        if not self.rho > 0.0:
            raise ValueError(f"mobility rho must be positive, got {self.rho}")

    def rho_at(self, phi: np.ndarray) -> float:
        return self.rho


@dataclass(frozen=True)
class FieldMobility:
    """Phase-dependent relaxation coefficient rho(phi) > 0."""

    rho_fn: Callable[[np.ndarray], np.ndarray]

    def rho_at(self, phi: np.ndarray) -> np.ndarray:
        rho = np.asarray(self.rho_fn(phi), dtype=float)
        if not np.all(rho > 0.0):
            raise ValueError("field mobility produced non-positive rho(phi)")
        return rho


@dataclass(frozen=True)
class ModelParams:
    """Physical and stabilization constants of the crystal growth model.

    eps     interface width
    lam     kinetic coefficient (lambda)
    diff    temperature diffusion rate
    latent  latent heat coefficient
    sigma   fourfold anisotropy strength, in [0, 1)
    mobility  ConstantMobility or FieldMobility
    s1..s4  stabilization constants (s1 < (1-sigma)^2 when positive)
    bconst  positive shift making the auxiliary energy positive
    """

    eps: float
    lam: float
    diff: float
    latent: float
    sigma: float
    mobility: ConstantMobility | FieldMobility
    s1: float
    s2: float
    s3: float
    s4: float
    bconst: float

    def __post_init__(self):
        if not self.eps > 0.0:
            raise ValueError("eps must be positive")
        if not self.diff > 0.0:
            raise ValueError("diff must be positive")
        if not 0.0 <= self.sigma < 1.0:
            raise ValueError(f"sigma must lie in [0, 1), got {self.sigma}")
        for name in ("s1", "s2", "s3", "s4"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0")
        if self.s1 > 0.0 and self.s1 >= (1.0 - self.sigma) ** 2:
            raise ValueError(
                f"s1={self.s1} must stay below (1-sigma)^2={(1.0 - self.sigma) ** 2}"
            )
        if not self.bconst > 0.0:
            raise ValueError("bconst must be positive")


@dataclass(frozen=True)
class SourceTerms:
    """Optional forcing hooks; each maps (X, Y, t) to a field.

    ``phi`` adds to phi_t after the mobility factor, ``temp`` adds to T_t.
    The steppers evaluate both at the new time level, on the xi-independent
    right-hand sides, so manufactured forcing never perturbs the xi closure.
    """

    phi: Callable[[np.ndarray, np.ndarray, float], np.ndarray] | None = None
    temp: Callable[[np.ndarray, np.ndarray, float], np.ndarray] | None = None

    def phi_at(self, grid: GridSpec, t: float) -> np.ndarray | None:
        if self.phi is None:
            return None
        x, y = grid.mesh()
        return np.asarray(self.phi(x, y, t), dtype=float)

    def temp_at(self, grid: GridSpec, t: float) -> np.ndarray | None:
        if self.temp is None:
            return None
        x, y = grid.mesh()
        return np.asarray(self.temp(x, y, t), dtype=float)


NO_SOURCES = SourceTerms()


def f_well(phi: np.ndarray) -> np.ndarray:
    """Derivative of the double-well potential: phi^3 - phi."""
    return phi * (phi * phi - 1.0)


def big_f_well(phi: np.ndarray) -> np.ndarray:
    """Double-well potential F(phi) = (phi^2 - 1)^2 / 4."""
    q = phi * phi - 1.0
    return 0.25 * q * q


def h_latent(phi: np.ndarray) -> np.ndarray:
    """Latent-heat generation h(phi) = phi^5/5 - 2 phi^3/3 + phi."""
    p2 = phi * phi
    return phi * (0.2 * p2 * p2 - (2.0 / 3.0) * p2 + 1.0)


def h_prime(phi: np.ndarray) -> np.ndarray:
    """h'(phi) = (phi^2 - 1)^2, non-negative everywhere."""
    q = phi * phi - 1.0
    return q * q


class Anisotropy(NamedTuple):
    """The anisotropy geometry of one phase field: its centered gradient,
    kappa and |grad phi|^2.  ``g_residual``, ``e1_energy`` and
    ``original_energy`` read it, so a caller that needs two of them on the
    same field evaluates it once (:func:`anisotropy`)."""

    gx: np.ndarray
    gy: np.ndarray
    kap: np.ndarray  # 1 + sigma*cos(4 theta)
    mag2: np.ndarray  # |grad phi|^2

    @classmethod
    def from_gradient(
        cls, gx: np.ndarray, gy: np.ndarray, sigma: float, reg: float = DEFAULT_GRAD_REG
    ) -> "Anisotropy":
        """Fourfold anisotropy kappa = 1 + sigma*cos(4 theta) in rational form.

        cos(4 theta) = ((gx^2 - gy^2)^2 - 4 gx^2 gy^2) / (|g|^2 + reg)^2; the
        regularization avoids the arctan branch and the |g| = 0 bulk
        singularity, where kappa decays harmlessly to 1.
        """
        x2 = gx * gx
        y2 = gy * gy
        mag2 = x2 + y2
        kap = x2 - y2
        kap *= kap
        x2 *= y2
        x2 *= 4.0
        kap -= x2
        del x2, y2
        inv = mag2 + reg
        np.reciprocal(inv, out=inv)
        kap *= inv
        kap *= inv
        kap *= sigma
        kap += 1.0
        return cls(gx, gy, kap, mag2)


def anisotropy(grid: GridSpec, phi: np.ndarray, sigma: float) -> Anisotropy:
    """The anisotropy geometry of ``phi``, from its centered gradient."""
    grid.check(phi)
    return Anisotropy.from_gradient(*gradient(grid, phi), sigma)


def kappa(gx: np.ndarray, gy: np.ndarray, sigma: float, reg: float = DEFAULT_GRAD_REG) -> np.ndarray:
    """Fourfold anisotropy 1 + sigma*cos(4 theta) of a gradient field."""
    return Anisotropy.from_gradient(gx, gy, sigma, reg).kap


def aniso_flux(
    geom: Anisotropy, sigma: float, reg: float = DEFAULT_GRAD_REG
) -> tuple[np.ndarray, np.ndarray]:
    """The anisotropy vector kappa |grad phi|^2 H of the phase flux.

    H = 16 sigma (gx^2 - gy^2) (gx gy^2, -gy gx^2) / (|g|^2 + reg)^3 is the
    gradient-space derivative of kappa, so the vector is c (gx gy^2, -gy gx^2)
    with c = 16 sigma kappa |g|^2 (gx^2 - gy^2) / (|g|^2 + reg)^3.
    """
    gx, gy, kap, mag2 = geom
    x2 = gx * gx
    y2 = gy * gy
    c = x2 - y2
    c *= kap
    c *= mag2
    inv = mag2 + reg
    np.reciprocal(inv, out=inv)
    c *= inv
    c *= inv
    c *= inv
    del inv
    c *= 16.0 * sigma
    y2 *= gx
    y2 *= c
    x2 *= gy
    x2 *= c
    np.negative(x2, out=x2)
    return y2, x2


def g_residual(
    grid: GridSpec, phi: np.ndarray, p: ModelParams, geom: Anisotropy | None = None
) -> np.ndarray:
    """Stabilized nonlinear residual of the phase equation.

    g(phi) = -div((kappa^2 - s1) grad phi + kappa |grad phi|^2 H)
             + (f(phi) - s2*phi) / eps^2.

    The scalar-coefficient flux goes through face differences (so the
    isotropic limit reduces exactly to the compact Laplacian); the
    anisotropy vector goes through the collocated adjoint-consistent
    divergence.  ``geom`` is ``anisotropy(grid, phi, p.sigma)`` when the
    caller already has it.
    """
    grid.check(phi)
    if geom is None:
        geom = anisotropy(grid, phi, p.sigma)
    out = (f_well(phi) - p.s2 * phi) / p.eps**2
    w = geom.kap * geom.kap
    w -= p.s1
    out -= face_flux_divergence(grid, w, phi)
    del w
    out -= divergence(grid, *aniso_flux(geom, p.sigma))
    return out


def e1_energy(
    grid: GridSpec, phi: np.ndarray, p: ModelParams, geom: Anisotropy | None = None
) -> float:
    """Auxiliary energy E1 under the square root of the auxiliary variable.

    E1 = int( kappa^2 |grad phi|^2 / 2 + (F(phi) - s2 phi^2 / 2)/eps^2 + B )
         - (s1/2) * ||grad phi||^2  (Dirichlet form).

    ``geom`` is ``anisotropy(grid, phi, p.sigma)`` when the caller already
    has it.  Raises EnergyPositivityError when non-positive.
    """
    grid.check(phi)
    if geom is None:
        geom = anisotropy(grid, phi, p.sigma)
    bulk = 0.5 * geom.kap * geom.kap * geom.mag2
    bulk += (big_f_well(phi) - 0.5 * p.s2 * phi * phi) / p.eps**2
    value = integrate(grid, bulk) + p.bconst * grid.area - 0.5 * p.s1 * grad_norm_sq(grid, phi)
    if value <= 0.0:
        raise EnergyPositivityError(
            f"auxiliary energy E1={value:.6g} is not positive; increase bconst "
            f"(currently {p.bconst}) for this configuration"
        )
    return value


def modified_energy(
    grid: GridSpec, phi: np.ndarray, r: float, temp: np.ndarray, p: ModelParams
) -> float:
    """Reformulated quadratic energy plus R^2.

    E(phi, R, T) = int( lam/(2 eps K) T^2 + s2/(2 eps^2) phi^2 - B )
                   + (s1/2) ||grad phi||^2 + R^2.
    """
    grid.check(phi, temp)
    quad = (
        0.5 * p.lam / (p.eps * p.latent) * norm_sq(grid, temp)
        + 0.5 * p.s1 * grad_norm_sq(grid, phi)
        + 0.5 * p.s2 / p.eps**2 * norm_sq(grid, phi)
        - p.bconst * grid.area
    )
    return quad + r * r


def original_energy(
    grid: GridSpec, phi: np.ndarray, temp: np.ndarray, p: ModelParams,
    geom: Anisotropy | None = None,
) -> float:
    """Free energy of the unmodified model.

    E(phi, T) = int( kappa^2 |grad phi|^2 / 2 + F(phi)/eps^2
                     + lam/(2 eps K) T^2 ).

    ``geom`` is ``anisotropy(grid, phi, p.sigma)`` when the caller already
    has it.
    """
    grid.check(phi, temp)
    if geom is None:
        geom = anisotropy(grid, phi, p.sigma)
    bulk = 0.5 * geom.kap * geom.kap * geom.mag2
    bulk += big_f_well(phi) / p.eps**2
    return integrate(grid, bulk) + 0.5 * p.lam / (p.eps * p.latent) * norm_sq(grid, temp)
