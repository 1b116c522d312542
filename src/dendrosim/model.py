"""Continuous-model ingredients for the anisotropic crystal growth system.

Holds the physical parameters, the derivatives of the double-well potential
and of the latent-heat function, the fourfold anisotropy function and its
gradient-space derivative, the stabilized nonlinear residual driving the
phase equation, and the auxiliary and original energy functionals (the
modified energy of the schemes is ``bdf1.scheme_energy``).

Conventions shared with the time steppers:

* pointwise anisotropy quantities (kappa, H, |grad phi|^2 weights) use the
  collocated centered gradient.  :func:`anisotropy` evaluates that geometry
  (gradient, kappa, |grad phi|^2) once per field; the residual and both
  energies take it as an optional argument, so a step that needs the
  residual and E1 of the same field shares one evaluation;
* quadratic gradient energies use the face-difference Dirichlet form
  ``grad_inner`` so they pair exactly with the compact Laplacian.  The
  auxiliary energy mixes both on purpose, which keeps
  original == modified + auxiliary split an exact identity;
* the pointwise chains run over the row blocks of ``grid.row_blocks``,
  bitwise the whole-field passes (see ``grid``).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .grid import (
    GridSpec,
    face_flux_divergence,
    grad_norm_sq,
    gradient,
    norm_sq,
    row_blocks,
)

__all__ = [
    "ModelParams",
    "SourceTerms",
    "EnergyPositivityError",
    "f_well",
    "h_prime",
    "Anisotropy",
    "anisotropy",
    "aniso_flux",
    "g_residual",
    "e1_energy",
    "original_energy",
]

DEFAULT_GRAD_REG = 1e-12


class EnergyPositivityError(ValueError):
    """Auxiliary energy came out non-positive; the shift constant is too small."""


@dataclass(frozen=True)
class ModelParams:
    """Physical and stabilization constants of the crystal growth model.

    eps     interface width
    lam     kinetic coefficient (lambda)
    diff    temperature diffusion rate
    latent  latent heat coefficient
    sigma   fourfold anisotropy strength, in [0, 1)
    mobility  relaxation coefficient rho = 1/M, positive
    s1..s4  stabilization constants (s1 < (1-sigma)^2 when positive)
    bconst  positive shift making the auxiliary energy positive
    mobility_tanh  weight w, |w| < 1, of the phase-dependent relaxation
            coefficient rho(phi) = mobility*(1 + w*tanh(phi)), which is
            positive for every phi; 0 keeps rho constant
    """

    eps: float
    lam: float
    diff: float
    latent: float
    sigma: float
    mobility: float
    s1: float
    s2: float
    s3: float
    s4: float
    bconst: float
    mobility_tanh: float = 0.0

    def __post_init__(self):
        for name in ("eps", "lam", "diff", "latent", "sigma", "s1", "s2", "s3", "s4", "bconst"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be a finite number, got {getattr(self, name)!r}")
        if not math.isfinite(self.mobility):
            raise ValueError(f"mobility rho must be a finite number, got {self.mobility!r}")
        if not self.mobility > 0.0:
            raise ValueError(f"mobility rho must be positive, got {self.mobility}")
        if not abs(self.mobility_tanh) < 1.0:  # nan fails too
            raise ValueError(f"mobility_tanh must lie in (-1, 1), got {self.mobility_tanh!r}")
        if not self.eps > 0.0:
            raise ValueError("eps must be positive")
        if self.eps * self.eps < sys.float_info.min:  # the steps divide by eps^2
            raise ValueError(f"eps={self.eps!r} is too small: eps**2 underflows")
        if not self.lam > 0.0:  # the modified energy weighs ||T||^2 by lam/(eps*latent)
            raise ValueError(f"lambda must be positive, got {self.lam}")
        if not self.diff > 0.0:
            raise ValueError("diff must be positive")
        if not self.latent > 0.0:  # the energies divide by eps * latent
            raise ValueError(f"latent must be positive, got {self.latent}")
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

    def rho_at(self, phi: np.ndarray) -> float | np.ndarray:
        """The relaxation coefficient 1/M at ``phi``: the float ``mobility``
        when the tanh weight is 0, else mobility*(1 + w*tanh(phi)), formed
        in its result."""
        if self.mobility_tanh == 0.0:
            return self.mobility
        rho = np.tanh(phi)
        rho *= self.mobility_tanh
        rho += 1.0
        rho *= self.mobility
        return rho


@dataclass(frozen=True)
class SourceTerms:
    """Optional forcing hooks; each maps (X, Y, t) to a field.  X and Y are
    the grid's cell centres, built once per grid and read-only.

    ``phi`` adds to phi_t after the mobility factor, ``temp`` adds to T_t.
    The steppers evaluate both at the new time level, on the xi-independent
    right-hand sides, so manufactured forcing never perturbs the xi closure.
    The identity check leaves out the work of the sources, so the
    ``identity_residual`` of a forced run is not the residual of the forced
    law (about 5e-8 where an unforced run reads 1e-15; ROADMAP item 16).
    """

    phi: Callable[[np.ndarray, np.ndarray, float], np.ndarray] | None = None
    temp: Callable[[np.ndarray, np.ndarray, float], np.ndarray] | None = None

    def at(self, name: str, grid: GridSpec, t: float) -> np.ndarray | None:
        """The ``name`` ("phi" or "temp") forcing at time t; None without its hook."""
        hook = getattr(self, name)
        return None if hook is None else np.asarray(hook(*_cell_centers(grid), t), dtype=float)


@lru_cache(maxsize=2)
def _cell_centers(grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """``grid.mesh()`` built once per grid for the source hooks; read-only,
    so no hook can change what the next level's hook sees."""
    x, y = grid.mesh()
    x.flags.writeable = y.flags.writeable = False
    return x, y


NO_SOURCES = SourceTerms()


def f_well(phi: np.ndarray) -> np.ndarray:
    """Derivative of the double-well potential: phi^3 - phi."""
    return phi * (phi * phi - 1.0)


def h_prime(phi: np.ndarray) -> np.ndarray:
    """h'(phi) = (phi^2 - 1)^2, non-negative everywhere, formed in the
    result a row block at a time."""
    phi = np.asarray(phi)
    out = np.empty(phi.shape)
    for rows in row_blocks(phi.shape, 2):
        q = np.multiply(phi[rows], phi[rows], out=out[rows])
        q -= 1.0
        q *= q
    return out


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
        singularity, where kappa decays harmlessly to 1.  kappa and |g|^2
        are formed in their outputs a row block at a time.
        """
        kap, mag2 = np.empty(gx.shape), np.empty(gx.shape)
        for rows in row_blocks(gx.shape, 6):
            x2 = gx[rows] * gx[rows]
            y2 = gy[rows] * gy[rows]
            np.add(x2, y2, out=mag2[rows])
            k = np.subtract(x2, y2, out=kap[rows])
            k *= k
            x2 *= y2
            x2 *= 4.0
            k -= x2
            inv = np.add(mag2[rows], reg, out=y2)
            np.reciprocal(inv, out=inv)
            k *= inv
            k *= inv
            k *= sigma
            k += 1.0
        return cls(gx, gy, kap, mag2)


def anisotropy(grid: GridSpec, phi: np.ndarray, sigma: float) -> Anisotropy:
    """The anisotropy geometry of ``phi``, from its centered gradient."""
    grid.check(phi)
    return Anisotropy.from_gradient(*gradient(grid, phi), sigma)


def aniso_flux(
    geom: Anisotropy, sigma: float, reg: float = DEFAULT_GRAD_REG
) -> tuple[np.ndarray, np.ndarray]:
    """The anisotropy vector kappa |grad phi|^2 H of the phase flux.

    H = 16 sigma (gx^2 - gy^2) (gx gy^2, -gy gx^2) / (|g|^2 + reg)^3 is the
    gradient-space derivative of kappa, so the vector is e (gy, -gx) with
    e = 16 sigma kappa |g|^2 (gx^2 - gy^2) gx gy / (|g|^2 + reg)^3, formed
    in the two outputs, a row block at a time.
    """
    gx, gy, kap, mag2 = geom
    vx, vy = np.empty(gx.shape), np.empty(gx.shape)
    for rows in row_blocks(gx.shape, 6):
        x, y = gx[rows], gy[rows]
        e = np.multiply(x, x, out=vy[rows])
        v = np.multiply(y, y, out=vx[rows])
        e -= v
        np.add(mag2[rows], reg, out=v)
        np.reciprocal(v, out=v)
        e *= kap[rows]
        e *= mag2[rows]
        e *= v
        e *= v
        e *= v
        e *= 16.0 * sigma
        e *= x
        e *= y
        np.multiply(e, y, out=v)
        e *= x
        np.negative(e, out=e)
    return vx, vy


def g_residual(
    grid: GridSpec, phi: np.ndarray, p: ModelParams, geom: Anisotropy | None = None
) -> np.ndarray:
    """Stabilized nonlinear residual of the phase equation.

    g(phi) = -div((kappa^2 - s1) grad phi + kappa |grad phi|^2 H)
             + (f(phi) - s2*phi) / eps^2.

    The scalar-coefficient flux goes through face differences (so the
    isotropic limit reduces exactly to the compact Laplacian); the
    anisotropy vector goes through the collocated adjoint-consistent
    divergence, subtracted in place.  At most three fields are live, the
    result included; w = kappa^2 - s1, the bulk term and the anisotropy
    vector are formed a row block at a time.  ``geom`` is
    ``anisotropy(grid, phi, p.sigma)`` when the caller already has it.
    """
    grid.check(phi)
    if geom is None:
        geom = anisotropy(grid, phi, p.sigma)
    w = np.empty(phi.shape)
    for rows in row_blocks(phi.shape, 2):
        np.multiply(geom.kap[rows], geom.kap[rows], out=w[rows])
        w[rows] -= p.s1
    out = face_flux_divergence(grid, w, phi)
    del w
    for rows in row_blocks(phi.shape, 4):
        bulk = f_well(phi[rows])
        bulk -= p.s2 * phi[rows]
        bulk /= p.eps**2
        np.subtract(bulk, out[rows], out=out[rows])  # bitwise -out + bulk
    del bulk
    if p.sigma > 0.0:
        _subtract_divergence(grid, *aniso_flux(geom, p.sigma), out)
    return out


def _subtract_divergence(
    grid: GridSpec, vx: np.ndarray, vy: np.ndarray, out: np.ndarray
) -> None:
    """out -= div(vx, vy) in place: the centered divergence with odd (zero
    normal flux) wall ghosts, the negative adjoint of ``grid.gradient``.
    vx and vy are scaled in place by 1/(2h), and their centered differences
    are subtracted row by row and then on the flattened field."""
    vx /= 2.0 * grid.hx
    out[1:-1, :] -= vx[2:, :]
    out[1:-1, :] += vx[:-2, :]
    out[0, :] -= vx[1, :] + vx[0, :]
    out[-1, :] += vx[-1, :] + vx[-2, :]
    vy /= 2.0 * grid.hy
    first = out[:, 0] - (vy[:, 1] + vy[:, 0])
    last = out[:, -1] + (vy[:, -1] + vy[:, -2])
    flat, vy = out.ravel()[1:-1], vy.ravel()
    flat -= vy[2:]
    flat += vy[:-2]
    out[:, 0], out[:, -1] = first, last


def _dot(f: np.ndarray, g: np.ndarray) -> float:
    return float(np.dot(f.ravel(), g.ravel()))


def _interface_sums(phi: np.ndarray, geom: Anisotropy) -> tuple[float, float]:
    """Cell sums of kappa^2 |grad phi|^2 / 2 and of F(phi), as dot products:
    <kappa^2, |grad phi|^2>/2 and <q, q>/4 with q = phi^2 - 1."""
    q = np.empty(phi.shape)
    for rows in row_blocks(phi.shape, 2):
        np.multiply(phi[rows], phi[rows], out=q[rows])
        q[rows] -= 1.0
    return 0.5 * _dot(geom.kap * geom.kap, geom.mag2), 0.25 * _dot(q, q)


def e1_energy(
    grid: GridSpec, phi: np.ndarray, p: ModelParams, geom: Anisotropy | None = None,
    grad_sq: float | None = None,
) -> float:
    """Auxiliary energy E1 under the square root of the auxiliary variable.

    E1 = int( kappa^2 |grad phi|^2 / 2 + (F(phi) - s2 phi^2 / 2)/eps^2 + B )
         - (s1/2) * ||grad phi||^2  (Dirichlet form).

    ``geom`` is ``anisotropy(grid, phi, p.sigma)`` and ``grad_sq`` is
    ``grad_norm_sq(grid, phi)`` when the caller already has them.  Raises
    EnergyPositivityError when non-positive.
    """
    grid.check(phi)
    if geom is None:
        geom = anisotropy(grid, phi, p.sigma)
    if grad_sq is None:
        grad_sq = grad_norm_sq(grid, phi)
    aniso, well = _interface_sums(phi, geom)
    bulk = aniso + (well - 0.5 * p.s2 * _dot(phi, phi)) / p.eps**2
    value = bulk * grid.cell_area + p.bconst * grid.area - 0.5 * p.s1 * grad_sq
    if value <= 0.0:
        raise EnergyPositivityError(
            f"auxiliary energy E1={value:.6g} is not positive; increase bconst "
            f"(currently {p.bconst}) for this configuration"
        )
    return value


def original_energy(
    grid: GridSpec, phi: np.ndarray, temp: np.ndarray, p: ModelParams,
    geom: Anisotropy | None = None, temp_sq: float | None = None,
) -> float:
    """Free energy of the unmodified model.

    E(phi, T) = int( kappa^2 |grad phi|^2 / 2 + F(phi)/eps^2
                     + lam/(2 eps K) T^2 ).

    ``geom`` is ``anisotropy(grid, phi, p.sigma)`` and ``temp_sq`` is
    ``norm_sq(grid, temp)`` when the caller already has them.
    """
    grid.check(phi, temp)
    if geom is None:
        geom = anisotropy(grid, phi, p.sigma)
    if temp_sq is None:
        temp_sq = norm_sq(grid, temp)
    aniso, well = _interface_sums(phi, geom)
    return ((aniso + well / p.eps**2) * grid.cell_area
            + 0.5 * p.lam / (p.eps * p.latent) * temp_sq)
