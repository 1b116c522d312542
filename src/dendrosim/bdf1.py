"""First-order decoupled, unconditionally energy-stable time stepper, and the
SAV step kernel shared with the second-order scheme.

Both schemes write the time derivative as (a0*x^{n+1} - x_hist)/tau and take
the nonlinear terms at explicit data x_bar; here a0 = 1, x_hist = x_bar = x^n.
:func:`sav_step` then advances (phi, T, mu, R) through four linear elliptic
solves (:func:`partial_solves`) and a scalar closure:

1. the xi-independent phase pair (phi_1, mu_1) from the phase history;
2. the xi-proportional pair (phi_2, mu_2) forced by the explicit nonlinear
   residual and temperature coupling;
3. the homogeneous (T_1) and forced (T_2) temperature halves;
4. the scalar xi = A2/A1 of the SAV closure (Shen, Xu & Yang, J. Comput.
   Phys. 353, 2018), after which the new fields are the affine
   recombinations phi_1 + xi*phi_2 etc.

mu_1, mu_2 and the T_2 Laplacian in A2 are taken from the equations the
solves just satisfied, so the only real-space Laplacian of a step is the
explicit s4 term of the phase history.

``energy_identity_residual`` re-assembles the three inner-product identities
behind the first-order discrete energy law, independently of the stepping
code, and reports how far their sum is from zero relative to the modified
energy.  The field norms of a state's modified energy are evaluated once per
state (:func:`state_norms`) and shared by the check and the ledger row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .grid import GridSpec, grad_norm_sq, inner, laplacian, norm_sq
from .model import (
    NO_SOURCES,
    ModelParams,
    SourceTerms,
    anisotropy,
    e1_energy,
    g_residual,
    h_prime,
)
from .solvers import helmholtz_solve, solve_shifted

__all__ = [
    "StateBDF1",
    "EnergyNorms",
    "StepReport",
    "PartialSolves",
    "init_state",
    "partial_solves",
    "sav_step",
    "step",
    "state_norms",
    "scheme_energy",
    "energy_identity_residual",
    "identity_proof_lines",
]


class _NormMemo:
    """Per-grid memo ``_norms`` of a state's energy norms.

    The norms depend on the state's fields alone, so the identity check and
    the ledger row of a level can share them; assigning any field drops them.
    """

    def __setattr__(self, name, value):
        object.__setattr__(self, name, value)
        if name != "_norms":
            object.__setattr__(self, "_norms", {})

    def _memo(self, grid: GridSpec, compute):
        norms = self._norms.get(grid)
        if norms is None:
            norms = self._norms[grid] = compute(grid, self)
        return norms


@dataclass
class StateBDF1(_NormMemo):
    """Time-level data (phi^n, T^n, mu^n, R^n) at t = n*tau."""

    phi: np.ndarray
    temp: np.ndarray
    mu: np.ndarray
    r: float
    t: float = 0.0
    n: int = 0
    _norms: dict = field(default_factory=dict, init=False, repr=False, compare=False)


class EnergyNorms(NamedTuple):
    """The field norms in the first-order modified energy of one state."""

    grad_phi: float  # ||grad phi||^2, Dirichlet form
    phi: float  # ||phi||^2
    temp: float  # ||T||^2


@dataclass
class StepReport:
    """Per-step closure diagnostics."""

    xi: float
    a1: float
    a2: float
    cg_iterations: int = 0
    identity_residual: float = 0.0


@dataclass
class PartialSolves:
    """The four decoupled sub-solutions entering the xi closure."""

    phi1: np.ndarray
    mu1: np.ndarray
    phi2: np.ndarray
    mu2: np.ndarray
    temp1: np.ndarray
    temp2: np.ndarray
    cg_iterations: int = 0


def init_state(grid: GridSpec, phi0: np.ndarray, temp0: np.ndarray, p: ModelParams) -> StateBDF1:
    """Initial state with R = sqrt(E1(phi0)) and mu from the continuous
    chemical potential evaluated at the initial data (auxiliary ratio = 1)."""
    grid.check(phi0, temp0)
    geom = anisotropy(grid, phi0, p.sigma)
    e1 = e1_energy(grid, phi0, p, geom)
    mu0 = (
        -g_residual(grid, phi0, p, geom)
        + p.s1 * laplacian(grid, phi0)
        - (p.s2 / p.eps**2) * phi0
        - (p.lam / p.eps) * h_prime(phi0) * temp0
    )
    return StateBDF1(phi=phi0.copy(), temp=temp0.copy(), mu=mu0, r=math.sqrt(e1))


def partial_solves(
    grid: GridSpec, p: ModelParams, tau: float, a0: float, rho, hist: tuple[np.ndarray, np.ndarray],
    phi_bar: np.ndarray, core: np.ndarray, temp_forcing: np.ndarray, src: tuple = (None, None),
    cg_tol: float = 1e-10, cg_maxit: int = 500,
) -> PartialSolves:
    """The four linear solves of one step with leading BDF coefficient ``a0``.

    ``rho`` is 1/M(phi_bar) and ``hist`` is (phi_hist, T_hist).  The phi_2 pair
    is forced by ``core`` = -g - (lam/eps) h' T_bar, so mu_2 = core +
    s1*Lap(phi_2) - (s2/eps^2) phi_2; T_2 is forced by ``temp_forcing`` =
    K h' M mu_bar.  ``src`` holds the optional phase and temperature sources.

    mu_1 and mu_2 are read off the phase solves' own equations rather than
    from another Laplacian: coeff*phi - b*Lap(phi) = rhs with b = s1 + s4
    gives s1*Lap(phi) = (s1/b)*(coeff*phi - rhs).  With the PCG path the
    pair then satisfies mu = s1*Lap(phi) - ... up to (s1/b) times the solve
    residual, which is at most cg_tol*||rhs||.
    """
    (phi_hist, temp_hist), (src_phi, src_temp) = hist, src
    b = p.s1 + p.s4
    s1_b = p.s1 / b if b > 0.0 else 0.0  # b = 0 forces s1 = 0
    s2_e = p.s2 / p.eps**2
    coeff = a0 * rho / tau + (p.s2 + p.s3) / p.eps**2
    rhs1 = phi_hist * (rho / tau) + (p.s3 / p.eps**2) * phi_bar - p.s4 * laplacian(grid, phi_bar)
    if src_phi is not None:
        rhs1 = rhs1 + rho * src_phi
    phi1, it1 = solve_shifted(grid, coeff, b, rhs1, cg_tol, cg_maxit)
    phi2, it2 = solve_shifted(grid, coeff, b, core, cg_tol, cg_maxit)
    rhs_t1 = temp_hist / tau
    if src_temp is not None:
        rhs_t1 = rhs_t1 + src_temp
    return PartialSolves(
        phi1=phi1,
        mu1=s1_b * (coeff * phi1 - rhs1) - s2_e * phi1,
        phi2=phi2,
        mu2=core + s1_b * (coeff * phi2 - core) - s2_e * phi2,
        temp1=helmholtz_solve(grid, a0 / tau, p.diff, rhs_t1),
        temp2=helmholtz_solve(grid, a0 / tau, p.diff, temp_forcing),
        cg_iterations=it1 + it2,
    )


def sav_step(
    grid: GridSpec, p: ModelParams, tau: float, a0: float,
    hist: tuple[np.ndarray, np.ndarray, float], bar: tuple[np.ndarray, np.ndarray, np.ndarray],
    sources: SourceTerms, t_new: float, cg_tol: float, cg_maxit: int,
) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray, float], StepReport]:
    """One step of either scheme to ``t_new``; returns the new (phi, T, mu, R).

    ``hist`` = (phi_hist, T_hist, R_hist) is the history of the BDF derivative
    (a0*x^{n+1} - x_hist)/tau, ``bar`` = (phi_bar, T_bar, mu_bar) the explicit
    data.  A1 collects 2*a0 times the auxiliary energy plus weighted squares
    of the xi-proportional parts, hence is always positive; the solve
    equations of phi_2 and T_2 turn those squares into the products
    a0*<core, phi_2> and tau*<temp_forcing, T_2>.
    """
    if not tau > 0.0:
        raise ValueError("tau must be positive")
    (phi_hist, temp_hist, r_hist), (phi_bar, temp_bar, mu_bar) = hist, bar
    rho = p.mobility.rho_at(phi_bar)
    hp = h_prime(phi_bar)
    geom = anisotropy(grid, phi_bar, p.sigma)
    e1 = e1_energy(grid, phi_bar, p, geom)
    core = -(g_residual(grid, phi_bar, p, geom) + (p.lam / p.eps) * hp * temp_bar)
    del geom
    temp_forcing = p.latent * hp / rho * mu_bar
    parts = partial_solves(
        grid, p, tau, a0, rho, (phi_hist, temp_hist), phi_bar, core, temp_forcing,
        (sources.phi_at(grid, t_new), sources.temp_at(grid, t_new)), cg_tol, cg_maxit,
    )
    lam_ek = p.lam / (p.eps * p.latent)
    # <core, phi_2> = <coeff*phi_2, phi_2> + (s1 + s4)||grad phi_2||^2 and
    # tau*<temp_forcing, T_2> = a0||T_2||^2 + tau*D||grad T_2||^2
    a1 = math.fsum([
        a0 * 2.0 * e1,
        a0 * inner(grid, core, parts.phi2),
        lam_ek * tau * inner(grid, temp_forcing, parts.temp2),
    ])
    # the T_2 equation a0*T_2/tau - D*Lap(T_2) = temp_forcing turns the A2
    # term <-a0*T_2 + tau*D*Lap(T_2), T_1> into -tau*<temp_forcing, T_1>
    a2 = math.fsum([
        2.0 * math.sqrt(e1) * r_hist,
        -inner(grid, core, a0 * parts.phi1 - phi_hist),
        -lam_ek * tau * inner(grid, temp_forcing, parts.temp1),
    ])
    if not a1 > 0.0:
        raise FloatingPointError(
            f"closure denominator A1={a1} is not positive; this violates a "
            "structural invariant of the scheme"
        )
    xi = a2 / a1
    new = (parts.phi1 + xi * parts.phi2, parts.temp1 + xi * parts.temp2,
           parts.mu1 + xi * parts.mu2, xi * math.sqrt(e1))
    return new, StepReport(xi=xi, a1=a1, a2=a2, cg_iterations=parts.cg_iterations)


def step(
    grid: GridSpec,
    state: StateBDF1,
    tau: float,
    p: ModelParams,
    sources: SourceTerms = NO_SOURCES,
    check_identity: bool = False,
    cg_tol: float = 1e-10,
    cg_maxit: int = 500,
) -> tuple[StateBDF1, StepReport]:
    """Advance one time level: the SAV kernel with a0 = 1 and x_hist = x_bar = x^n."""
    t_new = state.t + tau
    (phi, temp, mu, r), report = sav_step(
        grid, p, tau, 1.0, (state.phi, state.temp, state.r),
        (state.phi, state.temp, state.mu), sources, t_new, cg_tol, cg_maxit,
    )
    new = StateBDF1(phi=phi, temp=temp, mu=mu, r=r, t=t_new, n=state.n + 1)
    if check_identity:
        report.identity_residual = energy_identity_residual(grid, p, tau, state, new)
    return new, report


def _energy_norms(grid: GridSpec, state: StateBDF1) -> EnergyNorms:
    return EnergyNorms(grad_norm_sq(grid, state.phi), norm_sq(grid, state.phi),
                       norm_sq(grid, state.temp))


def state_norms(grid: GridSpec, state: StateBDF1) -> EnergyNorms:
    """The state's energy norms, evaluated once per state and grid."""
    return state._memo(grid, _energy_norms)


def scheme_energy(grid: GridSpec, p: ModelParams, state: StateBDF1) -> float:
    """Modified energy of the first-order discrete energy law."""
    norms = state_norms(grid, state)
    return (
        0.5 * p.s1 * norms.grad_phi
        + 0.5 * p.s2 / p.eps**2 * norms.phi
        + 0.5 * p.lam / (p.eps * p.latent) * norms.temp
        + state.r**2
    )


def identity_proof_lines(
    grid: GridSpec,
    p: ModelParams,
    tau: float,
    before: StateBDF1,
    after: StateBDF1,
) -> tuple[float, float, float]:
    """Assemble the three inner-product identities behind the energy law.

    Each line is an exact algebraic consequence of one scheme equation
    tested against the increments, so each vanishes to roundoff for states
    produced by :func:`step`; their sum equals twice the telescoped energy
    balance.  Everything is recomputed from the two states alone (their
    energy norms through :func:`state_norms`); a term shared by two lines is
    evaluated once.
    """
    rho_n = p.mobility.rho_at(before.phi)
    geom = anisotropy(grid, before.phi, p.sigma)
    g_n = g_residual(grid, before.phi, p, geom)
    hp_n = h_prime(before.phi)
    e1_n = e1_energy(grid, before.phi, p, geom)
    del geom
    xi = after.r / math.sqrt(e1_n)
    lam_e = p.lam / p.eps
    lam_ek = p.lam / (p.eps * p.latent)
    nb, na = state_norms(grid, before), state_norms(grid, after)

    dphi = after.phi - before.phi
    dtemp = after.temp - before.temp
    dr = after.r - before.r
    dphi_sq = norm_sq(grid, dphi)
    dphi_grad_sq = grad_norm_sq(grid, dphi)
    residual_work = 2.0 * xi * inner(grid, g_n, dphi)
    coupling_work = 2.0 * xi * lam_e * inner(grid, hp_n * before.temp, dphi)
    heat_transfer = 2.0 * xi * tau * lam_e * inner(grid, hp_n / rho_n * before.mu, after.temp)

    line1 = math.fsum(
        [
            (2.0 / tau) * inner(grid, rho_n * dphi, dphi),
            (2.0 * p.s3 / p.eps**2) * dphi_sq,
            2.0 * p.s4 * dphi_grad_sq,
            residual_work,
            p.s1 * (na.grad_phi - nb.grad_phi + dphi_grad_sq),
            (p.s2 / p.eps**2) * (na.phi - nb.phi + dphi_sq),
            coupling_work,
        ]
    )
    line2 = math.fsum(
        [
            2.0 * (after.r**2 - before.r**2 + dr**2),
            -residual_work,
            heat_transfer,
            -coupling_work,
        ]
    )
    line3 = math.fsum(
        [
            lam_ek * (na.temp - nb.temp + norm_sq(grid, dtemp)),
            2.0 * tau * lam_ek * p.diff * grad_norm_sq(grid, after.temp),
            -heat_transfer,
        ]
    )
    return line1, line2, line3


def energy_identity_residual(
    grid: GridSpec,
    p: ModelParams,
    tau: float,
    before: StateBDF1,
    after: StateBDF1,
) -> float:
    """Energy-law balance |E^{n+1} - E^n + Q + tau*dissipation| / |E^n|.

    Q here is the proof-complete increment (it includes the temperature
    increment square and the doubled s3/s4 weights the summed proof lines
    actually produce).
    """
    lines = identity_proof_lines(grid, p, tau, before, after)
    return abs(math.fsum(lines)) / (2.0 * abs(scheme_energy(grid, p, before)))
