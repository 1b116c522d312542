"""Second-order decoupled, unconditionally energy-stable time stepper.

Each step runs the shared SAV kernel ``bdf1.sav_step`` with the
backward-difference-2 coefficient a0 = 3/2, history 2*(.)^n - (.)^{n-1}/2 and
all explicit data taken at the linear extrapolations 2*(.)^n - (.)^{n-1}.
The first level is produced from the level-0 ``bdf1.StateBDF1`` by one
first-order bootstrap step, which costs O(tau^2) globally and leaves the
second-order convergence intact.  :func:`bootstrap` and :func:`step2` take
the parameters of ``bdf1.step``.

The second-order energy needs the norms of each level, lead and difference
field; :func:`state_norms2` evaluates them once per state, so the identity
check at level n reads the norms its predecessor took of the same state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import bdf1
from .grid import GridSpec, grad_norm_sq, inner, norm_sq
from .model import (
    NO_SOURCES,
    EnergyPositivityError,
    ModelParams,
    SourceTerms,
    anisotropy,
    e1_energy,
    g_residual,
    h_prime,
)

__all__ = [
    "StateBDF2",
    "EnergyNorms2",
    "bootstrap",
    "step2",
    "state_norms2",
    "scheme_energy2",
    "energy_identity_residual2",
    "identity_proof_lines2",
]


@dataclass(frozen=True)
class StateBDF2(bdf1._NormMemo):
    """Two time levels of (phi, T, mu, R); ``prev`` fields hold level n-1."""

    phi: np.ndarray
    phi_prev: np.ndarray
    temp: np.ndarray
    temp_prev: np.ndarray
    mu: np.ndarray
    mu_prev: np.ndarray
    r: float
    r_prev: float
    t: float
    n: int
    _norms: dict = field(default_factory=dict, init=False, repr=False, compare=False)


class EnergyNorms2(NamedTuple):
    """The field norms in the second-order modified energy of one state:
    the level-n field, the lead field 2x^n - x^{n-1} and the difference
    x^n - x^{n-1}."""

    grad_phi: float  # ||grad phi^n||^2, Dirichlet form
    phi: float  # ||phi^n||^2
    grad_lead: float
    lead: float
    grad_diff: float
    diff: float
    temp: float
    lead_temp: float


def bootstrap(
    grid: GridSpec,
    state: bdf1.StateBDF1,
    tau: float,
    p: ModelParams,
    sources: SourceTerms = NO_SOURCES,
    check_identity: bool = False,
) -> tuple[StateBDF2, bdf1.StepReport]:
    """Fill both levels from the level-0 ``state`` (``bdf1.init_state``):
    level 1 comes from one first-order step."""
    s1, report = bdf1.step(grid, state, tau, p, sources, check_identity)
    new = StateBDF2(
        phi=s1.phi, phi_prev=state.phi,
        temp=s1.temp, temp_prev=state.temp,
        mu=s1.mu, mu_prev=state.mu,
        r=s1.r, r_prev=state.r,
        t=s1.t, n=1,
    )
    return new, report


def step2(
    grid: GridSpec,
    state: StateBDF2,
    tau: float,
    p: ModelParams,
    sources: SourceTerms = NO_SOURCES,
    check_identity: bool = False,
) -> tuple[StateBDF2, bdf1.StepReport]:
    """Advance one time level with the second-order scheme: the SAV kernel
    with a0 = 3/2, history 2x^n - x^{n-1}/2 and explicit data 2x^n - x^{n-1}."""
    t_new = state.t + tau
    hist = (2.0 * state.phi - 0.5 * state.phi_prev, 2.0 * state.temp - 0.5 * state.temp_prev,
            2.0 * state.r - 0.5 * state.r_prev)
    bar = (2.0 * state.phi - state.phi_prev, 2.0 * state.temp - state.temp_prev,
           2.0 * state.mu - state.mu_prev)
    try:
        (phi, temp, mu, r), report = bdf1.sav_step(grid, p, tau, 1.5, hist, bar, sources, t_new)
    except EnergyPositivityError as exc:
        raise EnergyPositivityError(
            f"{exc} (extrapolated field at t={t_new:g}; a larger bconst or a "
            "smaller tau tames the extrapolation overshoot)"
        ) from exc
    new = StateBDF2(
        phi=phi, phi_prev=state.phi,
        temp=temp, temp_prev=state.temp,
        mu=mu, mu_prev=state.mu,
        r=r, r_prev=state.r,
        t=t_new, n=state.n + 1,
    )
    if check_identity:
        report.identity_residual = energy_identity_residual2(grid, p, tau, state, new)
    return new, report


def _energy_norms2(grid: GridSpec, state: StateBDF2) -> EnergyNorms2:
    lead_phi = 2.0 * state.phi - state.phi_prev
    dphi = state.phi - state.phi_prev
    return EnergyNorms2(
        grad_phi=grad_norm_sq(grid, state.phi),
        phi=norm_sq(grid, state.phi),
        grad_lead=grad_norm_sq(grid, lead_phi),
        lead=norm_sq(grid, lead_phi),
        grad_diff=grad_norm_sq(grid, dphi),
        diff=norm_sq(grid, dphi),
        temp=norm_sq(grid, state.temp),
        lead_temp=norm_sq(grid, 2.0 * state.temp - state.temp_prev),
    )


def state_norms2(grid: GridSpec, state: StateBDF2) -> EnergyNorms2:
    """The state's energy norms, evaluated once per state and grid."""
    return state._memo(grid, _energy_norms2)


def scheme_energy2(grid: GridSpec, p: ModelParams, state: StateBDF2) -> float:
    """Modified energy of the second-order discrete energy law (two levels)."""
    norms = state_norms2(grid, state)
    return 0.25 * math.fsum(
        [
            p.s1 * (norms.grad_phi + norms.grad_lead),
            p.s2 / p.eps**2 * (norms.phi + norms.lead),
            2.0 * p.s3 / p.eps**2 * norms.diff,
            2.0 * p.s4 * norms.grad_diff,
            p.lam / (p.eps * p.latent) * (norms.temp + norms.lead_temp),
            2.0 * (state.r**2 + (2.0 * state.r - state.r_prev) ** 2),
        ]
    )


def identity_proof_lines2(
    grid: GridSpec,
    p: ModelParams,
    tau: float,
    before: StateBDF2,
    after: StateBDF2,
) -> tuple[float, float, float]:
    """The three inner-product identities behind the second-order energy law,
    recomputed from two consecutive states (after.prev must be before's level).

    The energy norms of both states come from :func:`state_norms2`; the old
    lead fields are the explicit data phi_bar and T_bar, and a term shared by
    two lines is evaluated once.
    """
    phi_bar = 2.0 * before.phi - before.phi_prev
    temp_bar = 2.0 * before.temp - before.temp_prev
    mu_bar = 2.0 * before.mu - before.mu_prev
    rho_bar = p.mobility.rho_at(phi_bar)
    geom = anisotropy(grid, phi_bar, p.sigma)
    g_bar = g_residual(grid, phi_bar, p, geom)
    hp_bar = h_prime(phi_bar)
    e1_bar = e1_energy(grid, phi_bar, p, geom)
    del geom
    xi = after.r / math.sqrt(e1_bar)
    lam_e = p.lam / p.eps
    lam_ek = p.lam / (p.eps * p.latent)
    nb, na = state_norms2(grid, before), state_norms2(grid, after)

    d_new = after.phi - before.phi
    curv_phi = after.phi - phi_bar
    bdf_phi = 2.0 * d_new + curv_phi  # 3phi^{n+1} - 4phi^n + phi^{n-1}
    curv_sq = norm_sq(grid, curv_phi)
    curv_grad_sq = grad_norm_sq(grid, curv_phi)
    residual_work = 2.0 * xi * inner(grid, g_bar, bdf_phi)
    coupling_work = 2.0 * xi * lam_e * inner(grid, hp_bar * temp_bar, bdf_phi)
    heat_transfer = 4.0 * tau * xi * lam_e * inner(grid, hp_bar / rho_bar * mu_bar, after.temp)

    line1 = math.fsum(
        [
            (1.0 / tau) * inner(grid, rho_bar * bdf_phi, bdf_phi),
            (2.0 * p.s3 / p.eps**2) * (na.diff - nb.diff + 2.0 * curv_sq),
            2.0 * p.s4 * (na.grad_diff - nb.grad_diff + 2.0 * curv_grad_sq),
            p.s1 * (na.grad_phi + na.grad_lead - nb.grad_phi - nb.grad_lead + curv_grad_sq),
            (p.s2 / p.eps**2) * (na.phi + na.lead - nb.phi - nb.lead + curv_sq),
            residual_work,
            coupling_work,
        ]
    )
    line2 = math.fsum(
        [
            2.0
            * (
                after.r**2
                + (2.0 * after.r - before.r) ** 2
                - before.r**2
                - (2.0 * before.r - before.r_prev) ** 2
                + (after.r - 2.0 * before.r + before.r_prev) ** 2
            ),
            -residual_work,
            heat_transfer,
            -coupling_work,
        ]
    )
    line3 = math.fsum(
        [
            lam_ek * (na.temp + na.lead_temp - nb.temp - nb.lead_temp
                      + norm_sq(grid, after.temp - temp_bar)),
            4.0 * tau * lam_ek * p.diff * grad_norm_sq(grid, after.temp),
            -heat_transfer,
        ]
    )
    return line1, line2, line3


def energy_identity_residual2(
    grid: GridSpec,
    p: ModelParams,
    tau: float,
    before: StateBDF2,
    after: StateBDF2,
) -> float:
    """Energy-law balance of one second-order step, relative to |E^n|."""
    lines = identity_proof_lines2(grid, p, tau, before, after)
    return abs(math.fsum(lines)) / (4.0 * abs(scheme_energy2(grid, p, before)))
