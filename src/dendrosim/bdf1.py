"""First-order decoupled, unconditionally energy-stable time stepper, and the
SAV step kernel shared with the second-order scheme.

Both schemes write the time derivative as (a0*x^{n+1} - x_hist)/tau and take
the nonlinear terms at explicit data x_bar.  One frozen :class:`State` serves
both: it holds level n-1 exactly when its BDF order k is 2, and its ``a0``,
its history ``state.history`` and its lead ``state.lead`` are the BDF table
of that order, a0 = 1 and x_hist = x_bar = x^n at k = 1.
:func:`sav_step` then advances (phi, T, mu, R) through four linear elliptic
solves (:func:`partial_solves`) and a scalar closure:

1. the xi-independent phase solve phi_1 from the phase history;
2. the xi-proportional phase solve phi_2 forced by the explicit nonlinear
   residual and temperature coupling;
3. the homogeneous (T_1) and forced (T_2) temperature halves;
4. the scalar xi = A2/A1 of the SAV closure (Shen, Xu & Yang, J. Comput.
   Phys. 353, 2018), after which the new fields are the affine
   recombinations phi_1 + xi*phi_2 etc.

:func:`step` and ``bdf2.step2`` share one stepping body (``_advance``): the
kernel, ``state.next_level`` and, when checked, the identity residual.

The chemical potential (:func:`phase_potential`) and the T_2 Laplacian in A2
are read off the equations the solves just satisfied, so the only
real-space Laplacian of a step is the explicit s4 term of the phase
history, and none when s4 = 0.  The new mu is formed once, after xi, from
the recombined phi, whose equation has the right-hand side rhs_1 + xi*core;
mu_1 and mu_2 are never formed.

The explicit data of the step from a state (the leads, 1/M, h', E1 and the
anisotropy geometry at phi_bar) is evaluated once per state, in one order,
and each field is owned by its last reader.  An unchecked step is that
reader: its fields die inside the step, the lead phi_bar that the ledger
row's norms memoized in an order-2 state included (they take ||T_bar||^2
without keeping T_bar, which the step forms again).  A checked step
evaluates g(phi_bar) a second time, from the same geometry, for its
identity check, and keeps for the check only what it cannot form again
cheaply: that g, E1, 1/M and h' (which the step holds through its solves
anyway), in the state's memo, while the geometry's four fields die after
g as in an unchecked step.  The check takes them out and forms the leads
phi_bar, T_bar and mu_bar again from the state, each at its first read
(one 2x^n - x^{n-1} pass at order 2, none at order 1), bitwise the arrays
the step used (:func:`explicit_data`).  The ledger row of phi^n = phi_bar
hands its geometry to the step through the memo (:func:`state_geometry`).

The discrete energy law is written once for both schemes, in terms of the
BDF order k of a state (``state.order``) and its lead rule (``state.lead``:
the explicit data of the next level).  :func:`scheme_energy` is the modified
energy, summed over the level and its lead for k = 2;
:func:`identity_proof_lines` re-assembles the three inner-product
identities behind the law from the two states, the explicit data of the
step and an evaluation of the nonlinear residual g apart from the one the
step's solves use, and ``energy_identity_residual``
(``bdf2.energy_identity_residual2`` for k = 2) reports the largest of them
relative to the modified energy.  The squared norms of a
state's modified energy are evaluated once per state (:func:`state_norms`)
and shared by the check, the ledger row and E1 at the lead.

The pointwise chains of a step (the leads and histories of a state, the
right-hand side rhs_1 and the temperature forcing of the solves, core, the
recombination and mu) run over the row blocks of ``grid.row_blocks``.
Their block temporaries replace whole-field temporaries, and no name keeps
a block of a field past the field's last reader, so a step holds the
fields it held with whole-field passes, and its bits are theirs.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .grid import GridSpec, grad_norm_sq, inner, laplacian, norm_sq, row_blocks
from .model import (
    NO_SOURCES,
    Anisotropy,
    ModelParams,
    SourceTerms,
    anisotropy,
    e1_energy,
    g_residual,
    h_prime,
)
from .solvers import helmholtz_solve, solve_shifted

__all__ = [
    "State",
    "EnergyNorms",
    "ExplicitData",
    "StepReport",
    "PartialSolves",
    "init_state",
    "explicit_data",
    "state_geometry",
    "partial_solves",
    "phase_potential",
    "sav_step",
    "step",
    "state_norms",
    "scheme_energy",
    "energy_identity_residual",
    "identity_proof_lines",
]


@dataclass(frozen=True)
class State:
    """Time-level data (phi^n, T^n, mu^n, R^n) at t = n*tau and, for BDF
    order 2, level n-1 in the ``*_prev`` fields (all ``None`` at order 1).

    ``_norms`` is the state's memo: its energy norms (:func:`state_norms`),
    its order-2 lead of phi and, until the identity check takes them out,
    g, E1, 1/M and h' at phi_bar that a checked step from it kept
    (:func:`explicit_data`)."""

    phi: np.ndarray
    temp: np.ndarray
    mu: np.ndarray
    r: float
    t: float = 0.0
    n: int = 0
    phi_prev: np.ndarray | None = None
    temp_prev: np.ndarray | None = None
    mu_prev: np.ndarray | None = None
    r_prev: float | None = None
    _norms: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if len({getattr(self, name + "_prev") is None for name in ("phi", "temp", "mu", "r")}) > 1:
            raise ValueError("a state holds all of phi_prev, temp_prev, mu_prev and r_prev "
                             "(BDF order 2) or none of them (order 1)")

    # the BDF table: each entry reads the order from whether level n-1 is held
    @property
    def order(self) -> int:
        """BDF order k of the scheme that advances this state."""
        return 1 if self.phi_prev is None else 2

    @property
    def a0(self) -> float:
        """Leading coefficient of its BDF derivative (a0*x^{n+1} - history)/tau."""
        return 1.0 if self.phi_prev is None else 1.5

    def lead(self, name: str, take: bool = False):
        """The explicit data of the next level for field ``name``.

        At order 1 it is x^n itself, which stays with the state whether or
        not a reader ``take``s it.  At order 2 it is the linear extrapolation
        2x^n - x^{n-1}, kept in the state's memo until a reader ``take``s
        it, so the ledger row's norms and the step share the lead of phi;
        the lead leaves the memo and dies with the reader that takes it, and
        a reader that takes a lead not in the memo gets it formed afresh.
        A reader that takes an order-2 lead owns it and may write into it.
        An order-1 lead is the state's own array, which a later state may
        hold too (the bdf2 bootstrap keeps level 0 as its level n-1): no
        reader may write into it."""
        if self.phi_prev is None:
            return getattr(self, name)
        key = ("lead", name)
        if key not in self._norms:
            self._norms[key] = _two_levels(getattr(self, name), getattr(self, name + "_prev"), 1.0)
        return self._norms.pop(key) if take else self._norms[key]

    def history(self, name: str):
        """The history of the BDF derivative for field ``name``: x^n at order 1;
        2x^n - x^{n-1}/2 at order 2, formed afresh at each call, so it dies
        with the step's last use."""
        if self.phi_prev is None:
            return getattr(self, name)
        return _two_levels(getattr(self, name), getattr(self, name + "_prev"), 0.5)

    def next_level(self, phi: np.ndarray, temp: np.ndarray, mu: np.ndarray, r: float,
                   t: float) -> State:
        """Level n+1 with the given fields, of this state's order: at order 2
        this level becomes its level n-1."""
        if self.phi_prev is None:
            return State(phi, temp, mu, r, t, self.n + 1)
        return State(phi, temp, mu, r, t, self.n + 1, self.phi, self.temp, self.mu, self.r)


def _two_levels(x, x_prev, c: float):
    """2x - c*x_prev: a field formed a row block at a time, or the scalar R."""
    if not isinstance(x, np.ndarray):
        return 2.0 * x - c * x_prev
    out = np.empty(x.shape)
    for rows in row_blocks(x.shape, 4):
        o = np.multiply(x[rows], 2.0, out=out[rows])
        o -= x_prev[rows] if c == 1.0 else c * x_prev[rows]  # the lead skips 1.0*x_prev
    return out


def _scratch(state: State, lead: np.ndarray) -> np.ndarray:
    """Memory for a field that takes the place of ``lead`` in the reader that
    took it: the lead itself at order 2, where ``state.lead`` formed it for
    that reader, and a new field at order 1, where the lead is the state's
    own field, which no reader may write into."""
    return lead if state.order == 2 else np.empty(lead.shape)


def _at(x, rows):
    """The rows of a field; a scalar coefficient as it is."""
    return x[rows] if isinstance(x, np.ndarray) else x


class EnergyNorms(NamedTuple):
    """The squared norms in the modified energy of one state of order k.

    For k = 2 the level terms are summed over the level and its lead
    (``state.lead``); the difference terms belong to x^n - x^{n-1} and are 0
    for k = 1.
    """

    grad_phi: float  # ||grad phi||^2, Dirichlet form
    grad_lead: float  # ||grad phi_bar||^2 of the lead alone (grad_phi for k = 1)
    phi: float  # ||phi||^2
    grad_diff: float  # ||grad (phi^n - phi^{n-1})||^2
    diff: float  # ||phi^n - phi^{n-1}||^2
    temp: float  # ||T||^2
    r: float  # R^2
    temp_level: float  # ||T^n||^2 of the level alone (temp for k = 1)


class ExplicitData(NamedTuple):
    """The explicit data of the step from one state: the lead fields and the
    nonlinear terms at the lead phase field phi_bar (see :func:`explicit_data`)."""

    phi: np.ndarray  # phi_bar
    temp: np.ndarray  # T_bar
    mu: np.ndarray  # mu_bar
    rho: float | np.ndarray  # 1/M(phi_bar)
    hp: np.ndarray  # h'(phi_bar)
    e1: float  # E1(phi_bar)
    g: np.ndarray  # g(phi_bar), evaluated apart from the step's own


@dataclass
class StepReport:
    """Per-step closure diagnostics."""

    xi: float
    a1: float
    a2: float
    cg_iterations: int = 0
    identity_residual: float = 0.0


class PartialSolves(NamedTuple):
    """The four decoupled sub-solutions entering the xi closure, with the
    right-hand side of the phi_1 solve and the coefficient of both phase
    solves, from which mu is read off after xi, and the three inner products
    of the closure that read a field dying in the solves."""

    phi1: np.ndarray
    rhs1: np.ndarray
    phi2: np.ndarray
    temp1: np.ndarray
    temp2: np.ndarray
    coeff: float | np.ndarray  # a0/(M*tau) + (s2 + s3)/eps^2
    cg_iterations: int
    forcing_temp1: float  # <temp_forcing, T_1>
    forcing_temp2: float  # <temp_forcing, T_2>
    core_dphi1: float  # <core, a0*phi_1 - phi_hist>


def init_state(grid: GridSpec, phi0: np.ndarray, temp0: np.ndarray, p: ModelParams) -> State:
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
    state = State(phi=phi0.copy(), temp=temp0.copy(), mu=mu0, r=math.sqrt(e1))
    state._norms["geometry", grid, p] = geom  # for the level-0 row and the first step
    return state


def state_geometry(grid: GridSpec, p: ModelParams, state: State) -> Anisotropy:
    """The anisotropy geometry of ``state.phi``.  Where phi is the state's own
    lead, the step from the state needs it again: it stays in the state's memo
    until the step takes it out, and dies after the step's g."""
    geom = state._norms.get(("geometry", grid, p)) or anisotropy(grid, state.phi, p.sigma)
    if state.lead("phi") is state.phi:
        state._norms["geometry", grid, p] = geom
    return geom


def _phi_bar_terms(grid: GridSpec, p: ModelParams, state: State, take: bool):
    """phi_bar, its geometry, 1/M(phi_bar) and E1(phi_bar): the first explicit
    data of the step from ``state``.  The geometry leaves the memo; phi_bar
    leaves it too when ``take`` says the caller is its last reader."""
    grad_lead = state_norms(grid, state).grad_lead  # reads the lead while it is memoized
    phi_bar = state.lead("phi", take)
    geom = state._norms.pop(("geometry", grid, p), None) or anisotropy(grid, phi_bar, p.sigma)
    return phi_bar, geom, p.rho_at(phi_bar), e1_energy(grid, phi_bar, p, geom, grad_lead)


def _kept_data(grid: GridSpec, p: ModelParams, state: State):
    """1/M, h', E1 and g at phi_bar of the step from ``state``: taken out of
    the state's memo, where a checked step kept them, or else evaluated
    afresh in the step's order, the geometry dying after g and an order-2
    lead of phi left in the memo for the caller's first read of phi_bar."""
    data = state._norms.pop(("explicit", grid, p), None)
    if data is None:
        phi_bar, geom, rho, e1 = _phi_bar_terms(grid, p, state, take=False)
        data = dict(g=g_residual(grid, phi_bar, p, geom), rho=rho, e1=e1)
        del geom
        data["hp"] = h_prime(phi_bar)
    return data["rho"], data["hp"], data["e1"], data["g"]


def explicit_data(grid: GridSpec, p: ModelParams, state: State) -> ExplicitData:
    """The explicit data of the step from ``state``, for a reader after the
    step, such as its identity check: 1/M, h', E1 and g at phi_bar, taken out
    of the state's memo, where a checked step kept them, or else evaluated
    afresh in the step's order; and the leads phi_bar, T_bar and mu_bar,
    which the step's solves took, formed again from the state
    (``state.lead``), bitwise the arrays the step used.  Either way the
    state's memo holds no field of it afterwards."""
    rho, hp, e1, g = _kept_data(grid, p, state)
    return ExplicitData(state.lead("phi", True), state.lead("temp", True),
                        state.lead("mu", True), rho, hp, e1, g)


def partial_solves(
    grid: GridSpec, p: ModelParams, tau: float, state: State, rho,
    core: np.ndarray, hp: np.ndarray,
    sources: SourceTerms = NO_SOURCES, t_new: float = 0.0,
) -> PartialSolves:
    """The four linear solves of the step from ``state``, with its ``a0``.

    ``rho`` is 1/M(phi_bar) and ``hp`` is h'(phi_bar).  The phi_2 solve is
    forced by ``core`` = -g - (lam/eps) h' T_bar, T_2 by the temperature
    forcing K h' M mu_bar; ``sources`` are evaluated at ``t_new``.  Each
    field that dies here is formed here (a call's arguments live until it
    returns), in an order that lets it die before the next one is
    allocated: rhs_1 first, from the phase history, phi_bar (taken from the
    state) and its s4 Laplacian, a row block at a time, and then the phase
    source; then the forcing, from mu_bar (taken from the state), a row block
    at a time, and T_1 and T_2, whose products with the forcing are taken
    before the phase solves; then phi_1, right after which
    <core, a0*phi_1 - phi_hist> is taken and the history
    dies; then phi_2.  Zero s3 and s4 terms are skipped.
    """
    a0 = state.a0
    coeff = a0 * rho / tau + (p.s2 + p.s3) / p.eps**2
    phi_hist = state.history("phi")
    phi_bar = state.lead("phi", True)
    lap = laplacian(grid, phi_bar) if p.s4 > 0.0 else None
    rhs1 = np.empty(grid.shape)
    for rows in row_blocks(grid.shape, 5):
        r = np.multiply(phi_hist[rows], _at(rho, rows) / tau, out=rhs1[rows])
        if p.s3 > 0.0:
            r += (p.s3 / p.eps**2) * phi_bar[rows]
        if lap is not None:
            lap[rows] *= p.s4
            r -= lap[rows]
    del phi_bar, lap
    src = sources.at("phi", grid, t_new)
    if src is not None:
        with np.errstate(over="ignore"):  # the phase solve refuses a non-finite rhs_1
            for rows in row_blocks(grid.shape, 3):
                rhs1[rows] += _at(rho, rows) * src[rows]
    del src
    mu_bar = state.lead("mu", True)
    temp_forcing = np.empty(grid.shape)
    for rows in row_blocks(grid.shape, 4):
        np.multiply(hp[rows], p.latent, out=temp_forcing[rows])
        temp_forcing[rows] /= _at(rho, rows)
        temp_forcing[rows] *= mu_bar[rows]
    del mu_bar
    rhs_t1 = state.history("temp") / tau
    src = sources.at("temp", grid, t_new)
    if src is not None:
        rhs_t1 += src
    del src
    temp1 = helmholtz_solve(grid, a0 / tau, p.diff, rhs_t1)
    del rhs_t1
    temp2 = helmholtz_solve(grid, a0 / tau, p.diff, temp_forcing)
    forcing_temp1 = inner(grid, temp_forcing, temp1)
    forcing_temp2 = inner(grid, temp_forcing, temp2)
    del temp_forcing
    phi1, it1 = solve_shifted(grid, coeff, p.s1 + p.s4, rhs1)
    dphi1 = a0 * phi1
    dphi1 -= phi_hist
    del phi_hist
    core_dphi1 = inner(grid, core, dphi1)
    del dphi1
    phi2, it2 = solve_shifted(grid, coeff, p.s1 + p.s4, core)
    return PartialSolves(phi1, rhs1, phi2, temp1, temp2, coeff, it1 + it2,
                         forcing_temp1, forcing_temp2, core_dphi1)


def phase_potential(
    p: ModelParams, coeff, phi: np.ndarray, rhs: np.ndarray, forcing: np.ndarray,
) -> np.ndarray:
    """The chemical potential of a phase field that solves
    coeff*phi - b*Lap(phi) = rhs + forcing, read off that equation rather
    than from another Laplacian.

    With b = s1 + s4, s1*Lap(phi) = (s1/b)*(coeff*phi - rhs - forcing), so
    mu = (s1/b)*(coeff*phi - rhs - forcing) - (s2/eps^2) phi + forcing,
    formed in place in that order, a row block at a time; ``forcing`` is the
    explicit part -g - (lam/eps) h' T_bar of the right-hand side, which mu
    holds itself.  The
    step forms mu once, from the new phi = phi_1 + xi*phi_2 with rhs = rhs_1
    and forcing = xi*core; the pairs (phi_1, rhs_1) and (phi_2, core) have a
    zero forcing and a zero rhs.  With the PCG path mu = s1*Lap(phi) - ...
    holds up to (s1/b) times the solve residual, which is at most
    ``solvers.CG_TOL``*||rhs + forcing||.
    """
    b = p.s1 + p.s4
    scale = p.s1 / b if b > 0.0 else 0.0  # b = 0 forces s1 = 0
    mu = np.empty(phi.shape)
    for rows in row_blocks(phi.shape, 5):
        m = np.multiply(_at(coeff, rows), phi[rows], out=mu[rows])
        f = forcing[rows]
        m -= rhs[rows]
        m -= f
        m *= scale
        m -= (p.s2 / p.eps**2) * phi[rows]
        m += f
    return mu


def sav_step(
    grid: GridSpec, p: ModelParams, tau: float, state: State,
    sources: SourceTerms, t_new: float, checked: bool,
) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray, float], StepReport]:
    """One step of either scheme to ``t_new``; returns the new (phi, T, mu, R).

    ``state`` supplies ``a0`` and ``history`` of the BDF derivative
    (a0*x^{n+1} - x_hist)/tau.  The explicit data is evaluated in one order,
    phi_bar, geometry, E1, g, T_bar and h', core, then in the solves mu_bar
    and the temperature forcing, and each field dies after its last reader:
    the geometry after g, T_bar after core, phi_bar in rhs_1, mu_bar in the
    forcing, the forcing after the temperature solves, h' after the solves.
    With ``checked`` the step evaluates g a second time, from the same
    geometry, for its identity check, and the state's memo keeps that g,
    E1, 1/M and h' for the check, which forms phi_bar, T_bar and mu_bar
    again; the leads die in the step as they do unchecked.  The new phi
    and T are recombined in place, and the new mu is formed once, from the
    new phi (:func:`phase_potential`).
    A1 collects 2*a0 times the auxiliary energy plus weighted squares
    of the xi-proportional parts, hence is always positive; the solve
    equations of phi_2 and T_2 turn those squares into the products
    a0*<core, phi_2> and tau*<temp_forcing, T_2>.
    """
    if not tau > 0.0:
        raise ValueError("tau must be positive")
    a0 = state.a0
    phi_bar, geom, rho, e1 = _phi_bar_terms(grid, p, state, take=False)  # rhs_1 takes phi_bar
    core = g_residual(grid, phi_bar, p, geom)
    if checked:  # the check's own g(phi_bar) takes the place of the geometry in the memo
        kept = state._norms["explicit", grid, p] = dict(
            g=g_residual(grid, phi_bar, p, geom), rho=rho, e1=e1)
    del geom
    temp_bar, hp = state.lead("temp", True), h_prime(phi_bar)
    del phi_bar
    for rows in row_blocks(grid.shape, 4):  # core = -(g + (lam/eps) h' T_bar)
        core[rows] += (p.lam / p.eps) * hp[rows] * temp_bar[rows]
        np.negative(core[rows], out=core[rows])
    if checked:
        kept["hp"] = hp
    del temp_bar
    phi, rhs1, phi2, temp, temp2, coeff, cg_iterations, forcing_temp1, forcing_temp2, \
        core_dphi1 = partial_solves(grid, p, tau, state, rho, core, hp, sources, t_new)
    del hp
    lam_ek = p.lam / (p.eps * p.latent)
    # <core, phi_2> = <coeff*phi_2, phi_2> + (s1 + s4)||grad phi_2||^2 and
    # tau*<temp_forcing, T_2> = a0||T_2||^2 + tau*D||grad T_2||^2
    a1 = math.fsum([
        a0 * 2.0 * e1,
        a0 * inner(grid, core, phi2),
        lam_ek * tau * forcing_temp2,
    ])
    # the T_2 equation a0*T_2/tau - D*Lap(T_2) = temp_forcing turns the A2
    # term <-a0*T_2 + tau*D*Lap(T_2), T_1> into -tau*<temp_forcing, T_1>
    a2 = math.fsum([
        2.0 * math.sqrt(e1) * state.history("r"),
        -core_dphi1,
        -lam_ek * tau * forcing_temp1,
    ])
    if not (math.isfinite(a1) and math.isfinite(a2)):
        raise FloatingPointError(f"xi closure: A1={a1!r} and A2={a2!r} must be finite")
    if not a1 > 0.0:
        raise FloatingPointError(
            f"closure denominator A1={a1} is not positive; this violates a "
            "structural invariant of the scheme"
        )
    xi = a2 / a1
    for rows in row_blocks(grid.shape, 5):  # bitwise phi_1 + xi*phi_2, T_1 + xi*T_2
        phi2[rows] *= xi
        phi[rows] += phi2[rows]
        temp2[rows] *= xi
        temp[rows] += temp2[rows]
        core[rows] *= xi
    del phi2, temp2
    mu = phase_potential(p, coeff, phi, rhs1, core)
    new = (phi, temp, mu, xi * math.sqrt(e1))
    return new, StepReport(xi=xi, a1=a1, a2=a2, cg_iterations=cg_iterations)


def _advance(
    grid: GridSpec, state: State, tau: float, p: ModelParams, sources: SourceTerms,
    check_identity: bool, residual: Callable[..., float],
) -> tuple[State, StepReport]:
    """The stepping body of both schemes: :func:`sav_step` from level n to
    t = (n + 1)*tau, the new level of the state's order (``state.next_level``)
    and, when checked, its identity residual from the entry point ``residual``."""
    t_new = (state.n + 1) * tau
    (phi, temp, mu, r), report = sav_step(grid, p, tau, state, sources, t_new, check_identity)
    new = state.next_level(phi, temp, mu, r, t_new)
    if check_identity:
        report.identity_residual = residual(grid, p, tau, state, new)
    return new, report


def step(
    grid: GridSpec,
    state: State,
    tau: float,
    p: ModelParams,
    sources: SourceTerms = NO_SOURCES,
    check_identity: bool = False,
) -> tuple[State, StepReport]:
    """Advance one time level: the SAV kernel with a0 = 1 and x_hist = x_bar = x^n.

    ``bdf2.bootstrap`` and ``bdf2.step2`` take the same parameters, so one
    loop drives either scheme.
    """
    return _advance(grid, state, tau, p, sources, check_identity, energy_identity_residual)


def _energy_norms(grid: GridSpec, state: State) -> EnergyNorms:
    grad_phi, phi = grad_norm_sq(grid, state.phi), norm_sq(grid, state.phi)
    temp, r = norm_sq(grid, state.temp), state.r**2
    if state.order == 1:
        return EnergyNorms(grad_phi, grad_phi, phi, 0.0, 0.0, temp, r, temp)
    lead_phi = state.lead("phi")
    grad_lead = grad_norm_sq(grid, lead_phi)
    diff = state.phi - state.phi_prev
    grad_diff, diff_sq = grad_norm_sq(grid, diff), norm_sq(grid, diff)
    del diff
    return EnergyNorms(
        grad_phi=grad_phi + grad_lead,
        grad_lead=grad_lead,
        phi=phi + norm_sq(grid, lead_phi),
        grad_diff=grad_diff,
        diff=diff_sq,
        temp=temp + norm_sq(grid, state.lead("temp", True)),  # T_bar is formed again by the step
        r=r + state.lead("r") ** 2,
        temp_level=temp,
    )


def state_norms(grid: GridSpec, state: State) -> EnergyNorms:
    """The state's energy norms, evaluated once per state and grid.

    They depend on the state's fields alone, so the identity check, the
    ledger row of a level and E1 at the state's lead share them through the
    state's ``_norms`` memo.
    States are frozen, so the memo cannot go stale; ``dataclasses.replace``
    starts an empty one.
    """
    norms = state._norms.get(grid)
    if norms is None:
        norms = state._norms[grid] = _energy_norms(grid, state)
    return norms


def scheme_energy(grid: GridSpec, p: ModelParams, state: State) -> float:
    """Modified energy of the discrete energy law of the state's order k."""
    norms = state_norms(grid, state)
    return 1.0 / (2 * state.order) * math.fsum(
        [
            p.s1 * norms.grad_phi,
            p.s2 / p.eps**2 * norms.phi,
            2.0 * p.s3 / p.eps**2 * norms.diff,
            2.0 * p.s4 * norms.grad_diff,
            p.lam / (p.eps * p.latent) * norms.temp,
            2.0 * norms.r,
        ]
    )


def identity_proof_lines(
    grid: GridSpec,
    p: ModelParams,
    tau: float,
    before: State,
    after: State,
) -> tuple[float, float, float]:
    """Assemble the three inner-product identities behind the energy law.

    Each line tests one scheme equation of order k = ``before.order`` with
    the BDF increment w (phi^{n+1} - phi^n for k = 1, 3phi^{n+1} - 4phi^n +
    phi^{n-1} = 2(phi^{n+1} - phi^n) + c for k = 2, with c = phi^{n+1} -
    phi_bar), so each vanishes to roundoff for states produced by the
    stepper; their sum is 2k times the telescoped energy balance, from which
    the work of g and h' and the heat transfer cancel.
    Everything is read from the two states alone: their energy norms through
    :func:`state_norms`; g, E1, 1/M and h' at phi_bar as in
    :func:`explicit_data`, from the memo where a checked step from
    ``before`` kept them (so g(phi_bar) is evaluated apart from the step's
    own); and the leads mu_bar, phi_bar and T_bar, formed again from
    ``before`` at their first read.  The norms of both states are taken
    before the explicit data exists.  Each product folds into a field that
    dies with it: the heat transfer into mu_bar, c and then w into phi_bar,
    h' T_bar into h', the temperature jump into T_bar, except that an
    order-1 lead is ``before``'s own field and gets a new one
    (:func:`_scratch`).  A term shared by two lines is evaluated once.
    """
    k = before.order
    nb, na = state_norms(grid, before), state_norms(grid, after)
    rho_bar, hp_bar, e1_bar, g_bar = _kept_data(grid, p, before)
    xi = after.r / math.sqrt(e1_bar)
    lam_e = p.lam / p.eps
    lam_ek = p.lam / (p.eps * p.latent)
    mu_bar = before.lead("mu", True)
    heat = _scratch(before, mu_bar)
    for rows in row_blocks(grid.shape, 3):
        np.multiply(hp_bar[rows] / _at(rho_bar, rows), mu_bar[rows], out=heat[rows])
    del mu_bar
    heat_transfer = 2.0 * k * xi * tau * lam_e * inner(grid, heat, after.temp)
    del heat

    phi_bar = before.lead("phi", True)
    curv = np.subtract(after.phi, phi_bar, out=_scratch(before, phi_bar))
    del phi_bar
    curv_sq = norm_sq(grid, curv)
    curv_grad_sq = grad_norm_sq(grid, curv)
    bdf_phi = curv
    del curv
    if k == 2:  # 2(phi^{n+1} - phi^n) + c, in the memory of c
        for rows in row_blocks(grid.shape, 2):
            d = np.subtract(after.phi[rows], before.phi[rows])
            d *= 2.0
            bdf_phi[rows] += d
    residual_work = 2.0 * xi * inner(grid, g_bar, bdf_phi)
    del g_bar
    temp_bar = before.lead("temp", True)
    hp_bar *= temp_bar  # h' T_bar; the check owns h'
    coupling_work = 2.0 * xi * lam_e * inner(grid, hp_bar, bdf_phi)
    del hp_bar
    temp_jump = norm_sq(grid, np.subtract(after.temp, temp_bar, out=_scratch(before, temp_bar)))
    del temp_bar
    dissipation = (2.0 / (k * tau)) * inner(grid, rho_bar * bdf_phi, bdf_phi)
    del bdf_phi

    line1 = math.fsum(
        [
            dissipation,
            (2.0 * p.s3 / p.eps**2) * (na.diff - nb.diff + k * curv_sq),
            2.0 * p.s4 * (na.grad_diff - nb.grad_diff + k * curv_grad_sq),
            p.s1 * (na.grad_phi - nb.grad_phi + curv_grad_sq),
            (p.s2 / p.eps**2) * (na.phi - nb.phi + curv_sq),
            residual_work,
            coupling_work,
        ]
    )
    line2 = math.fsum(
        [
            2.0 * (na.r - nb.r + (after.r - before.lead("r")) ** 2),
            -residual_work,
            heat_transfer,
            -coupling_work,
        ]
    )
    line3 = math.fsum(
        [
            lam_ek * (na.temp - nb.temp + temp_jump),
            2.0 * k * tau * lam_ek * p.diff * grad_norm_sq(grid, after.temp),
            -heat_transfer,
        ]
    )
    return line1, line2, line3


def _identity_residual(
    grid: GridSpec, p: ModelParams, tau: float,
    before: State, after: State,
) -> float:
    lines = identity_proof_lines(grid, p, tau, before, after)
    return max(map(abs, lines)) / (2.0 * before.order * abs(scheme_energy(grid, p, before)))


def energy_identity_residual(
    grid: GridSpec,
    p: ModelParams,
    tau: float,
    before: State,
    after: State,
) -> float:
    """The largest proof line, max_i |line_i| / (2k|E^n|): SAV meets the
    energy balance that the lines sum to for any explicit g and h', so each
    line is bounded, not their sum (:func:`identity_proof_lines`)."""
    return _identity_residual(grid, p, tau, before, after)
