"""Second-order decoupled, unconditionally energy-stable time stepper.

Each step runs the shared SAV kernel ``bdf1.sav_step`` on an order-2
``bdf1.State``, whose BDF table gives the backward-difference-2 coefficient
a0 = 3/2, the history 2*(.)^n - (.)^{n-1}/2 (the kernel forms it after
g(phi_bar)) and the explicit data at the lead of the state, the linear
extrapolation 2*(.)^n - (.)^{n-1}.  The ledger row's norms build the lead
of phi, which stays in the state's memo until the step from the state, or
its identity check, takes it out; they take ||T_bar||^2 without keeping
T_bar, which the step forms again, as it forms mu_bar.  A checked step
keeps 1/M, h', E1 and a second g at phi_bar (``bdf1._explicit_terms``) for
its identity check, not the leads: the check forms phi_bar, T_bar and
mu_bar again, one extrapolation pass each, and folds its products into them.  The new mu is formed once, from
the recombined phi (``bdf1.phase_potential``).
The first level is produced from the level-0 state of ``bdf1.init_state``
by one first-order bootstrap step, which costs O(tau^2) globally and leaves
the second-order convergence intact.  :func:`bootstrap` and :func:`step2`
take the parameters of ``bdf1.step``, whose stepping body
(``bdf1._advance``) :func:`step2` runs.

The energy law is the one of ``bdf1`` at order k = 2: ``bdf1.scheme_energy``,
``bdf1.state_norms`` and ``bdf1.identity_proof_lines`` read the state's
``order`` and ``lead``.  :func:`energy_identity_residual2` is the
second-order entry point of that check.
"""

from __future__ import annotations

from dataclasses import replace

from . import bdf1
from .bdf1 import State, StepReport
from .grid import GridSpec
from .model import NO_SOURCES, EnergyPositivityError, ModelParams, SourceTerms

__all__ = [
    "bootstrap",
    "step2",
    "energy_identity_residual2",
]


def bootstrap(
    grid: GridSpec,
    state: State,
    tau: float,
    p: ModelParams,
    sources: SourceTerms = NO_SOURCES,
    check_identity: bool = False,
) -> tuple[State, StepReport]:
    """Fill both levels from the level-0 ``state`` (``bdf1.init_state``):
    level 1 comes from one first-order step, which keeps level 0 as its
    level n-1."""
    s1, report = bdf1.step(grid, state, tau, p, sources, check_identity)
    new = replace(s1, phi_prev=state.phi, temp_prev=state.temp, mu_prev=state.mu,
                  r_prev=state.r)
    return new, report


def step2(
    grid: GridSpec,
    state: State,
    tau: float,
    p: ModelParams,
    sources: SourceTerms = NO_SOURCES,
    check_identity: bool = False,
) -> tuple[State, StepReport]:
    """Advance one time level with the second-order scheme: the stepping body
    of ``bdf1.step`` with a0 = 3/2, history 2x^n - x^{n-1}/2 and explicit
    data 2x^n - x^{n-1}, where a breakdown of E1 names the extrapolation."""
    try:
        return bdf1._advance(grid, state, tau, p, sources, check_identity,
                             energy_identity_residual2)
    except EnergyPositivityError as exc:
        raise EnergyPositivityError(
            f"{exc} (extrapolated field at t={(state.n + 1) * tau:g}; a larger bconst or a "
            "smaller tau tames the extrapolation overshoot)"
        ) from exc


def energy_identity_residual2(
    grid: GridSpec,
    p: ModelParams,
    tau: float,
    before: State,
    after: State,
) -> float:
    """The largest proof line of one second-order step, relative to
    2k|E^n| (the order-k law of ``bdf1`` at k = 2)."""
    return bdf1._identity_residual(grid, p, tau, before, after)
