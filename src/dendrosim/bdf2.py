"""Second-order decoupled, unconditionally energy-stable time stepper.

Each step runs the stepping body of ``bdf1.step`` on an order-2
``bdf1.State``, whose BDF table gives a0 = 3/2, the history
2x^n - x^{n-1}/2 and the lead 2x^n - x^{n-1}.  Level 1 comes from the
level-0 state by one first-order bootstrap step, which costs O(tau^2)
globally and leaves the second-order convergence intact.  The energy law
and its check are those of ``bdf1`` at order k = 2.
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
    """Advance one time level with the second-order scheme; a breakdown of
    E1 names the extrapolation."""
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
