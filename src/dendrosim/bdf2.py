"""Second-order decoupled, unconditionally energy-stable time stepper.

Each step runs the shared SAV kernel ``bdf1.sav_step`` with the
backward-difference-2 coefficient a0 = 3/2 and history 2*(.)^n - (.)^{n-1}/2
(``StateBDF2.a0`` and :meth:`StateBDF2.history`; the kernel forms the
history after g(phi_bar)), and all explicit data taken at the lead of the
state, the linear extrapolation
2*(.)^n - (.)^{n-1} (:meth:`StateBDF2.lead`, the one place it is formed,
once per state: the ledger row's norms build the leads of phi and T, and
the step from the state, or its identity check, takes them out of the memo).
The first level is produced from the level-0 ``bdf1.StateBDF1`` by one
first-order bootstrap step, which costs O(tau^2) globally and leaves the
second-order convergence intact.  :func:`bootstrap` and :func:`step2` take
the parameters of ``bdf1.step``.

The energy law is the one of ``bdf1`` at order k = 2: ``bdf1.scheme_energy``,
``bdf1.state_norms`` and ``bdf1.identity_proof_lines`` read the state's
``order`` and ``lead``.  :func:`energy_identity_residual2` is the
second-order entry point of that check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import bdf1
from .grid import GridSpec
from .model import NO_SOURCES, EnergyPositivityError, ModelParams, SourceTerms

__all__ = [
    "StateBDF2",
    "bootstrap",
    "step2",
    "energy_identity_residual2",
]


@dataclass(frozen=True)
class StateBDF2:
    """Two time levels of (phi, T, mu, R); ``prev`` fields hold level n-1.

    ``_norms`` is the state's memo, as for ``bdf1.StateBDF1``; it also holds
    the leads."""

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

    order = 2  # BDF order k of the scheme that advances this state
    a0 = 1.5  # leading coefficient of its BDF derivative (a0*x^{n+1} - history)/tau

    def lead(self, name: str, take: bool = False):
        """The explicit data of the next level for field ``name``: the linear
        extrapolation 2x^n - x^{n-1}, formed once per state in its memo, so
        the ledger row's norms and the step share it.  Its last reader
        ``take``s it: the lead leaves the memo and dies with that reader."""
        key = ("lead", name)
        if key not in self._norms:
            self._norms[key] = 2.0 * getattr(self, name) - getattr(self, name + "_prev")
        return self._norms.pop(key) if take else self._norms[key]

    def history(self, name: str):
        """The history of the BDF derivative for field ``name``, 2x^n - x^{n-1}/2;
        formed afresh at each call, so it dies with the step's last use."""
        return 2.0 * getattr(self, name) - 0.5 * getattr(self, name + "_prev")


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
    try:
        (phi, temp, mu, r), report = bdf1.sav_step(grid, p, tau, state, sources, t_new,
                                                   check_identity)
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


def energy_identity_residual2(
    grid: GridSpec,
    p: ModelParams,
    tau: float,
    before: StateBDF2,
    after: StateBDF2,
) -> float:
    """Energy-law balance of one second-order step, relative to |E^n|
    (the order-k law of ``bdf1`` at k = 2)."""
    return bdf1._identity_residual(grid, p, tau, before, after)
