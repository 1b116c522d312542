"""Experiment drivers: single runs, accuracy ladders, stability sweeps, and
dendritic growth, matching the reference study at desk scale.

Every driver goes through ``run_single``, whose one stepping loop serves
both schemes, and writes its resolved configuration next to its outputs, so
a run directory is self-describing.

``run_single`` changes one process-wide setting, once per process: on glibc
it keeps the memory that a time level frees on the heap for the next level
(see ``_retain_heap``).  Elsewhere nothing changes, and no number of any
run depends on it.
"""

from __future__ import annotations

import ctypes
import math
import os
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import bdf1, bdf2
from .config import InvalidValueError, RunConfig, serialize_config
from .diagnostics import (
    EnergyLawViolation,
    EnergyRecord,
    LedgerWriter,
    count_axis_branches,
    make_record,
)
from .grid import inner
from .model import NO_SOURCES, EnergyPositivityError, SourceTerms
from .snapshots import FieldSnapshot, SourceSeriesError, source_from_snapshots, write_snapshot
from .solvers import SolverError

__all__ = [
    "RunResult",
    "ConvergenceReport",
    "DendriteResult",
    "STABILIZER_SETS",
    "DENDRITE_SNAPSHOT_TIMES",
    "run_single",
    "run_accuracy",
    "run_stability",
    "run_dendrite",
    "estimate_order",
]

# stabilizer sets (s1, s2, s3, s4) of the xi-quality study
STABILIZER_SETS = ((0.0, 0.0, 0.0, 0.0), (0.1, 4.0, 0.0, 0.0),
                   (0.0, 0.0, 5.0, 5.0), (0.1, 4.0, 5.0, 5.0))

# snapshot instants per latent-heat value in the growth benchmark
DENDRITE_SNAPSHOT_TIMES = {
    0.6: (0.0, 3.0, 6.0, 9.0),
    0.8: (3.0, 6.0, 9.0, 11.0),
    1.0: (6.0, 9.0, 11.0, 14.0),
    1.2: (9.0, 11.0, 14.0, 17.0),
}


@dataclass
class RunResult:
    config: RunConfig
    records: list[EnergyRecord]
    final_state: bdf1.State
    ledger_path: Path | None
    min_a1: float
    max_xi_dev: float
    max_identity_residual: float
    cg_iterations: int  # CG iterations of the variable-mobility solves, summed over levels
    max_cg_iterations: int  # the most of them in one level


@dataclass
class ConvergenceReport:
    scheme: str
    ref_tau: float
    taus: tuple[float, ...]
    errors_phi: tuple[float, ...]
    errors_temp: tuple[float, ...]
    slope_phi: float
    slope_temp: float
    min_a1: float = math.inf


@dataclass
class DendriteResult:
    latent: float
    result: RunResult
    arms: int
    axis_arms: int


# glibc mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
# glibc's largest mmap threshold on 64-bit: fields up to 2048^2 come from the heap
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 256 << 20
_heap_retained = False


def _retain_heap() -> None:
    """Keep freed field memory on the heap between time levels (glibc only).

    By default glibc serves every field larger than its mmap threshold with a
    fresh mmap and hands the top of the heap back to the kernel on free, so
    each level faults its temporaries in again page by page.  Raising the
    mmap threshold to its maximum and the trim threshold above any field's
    size keeps that memory mapped.  The two belong together: setting the
    trim threshold alone freezes the mmap threshold at 128 KiB, so the trim
    threshold is only set once the mmap threshold was accepted.  Runs once
    per process; a no-op where glibc or ``mallopt`` is missing or refuses.
    """
    global _heap_retained
    if _heap_retained:
        return
    _heap_retained = True
    try:
        if not (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc"):
            return
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, ValueError):
        return
    if mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD):  # 0 when glibc refuses
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def _snapshot_levels(cfg: RunConfig) -> set[int]:
    """The levels that ``cfg.snapshot_times`` selects: each time maps to the
    first level 0..n_steps within tau/2 of it, the level times summed one tau
    at a time as the steppers sum them.  One walk up the levels serves the
    times in ascending order and stops at the last of them.  Raises
    InvalidValueError, naming the run's last time, for the first time in
    ``cfg.snapshot_times`` that no level lies within tau/2 of."""
    half = 0.5 * cfg.tau
    level_of = {}
    n, t = 0, 0.0
    for target in sorted(cfg.snapshot_times):
        # the levels within tau/2 of a time are consecutive, and none of them
        # lies below the level of a smaller time
        while abs(t - target) > half and t < target and n < cfg.n_steps:
            n, t = n + 1, t + cfg.tau
        if abs(t - target) <= half:
            level_of[target] = n
    for target in cfg.snapshot_times:
        if target not in level_of:
            for _ in range(n, cfg.n_steps):
                t += cfg.tau
            raise InvalidValueError(
                f"output.snapshot_times: no level lies within tau/2 of {target!r}; "
                f"the run's levels span t=0 to t={t!r}"
            )
    return set(level_of.values())


def _write_state_snapshots(cfg: RunConfig, out_dir: Path, state, step_index: int) -> None:
    for name, values in (("phi", state.phi), ("temp", state.temp)):
        snap = FieldSnapshot(grid=cfg.grid, time=state.t, name=name, values=values)
        write_snapshot(snap, out_dir / f"{cfg.prefix}_{name}_n{step_index:06d}.snp")


def _config_sources(cfg: RunConfig) -> SourceTerms:
    phi = temp = None
    if cfg.source_phi_dir:
        phi = source_from_snapshots(cfg.source_phi_dir, cfg.source_phi_prefix, cfg.tau)
    if cfg.source_temp_dir:
        temp = source_from_snapshots(cfg.source_temp_dir, cfg.source_temp_prefix, cfg.tau)
    if phi is None and temp is None:
        return NO_SOURCES
    return SourceTerms(phi=phi, temp=temp)


def run_single(
    cfg: RunConfig,
    out_dir: str | Path | None = None,
    sources: SourceTerms | None = None,
) -> RunResult:
    """Run one simulation to t_end, recording one ledger row per level.

    Level 0 is ``bdf1.init_state`` of the initial condition; every later
    level is one call of a stepper with the shared signature: ``bdf1.step``,
    or for bdf2 ``bdf2.bootstrap`` at level 1 and ``bdf2.step2`` after it.
    ``sources`` overrides any snapshot-series forcing declared in the
    configuration's [sources] section.

    With ``cfg.strict_energy``, ledger or not, a row whose modified energy
    exceeds the previous row's by more than 1e-9 of its magnitude raises
    EnergyLawViolation before it is written.  Rows of states of different
    BDF order (bdf2's bootstrap row) are not compared.

    Level n is written when ``cfg.snapshot_every`` divides n, or when n is
    the first level within tau/2 of a time in ``cfg.snapshot_times``.  A
    snapshot time that no level lies within tau/2 of raises
    InvalidValueError before anything is created.

    EnergyPositivityError, FloatingPointError (a non-finite ledger row, solve
    input or closure among them), SolverError and SourceSeriesError are
    raised again, the same object, with the level and time they happened at
    prefixed to their message.
    """
    snapshot_levels = _snapshot_levels(cfg)
    _retain_heap()
    grid = cfg.grid
    if sources is None:
        sources = _config_sources(cfg)
    phi0, temp0 = cfg.initial.build(grid)
    records: list[EnergyRecord] = []
    ledger_path: Path | None = None
    writer = None
    if out_dir is not None:
        # a configuration that cannot be written (ConfigError) creates nothing
        resolved = serialize_config(cfg)
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "resolved.cfg").write_text(resolved)
        ledger_path = out_dir / cfg.ledger
        writer = LedgerWriter(ledger_path)

    min_a1 = math.inf
    max_xi_dev = 0.0
    max_identity = 0.0
    cg_total = cg_max = 0
    last_order = 0  # BDF order of the state of the last row

    def emit(state, report) -> None:
        nonlocal min_a1, max_xi_dev, max_identity, cg_total, cg_max, last_order
        rec = make_record(grid, cfg.params, state, report)
        if cfg.strict_energy and state.order == last_order:
            prev = records[-1]
            if rec.e_modified > prev.e_modified + 1e-9 * abs(prev.e_modified):
                raise EnergyLawViolation(
                    f"modified energy increased at step {rec.step}: "
                    f"{prev.e_modified!r} -> {rec.e_modified!r}"
                )
        last_order = state.order
        records.append(rec)
        if writer is not None:
            writer.append(rec)
        if report is not None:
            min_a1 = min(min_a1, report.a1)
            max_xi_dev = max(max_xi_dev, abs(report.xi - 1.0))
            max_identity = max(max_identity, report.identity_residual)
            cg_total += report.cg_iterations
            cg_max = max(cg_max, report.cg_iterations)
        if out_dir is not None and (
                cfg.snapshot_every and state.n % cfg.snapshot_every == 0
                or state.n in snapshot_levels):
            _write_state_snapshots(cfg, out_dir, state, state.n)

    # level and time being computed, named in a numerical breakdown
    level, t_level = 0, 0.0
    try:
        state = bdf1.init_state(grid, phi0, temp0, cfg.params)
        del phi0, temp0  # the state holds copies
        emit(state, None)
        for _ in range(cfg.n_steps):
            level, t_level = state.n + 1, state.t + cfg.tau
            # looked up per level, so a rebound module attribute takes effect
            if cfg.scheme == "bdf1":
                advance = bdf1.step
            else:
                advance = bdf2.bootstrap if state.n == 0 else bdf2.step2
            state, report = advance(grid, state, cfg.tau, cfg.params, sources,
                                    cfg.check_identity)
            emit(state, report)
    except (EnergyPositivityError, FloatingPointError, SourceSeriesError, SolverError) as exc:
        exc.args = (f"level {level} (t={t_level:g}): {exc}",)  # a SolverError keeps its data
        raise
    finally:
        if writer is not None:
            writer.close()

    return RunResult(
        config=cfg,
        records=records,
        final_state=replace(state),  # a fresh memo: no step takes the last row's geometry
        ledger_path=ledger_path,
        min_a1=min_a1,
        max_xi_dev=max_xi_dev,
        max_identity_residual=max_identity,
        cg_iterations=cg_total,
        max_cg_iterations=cg_max,
    )


def _check_sweep(values, what: str) -> tuple[float, ...]:
    """The swept ``values`` as a tuple of floats.  Raises InvalidValueError,
    naming ``what`` they are, unless there is at least one and each is finite
    and positive."""
    values = tuple(float(v) for v in values)
    if not values:
        raise InvalidValueError(f"{what} must not be empty")
    for v in values:
        if not (math.isfinite(v) and v > 0.0):
            raise InvalidValueError(f"{what} must be finite and positive, got {v!r}")
    return values


def _check_ladder(ladder, ref_tau: float) -> tuple[float, ...]:
    """The accuracy ladder as a tuple of floats.  Raises InvalidValueError
    unless the reference step and every rung are finite and positive, and the
    ladder has at least two strictly decreasing rungs, each at least 10x the
    reference step."""
    ladder = _check_sweep((ref_tau, *ladder), "accuracy step sizes")[1:]
    if len(ladder) < 2:
        raise InvalidValueError("accuracy ladder needs at least two step sizes")
    if any(a <= b for a, b in zip(ladder, ladder[1:])):
        raise InvalidValueError(f"accuracy ladder must be strictly decreasing: {ladder}")
    # tolerant factor-10 gate (10*ref_tau can round above an exact 10x rung)
    if min(ladder) < 10.0 * ref_tau * (1.0 - 1e-9):
        raise InvalidValueError(
            f"ladder step {min(ladder)} too close to reference tau {ref_tau}; "
            "need at least a factor 10"
        )
    return ladder


def run_accuracy(
    base: RunConfig,
    ladder: tuple[float, ...] | list[float],
    ref_tau: float,
    out_dir: str | Path | None = None,
) -> dict[str, ConvergenceReport]:
    """Self-convergence study of both schemes: L2 errors at t_end of every
    ladder rung against one fine bdf2 reference at ``ref_tau``.

    The ladder and ``out_dir`` are checked before any stepping.  With
    ``out_dir``, each scheme's errors and slopes go to accuracy_<scheme>.csv.
    """
    ladder = _check_ladder(ladder, ref_tau)
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
    quiet = replace(base, check_identity=False, snapshot_every=0, snapshot_times=())
    ref = run_single(replace(quiet, scheme="bdf2", tau=ref_tau)).final_state

    reports = {}
    for scheme in ("bdf1", "bdf2"):
        errors_phi, errors_temp = [], []
        min_a1 = math.inf
        for tau in ladder:
            res = run_single(replace(quiet, scheme=scheme, tau=tau))
            min_a1 = min(min_a1, res.min_a1)
            dphi = res.final_state.phi - ref.phi
            dtemp = res.final_state.temp - ref.temp
            errors_phi.append(math.sqrt(inner(base.grid, dphi, dphi)))
            errors_temp.append(math.sqrt(inner(base.grid, dtemp, dtemp)))
        reports[scheme] = report = ConvergenceReport(
            scheme=scheme,
            ref_tau=ref_tau,
            taus=ladder,
            errors_phi=tuple(errors_phi),
            errors_temp=tuple(errors_temp),
            slope_phi=estimate_order(errors_phi, ladder),
            slope_temp=estimate_order(errors_temp, ladder),
            min_a1=min_a1,
        )
        if out_dir is not None:
            lines = ["tau,error_phi,error_temp"]
            for tau, ep, et in zip(ladder, errors_phi, errors_temp):
                lines.append(f"{tau!r},{ep!r},{et!r}")
            lines.append(f"# slope_phi = {report.slope_phi!r}")
            lines.append(f"# slope_temp = {report.slope_temp!r}")
            (out_dir / f"accuracy_{scheme}.csv").write_text("\n".join(lines) + "\n")
    return reports


def run_stability(
    base: RunConfig,
    taus: tuple[float, ...] | list[float],
    n_steps: int,
    out_dir: str | Path | None = None,
) -> list[RunResult]:
    """Sweep the stabilizer sets of STABILIZER_SETS and the step sizes; every
    run is strict, so one that does not dissipate the modified energy raises
    EnergyLawViolation.  The step sizes and the step count are checked before
    any run."""
    taus = _check_sweep(taus, "stability step sizes")
    if n_steps < 1:
        raise InvalidValueError(f"stability step count must be at least 1, got {n_steps}")
    results = []
    for s1, s2, s3, s4 in STABILIZER_SETS:
        params = replace(base.params, s1=s1, s2=s2, s3=s3, s4=s4)
        for tau in taus:
            tag = f"s{s1:g}_{s2:g}_{s3:g}_{s4:g}_tau{tau:g}"
            cfg = replace(
                base, params=params, tau=tau, t_end=tau * n_steps,
                ledger=f"stability_{tag}.csv", prefix=f"stability_{tag}",
                strict_energy=True,
            )
            results.append(run_single(cfg, None if out_dir is None else Path(out_dir) / tag))
    return results


def run_dendrite(
    base: RunConfig,
    latent_values: tuple[float, ...] | list[float],
    out_dir: str | Path | None = None,
) -> list[DendriteResult]:
    """Fourfold growth runs over the latent-heat sweep.

    Each run dumps phi and T snapshots at the configuration's
    ``snapshot_times`` when it sets any, else at its latent heat's instants
    in DENDRITE_SNAPSHOT_TIMES (the configuration's t_end for a latent heat
    outside that table), runs to the last instant and keeps a full ledger.
    The latent heats are checked before any run.
    """
    latent_values = _check_sweep(latent_values, "latent heat values")
    results = []
    for latent in latent_values:
        times = base.snapshot_times or DENDRITE_SNAPSHOT_TIMES.get(latent, (base.t_end,))
        params = replace(base.params, latent=latent)
        cfg = replace(
            base, params=params, t_end=max(times), snapshot_times=times,
            ledger=f"dendrite_K{latent:g}.csv", prefix=f"dendrite_K{latent:g}",
        )
        sub_dir = None if out_dir is None else Path(out_dir) / f"K{latent:g}"
        res = run_single(cfg, sub_dir)
        arms, axis_arms = count_axis_branches(cfg.grid, res.final_state.phi)
        results.append(DendriteResult(latent=latent, result=res, arms=arms, axis_arms=axis_arms))
    return results


def estimate_order(errors, taus) -> float:
    """Least-squares slope of log(error) against log(tau)."""
    errors = np.asarray(errors, dtype=float)
    taus = np.asarray(taus, dtype=float)
    if errors.size != taus.size:
        raise ValueError("errors and taus must have equal length")
    if errors.size < 2:
        raise ValueError("order estimation needs at least two ladder points")
    if np.any(errors <= 0.0) or np.any(taus <= 0.0):
        raise ValueError("order estimation needs positive errors and taus")
    return float(np.polyfit(np.log(taus), np.log(errors), 1)[0])

