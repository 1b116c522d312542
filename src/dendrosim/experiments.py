"""Experiment drivers: single runs, accuracy ladders, stability sweeps, and
dendritic growth, matching the reference study at desk scale.

Every driver goes through ``run_single``, whose one stepping loop serves
both schemes, and writes its resolved configuration next to its outputs, so
a run directory is self-describing.  Every run is ``RunConfig.n_steps``
whole steps, level n at t = n*tau; no driver counts steps of its own.

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

from . import bdf1, bdf2, snapshots
from .config import InvalidValueError, RunConfig, serialize_config
from .diagnostics import (
    EnergyLawViolation,
    EnergyRecord,
    LedgerWriter,
    count_axis_branches,
    make_record,
)
from .grid import inner
from .model import EnergyPositivityError, SourceTerms
from .snapshots import FieldSnapshot, SourceSeriesError, write_snapshot
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
    """A finished run; its summary values are read from the ledger rows of
    the stepped levels, ``records[1:]``."""

    config: RunConfig
    records: list[EnergyRecord]
    final_state: bdf1.State
    ledger_path: Path | None
    cg_iterations: int  # CG iterations of the variable-mobility solves, summed over levels
    max_cg_iterations: int  # the most of them in one level

    @property
    def min_a1(self) -> float:
        return min((rec.a1 for rec in self.records[1:]), default=math.inf)

    @property
    def max_xi_dev(self) -> float:
        return max((abs(rec.xi - 1.0) for rec in self.records[1:]), default=0.0)

    @property
    def max_identity_residual(self) -> float:
        return max((rec.identity_residual for rec in self.records[1:]), default=0.0)


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
    first of the two levels nearest time/tau whose time n*tau lies within
    tau/2 of it.  Raises InvalidValueError, naming the run's last time, for
    the first time that no level 0..n_steps lies within tau/2 of."""
    tau, last = cfg.tau, cfg.n_steps
    levels = set()
    for target in cfg.snapshot_times:
        below = target // tau  # a float: a time that is not finite selects no level
        level = next((n for n in (below, below + 1)
                      if 0 <= n <= last and abs(n * tau - target) <= 0.5 * tau), None)
        if level is None:
            raise InvalidValueError(
                f"output.snapshot_times: no level lies within tau/2 of {target!r}; "
                f"the run's levels span t=0 to t={last * tau!r}")
        levels.add(int(level))
    return levels


def _write_state_snapshots(cfg: RunConfig, out_dir: Path, state, step_index: int) -> None:
    for name, values in (("phi", state.phi), ("temp", state.temp)):
        snap = FieldSnapshot(grid=cfg.grid, time=state.t, name=name, values=values)
        write_snapshot(snap, out_dir / f"{cfg.prefix}_{name}_n{step_index:06d}.snp")


def _name_level(exc: Exception, level: int, tau: float) -> None:
    """Prefix the message of ``exc`` with the level and time it happened at."""
    exc.args = (f"level {level} (t={level * tau:g}): {exc}",)  # SolverError keeps its data


def _config_sources(cfg: RunConfig) -> SourceTerms:
    """The forcing of the [sources] series of ``cfg``.  The header and size
    of each file of levels 1..n_steps are checked first, in the order the
    steps read them, so a bad file raises SourceSeriesError, named as a step
    would name it, before the run creates anything."""
    series = {kind: (directory, prefix, cfg.tau, cfg.grid) for kind, directory, prefix in (
        ("phi", cfg.source_phi_dir, cfg.source_phi_prefix),
        ("temp", cfg.source_temp_dir, cfg.source_temp_prefix)) if directory}
    for level in range(1, cfg.n_steps + 1):
        for args in series.values():
            try:
                snapshots.source_snapshot(*args, level * cfg.tau, read=False)
            except SourceSeriesError as exc:
                _name_level(exc, level, cfg.tau)
                raise
    return SourceTerms(**{kind: snapshots.source_from_snapshots(*args)
                          for kind, args in series.items()})


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

    The run is ``cfg.n_steps`` steps, and level n sits at t = n*tau.  Level n
    is written when ``cfg.snapshot_every`` divides n, or when n is the first
    level within tau/2 of a time in ``cfg.snapshot_times``.  A tau that does
    not divide t_end, or a snapshot time that no level lies within tau/2 of,
    raises InvalidValueError before anything is created, and so does a
    [sources] file whose header or size is at fault (SourceSeriesError).

    EnergyPositivityError, FloatingPointError (a non-finite ledger row, solve
    input or closure among them), SolverError and SourceSeriesError are
    raised again, the same object, with the level and time they happened at
    prefixed to their message.
    """
    n_steps = cfg.n_steps
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
        (out_dir / "resolved.cfg").write_text(resolved, encoding="utf-8")
        ledger_path = out_dir / cfg.ledger
        writer = LedgerWriter(ledger_path)

    cg_total = cg_max = 0
    last_order = 0  # BDF order of the state of the last row

    def emit(state, report) -> None:
        nonlocal cg_total, cg_max, last_order
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
            cg_total += report.cg_iterations
            cg_max = max(cg_max, report.cg_iterations)
        if out_dir is not None and (
                cfg.snapshot_every and state.n % cfg.snapshot_every == 0
                or state.n in snapshot_levels):
            _write_state_snapshots(cfg, out_dir, state, state.n)

    level = 0  # the level being computed, named with its time in a numerical breakdown
    try:
        state = bdf1.init_state(grid, phi0, temp0, cfg.params)
        del phi0, temp0  # the state holds copies
        emit(state, None)
        for level in range(1, n_steps + 1):
            # looked up per level, so a rebound module attribute takes effect
            if cfg.scheme == "bdf1":
                advance = bdf1.step
            else:
                advance = bdf2.bootstrap if state.n == 0 else bdf2.step2
            state, report = advance(grid, state, cfg.tau, cfg.params, sources,
                                    cfg.check_identity)
            emit(state, report)
    except (EnergyPositivityError, FloatingPointError, SourceSeriesError, SolverError) as exc:
        _name_level(exc, level, cfg.tau)
        raise
    finally:
        if writer is not None:
            writer.close()

    return RunResult(
        config=cfg,
        records=records,
        final_state=replace(state),  # a fresh memo: no step takes the last row's geometry
        ledger_path=ledger_path,
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


def _output_names(values, name, what: str) -> dict:
    """Each swept value by the output name ``name(value)`` of its run.  Raises
    InvalidValueError, naming both values and the name, when two of the
    ``what`` share a name: the later run would overwrite the earlier one's
    outputs."""
    named = {}
    for value in values:
        key = name(value)
        if key in named:
            raise InvalidValueError(
                f"{what} {named[key]!r} and {value!r} share the output name {key!r}")
        named[key] = value
    return named


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

    The ladder, the step count of the reference and of every rung (each
    step must divide t_end, so every rung is compared with the reference at
    t_end) and ``out_dir`` are checked before any stepping.  With
    ``out_dir``, each scheme's errors and slopes go to accuracy_<scheme>.csv.
    """
    ladder = _check_ladder(ladder, ref_tau)
    quiet = replace(base, check_identity=False, snapshot_every=0, snapshot_times=())
    ref_cfg = replace(quiet, scheme="bdf2", tau=ref_tau)
    rungs = {scheme: [replace(quiet, scheme=scheme, tau=tau) for tau in ladder]
             for scheme in ("bdf1", "bdf2")}
    for cfg in (ref_cfg, *rungs["bdf1"], *rungs["bdf2"]):
        cfg.n_steps  # raises InvalidValueError for a step that does not divide t_end
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
    ref = run_single(ref_cfg).final_state

    reports = {}
    for scheme, configs in rungs.items():
        errors_phi, errors_temp = [], []
        min_a1 = math.inf
        for cfg in configs:
            res = run_single(cfg)
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
    EnergyLawViolation.  The step sizes, their distinct output names and the
    step count are checked before any run."""
    taus = _output_names(_check_sweep(taus, "stability step sizes"), "tau{:g}".format,
                         "stability step sizes")
    if n_steps < 1:
        raise InvalidValueError(f"stability step count must be at least 1, got {n_steps}")
    results = []
    for s1, s2, s3, s4 in STABILIZER_SETS:
        params = replace(base.params, s1=s1, s2=s2, s3=s3, s4=s4)
        for tau_tag, tau in taus.items():
            tag = f"s{s1:g}_{s2:g}_{s3:g}_{s4:g}_{tau_tag}"
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
    outside that table), runs to the level nearest the last instant,
    t_end = round(max(times)/tau)*tau, so any tau runs, and keeps a full
    ledger.  The latent heats and their distinct output names are checked
    before any run.
    """
    latent_values = _output_names(_check_sweep(latent_values, "latent heat values"),
                                  "K{:g}".format, "latent heat values")
    results = []
    for tag, latent in latent_values.items():
        times = base.snapshot_times or DENDRITE_SNAPSHOT_TIMES.get(latent, (base.t_end,))
        params = replace(base.params, latent=latent)
        cfg = replace(
            base, params=params, t_end=max(times), snapshot_times=times,
            ledger=f"dendrite_{tag}.csv", prefix=f"dendrite_{tag}",
        )
        # checked above: t_end/tau is a finite count of at least one step
        cfg = replace(cfg, t_end=round(cfg.t_end / cfg.tau) * cfg.tau)
        sub_dir = None if out_dir is None else Path(out_dir) / tag
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

