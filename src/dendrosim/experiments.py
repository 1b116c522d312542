"""Experiment drivers: single runs, accuracy ladders, stability sweeps, and
dendritic growth, matching the reference study at desk scale.

Every driver writes its resolved configuration next to its outputs, so a
run directory is self-describing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import bdf1, bdf2
from .config import RunConfig, dendrite_initial, dendrite_params, serialize_config
from .diagnostics import (
    EnergyLawViolation,
    EnergyRecord,
    LedgerWriter,
    count_axis_branches,
    make_record,
)
from .grid import GridSpec, inner
from .model import NO_SOURCES, EnergyPositivityError, SourceTerms
from .snapshots import FieldSnapshot, SourceSeriesError, source_from_snapshots, write_snapshot

__all__ = [
    "RunResult",
    "ConvergenceReport",
    "StabilityResult",
    "DendriteResult",
    "STABILIZER_SETS",
    "DENDRITE_SNAPSHOT_TIMES",
    "run_single",
    "reference_solution",
    "run_accuracy",
    "run_stability",
    "run_dendrite",
    "estimate_order",
    "dendrite_base_config",
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
    final_state: "bdf1.StateBDF1 | bdf2.StateBDF2"
    ledger_path: Path | None
    min_a1: float
    max_xi_dev: float
    max_identity_residual: float


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
class StabilityResult:
    stabilizers: tuple[float, float, float, float]
    tau: float
    monotone: bool
    max_xi_dev: float
    min_a1: float
    ledger_path: Path | None


@dataclass
class DendriteResult:
    latent: float
    result: RunResult
    arms: int
    axis_arms: int
    area_at: dict[float, float]


def _snapshot_due(cfg: RunConfig, step_index: int, t: float, pending: list[float]) -> bool:
    if cfg.snapshot_every and step_index % cfg.snapshot_every == 0:
        return True
    for target in list(pending):
        if abs(t - target) <= 0.5 * cfg.tau:
            pending.remove(target)
            return True
    return False


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

    ``sources`` overrides any snapshot-series forcing declared in the
    configuration's [sources] section.
    """
    grid = cfg.grid
    if sources is None:
        sources = _config_sources(cfg)
    phi0, temp0 = cfg.initial.build(grid)
    records: list[EnergyRecord] = []
    ledger_path: Path | None = None
    writer = None
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "resolved.cfg").write_text(serialize_config(cfg))
        ledger_path = out_dir / cfg.ledger
        writer = LedgerWriter(
            ledger_path,
            strict=cfg.strict_energy,
            strict_from=1 if cfg.scheme == "bdf2" else 0,
        )

    pending_times = sorted(cfg.snapshot_times)
    min_a1 = math.inf
    max_xi_dev = 0.0
    max_identity = 0.0

    def emit(state, report) -> None:
        nonlocal min_a1, max_xi_dev, max_identity
        rec = make_record(grid, cfg.params, state, report)
        records.append(rec)
        if writer is not None:
            writer.append(rec)
        if report is not None:
            min_a1 = min(min_a1, report.a1)
            max_xi_dev = max(max_xi_dev, abs(report.xi - 1.0))
            max_identity = max(max_identity, report.identity_residual)
        if out_dir is not None and _snapshot_due(cfg, state.n, state.t, pending_times):
            _write_state_snapshots(cfg, out_dir, state, state.n)

    # level and time being computed, named in a numerical breakdown
    level, t_level = 0, 0.0
    try:
        if cfg.scheme == "bdf1":
            state = bdf1.init_state(grid, phi0, temp0, cfg.params)
            emit(state, None)
            for _ in range(cfg.n_steps):
                level, t_level = state.n + 1, state.t + cfg.tau
                state, report = bdf1.step(
                    grid, state, cfg.tau, cfg.params, sources, cfg.check_identity
                )
                emit(state, report)
        else:
            start = bdf1.init_state(grid, phi0, temp0, cfg.params)
            emit(start, None)
            level, t_level = 1, start.t + cfg.tau
            state, report = bdf2.bootstrap(
                grid, phi0, temp0, cfg.tau, cfg.params, sources,
                cfg.check_identity, initial=start,
            )
            emit(state, report)
            for _ in range(cfg.n_steps - 1):
                level, t_level = state.n + 1, state.t + cfg.tau
                state, report = bdf2.step2(
                    grid, state, cfg.tau, cfg.params, sources, cfg.check_identity
                )
                emit(state, report)
    except (EnergyPositivityError, FloatingPointError, SourceSeriesError) as exc:
        raise type(exc)(f"level {level} (t={t_level:g}): {exc}") from exc
    finally:
        if writer is not None:
            writer.close()

    return RunResult(
        config=cfg,
        records=records,
        final_state=state,
        ledger_path=ledger_path,
        min_a1=min_a1,
        max_xi_dev=max_xi_dev,
        max_identity_residual=max_identity,
    )


def reference_solution(cfg: RunConfig, ref_tau: float) -> tuple[np.ndarray, np.ndarray]:
    """Fine-step second-order solution at t_end, used as the surrogate exact
    solution of the self-convergence protocol."""
    ref_cfg = replace(cfg, scheme="bdf2", tau=ref_tau, check_identity=False,
                      snapshot_every=0, snapshot_times=())
    res = run_single(ref_cfg)
    return res.final_state.phi, res.final_state.temp


def run_accuracy(
    base: RunConfig,
    ladder: tuple[float, ...] | list[float],
    ref_tau: float = 5e-5,
    reference: tuple[np.ndarray, np.ndarray] | None = None,
    out_dir: str | Path | None = None,
) -> ConvergenceReport:
    """Self-convergence ladder: L2 errors at t_end against a fine reference.

    The reference runs once (second-order scheme at ref_tau) unless supplied.
    Requires every ladder step to be at least 10x the reference step.
    """
    ladder = tuple(float(t) for t in ladder)
    if len(ladder) < 2:
        raise ValueError("accuracy ladder needs at least two step sizes")
    if any(a <= b for a, b in zip(ladder, ladder[1:])):
        raise ValueError(f"accuracy ladder must be strictly decreasing: {ladder}")
    # tolerant factor-10 gate (10*ref_tau can round above an exact 10x rung)
    if min(ladder) < 10.0 * ref_tau * (1.0 - 1e-9):
        raise ValueError(
            f"ladder step {min(ladder)} too close to reference tau {ref_tau}; "
            "need at least a factor 10"
        )
    if reference is None:
        reference = reference_solution(base, ref_tau)
    ref_phi, ref_temp = reference

    errors_phi, errors_temp = [], []
    min_a1 = math.inf
    for tau in ladder:
        cfg = replace(base, tau=tau, check_identity=False,
                      snapshot_every=0, snapshot_times=())
        res = run_single(cfg)
        min_a1 = min(min_a1, res.min_a1)
        dphi = res.final_state.phi - ref_phi
        dtemp = res.final_state.temp - ref_temp
        errors_phi.append(math.sqrt(inner(base.grid, dphi, dphi)))
        errors_temp.append(math.sqrt(inner(base.grid, dtemp, dtemp)))

    report = ConvergenceReport(
        scheme=base.scheme,
        ref_tau=ref_tau,
        taus=ladder,
        errors_phi=tuple(errors_phi),
        errors_temp=tuple(errors_temp),
        slope_phi=estimate_order(errors_phi, ladder),
        slope_temp=estimate_order(errors_temp, ladder),
        min_a1=min_a1,
    )
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        lines = ["tau,error_phi,error_temp"]
        for tau, ep, et in zip(ladder, errors_phi, errors_temp):
            lines.append(f"{tau!r},{ep!r},{et!r}")
        lines.append(f"# slope_phi = {report.slope_phi!r}")
        lines.append(f"# slope_temp = {report.slope_temp!r}")
        (out_dir / f"accuracy_{base.scheme}.csv").write_text("\n".join(lines) + "\n")
    return report


def run_stability(
    base: RunConfig,
    taus: tuple[float, ...] | list[float],
    out_dir: str | Path | None = None,
    n_steps: int = 200,
    stabilizer_sets: tuple = STABILIZER_SETS,
) -> list[StabilityResult]:
    """Sweep step sizes and stabilizer sets; every run must dissipate the
    modified energy monotonically (raises EnergyLawViolation otherwise)."""
    results = []
    for s_set in stabilizer_sets:
        s1, s2, s3, s4 = s_set
        params = replace(base.params, s1=s1, s2=s2, s3=s3, s4=s4)
        for tau in taus:
            tag = f"s{s1:g}_{s2:g}_{s3:g}_{s4:g}_tau{tau:g}"
            cfg = replace(
                base, params=params, tau=tau, t_end=tau * n_steps,
                ledger=f"stability_{tag}.csv", prefix=f"stability_{tag}",
                strict_energy=True,
            )
            sub_dir = None if out_dir is None else Path(out_dir) / tag
            res = run_single(cfg, sub_dir)
            start = 1 if cfg.scheme == "bdf2" else 0
            energies = [r.e_modified for r in res.records[start:]]
            monotone = all(
                b <= a + 1e-9 * abs(a) for a, b in zip(energies, energies[1:])
            )
            if not monotone:
                raise EnergyLawViolation(f"stability run {tag} lost monotonicity")
            results.append(
                StabilityResult(
                    stabilizers=s_set,
                    tau=tau,
                    monotone=monotone,
                    max_xi_dev=res.max_xi_dev,
                    min_a1=res.min_a1,
                    ledger_path=res.ledger_path,
                )
            )
    return results


def run_dendrite(
    base: RunConfig,
    latent_values: tuple[float, ...] | list[float] = (0.6, 0.8, 1.0, 1.2),
    out_dir: str | Path | None = None,
    t_end_override: float | None = None,
    snapshot_times_override: tuple[float, ...] | None = None,
) -> list[DendriteResult]:
    """Fourfold growth runs over the latent-heat sweep.

    Each run goes to the benchmark's final snapshot instant for its latent
    heat (overridable), dumps phi and T snapshots at the listed times, and
    keeps a full ledger.
    """
    results = []
    for latent in latent_values:
        times = snapshot_times_override
        if times is None:
            times = DENDRITE_SNAPSHOT_TIMES.get(latent, (base.t_end,))
        t_end = t_end_override if t_end_override is not None else max(times)
        times = tuple(t for t in times if t <= t_end + 1e-12)
        params = replace(base.params, latent=latent)
        cfg = replace(
            base, params=params, t_end=t_end, snapshot_times=times,
            ledger=f"dendrite_K{latent:g}.csv", prefix=f"dendrite_K{latent:g}",
        )
        sub_dir = None if out_dir is None else Path(out_dir) / f"K{latent:g}"
        res = run_single(cfg, sub_dir)
        arms, axis_arms = count_axis_branches(cfg.grid, res.final_state.phi)
        area_at = {rec.time: rec.area for rec in res.records}
        results.append(
            DendriteResult(latent=latent, result=res, arms=arms,
                           axis_arms=axis_arms, area_at=area_at)
        )
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


def dendrite_base_config(nx: int = 256, tau: float = 0.01) -> RunConfig:
    """Benchmark growth configuration at the default desk-scale resolution."""
    return RunConfig(
        grid=GridSpec(nx, nx),
        scheme="bdf2",
        tau=tau,
        t_end=9.0,
        params=dendrite_params(),
        initial=dendrite_initial(),
    )
