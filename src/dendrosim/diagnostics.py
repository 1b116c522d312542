"""Energy ledgers and scheme-agnostic observables.

One CSV row per time level records both energies, the auxiliary ratio xi,
the crystal area, the per-step energy-law residual and the closure
denominator A1.  Values are written as shortest round-trip decimals, so
the ledgers replot exactly.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import bdf1, bdf2
from .grid import GridSpec, integrate
from .model import ModelParams, anisotropy, e1_energy, original_energy

__all__ = [
    "EnergyRecord",
    "EnergyLawViolation",
    "NonFiniteRecordError",
    "LEDGER_FIELDS",
    "crystal_area",
    "make_record",
    "LedgerWriter",
    "read_ledger",
    "radial_extents",
    "count_axis_branches",
]

LEDGER_FIELDS = (
    "step",
    "time",
    "e_modified",
    "e_original",
    "xi",
    "area",
    "identity_residual",
    "a1",
)


class EnergyLawViolation(RuntimeError):
    """Modified energy increased beyond tolerance in strict mode."""


class NonFiniteRecordError(ValueError, FloatingPointError):
    """A ledger row came out non-finite: the run has broken down numerically."""


@dataclass
class EnergyRecord:
    """One ledger row."""

    step: int
    time: float
    e_modified: float
    e_original: float
    xi: float
    area: float
    identity_residual: float
    a1: float

    def __post_init__(self):
        values = [self.time, self.e_modified, self.e_original, self.xi,
                  self.area, self.identity_residual, self.a1]
        if not all(math.isfinite(v) for v in values):
            raise NonFiniteRecordError(f"non-finite value in energy record: {self}")


def crystal_area(grid: GridSpec, phi: np.ndarray) -> float:
    """Area of the solid region, int (1 + phi)/2."""
    return integrate(grid, 0.5 * (1.0 + phi))


def make_record(
    grid: GridSpec,
    p: ModelParams,
    state: "bdf1.StateBDF1 | bdf2.StateBDF2",
    report: "bdf1.StepReport | None" = None,
) -> EnergyRecord:
    """Assemble a ledger row from the current state.

    Without a report (the initial level) xi is 1 by convention, the
    identity residual is 0, and a1 takes its decoupled-limit value
    2*E1(phi).
    """
    if isinstance(state, bdf2.StateBDF2):
        e_mod = bdf2.scheme_energy2(grid, p, state)
    else:
        e_mod = bdf1.scheme_energy(grid, p, state)
    geom = anisotropy(grid, state.phi, p.sigma)
    if report is None:
        xi = 1.0
        identity = 0.0
        a1 = 2.0 * e1_energy(grid, state.phi, p, geom)
    else:
        xi, identity, a1 = report.xi, report.identity_residual, report.a1
    return EnergyRecord(
        step=state.n,
        time=state.t,
        e_modified=e_mod,
        e_original=original_energy(grid, state.phi, state.temp, p, geom),
        xi=xi,
        area=crystal_area(grid, state.phi),
        identity_residual=identity,
        a1=a1,
    )


class LedgerWriter:
    """Streams energy records to CSV.

    With ``strict=True`` an increase of e_modified between consecutive rows
    (beyond tol * |previous|) raises EnergyLawViolation.  ``strict_from``
    delays the check; second-order runs pass 1 because their two-level
    modified energy is only defined (and only provably monotone) from the
    first full level onward.
    """

    def __init__(self, path: str | Path, strict: bool = False,
                 tol: float = 1e-9, strict_from: int = 0):
        self.path = Path(path)
        self.strict = strict
        self.tol = tol
        self.strict_from = strict_from
        self._prev: EnergyRecord | None = None
        self._fh = open(self.path, "w", newline="")
        self._writer = csv.writer(self._fh, lineterminator="\n")
        self._writer.writerow(LEDGER_FIELDS)

    def append(self, rec: EnergyRecord) -> None:
        prev = self._prev
        if (
            self.strict
            and prev is not None
            and prev.step >= self.strict_from
            and rec.e_modified > prev.e_modified + self.tol * abs(prev.e_modified)
        ):
            self._fh.close()
            raise EnergyLawViolation(
                f"modified energy increased at step {rec.step}: "
                f"{prev.e_modified!r} -> {rec.e_modified!r}"
            )
        self._writer.writerow(
            [rec.step] + [repr(float(getattr(rec, name))) for name in LEDGER_FIELDS[1:]]
        )
        self._prev = rec

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "LedgerWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_ledger(path: str | Path) -> list[EnergyRecord]:
    """Load a ledger CSV back into records."""
    out = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if tuple(reader.fieldnames or ()) != LEDGER_FIELDS:
            raise ValueError(f"unexpected ledger header in {path}: {reader.fieldnames}")
        for row in reader:
            out.append(
                EnergyRecord(
                    step=int(row["step"]),
                    **{name: float(row[name]) for name in LEDGER_FIELDS[1:]},
                )
            )
    return out


def radial_extents(
    grid: GridSpec, phi: np.ndarray, n_angles: int = 720, threshold: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """Farthest radius with phi > threshold along rays from the domain center.

    Returns (angles, extents).  Rays are sampled at half-cell resolution
    with nearest-cell lookup.
    """
    grid.check(phi)
    mask = phi > threshold
    cx = 0.5 * (grid.x0 + grid.x1)
    cy = 0.5 * (grid.y0 + grid.y1)
    r_max = 0.5 * min(grid.x1 - grid.x0, grid.y1 - grid.y0)
    step = 0.5 * min(grid.hx, grid.hy)
    radii = np.arange(0.0, r_max, step)
    angles = np.linspace(0.0, 2.0 * np.pi, n_angles, endpoint=False)
    xs = cx + np.outer(np.cos(angles), radii)
    ys = cy + np.outer(np.sin(angles), radii)
    ii = np.clip(((xs - grid.x0) / grid.hx).astype(int), 0, grid.nx - 1)
    jj = np.clip(((ys - grid.y0) / grid.hy).astype(int), 0, grid.ny - 1)
    hit = mask[ii, jj]
    last_true = hit.shape[1] - 1 - np.argmax(hit[:, ::-1], axis=1)
    extents = radii[last_true]
    extents[~hit.any(axis=1)] = 0.0
    return angles, extents


def count_axis_branches(
    grid: GridSpec, phi: np.ndarray, threshold: float = 0.0,
    axis_tol_deg: float = 20.0,
) -> tuple[int, int]:
    """Count crystal arms by thresholding the radial extent profile.

    Angular sectors whose extent exceeds the midpoint between the longest
    and shortest ray form the arms (circular connected components).
    Returns (total arms, arms whose mean direction lies within
    ``axis_tol_deg`` of a coordinate axis).  Profiles with less than 15%
    radial contrast (discs up to grid jitter) count as armless.
    """
    angles, extents = radial_extents(grid, phi, threshold=threshold)
    lo, hi = extents.min(), extents.max()
    if hi <= 0.0 or hi - lo < 0.15 * hi:
        return 0, 0
    above = extents > 0.5 * (lo + hi)
    if above.all() or not above.any():
        return 0, 0
    # rotate so a gap starts the scan, then split into runs of True
    start = int(np.argmin(above))
    rolled = np.roll(above, -start)
    rolled_angles = np.roll(angles, -start)
    arms = 0
    axis_arms = 0
    in_arm = False
    arm_angles: list[float] = []
    tol = np.deg2rad(axis_tol_deg)
    for flag, ang in zip(np.append(rolled, False), np.append(rolled_angles, 0.0)):
        if flag:
            in_arm = True
            arm_angles.append(ang)
        elif in_arm:
            arms += 1
            mean = math.atan2(
                float(np.mean(np.sin(arm_angles))), float(np.mean(np.cos(arm_angles)))
            )
            dev = min(abs(((mean - k * np.pi / 2 + np.pi) % (2 * np.pi)) - np.pi)
                      for k in range(4))
            if dev <= tol:
                axis_arms += 1
            in_arm = False
            arm_angles = []
    return arms, axis_arms
