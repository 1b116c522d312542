"""Energy ledgers and scheme-agnostic observables.

One CSV row per time level records both energies, the auxiliary ratio xi,
the crystal area, the per-step energy-law residual and the closure
denominator A1.  Values are written as shortest round-trip decimals, so
the ledgers replot exactly.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import bdf1
from .grid import GridSpec, integrate, row_blocks
from .model import ModelParams, e1_energy, original_energy

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

RAYS = 720  # rays cast from the domain center to find the crystal's extent
AXIS_TOL_DEG = 20.0  # an arm this close to a coordinate axis is an axis arm


class EnergyLawViolation(RuntimeError):
    """Under strict_energy, the modified energy rose from one level to the next."""


class NonFiniteRecordError(ValueError, FloatingPointError):
    """A ledger row came out non-finite: the run has broken down numerically."""


@dataclass
class EnergyRecord:
    """One ledger row; its fields, in order, are the ledger's columns."""

    step: int
    time: float
    e_modified: float
    e_original: float
    xi: float
    area: float
    identity_residual: float
    a1: float

    def __post_init__(self):
        if not all(math.isfinite(getattr(self, name)) for name in LEDGER_FIELDS):
            raise NonFiniteRecordError(f"non-finite value in energy record: {self}")


LEDGER_FIELDS = tuple(f.name for f in fields(EnergyRecord))


def crystal_area(grid: GridSpec, phi: np.ndarray) -> float:
    """Area of the solid region, int (1 + phi)/2; the integrand is formed a
    row block at a time and summed whole."""
    solid = np.empty(phi.shape)
    for rows in row_blocks(phi.shape, 2):
        np.add(phi[rows], 1.0, out=solid[rows])
        solid[rows] *= 0.5
    return integrate(grid, solid)


def make_record(
    grid: GridSpec,
    p: ModelParams,
    state: "bdf1.State",
    report: "bdf1.StepReport | None" = None,
) -> EnergyRecord:
    """Assemble a ledger row from the current state.

    Without a report (the initial level) xi is 1 by convention, the
    identity residual is 0, and a1 takes its decoupled-limit value
    2*E1(phi).  Its geometry of phi goes on to a bdf1 step (``bdf1.state_geometry``);
    ||T^n||^2 of ``e_original`` is read from the state's energy norms.
    """
    e_mod = bdf1.scheme_energy(grid, p, state)
    temp_sq = bdf1.state_norms(grid, state).temp_level
    geom = bdf1.state_geometry(grid, p, state)
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
        e_original=original_energy(grid, state.phi, state.temp, p, geom, temp_sq),
        xi=xi,
        area=crystal_area(grid, state.phi),
        identity_residual=identity,
        a1=a1,
    )


class LedgerWriter:
    """Streams energy records to CSV, one row per record."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._fh = open(self.path, "w", newline="")
        self._writer = csv.writer(self._fh, lineterminator="\n")
        self._writer.writerow(LEDGER_FIELDS)

    def append(self, rec: EnergyRecord) -> None:
        self._writer.writerow(
            [rec.step] + [repr(float(getattr(rec, name))) for name in LEDGER_FIELDS[1:]]
        )

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


def radial_extents(grid: GridSpec, phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Farthest radius with phi > 0 along RAYS rays from the domain center.

    Returns (angles, extents).  Rays are sampled at half-cell resolution
    with nearest-cell lookup.
    """
    grid.check(phi)
    mask = phi > 0.0
    cx = 0.5 * (grid.x0 + grid.x1)
    cy = 0.5 * (grid.y0 + grid.y1)
    r_max = 0.5 * min(grid.x1 - grid.x0, grid.y1 - grid.y0)
    step = 0.5 * min(grid.hx, grid.hy)
    radii = np.arange(0.0, r_max, step)
    angles = np.linspace(0.0, 2.0 * np.pi, RAYS, endpoint=False)
    xs = cx + np.outer(np.cos(angles), radii)
    ys = cy + np.outer(np.sin(angles), radii)
    ii = np.clip(((xs - grid.x0) / grid.hx).astype(int), 0, grid.nx - 1)
    jj = np.clip(((ys - grid.y0) / grid.hy).astype(int), 0, grid.ny - 1)
    hit = mask[ii, jj]
    last_true = hit.shape[1] - 1 - np.argmax(hit[:, ::-1], axis=1)
    extents = radii[last_true]
    extents[~hit.any(axis=1)] = 0.0
    return angles, extents


def count_axis_branches(grid: GridSpec, phi: np.ndarray) -> tuple[int, int]:
    """Count crystal arms by thresholding the radial extent profile.

    Angular sectors whose extent exceeds the midpoint between the longest
    and shortest ray form the arms (circular connected components).
    Returns (total arms, arms whose mean direction lies within
    AXIS_TOL_DEG of a coordinate axis).  Profiles with less than 15%
    radial contrast (discs up to grid jitter) count as armless.
    """
    angles, extents = radial_extents(grid, phi)
    lo, hi = extents.min(), extents.max()
    if hi <= 0.0 or hi - lo < 0.15 * hi:
        return 0, 0
    above = extents > 0.5 * (lo + hi)  # the longest ray is above, the shortest is not
    # rotate so a gap starts the scan: each arm is then a run of True whose
    # first and last index follow the two edges of ``rolled`` around it
    start = int(np.argmin(above))
    rolled = np.roll(above, -start)
    rolled_angles = np.roll(angles, -start)
    edges = np.flatnonzero(np.diff(np.append(rolled, False)))
    axis_arms = 0
    tol = np.deg2rad(AXIS_TOL_DEG)
    for first, last in zip(edges[0::2] + 1, edges[1::2] + 1):
        arm = rolled_angles[first:last]
        mean = math.atan2(float(np.mean(np.sin(arm))), float(np.mean(np.cos(arm))))
        dev = min(abs(((mean - k * np.pi / 2 + np.pi) % (2 * np.pi)) - np.pi)
                  for k in range(4))
        axis_arms += int(dev <= tol)
    return len(edges) // 2, axis_arms
