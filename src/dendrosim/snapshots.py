"""Binary field snapshots and whole-state checkpoints.

Snapshot layout (all little-endian, no padding):

    magic   4 bytes  b"PFC1"
    version u32      1
    nx, ny  u32 each
    x0, x1, y0, y1, time   f64 each
    name    16 bytes, UTF-8, NUL-padded
    payload nx*ny f64, row-major (x along rows)

Checkpoints stack the same header idea with a scheme tag and the full
scalar state, followed by the state's fields in a fixed order, so
read-then-step reproduces uninterrupted stepping bit for bit.
Both are written from each field's own buffer and read in place, uncopied; a
payload cut short or followed by trailing bytes is rejected, and so is a header
whose grid GridSpec refuses or whose field name is not UTF-8.  Errors name the file.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bdf1 import State
from .config import ConfigError
from .grid import GridSpec

__all__ = [
    "FieldSnapshot",
    "SnapshotFormatError",
    "SourceSeriesError",
    "write_snapshot",
    "read_snapshot",
    "write_checkpoint",
    "read_checkpoint",
    "source_snapshot",
    "source_from_snapshots",
]

SNAPSHOT_MAGIC = b"PFC1"
SNAPSHOT_VERSION = 1
_SNAP_HEADER = struct.Struct("<4sIIIddddd16s")

CHECKPOINT_MAGIC = b"PFCK"
CHECKPOINT_VERSION = 1
_CKPT_HEADER = struct.Struct("<4sI4sIIddddqddd")
_BDF1_FIELDS = ("phi", "temp", "mu")
_BDF2_FIELDS = ("phi", "phi_prev", "temp", "temp_prev", "mu", "mu_prev")


class SnapshotFormatError(ValueError):
    """Corrupt or foreign snapshot/checkpoint data."""


class SourceSeriesError(SnapshotFormatError, ConfigError):
    """A forcing series declared in a configuration has no usable snapshot
    for a time level: missing, unreadable, on another grid or of another time."""


@dataclass(frozen=True)
class FieldSnapshot:
    """A named field frozen at one instant, with its grid."""

    grid: GridSpec
    time: float
    name: str
    values: np.ndarray


def _read_header(fh, header: struct.Struct, magic: bytes, version: int, where: str) -> tuple:
    head = fh.read(header.size)
    if len(head) < header.size:
        raise SnapshotFormatError(
            f"truncated header in {where}: expected {header.size} bytes, found {len(head)}"
        )
    found_magic, found_version, *rest = header.unpack(head)
    if found_magic != magic:
        raise SnapshotFormatError(f"bad magic in {where}: {found_magic!r}")
    if found_version != version:
        raise SnapshotFormatError(f"unsupported version {found_version} in {where}")
    return rest


def _header_grid(nx: int, ny: int, x0: float, x1: float, y0: float, y1: float,
                 where: str) -> GridSpec:
    """The grid a header declares; SnapshotFormatError, naming ``where``, for
    one that GridSpec refuses (fewer than 4 cells, non-finite bounds...)."""
    try:
        return GridSpec(nx=nx, ny=ny, x0=x0, x1=x1, y0=y0, y1=y1)
    except ValueError as exc:
        raise SnapshotFormatError(f"bad grid in {where}: {exc}") from exc


def _read_fields(fh, names: tuple, nx: int, ny: int, where: str, read: bool = True) -> dict:
    """Read the named (nx, ny) fields that must fill the rest of the file
    ``fh``, each straight into its array; unless ``read``, only check their
    size and return none."""
    need, found = 8 * nx * ny * len(names), os.fstat(fh.fileno()).st_size - fh.tell()
    if found != need:
        kind = "truncated payload" if found < need else "trailing bytes"
        raise SnapshotFormatError(f"{kind} in {where}: expected {need} bytes, found {found}")
    if not read:
        return {}
    fields = {name: np.empty((nx, ny), dtype="<f8") for name in names}
    for values in fields.values():
        if fh.readinto(values) != values.nbytes:
            raise SnapshotFormatError(f"{where} shrank while it was read")
    return fields


def _write_fields(path: str | Path, header: bytes, fields) -> None:
    """Write ``header``, then each field as little-endian f64; a contiguous
    little-endian field is written from its own buffer, uncopied."""
    with open(path, "wb") as fh:
        fh.write(header)
        for values in fields:
            fh.write(np.ascontiguousarray(values, dtype="<f8"))


def write_snapshot(snap: FieldSnapshot, path: str | Path) -> None:
    g = snap.grid
    g.check(snap.values)
    name = snap.name.encode("utf-8")
    if len(name) > 16:
        raise ValueError(f"snapshot field name too long (max 16 bytes): {snap.name!r}")
    header = _SNAP_HEADER.pack(
        SNAPSHOT_MAGIC, SNAPSHOT_VERSION, g.nx, g.ny,
        g.x0, g.x1, g.y0, g.y1, snap.time, name.ljust(16, b"\0"),
    )
    _write_fields(path, header, (snap.values,))


def _read_snapshot(path: str | Path, read: bool) -> FieldSnapshot:
    """The snapshot in ``path``; unless ``read``, only its header is read and
    its payload's size checked, and the snapshot holds no values (None)."""
    with open(path, "rb") as fh:
        nx, ny, x0, x1, y0, y1, time, name = _read_header(
            fh, _SNAP_HEADER, SNAPSHOT_MAGIC, SNAPSHOT_VERSION, str(path))
        grid = _header_grid(nx, ny, x0, x1, y0, y1, str(path))
        try:
            name = name.rstrip(b"\0").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SnapshotFormatError(f"field name in {path} is not UTF-8: {exc}") from exc
        values = _read_fields(fh, ("values",), nx, ny, str(path), read).get("values")
    return FieldSnapshot(grid=grid, time=time, name=name, values=values)


def read_snapshot(path: str | Path) -> FieldSnapshot:
    return _read_snapshot(path, read=True)


def write_checkpoint(path: str | Path, grid: GridSpec, state: State) -> None:
    """Write a scheme state (every field and scalar, both levels at BDF order
    2) to ``path``; the tag names the order.  A field not on ``grid`` raises
    ValueError before the file is opened."""
    if state.order == 2:
        tag, names, r_prev = b"BDF2", _BDF2_FIELDS, state.r_prev
    else:
        tag, names, r_prev = b"BDF1", _BDF1_FIELDS, 0.0
    fields = [getattr(state, name) for name in names]
    grid.check(*fields)
    header = _CKPT_HEADER.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, tag, grid.nx, grid.ny,
                               grid.x0, grid.x1, grid.y0, grid.y1,
                               state.n, state.t, state.r, r_prev)
    _write_fields(path, header, fields)


def read_checkpoint(path: str | Path) -> tuple[GridSpec, State]:
    """The grid and scheme state that :func:`write_checkpoint` wrote to ``path``."""
    where = str(path)
    with open(path, "rb") as fh:
        tag, nx, ny, x0, x1, y0, y1, n, t, r, r_prev = _read_header(
            fh, _CKPT_HEADER, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, where)
        grid = _header_grid(nx, ny, x0, x1, y0, y1, where)
        if tag not in (b"BDF1", b"BDF2"):
            raise SnapshotFormatError(f"unknown scheme tag {tag!r} in {where}")
        fields = _read_fields(fh, _BDF1_FIELDS if tag == b"BDF1" else _BDF2_FIELDS,
                              nx, ny, where)
    prev = {"r_prev": r_prev} if tag == b"BDF2" else {}
    return grid, State(r=r, t=t, n=n, **prev, **fields)


def source_snapshot(directory: str | Path, prefix: str, tau: float, grid: GridSpec, t: float,
                    read: bool = True) -> np.ndarray | None:
    """The forcing field of time ``t`` in the snapshot series ``prefix`` of
    ``directory`` (see :func:`source_from_snapshots`); unless ``read``, only
    the file's header and size are checked, and None is returned.  Raises
    SourceSeriesError for a missing, unreadable, off-grid or mis-timed file."""
    path = Path(directory) / f"{prefix}_{round(t / tau):06d}.snp"
    try:
        snap = read_snapshot(path) if read else _read_snapshot(path, read=False)
    except OSError as exc:
        raise SourceSeriesError(
            f"cannot read forcing snapshot {path}: {exc.strerror or exc}"
        ) from exc
    except SnapshotFormatError as exc:
        raise SourceSeriesError(str(exc)) from exc
    if snap.grid != grid:
        raise SourceSeriesError(
            f"source snapshot {path} lies on {snap.grid}, not on the run's grid {grid}"
        )
    if abs(snap.time - t) > 0.5 * tau:
        raise SourceSeriesError(
            f"source snapshot {path} holds time {snap.time:g}, more than "
            f"tau/2 from t={t:g}"
        )
    return snap.values


def source_from_snapshots(directory: str | Path, prefix: str, tau: float, grid: GridSpec):
    """Source-term provider backed by one snapshot file per time level.

    The steppers evaluate sources at the new time level t^{n+1}; this
    provider maps t to the file ``{prefix}_{round(t/tau):06d}.snp``, whose
    header must declare the run's ``grid`` and a time within tau/2 of t.  Use
    it for externally manufactured forcing (one field per level) through the
    SourceTerms hooks.  A missing, unreadable, off-grid or mis-timed file
    raises :class:`SourceSeriesError`.
    """
    return lambda x, y, t: source_snapshot(directory, prefix, tau, grid, t)
