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
restore-then-step reproduces uninterrupted stepping bit for bit.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bdf1 import StateBDF1
from .bdf2 import StateBDF2
from .config import ConfigError
from .grid import GridSpec

__all__ = [
    "FieldSnapshot",
    "SnapshotFormatError",
    "SourceSeriesError",
    "write_snapshot",
    "read_snapshot",
    "checkpoint",
    "restore",
    "write_checkpoint",
    "read_checkpoint",
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
    for a time level: missing, unreadable, of another shape or time."""


@dataclass(frozen=True)
class FieldSnapshot:
    """A named field frozen at one instant, with its grid."""

    grid: GridSpec
    time: float
    name: str
    values: np.ndarray


def _field_bytes(values: np.ndarray) -> bytes:
    return np.ascontiguousarray(values, dtype="<f8").tobytes()


def _field_from(buf: bytes, offset: int, nx: int, ny: int, where: str) -> tuple[np.ndarray, int]:
    need = nx * ny * 8
    if len(buf) - offset < need:
        raise SnapshotFormatError(
            f"truncated payload in {where}: expected {need} bytes, found {len(buf) - offset}"
        )
    arr = np.frombuffer(buf, dtype="<f8", count=nx * ny, offset=offset)
    return arr.reshape(nx, ny).copy(), offset + need


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
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(_field_bytes(snap.values))


def read_snapshot(path: str | Path) -> FieldSnapshot:
    buf = Path(path).read_bytes()
    if len(buf) < _SNAP_HEADER.size:
        raise SnapshotFormatError(
            f"truncated header in {path}: expected {_SNAP_HEADER.size} bytes, found {len(buf)}"
        )
    magic, version, nx, ny, x0, x1, y0, y1, time, name = _SNAP_HEADER.unpack_from(buf)
    if magic != SNAPSHOT_MAGIC:
        raise SnapshotFormatError(f"bad magic in {path}: {magic!r}")
    if version != SNAPSHOT_VERSION:
        raise SnapshotFormatError(f"unsupported snapshot version {version} in {path}")
    values, _ = _field_from(buf, _SNAP_HEADER.size, nx, ny, str(path))
    grid = GridSpec(nx=nx, ny=ny, x0=x0, x1=x1, y0=y0, y1=y1)
    return FieldSnapshot(grid=grid, time=time, name=name.rstrip(b"\0").decode("utf-8"),
                         values=values)


def checkpoint(grid: GridSpec, state: StateBDF1 | StateBDF2) -> bytes:
    """Serialize a scheme state (every field and scalar, both levels for the
    second-order scheme)."""
    if isinstance(state, StateBDF2):
        tag, fields = b"BDF2", _BDF2_FIELDS
        r, r_prev = state.r, state.r_prev
    elif isinstance(state, StateBDF1):
        tag, fields = b"BDF1", _BDF1_FIELDS
        r, r_prev = state.r, 0.0
    else:
        raise TypeError(f"cannot checkpoint {type(state).__name__}")
    header = _CKPT_HEADER.pack(
        CHECKPOINT_MAGIC, CHECKPOINT_VERSION, tag, grid.nx, grid.ny,
        grid.x0, grid.x1, grid.y0, grid.y1,
        state.n, state.t, r, r_prev,
    )
    chunks = [header]
    for name in fields:
        arr = getattr(state, name)
        grid.check(arr)
        chunks.append(_field_bytes(arr))
    return b"".join(chunks)


def restore(buf: bytes) -> tuple[GridSpec, StateBDF1 | StateBDF2]:
    if len(buf) < _CKPT_HEADER.size:
        raise SnapshotFormatError(
            f"truncated checkpoint header: expected {_CKPT_HEADER.size} bytes, found {len(buf)}"
        )
    (magic, version, tag, nx, ny, x0, x1, y0, y1, n, t, r, r_prev) = _CKPT_HEADER.unpack_from(buf)
    if magic != CHECKPOINT_MAGIC:
        raise SnapshotFormatError(f"bad checkpoint magic: {magic!r}")
    if version != CHECKPOINT_VERSION:
        raise SnapshotFormatError(f"unsupported checkpoint version {version}")
    grid = GridSpec(nx=nx, ny=ny, x0=x0, x1=x1, y0=y0, y1=y1)
    offset = _CKPT_HEADER.size
    if tag == b"BDF1":
        arrays = {}
        for name in _BDF1_FIELDS:
            arrays[name], offset = _field_from(buf, offset, nx, ny, "checkpoint")
        return grid, StateBDF1(r=r, t=t, n=n, **arrays)
    if tag == b"BDF2":
        arrays = {}
        for name in _BDF2_FIELDS:
            arrays[name], offset = _field_from(buf, offset, nx, ny, "checkpoint")
        return grid, StateBDF2(r=r, r_prev=r_prev, t=t, n=n, **arrays)
    raise SnapshotFormatError(f"unknown scheme tag {tag!r}")


def write_checkpoint(path: str | Path, grid: GridSpec, state: StateBDF1 | StateBDF2) -> None:
    Path(path).write_bytes(checkpoint(grid, state))


def read_checkpoint(path: str | Path) -> tuple[GridSpec, StateBDF1 | StateBDF2]:
    return restore(Path(path).read_bytes())


def source_from_snapshots(directory: str | Path, prefix: str, tau: float):
    """Source-term provider backed by one snapshot file per time level.

    The steppers evaluate sources at the new time level t^{n+1}; this
    provider maps t to the file ``{prefix}_{round(t/tau):06d}.snp``, whose
    header time must lie within tau/2 of t.  Use it for externally
    manufactured forcing (one field per level) through the SourceTerms
    hooks.  A missing, unreadable, mis-shaped or mis-timed file raises
    :class:`SourceSeriesError`.
    """
    directory = Path(directory)

    def provider(x: np.ndarray, y: np.ndarray, t: float) -> np.ndarray:
        level = round(t / tau)
        path = directory / f"{prefix}_{level:06d}.snp"
        try:
            snap = read_snapshot(path)
        except OSError as exc:
            raise SourceSeriesError(
                f"cannot read forcing snapshot {path}: {exc.strerror or exc}"
            ) from exc
        except SnapshotFormatError as exc:
            raise SourceSeriesError(str(exc)) from exc
        if snap.values.shape != x.shape:
            raise SourceSeriesError(
                f"source snapshot level {level} has shape {snap.values.shape}, "
                f"expected {x.shape}"
            )
        if abs(snap.time - t) > 0.5 * tau:
            raise SourceSeriesError(
                f"source snapshot {path} holds time {snap.time:g}, more than "
                f"tau/2 from t={t:g}"
            )
        return snap.values

    return provider
