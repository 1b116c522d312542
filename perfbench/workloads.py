"""Benchmark workloads and the inputs generated for them from a seed.

Every workload starts from a configuration shipped in ``configs/`` and
changes only the keys listed in its ``overrides``.  A sample call runs
``levels`` time levels through ``experiments.run_single``; its timing
window starts after the first full level of the scheme (level 1 for bdf2,
whose level 1 is the first-order bootstrap, level 0 for bdf1) and is cut
into blocks of ``block`` levels, one timing sample per block.

``--seed n`` selects input variant ``n % VARIANTS``.  The reference final
fields and ledgers in ``references.json`` exist for every variant, so any
seed can be checked.  Variant ``HELD_OUT_VARIANT`` is held out: develop a
change against seeds 0-6 and re-check a claim on seed 7 (or 15, 23, ...).
"""

from __future__ import annotations

import configparser
import math
import random
import struct
from dataclasses import dataclass
from pathlib import Path

VARIANTS = 8
HELD_OUT_VARIANT = 7

# snapshot layout of dendrosim.snapshots (documented in its module docstring)
_SNAP_HEADER = struct.Struct("<4sIIIddddd16s")


@dataclass(frozen=True)
class Workload:
    name: str
    base_config: str
    overrides: dict
    levels: int
    block: int
    tail_pct: int  # rate percentile reported as the slow tail; >= 10 samples lie below it
    jitter_nucleus: bool = False
    forcing: bool = False

    @property
    def start_level(self) -> int:
        """First level row that opens the timing window (steady stepping)."""
        return 1 if self.scheme == "bdf2" else 0

    @property
    def scheme(self) -> str:
        return self.overrides.get("time", {}).get("scheme", "bdf2")


# why each workload is here: BENCHMARK.json (one line each) and README.md
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="dendrite256-bdf2",
            base_config="configs/dendrite.cfg",
            overrides={"output": {"snapshot_every": "100"}},
            levels=101,
            block=2,
            tail_pct=10,
            jitter_nucleus=True,
        ),
        Workload(
            name="dendrite512-bdf2-lean",
            base_config="configs/dendrite.cfg",
            overrides={
                "grid": {"nx": "512", "ny": "512"},
                "solver": {"check_identity": "false"},
                "output": {"snapshot_every": "5"},
            },
            levels=31,
            block=5,
            tail_pct=25,
            jitter_nucleus=True,
        ),
        Workload(
            name="case1-128-bdf1-sources",
            base_config="configs/case1.cfg",
            overrides={
                "grid": {"nx": "128", "ny": "128"},
                "time": {"scheme": "bdf1", "tau": "1e-3"},
                "solver": {"check_identity": "false"},
            },
            levels=100,
            block=10,
            tail_pct=10,
            forcing=True,
        ),
    )
}


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def _rng(workload: Workload, variant: int) -> random.Random:
    return random.Random(f"{workload.name}:{variant}")


def _read_base(root: Path, workload: Workload) -> configparser.ConfigParser:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    with open(root / workload.base_config) as fh:
        cp.read_file(fh)
    for section, keys in workload.overrides.items():
        if not cp.has_section(section):
            cp.add_section(section)
        for key, value in keys.items():
            cp.set(section, key, value)
    return cp


def _write(cp: configparser.ConfigParser, path: Path) -> Path:
    with open(path, "w") as fh:
        cp.write(fh)
    return path


def grid_shape(root: Path, workload: Workload) -> tuple[int, int]:
    cp = _read_base(root, workload)
    return cp.getint("grid", "nx"), cp.getint("grid", "ny")


def make_inputs(root: Path, workload: Workload, seed: int, inputs: Path) -> dict[str, Path]:
    """Write the configs (and forcing series) of one seed under ``inputs``.

    Returns the config paths: ``main`` (one sample call of ``levels``
    levels), ``setup`` (stops after the first level) and ``warmup``
    (three levels, fills the process's caches before timing).
    """
    inputs.mkdir(parents=True, exist_ok=True)
    variant = variant_of(seed)
    rng = _rng(workload, variant)
    cp = _read_base(root, workload)
    nx, ny = cp.getint("grid", "nx"), cp.getint("grid", "ny")
    x0, x1 = cp.getfloat("grid", "x0"), cp.getfloat("grid", "x1")
    y0, y1 = cp.getfloat("grid", "y0"), cp.getfloat("grid", "y1")
    tau = cp.getfloat("time", "tau")

    if workload.jitter_nucleus:
        # less than half a cell, so the crystal and the residuals stay alike
        hx, hy = (x1 - x0) / nx, (y1 - y0) / ny
        cx = 0.5 * (x0 + x1) + rng.uniform(-0.45, 0.45) * hx
        cy = 0.5 * (y0 + y1) + rng.uniform(-0.45, 0.45) * hy
        cp.set("initial", "x0", repr(cx))
        cp.set("initial", "y0", repr(cy))
    if workload.forcing:
        forcing = inputs / "forcing"
        write_forcing(forcing, rng, (nx, ny), (x0, x1, y0, y1), tau, workload.levels)
        if not cp.has_section("sources"):
            cp.add_section("sources")
        cp.set("sources", "phi_dir", str(forcing.resolve()))
        cp.set("sources", "phi_prefix", "s_phi")
        cp.set("sources", "temp_dir", str(forcing.resolve()))
        cp.set("sources", "temp_prefix", "s_temp")

    paths = {}
    for tag, n in (("main", workload.levels), ("setup", 1), ("warmup", 3)):
        cp.set("time", "t_end", repr(n * tau))
        paths[tag] = _write(cp, inputs / f"{tag}.cfg")
    return paths


def write_forcing(directory: Path, rng: random.Random, shape, bounds, tau: float,
                  levels: int) -> None:
    """One phi and one T forcing snapshot per level 1..levels.

    Smooth cosine modes (Neumann-compatible) with seeded wavenumbers,
    amplitudes and phases, modulated in time.
    """
    import numpy as np

    nx, ny = shape
    x0, x1, y0, y1 = bounds
    directory.mkdir(parents=True, exist_ok=True)
    xs = (np.arange(nx) + 0.5) / nx
    ys = (np.arange(ny) + 0.5) / ny

    def mode() -> np.ndarray:
        kx, ky = rng.randint(1, 3), rng.randint(1, 3)
        return np.outer(np.cos(kx * math.pi * xs), np.cos(ky * math.pi * ys))

    phi_mode, temp_mode = mode(), mode()
    a_phi, a_temp = rng.uniform(1.5, 2.5), rng.uniform(0.5, 1.0)
    th_phi, th_temp = rng.uniform(0.0, 2 * math.pi), rng.uniform(0.0, 2 * math.pi)
    for n in range(1, levels + 1):
        t = n * tau
        fields = (
            ("s_phi", a_phi * (1.0 + 0.5 * math.sin(40 * math.pi * t + th_phi)) * phi_mode),
            ("s_temp", a_temp * math.cos(20 * math.pi * t + th_temp) * temp_mode),
        )
        for prefix, values in fields:
            header = _SNAP_HEADER.pack(b"PFC1", 1, nx, ny, x0, x1, y0, y1, t,
                                       prefix.encode().ljust(16, b"\0"))
            with open(directory / f"{prefix}_{n:06d}.snp", "wb") as fh:
                fh.write(header)
                fh.write(np.ascontiguousarray(values, dtype="<f8").tobytes())
