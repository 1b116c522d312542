from functools import cache
from pathlib import Path

import numpy as np
import pytest

from dendrosim.config import RunConfig, load_config
from dendrosim.grid import GridSpec


@cache
def shipped_config(name: str) -> RunConfig:
    """The shipped configs/<name>.cfg, parsed once per session."""
    return load_config(Path(__file__).resolve().parents[1] / "configs" / f"{name}.cfg")


@pytest.fixture
def grid8() -> GridSpec:
    return GridSpec(8, 8)


@pytest.fixture
def grid16() -> GridSpec:
    return GridSpec(16, 16)


@pytest.fixture
def case2():
    """Case-II parameters with its tanh-disc initial data on a 32x32 grid."""
    grid = GridSpec(32, 32)
    cfg = shipped_config("case2")
    phi0, temp0 = cfg.initial.build(grid)
    return grid, cfg.params, phi0, temp0


def random_field(grid: GridSpec, seed: int, scale: float = 1.0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return scale * rng.standard_normal(grid.shape)


def smooth_field(grid: GridSpec, seed: int, scale: float = 1.0) -> np.ndarray:
    """Band-limited random field (sum of a few low cosine modes)."""
    rng = np.random.default_rng(seed)
    x, y = grid.mesh()
    out = np.zeros(grid.shape)
    for _ in range(4):
        kx, ky = rng.integers(0, 4, size=2)
        amp, phx, phy = rng.standard_normal(3)
        out += amp * np.cos(kx * np.pi * (x - grid.x0) / (grid.x1 - grid.x0) + phx) \
                   * np.cos(ky * np.pi * (y - grid.y0) / (grid.y1 - grid.y0) + phy)
    return scale * out
