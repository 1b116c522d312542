"""Uniform cell-centered 2D grids and finite-difference field algebra.

Fields are plain float64 arrays of shape (nx, ny) holding values at cell
centers x0 + (i+1/2)*hx, y0 + (j+1/2)*hy (x along axis 0).  All operators
enforce homogeneous Neumann walls through ghost cells:

* ``gradient``   -- centered differences, even ghost extension (ghost copies
  the wall cell), so gradients of constants vanish.
* ``face_flux_divergence`` -- div(w grad f) from face fluxes, w averaged
  onto the faces, zero flux through the walls.
* ``laplacian``  -- compact 5-point stencil assembled from face differences
  with zero flux through the walls.  Its eigenvectors are the 2D DCT-II
  cosine modes, eigenvalue -(2/hx^2)(1-cos(k*pi/nx)) per direction.

``grad_inner`` is the Dirichlet form of ``laplacian``: it sums products of
face differences, so <laplacian(f), g> == -grad_inner(f, g) holds to
roundoff.  All quadratic gradient energies in the time steppers use it;
that exactness is what makes the discrete energy identities balance.

No ghost cell or wall face is ever stored.  Face differences live on the
interior faces only, (nx-1, ny) across x and (nx, ny-1) across y; the zero
flux through the wall faces is implicit, and the wall rows and columns of
each result are written by slice assignment.  y-differences are taken on
the flattened C-ordered field, one contiguous run; its entries that straddle
two rows are overwritten by the wall-column assignments.  The arithmetic is
that of the ghost-cell formulation above, operation for operation, so the
array operators match it bit for bit; ``grad_inner`` skips the zero wall
products and so differs from it only in summation order.

Pointwise chains of several ufunc passes over whole fields run over blocks
of whole rows (:func:`row_blocks`): each block is sized so that the fields
the chain keeps live fill about ``_BLOCK_BYTES``, half a core's L2, and
every pass of the chain then reads a block from cache rather than the whole
field from memory.  A block's temporaries replace full-field temporaries,
and its results are written straight into slices of the full outputs.
Each element sees the same ufuncs in the same order as in a whole-field
pass, so the results are bitwise those of the unblocked chain; reductions
(``np.dot``, ``np.sum``) stay on whole fields, as blocked partial sums
would change the summation order.  A 128^2 field is a single block.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GridSpec",
    "gradient",
    "laplacian",
    "inner",
    "norm_sq",
    "integrate",
    "grad_inner",
    "grad_norm_sq",
]

_BLOCK_BYTES = 1 << 20  # bytes the live fields of one row block fill: about half a core's L2


def block_rows(row_bytes: int, live: int) -> int:
    """Whole rows per block when ``live`` rows of ``row_bytes`` each share
    ``_BLOCK_BYTES``; at least one."""
    return max(1, _BLOCK_BYTES // (live * row_bytes))


def row_blocks(shape: tuple[int, ...], live: int) -> Iterator[slice]:
    """Slices of whole rows (along axis 0) covering a float64 field of
    ``shape``, each block small enough that ``live`` fields of it fill about
    ``_BLOCK_BYTES``.  The last block takes the rows left over; a 0-d shape
    is one block."""
    if not shape:
        yield ...
        return
    rows = block_rows(math.prod(shape[1:]) * 8, live)
    for i in range(0, shape[0], rows):
        yield slice(i, min(i + rows, shape[0]))


@dataclass(frozen=True)
class GridSpec:
    """Uniform cell-centered grid on the rectangle (x0, x1) x (y0, y1)."""

    nx: int
    ny: int
    x0: float = -1.0
    x1: float = 1.0
    y0: float = -1.0
    y1: float = 1.0

    def __post_init__(self):
        if self.nx < 4 or self.ny < 4:
            raise ValueError(f"grid needs nx, ny >= 4, got {self.nx}x{self.ny}")
        for name in ("x0", "x1", "y0", "y1"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be a finite number, got {getattr(self, name)!r}")
        if not (self.x1 > self.x0 and self.y1 > self.y0):
            raise ValueError("domain bounds must satisfy x1 > x0 and y1 > y0")

    @property
    def hx(self) -> float:
        return (self.x1 - self.x0) / self.nx

    @property
    def hy(self) -> float:
        return (self.y1 - self.y0) / self.ny

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nx, self.ny)

    @property
    def cell_area(self) -> float:
        return self.hx * self.hy

    @property
    def area(self) -> float:
        return (self.x1 - self.x0) * (self.y1 - self.y0)

    def xs(self) -> np.ndarray:
        return self.x0 + (np.arange(self.nx) + 0.5) * self.hx

    def ys(self) -> np.ndarray:
        return self.y0 + (np.arange(self.ny) + 0.5) * self.hy

    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        """Cell-center coordinate arrays broadcast to the field shape."""
        return np.meshgrid(self.xs(), self.ys(), indexing="ij")

    def zeros(self) -> np.ndarray:
        return np.zeros(self.shape)

    def full(self, value: float) -> np.ndarray:
        return np.full(self.shape, float(value))

    def check(self, *fields: np.ndarray) -> None:
        """Reject fields that do not live on this grid."""
        for f in fields:
            if f.shape != self.shape:
                raise ValueError(f"field shape {f.shape} not conformable with grid {self.shape}")


def gradient(grid: GridSpec, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Centered-difference gradient with even ghost reflection at the walls."""
    grid.check(f)
    gx = np.empty(grid.shape)
    np.subtract(f[2:, :], f[:-2, :], out=gx[1:-1, :])
    gx[0, :] = f[1, :] - f[0, :]
    gx[-1, :] = f[-1, :] - f[-2, :]
    gx /= 2.0 * grid.hx
    gy = np.empty(grid.shape)
    np.subtract(f.ravel()[2:], f.ravel()[:-2], out=gy.ravel()[1:-1])
    gy[:, 0] = f[:, 1] - f[:, 0]
    gy[:, -1] = f[:, -1] - f[:, -2]
    gy /= 2.0 * grid.hy
    return gx, gy


def _face_fluxes(
    f: np.ndarray, w: np.ndarray | None, h: float, flux: np.ndarray, diff: np.ndarray | None,
) -> np.ndarray:
    """Fluxes w*(f[1:] - f[:-1])/h along the first axis into ``flux``, w
    averaged onto faces; ``diff`` holds the differences of f when w is given."""
    if w is None:
        np.subtract(f[1:], f[:-1], out=flux)
    else:
        np.add(w[1:], w[:-1], out=flux)
        flux *= 0.5
        flux *= np.subtract(f[1:], f[:-1], out=diff)
    flux /= h
    return flux


def _flux_divergence(grid: GridSpec, w: np.ndarray | None, f: np.ndarray) -> np.ndarray:
    """Divergence of the face fluxes of w*grad(f), zero through the walls.

    Two sweeps over row blocks, each through one buffer of a block's face
    fluxes.  The first takes the x-fluxes of the faces a block touches, one
    face row past either side, and reduces them into the block's rows of the
    result; the differences of a weighted f are held meanwhile in those rows
    and the next one, which the next block writes.  The second takes the
    y-fluxes of a block as one flat run and differences them into its rows;
    the wall columns, which the straddling y-entries reach, are written last.
    The y-fluxes of a weighted f hold the differences of f and then of the
    fluxes in the block's own run of w, which no later block reads; those of
    the Laplacian are differenced in place."""
    nx, ny = grid.shape
    rows = min(nx, block_rows(ny * 8, 4))
    out = np.empty(grid.shape)
    buf = np.empty(max(min(rows + 1, nx - 1) * ny, rows * ny - 1))
    for i in range(0, nx, rows):
        j = min(i + rows, nx)
        a, b = max(i - 1, 0), min(j, nx - 1)  # face k lies between rows k and k + 1
        fx = _face_fluxes(f[a:b + 1], None if w is None else w[a:b + 1], grid.hx,
                          buf[:(b - a) * ny].reshape(b - a, ny), out[i:i + b - a])
        lo, hi = max(i, 1), min(j, nx - 1)
        np.subtract(fx[lo - a:hi - a], fx[lo - a - 1:hi - a - 1], out=out[lo:hi])
        if i == 0:
            out[0, :] = fx[0, :]
        if j == nx:
            out[-1, :] = -fx[-1, :]
        out[i:j] /= grid.hx
    f_flat, out_flat = f.ravel(), out.ravel()
    w_flat = None if w is None else w.ravel()
    for i in range(0, nx, rows):
        s, e = i * ny, min(i + rows, nx) * ny
        diff = None if w is None else w_flat[s:e - 1]
        fy = _face_fluxes(f_flat[s:e], None if w is None else w_flat[s:e], grid.hy,
                          buf[:e - s - 1], diff)
        first = out[i:i + rows, 0] + fy[::ny] / grid.hy
        last = out[i:i + rows, -1] - fy[ny - 2::ny] / grid.hy
        dy = np.subtract(fy[1:], fy[:-1], out=fy[:-1] if diff is None else diff[:-1])
        dy /= grid.hy
        out_flat[s + 1:e - 1] += dy
        out[i:i + rows, 0], out[i:i + rows, -1] = first, last
    return out


def laplacian(grid: GridSpec, f: np.ndarray) -> np.ndarray:
    """Compact 5-point Neumann Laplacian (face fluxes, zero at the walls)."""
    grid.check(f)
    return _flux_divergence(grid, None, f)


def face_flux_divergence(grid: GridSpec, w: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Divergence of w*grad(f) with face-centered fluxes and no-flux walls.

    ``w`` is a cell-centered coefficient, averaged onto faces.  With w == 1
    this reduces bit-for-bit to :func:`laplacian`.  w is scratch: the call
    overwrites it with differences, so pass a copy to keep its values.
    """
    grid.check(w, f)
    return _flux_divergence(grid, w, f)


def inner(grid: GridSpec, f: np.ndarray, g: np.ndarray) -> float:
    """Midpoint-rule L2 inner product."""
    grid.check(f, g)
    return float(np.dot(f.ravel(), g.ravel())) * grid.cell_area


def norm_sq(grid: GridSpec, f: np.ndarray) -> float:
    return inner(grid, f, f)


def integrate(grid: GridSpec, f: np.ndarray) -> float:
    """Midpoint-rule integral over the domain."""
    grid.check(f)
    return float(np.sum(f)) * grid.cell_area


def grad_inner(grid: GridSpec, f: np.ndarray, g: np.ndarray) -> float:
    """Dirichlet form <grad f, grad g> built from face differences.

    Satisfies inner(laplacian(f), g) == -grad_inner(f, g) to roundoff, and
    grad_inner(f, f) >= 0.
    """
    grid.check(f, g)
    sx = _diff_dot(f, g, 0)
    sy = _diff_dot(f, g, 1)
    return sx * grid.hy / grid.hx + sy * grid.hx / grid.hy


def _diff_dot(f: np.ndarray, g: np.ndarray, axis: int) -> float:
    """Sum of the products of the face differences of f and g along ``axis``;
    the differences of one direction die before the next are taken."""
    fd = np.diff(f, axis=axis).ravel()
    return float(np.dot(fd, fd if g is f else np.diff(g, axis=axis).ravel()))


def grad_norm_sq(grid: GridSpec, f: np.ndarray) -> float:
    return grad_inner(grid, f, f)
