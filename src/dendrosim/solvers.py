"""Fast elliptic solvers for (a*I - b*Laplacian) u = rhs with Neumann walls.

The constant-coefficient solve diagonalizes the compact Neumann Laplacian
in the DCT-II cosine basis, which is exact up to roundoff.  It runs in
float64, the dtype of every field of a run: it allocates the result and
one float64 workspace whose rows are padded by one 64-byte cache line,
converts a real rhs of another dtype as it copies it into the workspace,
refuses a complex one, and runs both transforms in place in the
workspace.  A row of 512 doubles is 4 KiB, so without the padding every
element of a column maps to one cache set, and the transform along axis 0
of a 512^2 field takes about twice as long.  The divisor a - b*lambda never exists as a full
field: only the two 1-D eigenvalue vectors are cached per grid, and the
divisor is built from them as (lx_i + ly_j)*(-b) + a, the same rounded
sums a cached 2-D lambda would hold, a few padded rows at a time (blocks
sized like the row blocks of ``grid.row_blocks``), in the result's memory
before the result is written.  Every ufunc there runs on contiguous
operands, because numpy buffers a ufunc over a strided view or a
broadcast operand (about 64 KiB per operand).  The
variable coefficient solve (c(x)*I - b*Laplacian) runs conjugate gradients
preconditioned with the constant solve at mean(c): the coefficients that
arise in the time steppers vary mildly about their mean, so the
preconditioned spectrum is tightly clustered.

PCG stops at a relative residual of ``CG_TOL`` = 1e-12, within
``CG_MAXIT`` = 500 iterations; both are read at each call, and no caller
passes another tolerance.  At 1e-10 the
accumulated solve error of a variable-mobility bdf2 run floors its phase
error near 4e-8 and hides the second order of the scheme on a desk-scale
step ladder.

The cosine transforms are scipy's compiled pocketfft ``dct``, loaded from
its file (``scipy/fft/_pocketfft/pypocketfft<suffix>``) and called with
the arguments ``scipy.fft.dctn``/``idctn(type=2, norm="ortho")`` pass it
for a float64 array, so every coefficient is bit for bit what
``scipy.fft`` returns; ``dctn``/``idctn`` take float64 arrays only.
Importing ``scipy.fft`` would also import ``scipy.special`` (for its
FFTLog transforms), which no solve uses: with scipy 1.17 on x86-64 Linux
that is about 25 MiB of resident memory and 0.35 s per process.  Where that file
is missing, fails to load, has no ``dct``, or has one that does not take
[1, 0] to [1/sqrt(2), 1/sqrt(2)] when called with those arguments, the
public ``scipy.fft`` functions are bound instead, with the same
arguments; the choice is made once, at import.  The extension is called
past ``scipy.fft``'s backend dispatch, so ``scipy.fft.set_backend`` and
``set_workers`` no longer reach the solves: they run on one thread.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
from functools import lru_cache, partial

import numpy as np

from .grid import GridSpec, block_rows, laplacian

__all__ = [
    "CG_TOL", "CG_MAXIT", "SolverError", "NonFiniteSolveError", "helmholtz_solve",
    "variable_helmholtz_solve", "solve_shifted",
]

CG_TOL = 1e-12  # relative residual at which PCG stops
CG_MAXIT = 500  # PCG iterations after which a solve fails with SolverError
_LINE = 64  # bytes of a cache line: the solve pads each workspace row by one


def _pocketfft_dct():
    """The ``dct`` of scipy's pocketfft extension, loaded without running
    ``scipy.fft``; None when the file is missing, fails to load, has none or
    has one that fails :func:`_transforms_like_dctn`."""
    scipy = importlib.util.find_spec("scipy")
    name = "scipy.fft._pocketfft.pypocketfft"
    for directory in (scipy and scipy.submodule_search_locations) or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(directory, "fft", "_pocketfft", "pypocketfft" + suffix)
            if not os.path.isfile(path):
                continue
            loader = importlib.machinery.ExtensionFileLoader(name, path)
            try:
                module = importlib.util.module_from_spec(
                    importlib.util.spec_from_file_location(name, path, loader=loader))
                loader.exec_module(module)
            except ImportError:
                return None
            dct = getattr(module, "dct", None)
            return dct if dct is not None and _transforms_like_dctn(dct) else None
    return None


def _transforms_like_dctn(dct) -> bool:
    """Whether ``dct``, called with the arguments ``dctn`` passes it, takes
    [1, 0] to its orthonormal DCT-II [1/sqrt(2), 1/sqrt(2)].  The extension
    is private to scipy: a release that changes its arguments or their
    meaning selects the ``scipy.fft`` fallback here, at import, instead of
    failing every solve."""
    x = np.array([1.0, 0.0])
    try:
        y = np.asarray(dct(x, 2, range(x.ndim), 1, x, 1, None), dtype=float)
        return y.shape == (2,) and bool(np.all(np.abs(y - math.sqrt(0.5)) <= 1e-15))
    except Exception:
        return False


_dct = _pocketfft_dct()

if _dct is not None:
    def dctn(x: np.ndarray) -> np.ndarray:
        """Orthonormal DCT-II over every axis of a float64 array,
        ``scipy.fft.dctn(x, type=2, norm="ortho")``, written into x itself."""
        return _dct(x, 2, range(x.ndim), 1, x, 1, None)

    def idctn(x: np.ndarray) -> np.ndarray:
        """Inverse of ``dctn``, written into x itself."""
        return _dct(x, 3, range(x.ndim), 1, x, 1, None)
else:
    from scipy import fft as _fft

    dctn = partial(_fft.dctn, type=2, norm="ortho", overwrite_x=True)
    idctn = partial(_fft.idctn, type=2, norm="ortho", overwrite_x=True)


class SolverError(RuntimeError):
    """Iterative solve failed to reach tolerance; carries the final residual."""

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class NonFiniteSolveError(ValueError, FloatingPointError):
    """A solve was handed a non-finite coefficient or right-hand side: the
    run feeding it has broken down numerically."""


@lru_cache(maxsize=32)
def _neumann_eigenvalues(nx: int, ny: int, hx: float, hy: float) -> tuple[np.ndarray, np.ndarray]:
    """The 1-D eigenvalues of the Neumann Laplacian along x (a column) and y."""
    lx = -(2.0 / hx**2) * (1.0 - np.cos(np.pi * np.arange(nx) / nx))
    ly = -(2.0 / hy**2) * (1.0 - np.cos(np.pi * np.arange(ny) / ny))
    lx.flags.writeable = ly.flags.writeable = False  # shared by every solve on the grid
    return lx[:, None], ly


def helmholtz_solve(grid: GridSpec, a: float, b: float, rhs: np.ndarray) -> np.ndarray:
    """Solve (a*I - b*Laplacian) u = rhs exactly via 2D cosine transforms.

    Requires a finite a > 0 (keeps the constant mode invertible), a finite
    b >= 0 and a real rhs; a non-finite a, b or rhs raises
    NonFiniteSolveError.  The solve runs in float64: a rhs of another real
    dtype is converted as it is copied into the workspace.
    """
    grid.check(rhs)
    if np.iscomplexobj(rhs):
        raise ValueError(f"helmholtz_solve needs a real rhs, got dtype {rhs.dtype}")
    if not (np.isfinite(a) and np.isfinite(b)):
        raise NonFiniteSolveError(f"helmholtz_solve needs finite a and b, got a={a}, b={b}")
    if not a > 0.0:
        raise ValueError(f"helmholtz_solve needs a > 0, got a={a}")
    if b < 0.0:
        raise ValueError(f"helmholtz_solve needs b >= 0, got b={b}")
    if not np.all(np.isfinite(rhs)):
        raise NonFiniteSolveError("helmholtz_solve: rhs contains non-finite values")
    if b == 0.0:
        return np.divide(rhs, a, dtype=np.float64)
    nx, ny = grid.shape
    # u's memory holds the divisor blocks until the result is copied into it
    u = np.empty((nx, ny))
    width = ny + _LINE // 8  # float64 rows padded by one cache line
    work = np.empty((nx, width))
    coef = work[:, :ny]
    coef[...] = rhs
    work[:, ny:] = 0.0  # the padding is divided along with the coefficients
    dctn(coef)
    lx, ly = _neumann_eigenvalues(nx, ny, grid.hx, grid.hy)
    # divisor rows (lx_i + ly_j)*(-b) + a over the padded width (ly_j = 0 in
    # the padding), a row block at a time, in two buffers that fill at most
    # the bytes of u and, with the workspace rows they divide, about one row
    # block's budget: every ufunc below runs on contiguous operands
    row_bytes = width * lx.itemsize
    blocks = -(-nx // max(1, min(block_rows(row_bytes, 3), u.nbytes // (2 * row_bytes))))
    rows = -(-nx // blocks)
    block = rows * width * lx.itemsize
    scratch = u.reshape(-1).view(np.uint8)
    if scratch.size < 2 * block:  # grids of a few cells per row
        scratch = np.empty(2 * block, np.uint8)
    div, ly_rows = scratch[:2 * block].view(lx.dtype).reshape(2, rows, width)
    ly_rows[:, :ny] = ly
    ly_rows[:, ny:] = 0.0
    flat = work.reshape(-1)
    for i in range(0, nx, rows):
        d = div[:min(rows, nx - i)]
        d[...] = lx[i:i + rows]
        d += ly_rows[:len(d)]
        d *= -b
        d += a
        flat[i * width:(i + len(d)) * width] /= d.reshape(-1)
    idctn(coef)
    u[...] = coef
    return u


def variable_helmholtz_solve(
    grid: GridSpec, c: np.ndarray, b: float, rhs: np.ndarray
) -> tuple[np.ndarray, int]:
    """Solve (c(x)*I - b*Laplacian) u = rhs by preconditioned CG.

    Returns (u, iterations).  Converged when ||residual|| <= CG_TOL * ||rhs||;
    raises SolverError past CG_MAXIT iterations.  Requires a finite c > 0
    everywhere and a finite b >= 0; a non-finite c, b or rhs raises
    NonFiniteSolveError.
    """
    grid.check(c, rhs)
    if not np.isfinite(b):
        raise NonFiniteSolveError(f"variable_helmholtz_solve needs a finite b, got b={b}")
    if not np.all(np.isfinite(c)):
        raise NonFiniteSolveError("variable_helmholtz_solve needs a finite c everywhere")
    if not np.all(c > 0.0):
        raise ValueError("variable_helmholtz_solve needs c > 0 everywhere")
    if b < 0.0:
        raise ValueError(f"variable_helmholtz_solve needs b >= 0, got b={b}")
    if not np.all(np.isfinite(rhs)):
        raise NonFiniteSolveError("variable_helmholtz_solve: rhs contains non-finite values")

    c_mean = float(np.mean(c))  # of the preconditioner's constant solve
    rhs_norm = float(np.linalg.norm(rhs))
    if rhs_norm == 0.0:
        return np.zeros_like(rhs), 0

    x = np.zeros_like(rhs)
    r = rhs.copy()
    z = helmholtz_solve(grid, c_mean, b, r)
    p = z.copy()
    rz = float(np.vdot(r, z))
    res = rhs_norm
    for it in range(1, CG_MAXIT + 1):
        ap = c * p - b * laplacian(grid, p)
        alpha = rz / float(np.vdot(p, ap))
        x += alpha * p
        r -= alpha * ap
        res = float(np.linalg.norm(r))
        if res <= CG_TOL * rhs_norm:
            return x, it
        z = helmholtz_solve(grid, c_mean, b, r)
        rz_new = float(np.vdot(r, z))
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise SolverError(
        f"PCG did not reach tol={CG_TOL} in {CG_MAXIT} iterations "
        f"(relative residual {res / rhs_norm:.3e})",
        residual=res / rhs_norm,
        iterations=CG_MAXIT,
    )


def solve_shifted(
    grid: GridSpec, coeff: float | np.ndarray, b: float, rhs: np.ndarray
) -> tuple[np.ndarray, int]:
    """Solve (coeff*I - b*Laplacian) u = rhs; coeff may be a scalar or a field.

    Scalar coefficients take the exact cosine-transform path (0 iterations),
    fields go through preconditioned CG.
    """
    if np.isscalar(coeff):
        return helmholtz_solve(grid, float(coeff), b, rhs), 0
    return variable_helmholtz_solve(grid, np.asarray(coeff), b, rhs)
