"""Fast elliptic solvers for (a*I - b*Laplacian) u = rhs with Neumann walls.

The constant-coefficient solve diagonalizes the compact Neumann Laplacian
in the DCT-II cosine basis, which is exact up to roundoff.  It allocates
two full fields: the cosine coefficients, which the in-place inverse
transform turns into the result, and the divisor a - b*lambda.  Only the
two 1-D eigenvalue vectors are cached per grid: the divisor is built from
them as (lx_i + ly_j)*(-b) + a, the same rounded sums a cached 2-D lambda
would hold, and neither it nor a 2-D lambda stays resident.  The variable
coefficient solve (c(x)*I - b*Laplacian) runs conjugate gradients
preconditioned with the constant solve at mean(c): the coefficients that
arise in the time steppers vary mildly about their mean, so the
preconditioned spectrum is tightly clustered.

PCG stops at a relative residual of ``CG_TOL`` = 1e-12, within 500
iterations; the steppers take no other tolerance.  At 1e-10 the
accumulated solve error of a variable-mobility bdf2 run floors its phase
error near 4e-8 and hides the second order of the scheme on a desk-scale
step ladder.

The cosine transforms are scipy's compiled pocketfft ``dct``, loaded from
its file (``scipy/fft/_pocketfft/pypocketfft<suffix>``) and called with
the arguments ``scipy.fft.dctn``/``idctn(type=2, norm="ortho")`` pass it,
so every coefficient is bit for bit what ``scipy.fft`` returns.  Importing
``scipy.fft`` would also import ``scipy.special`` (for its FFTLog
transforms), which no solve uses: with scipy 1.17 on x86-64 Linux that is
about 25 MiB of resident memory and 0.35 s per process.  Where that file
is missing, fails to load or has no ``dct``, the public ``scipy.fft``
functions are bound instead, with the same arguments; the choice is made
once, at import.  The extension is called past ``scipy.fft``'s backend
dispatch, so ``scipy.fft.set_backend`` and ``set_workers`` no longer
reach the solves: they run on one thread.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
from functools import lru_cache, partial

import numpy as np

from .grid import GridSpec, laplacian

__all__ = [
    "CG_TOL", "SolverError", "helmholtz_solve", "variable_helmholtz_solve", "solve_shifted",
]

CG_TOL = 1e-12  # relative residual at which PCG stops


def _pocketfft_dct():
    """The ``dct`` of scipy's pocketfft extension, loaded without running
    ``scipy.fft``; None when the file is missing, fails to load or has none."""
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
            return getattr(module, "dct", None)
    return None


def _as_float(x) -> np.ndarray:
    """x as scipy.fft's transforms take it: float16 -> float32, any other
    non-float dtype -> float64, native byte order, aligned; else x itself."""
    x = np.asarray(x)
    if x.dtype == np.float16:
        return x.astype(np.float32)
    if x.dtype.kind not in "fc":
        return x.astype(np.float64)
    return np.require(x, x.dtype.newbyteorder("="), "A")


_dct = _pocketfft_dct()

if _dct is not None:
    def dctn(x: np.ndarray) -> np.ndarray:
        """Orthonormal DCT-II over every axis: ``scipy.fft.dctn(x, type=2, norm="ortho")``."""
        x = _as_float(x)
        if x.dtype.kind == "c":  # real and imaginary parts apart, as scipy.fft does
            out = np.empty_like(x)
            out.real, out.imag = dctn(x.real), dctn(x.imag)
            return out
        return _dct(x, 2, range(x.ndim), 1, None, 1, None)

    def idctn(x: np.ndarray) -> np.ndarray:
        """Inverse of ``dctn``, written into x itself when x is a float array."""
        x = _as_float(x)
        if x.dtype.kind == "c":  # each part in place
            idctn(x.real)
            idctn(x.imag)
            return x
        return _dct(x, 3, range(x.ndim), 1, x, 1, None)
else:
    from scipy import fft as _fft

    dctn = partial(_fft.dctn, type=2, norm="ortho")
    idctn = partial(_fft.idctn, type=2, norm="ortho", overwrite_x=True)


class SolverError(RuntimeError):
    """Iterative solve failed to reach tolerance; carries the final residual."""

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


@lru_cache(maxsize=32)
def _neumann_eigenvalues(nx: int, ny: int, hx: float, hy: float) -> tuple[np.ndarray, np.ndarray]:
    """The 1-D eigenvalues of the Neumann Laplacian along x (a column) and y."""
    lx = -(2.0 / hx**2) * (1.0 - np.cos(np.pi * np.arange(nx) / nx))
    ly = -(2.0 / hy**2) * (1.0 - np.cos(np.pi * np.arange(ny) / ny))
    lx.flags.writeable = ly.flags.writeable = False  # shared by every solve on the grid
    return lx[:, None], ly


def helmholtz_solve(grid: GridSpec, a: float, b: float, rhs: np.ndarray) -> np.ndarray:
    """Solve (a*I - b*Laplacian) u = rhs exactly via 2D cosine transforms.

    Requires a > 0 (keeps the constant mode invertible) and b >= 0.
    """
    grid.check(rhs)
    if not a > 0.0:
        raise ValueError(f"helmholtz_solve needs a > 0, got a={a}")
    if b < 0.0:
        raise ValueError(f"helmholtz_solve needs b >= 0, got b={b}")
    if not np.all(np.isfinite(rhs)):
        raise ValueError("helmholtz_solve: rhs contains non-finite values")
    if b == 0.0:
        return rhs / a
    div = np.add(*_neumann_eigenvalues(grid.nx, grid.ny, grid.hx, grid.hy))  # lx_i + ly_j
    div *= -b
    div += a
    coef = dctn(rhs)
    coef /= div
    # coef is a fresh array, never the caller's rhs, so it may be overwritten
    return idctn(coef)


def variable_helmholtz_solve(
    grid: GridSpec,
    c: np.ndarray,
    b: float,
    rhs: np.ndarray,
    tol: float = CG_TOL,
    maxit: int = 500,
) -> tuple[np.ndarray, int]:
    """Solve (c(x)*I - b*Laplacian) u = rhs by preconditioned CG.

    Returns (u, iterations).  Converged when ||residual|| <= tol * ||rhs||;
    raises SolverError past maxit.  Requires min(c) > 0 and b >= 0.
    """
    grid.check(c, rhs)
    if not np.all(c > 0.0):
        raise ValueError("variable_helmholtz_solve needs c > 0 everywhere")
    if b < 0.0:
        raise ValueError(f"variable_helmholtz_solve needs b >= 0, got b={b}")
    if not np.all(np.isfinite(rhs)):
        raise ValueError("variable_helmholtz_solve: rhs contains non-finite values")

    c_mean = float(np.mean(c))

    def apply_op(u: np.ndarray) -> np.ndarray:
        return c * u - b * laplacian(grid, u)

    def precondition(r: np.ndarray) -> np.ndarray:
        return helmholtz_solve(grid, c_mean, b, r)

    rhs_norm = float(np.linalg.norm(rhs))
    if rhs_norm == 0.0:
        return np.zeros_like(rhs), 0

    x = np.zeros_like(rhs)
    r = rhs.copy()
    z = precondition(r)
    p = z.copy()
    rz = float(np.vdot(r, z))
    res = rhs_norm
    for it in range(1, maxit + 1):
        ap = apply_op(p)
        alpha = rz / float(np.vdot(p, ap))
        x += alpha * p
        r -= alpha * ap
        res = float(np.linalg.norm(r))
        if res <= tol * rhs_norm:
            return x, it
        z = precondition(r)
        rz_new = float(np.vdot(r, z))
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise SolverError(
        f"PCG did not reach tol={tol} in {maxit} iterations "
        f"(relative residual {res / rhs_norm:.3e})",
        residual=res / rhs_norm,
        iterations=maxit,
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
