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
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.fft import dctn, idctn

from .grid import GridSpec, laplacian

__all__ = [
    "CG_TOL", "SolverError", "helmholtz_solve", "variable_helmholtz_solve", "solve_shifted",
]

CG_TOL = 1e-12  # relative residual at which PCG stops


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
    coef = dctn(rhs, type=2, norm="ortho")
    coef /= div
    # coef is a fresh array, never the caller's rhs, so it may be overwritten
    return idctn(coef, type=2, norm="ortho", overwrite_x=True)


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
