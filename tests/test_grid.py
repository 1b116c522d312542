import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dendrosim.grid import (
    GridSpec,
    face_flux_divergence,
    grad_inner,
    grad_norm_sq,
    gradient,
    inner,
    integrate,
    laplacian,
    norm_sq,
)
from dendrosim.model import _subtract_divergence

from conftest import random_field


class TestGridSpec:
    def test_spacings(self):
        g = GridSpec(8, 4, 0.0, 2.0, -1.0, 1.0)
        assert g.hx == pytest.approx(0.25)
        assert g.hy == pytest.approx(0.5)
        assert g.xs()[0] == pytest.approx(.125)
        assert g.area == pytest.approx(4.0)

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            GridSpec(3, 8)

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            GridSpec(8, 8, x0=1.0, x1=-1.0)

    @pytest.mark.parametrize("name", ["x0", "x1", "y0", "y1"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_rejects_nonfinite_bounds(self, name, value):
        bounds = dict(x0=0.0, x1=1.0, y0=0.0, y1=1.0)
        bounds[name] = value
        with pytest.raises(ValueError, match=f"{name} must be a finite number, got {value}"):
            GridSpec(8, 8, **bounds)

    def test_conformability(self, grid8):
        with pytest.raises(ValueError):
            inner(grid8, np.zeros((4, 4)), np.zeros((4, 4)))


class TestGradient:
    def test_constant_field(self, grid8):
        gx, gy = gradient(grid8, grid8.full(3.7))
        assert np.all(gx == 0.0)
        assert np.all(gy == 0.0)

    def test_linear_field_stencil(self):
        # hand-evaluated 3-point stencil with even ghosts on 6x6: slope 1 at
        # interior cells, half-slope at the wall cells
        g = GridSpec(6, 6)
        x, _ = g.mesh()
        gx, gy = gradient(g, x)
        assert gx[1:-1, :] == pytest.approx(1.0, abs=1e-13)
        assert gx[0, :] == pytest.approx(0.5, abs=1e-13)
        assert gx[-1, :] == pytest.approx(0.5, abs=1e-13)
        assert gy == pytest.approx(0.0, abs=1e-13)

    def test_second_order_interior(self):
        # halving h quarters the interior error on a smooth Neumann-compatible field
        errs = []
        for n in (128, 256):
            g = GridSpec(n, n)
            x, y = g.mesh()
            f = np.cos(np.pi * x) * np.cos(np.pi * y)
            gx, _ = gradient(g, f)
            exact = -np.pi * np.sin(np.pi * x) * np.cos(np.pi * y)
            errs.append(np.max(np.abs((gx - exact)[1:-1, 1:-1])))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)


class TestDivergence:
    def test_constant_vector_interior(self, grid8):
        # interior cells see zero; wall cells feel the clamped normal flux
        vx, vy = grid8.full(1.5), grid8.full(-2.5)
        d = divergence(grid8, vx, vy)
        assert d[1:-1, 1:-1] == pytest.approx(0.0, abs=1e-14)

    def test_adjoint_of_gradient(self, grid8):
        # summation by parts: <div v, f> = -<v, grad f>
        f = random_field(grid8, 1)
        vx = random_field(grid8, 2)
        vy = random_field(grid8, 3)
        gx, gy = gradient(grid8, f)
        lhs = inner(grid8, divergence(grid8, vx, vy), f)
        rhs = -(inner(grid8, vx, gx) + inner(grid8, vy, gy))
        assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, abs(rhs)))


class TestLaplacian:
    def test_constant_field(self, grid8):
        assert laplacian(grid8, grid8.full(2.0)) == pytest.approx(0.0, abs=0.0)

    @pytest.mark.parametrize("k,l", [(1, 0), (0, 2), (3, 5), (7, 7)])
    def test_cosine_eigenmode(self, k, l):
        g = GridSpec(8, 8)
        x, y = g.mesh()
        f = np.cos(k * np.pi * (x - g.x0) / (g.x1 - g.x0)) * \
            np.cos(l * np.pi * (y - g.y0) / (g.y1 - g.y0))
        lam = -(2.0 / g.hx**2) * (1 - np.cos(k * np.pi / g.nx)) \
              - (2.0 / g.hy**2) * (1 - np.cos(l * np.pi / g.ny))
        assert laplacian(g, f) == pytest.approx(lam * f, abs=1e-11 * max(1.0, abs(lam)))

    def test_dense_row_sums_vanish(self):
        # Neumann operator annihilates constants: every row of the assembled
        # matrix sums to zero
        g = GridSpec(4, 4)
        rows = []
        for idx in range(16):
            e = np.zeros(16)
            e[idx] = 1.0
            rows.append(laplacian(g, e.reshape(4, 4)).ravel())
        dense = np.array(rows).T
        assert np.abs(dense.sum(axis=1)).max() < 1e-12 / g.hx**2
        assert np.abs(dense - dense.T).max() == 0.0


class TestOperatorConsistency:
    def test_div_grad_second_order_consistent_with_laplacian(self):
        # the collocated composition is the wide-stencil operator: it differs
        # from the compact laplacian pointwise but converges to it at O(h^2)
        # on smooth fields (the compact stencil backs all implicit solves)
        errs = []
        for n in (32, 64):
            g = GridSpec(n, n)
            x, y = g.mesh()
            f = np.cos(np.pi * x) * np.cos(2 * np.pi * y)
            wide = divergence(g, *gradient(g, f))
            compact = laplacian(g, f)
            errs.append(np.max(np.abs((wide - compact)[2:-2, 2:-2])))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)


class TestInnerProducts:
    def test_unit_inner_is_area(self):
        g = GridSpec(64, 64)
        assert inner(g, g.full(1.0), g.full(1.0)) == pytest.approx(4.0, abs=1e-12)

    def test_cosine_squared_integral(self):
        g = GridSpec(128, 128)
        x, _ = g.mesh()
        f = np.cos(np.pi * x)
        assert inner(g, f, f) == pytest.approx(2.0, abs=1e-6)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_positive_definite(self, seed):
        g = GridSpec(8, 8)
        f = random_field(g, seed)
        assert norm_sq(g, f) >= 0.0
        assert norm_sq(g, g.zeros()) == 0.0

    def test_integrate_matches_inner_with_one(self, grid8):
        f = random_field(grid8, 11)
        assert integrate(grid8, f) == pytest.approx(inner(grid8, f, grid8.full(1.0)))


class TestDirichletForm:
    def test_pairs_with_laplacian(self, grid8):
        # <Lap f, g> == -grad_inner(f, g) to roundoff: the summation-by-parts
        # identity behind the discrete energy laws
        f = random_field(grid8, 4)
        g_ = random_field(grid8, 5)
        lhs = inner(grid8, laplacian(grid8, f), g_)
        rhs = -grad_inner(grid8, f, g_)
        assert lhs == pytest.approx(rhs, abs=1e-11 * max(1.0, abs(rhs)))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_nonnegative(self, seed):
        g = GridSpec(6, 10)
        assert grad_norm_sq(g, random_field(g, seed)) >= 0.0

    def test_kills_constants(self, grid8):
        assert grad_norm_sq(grid8, grid8.full(5.0)) == 0.0


class TestLinearity:
    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(0, 2**31 - 1),
        st.floats(-10, 10, allow_nan=False),
        st.floats(-10, 10, allow_nan=False),
    )
    def test_operators_linear(self, seed, alpha, beta):
        g = GridSpec(8, 6)
        f1 = random_field(g, seed)
        f2 = random_field(g, seed + 1)
        combo = alpha * f1 + beta * f2
        scale = max(1.0, abs(alpha), abs(beta))
        for op in (laplacian,):
            lhs = op(g, combo)
            rhs = alpha * op(g, f1) + beta * op(g, f2)
            assert lhs == pytest.approx(rhs, abs=1e-9 * scale)
        gx, gy = gradient(g, combo)
        gx1, gy1 = gradient(g, f1)
        gx2, gy2 = gradient(g, f2)
        assert gx == pytest.approx(alpha * gx1 + beta * gx2, abs=1e-10 * scale)
        assert gy == pytest.approx(alpha * gy1 + beta * gy2, abs=1e-10 * scale)


# Reference implementations that materialise the ghost cells and the zero
# wall faces (the padded formulation the operators above must reproduce).


def _ref_face_diff_x(grid, f):
    d = np.zeros((grid.nx + 1, grid.ny))
    d[1:-1, :] = f[1:, :] - f[:-1, :]
    return d


def _ref_face_diff_y(grid, f):
    d = np.zeros((grid.nx, grid.ny + 1))
    d[:, 1:-1] = f[:, 1:] - f[:, :-1]
    return d


def _ref_gradient(grid, f):
    px = np.pad(f, ((1, 1), (0, 0)), mode="edge")
    py = np.pad(f, ((0, 0), (1, 1)), mode="edge")
    gx = (px[2:, :] - px[:-2, :]) / (2.0 * grid.hx)
    gy = (py[:, 2:] - py[:, :-2]) / (2.0 * grid.hy)
    return gx, gy


def divergence(grid, vx, vy):
    """Centered-difference divergence with odd (zero normal flux) ghosts, the
    oracle of ``model._subtract_divergence`` (and of ``g_residual`` in
    test_model.py); no module of the package needs the field itself.

    Exactly the negative adjoint of ``gradient``:
    inner(divergence(v), f) == -(inner(vx, gx) + inner(vy, gy)).
    """
    grid.check(vx, vy)
    dx = np.empty(grid.shape)
    np.subtract(vx[2:, :], vx[:-2, :], out=dx[1:-1, :])
    dx[0, :] = vx[1, :] + vx[0, :]
    dx[-1, :] = -vx[-1, :] - vx[-2, :]
    dx /= 2.0 * grid.hx
    dy = np.empty(grid.shape)
    np.subtract(vy.ravel()[2:], vy.ravel()[:-2], out=dy.ravel()[1:-1])
    dy[:, 0] = vy[:, 1] + vy[:, 0]
    dy[:, -1] = -vy[:, -1] - vy[:, -2]
    dy /= 2.0 * grid.hy
    dx += dy
    return dx


def _ref_divergence(grid, vx, vy):
    px = np.concatenate([-vx[:1, :], vx, -vx[-1:, :]], axis=0)
    py = np.concatenate([-vy[:, :1], vy, -vy[:, -1:]], axis=1)
    dx = (px[2:, :] - px[:-2, :]) / (2.0 * grid.hx)
    dy = (py[:, 2:] - py[:, :-2]) / (2.0 * grid.hy)
    return dx + dy


def _ref_laplacian(grid, f):
    fx = _ref_face_diff_x(grid, f) / grid.hx
    fy = _ref_face_diff_y(grid, f) / grid.hy
    return (fx[1:, :] - fx[:-1, :]) / grid.hx + (fy[:, 1:] - fy[:, :-1]) / grid.hy


def _ref_face_flux_divergence(grid, w, f):
    wx = np.ones((grid.nx + 1, grid.ny))
    wx[1:-1, :] = 0.5 * (w[1:, :] + w[:-1, :])
    wy = np.ones((grid.nx, grid.ny + 1))
    wy[:, 1:-1] = 0.5 * (w[:, 1:] + w[:, :-1])
    fx = wx * _ref_face_diff_x(grid, f) / grid.hx
    fy = wy * _ref_face_diff_y(grid, f) / grid.hy
    return (fx[1:, :] - fx[:-1, :]) / grid.hx + (fy[:, 1:] - fy[:, :-1]) / grid.hy


def _ref_grad_inner(grid, f, g):
    sx = np.dot(_ref_face_diff_x(grid, f).ravel(), _ref_face_diff_x(grid, g).ravel())
    sy = np.dot(_ref_face_diff_y(grid, f).ravel(), _ref_face_diff_y(grid, g).ravel())
    return float(sx) * grid.hy / grid.hx + float(sy) * grid.hx / grid.hy


# hx != hy on every grid, odd and even sizes in both directions
ORACLE_GRIDS = [GridSpec(nx, ny, 0.0, 3.0, -1.0, 0.5)
                for nx, ny in ((8, 8), (8, 5), (9, 8), (33, 47), (128, 128))]
ORACLE_IDS = [f"{g.nx}x{g.ny}" for g in ORACLE_GRIDS]


@pytest.mark.parametrize("g", ORACLE_GRIDS, ids=ORACLE_IDS)
class TestPaddedOracles:
    """The interior-face operators equal the padded formulation bit for bit;
    the Dirichlet form moves only by summation order."""

    def test_gradient(self, g):
        f = random_field(g, 21)
        for got, want in zip(gradient(g, f), _ref_gradient(g, f)):
            assert np.array_equal(got, want)

    def test_divergence(self, g):
        vx, vy = random_field(g, 22), random_field(g, 23)
        assert np.array_equal(divergence(g, vx, vy), _ref_divergence(g, vx, vy))

    def test_subtract_divergence(self, g):
        # the in-place subtraction that g_residual uses, to g_residual's 1e-14
        vx, vy, out = random_field(g, 22), random_field(g, 23), random_field(g, 20)
        want = out - divergence(g, vx, vy)
        _subtract_divergence(g, vx, vy, out)
        assert np.max(np.abs(out - want)) <= 1e-14 * np.max(np.abs(want))

    def test_laplacian(self, g):
        f = random_field(g, 24)
        assert np.array_equal(laplacian(g, f), _ref_laplacian(g, f))

    def test_face_flux_divergence(self, g):
        w = 0.5 + np.random.default_rng(25).random(g.shape)
        f = random_field(g, 26)
        assert np.array_equal(face_flux_divergence(g, w.copy(), f),
                              _ref_face_flux_divergence(g, w, f))

    def test_grad_inner(self, g):
        f, h = random_field(g, 27), random_field(g, 28)
        want = _ref_grad_inner(g, f, h)
        assert abs(grad_inner(g, f, h) - want) <= 1e-13 * abs(want)

    def test_grad_norm_sq(self, g):
        f = random_field(g, 29)
        want = _ref_grad_inner(g, f, f)
        assert abs(grad_norm_sq(g, f) - want) <= 1e-13 * want


class TestFaceFluxDivergence:
    def test_unit_weight_is_laplacian(self):
        g = GridSpec(12, 9, 0.0, 3.0, -1.0, 0.5)
        f = random_field(g, 31)
        assert np.array_equal(face_flux_divergence(g, g.full(1.0), f), laplacian(g, f))

    def test_kills_constants(self, grid8):
        w = 0.5 + np.random.default_rng(32).random(grid8.shape)
        assert np.all(face_flux_divergence(grid8, w, grid8.full(-1.7)) == 0.0)

    def test_symmetric(self):
        # <div(w grad f), h> == <div(w grad h), f>: the weighted operator is
        # self-adjoint under the midpoint inner product
        g = GridSpec(10, 7, 0.0, 3.0, -1.0, 0.5)
        w = 0.5 + np.random.default_rng(33).random(g.shape)
        f, h = random_field(g, 34), random_field(g, 35)
        lhs = inner(g, face_flux_divergence(g, w.copy(), f), h)
        rhs = inner(g, face_flux_divergence(g, w.copy(), h), f)
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


def _laid_out(a, layout):
    """The values of ``a`` C-ordered, Fortran-ordered or as a strided view."""
    if layout == "C":
        return np.ascontiguousarray(a)
    if layout == "F":
        return np.asfortranarray(a)
    big = np.full((2 * a.shape[0], 3 * a.shape[1]), np.nan)
    big[::2, ::3] = a
    return big[::2, ::3]


def _same_bits(got, want):
    return (got.shape == want.shape and got.dtype == want.dtype
            and np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes())


FLAT_GRIDS = [GridSpec(nx, ny, 0.0, 3.0, -1.0, 0.5)
              for nx, ny in ((4, 4), (5, 7), (7, 5), (64, 48))]


@pytest.mark.parametrize("layout", ["C", "F", "view"])
@pytest.mark.parametrize("g", FLAT_GRIDS, ids=[f"{g.nx}x{g.ny}" for g in FLAT_GRIDS])
class TestFlatStencils:
    """The y-differences taken on the flattened field give the ghost-cell
    formulation's results bit for bit (sign of zero included), on the
    smallest grids and whatever the memory layout of the input."""

    def test_gradient(self, g, layout):
        f = random_field(g, 41)
        for got, want in zip(gradient(g, _laid_out(f, layout)), _ref_gradient(g, f)):
            assert _same_bits(got, want)

    def test_divergence(self, g, layout):
        vx, vy = random_field(g, 42), random_field(g, 43)
        got = divergence(g, _laid_out(vx, layout), _laid_out(vy, layout))
        assert _same_bits(got, _ref_divergence(g, vx, vy))

    def test_subtract_divergence(self, g, layout):
        vx, vy, out = random_field(g, 42), random_field(g, 43), random_field(g, 40)
        want = out - divergence(g, vx, vy)
        _subtract_divergence(g, _laid_out(vx, layout), _laid_out(vy, layout), out)
        assert np.max(np.abs(out - want)) <= 1e-14 * np.max(np.abs(want))

    def test_laplacian(self, g, layout):
        f = random_field(g, 44)
        assert _same_bits(laplacian(g, _laid_out(f, layout)), _ref_laplacian(g, f))

    def test_face_flux_divergence(self, g, layout):
        w = 0.5 + np.random.default_rng(45).random(g.shape)
        f = random_field(g, 46)
        got = face_flux_divergence(g, _laid_out(w.copy(), layout), _laid_out(f, layout))
        assert _same_bits(got, _ref_face_flux_divergence(g, w, f))
