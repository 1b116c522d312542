import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dendrosim import bdf2
from dendrosim.bdf1 import init_state, scheme_energy
from dendrosim.grid import (
    GridSpec,
    face_flux_divergence,
    grad_norm_sq,
    gradient,
    integrate,
    laplacian,
    norm_sq,
)
from dendrosim.model import (
    Anisotropy,
    EnergyPositivityError,
    ModelParams,
    aniso_flux,
    anisotropy,
    e1_energy,
    f_well,
    g_residual,
    h_prime,
    original_energy,
)
from dendrosim.solvers import solve_shifted

from conftest import random_field, shipped_config, smooth_field
from test_grid import divergence

CASE2, DENDRITE = shipped_config("case2"), shipped_config("dendrite")


def _big_f_well(phi):
    """Double-well potential F(phi) = (phi^2 - 1)^2 / 4, whose derivative is
    ``f_well`` (reference for the energies)."""
    q = phi * phi - 1.0
    return 0.25 * q * q


def _h_latent(phi):
    """Latent-heat generation h(phi) = phi^5/5 - 2 phi^3/3 + phi, whose
    derivative is ``h_prime``."""
    p2 = phi * phi
    return phi * (0.2 * p2 * p2 - (2.0 / 3.0) * p2 + 1.0)


def make_params(**overrides):
    base = dict(eps=0.1, lam=1.0, diff=5e-2, latent=0.1, sigma=0.05,
                mobility=1e3, s1=0.9, s2=10.0, s3=0.0,
                s4=0.0, bconst=5e3)
    base.update(overrides)
    return ModelParams(**base)


class TestParams:
    def test_rejects_sigma_out_of_range(self):
        with pytest.raises(ValueError, match="sigma"):
            make_params(sigma=1.0)

    def test_rejects_s1_above_bound(self):
        with pytest.raises(ValueError, match="s1"):
            make_params(sigma=0.05, s1=0.95)

    def test_s1_zero_allowed(self):
        make_params(s1=0.0)

    def test_rejects_eps_whose_square_underflows(self):
        # the steppers divide by eps^2; a zero or subnormal square is refused
        for eps in (1e-200, 1e-160):
            with pytest.raises(ValueError, match="eps"):
                make_params(eps=eps)
        make_params(eps=1e-150)

    @pytest.mark.parametrize("lam", [0.0, -1.0])
    def test_rejects_nonpositive_lambda(self, lam):
        # the modified energy weighs ||T||^2 by lam/(eps*latent): lam <= 0
        # would drop that term or leave the energy unbounded below
        with pytest.raises(ValueError, match=f"lambda must be positive, got {lam}"):
            make_params(lam=lam)

    def test_rejects_nonpositive_mobility(self):
        for rho in (0.0, -1e3):
            with pytest.raises(ValueError, match=f"mobility rho must be positive, got {rho}"):
                make_params(mobility=rho)

    @pytest.mark.parametrize("name", ["eps", "lam", "diff", "latent", "sigma",
                                      "s1", "s2", "s3", "s4", "bconst"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_rejects_nonfinite_field(self, name, value):
        # config files refuse these already; the Python API refuses them too
        with pytest.raises(ValueError, match=f"{name} must be a finite number, got {value}"):
            make_params(**{name: value})

    @pytest.mark.parametrize("rho", [math.inf, math.nan])
    def test_rejects_nonfinite_mobility(self, rho):
        with pytest.raises(ValueError, match=f"rho must be a finite number, got {rho}"):
            make_params(mobility=rho)

    @pytest.mark.parametrize("weight", [1.0, -1.0, 1.5, math.nan, math.inf])
    def test_rejects_tanh_weight_outside_unit_interval(self, weight):
        # |w| >= 1 lets 1 + w*tanh(phi) reach 0 or below
        with pytest.raises(ValueError, match=rf"mobility_tanh must lie in \(-1, 1\), got {weight}"):
            make_params(mobility_tanh=weight)

    def test_constant_mobility_is_the_float(self):
        # weight 0: rho_at hands back the float itself, so the phase solves
        # keep the exact cosine-transform path
        p = make_params(mobility=1.2e3)
        rho = p.rho_at(np.zeros((8, 8)))
        assert rho is p.mobility and type(rho) is float
        grid = GridSpec(8, 8)
        _, iterations = solve_shifted(grid, rho / 1e-3, p.s1, random_field(grid, seed=3))
        assert iterations == 0

    def test_tanh_mobility_stays_positive(self):
        # rho = mobility*(1 + w*tanh(phi)) > 0 by construction, far outside
        # [-1, 1] too; w = 1/6 gives the family 1e3*(1.2 + 0.2*tanh(phi))
        # that the variable-mobility tests step with
        p = make_params(mobility=1.2e3, mobility_tanh=1 / 6)
        phi = np.array([[-50.0, -1.0, 0.0], [1.0, 50.0, 0.5]])
        rho = p.rho_at(phi)
        assert np.all(rho > 0.0)
        np.testing.assert_allclose(rho, 1e3 * (1.2 + 0.2 * np.tanh(phi)), rtol=1e-14)
        assert rho[0, 0] == pytest.approx(1e3) and rho[1, 1] == pytest.approx(1.4e3)


class TestPotentials:
    def test_double_well_roots(self):
        phi = np.array([0.0, 1.0, -1.0, 2.0])
        assert f_well(phi) == pytest.approx([0.0, 0.0, 0.0, 6.0])
        assert _big_f_well(phi) == pytest.approx([0.25, 0.0, 0.0, 2.25])

    def test_latent_heat_values(self):
        assert _h_latent(np.array([1.0]))[0] == pytest.approx(8.0 / 15.0)
        assert _h_latent(np.array([-1.0]))[0] == pytest.approx(-8.0 / 15.0)
        assert h_prime(np.array([0.0, 1.0, -1.0])) == pytest.approx([1.0, 0.0, 0.0])

    @settings(max_examples=50, deadline=None)
    @given(st.floats(-2.5, 2.5, allow_nan=False))
    def test_f_is_derivative_of_big_f(self, phi):
        d = 1e-6
        lo, hi = np.array([phi - d]), np.array([phi + d])
        fd = (_big_f_well(hi) - _big_f_well(lo)) / (2 * d)
        assert f_well(np.array([phi]))[0] == pytest.approx(fd[0], abs=1e-7 * max(1, abs(phi)**3))

    @settings(max_examples=50, deadline=None)
    @given(st.floats(-2.5, 2.5, allow_nan=False))
    def test_h_prime_is_derivative_of_h(self, phi):
        d = 1e-6
        fd = (_h_latent(np.array([phi + d])) - _h_latent(np.array([phi - d]))) / (2 * d)
        assert h_prime(np.array([phi]))[0] == pytest.approx(fd[0], abs=1e-6 * max(1, abs(phi)**4))

    @settings(max_examples=50, deadline=None)
    @given(st.floats(-5, 5, allow_nan=False))
    def test_h_prime_nonnegative(self, phi):
        assert h_prime(np.array([phi]))[0] >= 0.0


class TestAnisotropy:
    def test_isotropic_limit(self):
        g = np.linspace(-2, 2, 7)
        assert Anisotropy.from_gradient(g, g[::-1], 0.0).kap == pytest.approx(1.0)

    def test_principal_directions(self):
        one, zero = np.array([1.0]), np.array([0.0])
        assert Anisotropy.from_gradient(one, zero, 0.05, reg=1e-300).kap[0] == pytest.approx(1.05)
        assert Anisotropy.from_gradient(one, one, 0.05, reg=1e-300).kap[0] == pytest.approx(0.95)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(-1e3, 1e3, allow_nan=False), st.floats(-1e3, 1e3, allow_nan=False),
           st.floats(0, 0.99, allow_nan=False))
    def test_bounds(self, gx, gy, sigma):
        val = Anisotropy.from_gradient(np.array([gx]), np.array([gy]), sigma).kap[0]
        assert 1.0 - sigma - 1e-12 <= val <= 1.0 + sigma + 1e-12

    def test_flux_coefficient_positive(self):
        # kappa^2 >= (1-sigma)^2 > s1 keeps the flux coefficient positive
        p = CASE2.params
        rng = np.random.default_rng(0)
        gx, gy = rng.standard_normal((2, 50)) * 10
        w = Anisotropy.from_gradient(gx, gy, p.sigma).kap ** 2 - p.s1
        assert np.all(w > 0.0)

    def test_aniso_flux_vanishes_on_symmetry_axes(self):
        one, zero = np.array([1.0]), np.array([0.0])
        for gx, gy in ((one, zero), (zero, one), (one, one), (one, -one)):
            geom = Anisotropy.from_gradient(gx, gy, 0.1, reg=1e-300)
            vx, vy = aniso_flux(geom, 0.1, reg=1e-300)
            assert vx[0] == 0.0 and vy[0] == 0.0

    @settings(max_examples=80, deadline=None)
    @given(st.floats(0, 2 * math.pi, allow_nan=False),
           st.floats(0.05, 50.0, allow_nan=False),
           st.floats(0, 0.9, allow_nan=False))
    def test_rational_form_equals_arctan_form(self, theta, r, sigma):
        # the branch-free rational expression reproduces 1 + sigma*cos(4*theta)
        gx = np.array([r * math.cos(theta)])
        gy = np.array([r * math.sin(theta)])
        expected = 1.0 + sigma * math.cos(4.0 * math.atan2(gy[0], gx[0]))
        kap = Anisotropy.from_gradient(gx, gy, sigma, reg=1e-300).kap
        assert kap[0] == pytest.approx(expected, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0, 2 * math.pi, allow_nan=False))
    def test_matches_angular_derivative_of_kappa(self, theta):
        # d kappa / d theta == H . d(grad)/d theta on unit gradients, where
        # H is the residual's anisotropy vector divided by kappa |grad phi|^2
        sigma = 0.3
        d = 1e-6

        def kap(t):
            return Anisotropy.from_gradient(np.array([math.cos(t)]), np.array([math.sin(t)]),
                                            sigma, reg=1e-12).kap[0]

        fd = (kap(theta + d) - kap(theta - d)) / (2 * d)
        gx, gy = np.array([math.cos(theta)]), np.array([math.sin(theta)])
        geom = Anisotropy.from_gradient(gx, gy, sigma, reg=1e-12)
        vx, vy = aniso_flux(geom, sigma, reg=1e-12)
        w = geom.kap[0] * geom.mag2[0]
        analytic = (vx[0] * (-math.sin(theta)) + vy[0] * math.cos(theta)) / w
        assert analytic == pytest.approx(fd, abs=1e-5)


class TestResidual:
    def test_isotropic_reduction(self, grid16):
        # sigma = 0, s1 = 0: the flux term collapses to the plain Laplacian
        p = make_params(sigma=0.0, s1=0.0)
        phi = smooth_field(grid16, 3)
        expected = -laplacian(grid16, phi) + (f_well(phi) - p.s2 * phi) / p.eps**2
        assert np.array_equal(g_residual(grid16, phi, p), expected)

    def test_zero_field(self, grid16):
        p = make_params()
        assert g_residual(grid16, grid16.zeros(), p) == pytest.approx(0.0, abs=1e-14)

    def test_constant_one(self, grid16):
        p = make_params()
        expected = -p.s2 / p.eps**2
        assert g_residual(grid16, grid16.full(1.0), p) == pytest.approx(expected)

    def test_constant_shift_changes_only_pointwise_part(self, grid16):
        p = make_params()
        c = 0.7
        lhs = g_residual(grid16, grid16.full(c), p)
        expected = (f_well(np.array([c]))[0] - p.s2 * c) / p.eps**2
        assert lhs == pytest.approx(expected)

    @pytest.mark.skipif(tracemalloc.is_tracing(), reason="memory is traced already")
    @pytest.mark.parametrize("sigma", [0.05, 0.0])
    def test_working_set(self, sigma):
        # with the geometry given, g holds three fields, its result included
        # (3.03 traced here; 5.02 while it formed the anisotropy vector whole)
        grid = GridSpec(128, 128)
        p = make_params(sigma=sigma)
        phi = _oracle_field(grid, "tanh")
        geom = anisotropy(grid, phi, p.sigma)
        g_residual(grid, phi, p, geom)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            g_residual(grid, phi, p, geom)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - base) / phi.nbytes <= 4.5


class TestEnergies:
    def test_e1_zero_field(self, grid16):
        p = make_params()
        expected = grid16.area * (0.25 / p.eps**2 + p.bconst)
        assert e1_energy(grid16, grid16.zeros(), p) == pytest.approx(expected)

    def test_e1_case2_constant_one(self, grid16):
        # closed form with the Case-II constants: 4 * (5000 - 500) = 18000
        p = CASE2.params
        assert e1_energy(grid16, grid16.full(1.0), p) == pytest.approx(18000.0)

    def test_e1_linear_in_bconst(self, grid16):
        p = make_params()
        p_up = make_params(bconst=p.bconst + 123.0)
        phi = smooth_field(grid16, 9)
        delta = e1_energy(grid16, phi, p_up) - e1_energy(grid16, phi, p)
        assert delta == pytest.approx(123.0 * grid16.area)

    def test_e1_rejects_nonpositive(self, grid16):
        p = make_params(bconst=1e-6, s2=50.0)
        with pytest.raises(EnergyPositivityError, match="bconst"):
            e1_energy(grid16, grid16.full(1.0), p)

    # the modified energy E(phi, R, T) - B|Omega| of a level-0 state, whose
    # R is sqrt(E1(phi)): the quadratic form plus R^2
    def test_modified_energy_zero_state(self, grid16):
        p = make_params()
        state = init_state(grid16, grid16.zeros(), grid16.zeros(), p)
        value = scheme_energy(grid16, p, state) - p.bconst * grid16.area
        assert value == pytest.approx(grid16.area * 0.25 / p.eps**2)

    def test_modified_energy_quadratic_in_temp(self, grid16):
        p = make_params()
        phi = smooth_field(grid16, 2)
        temp = smooth_field(grid16, 4)
        e1v = scheme_energy(grid16, p, init_state(grid16, phi, temp, p)) - p.bconst * grid16.area
        e2v = (scheme_energy(grid16, p, init_state(grid16, phi, 2.0 * temp, p))
               - p.bconst * grid16.area)
        t_norm = 0.5 * p.lam / (p.eps * p.latent)

        assert e2v - e1v == pytest.approx(3.0 * t_norm * norm_sq(grid16, temp), rel=1e-12)

    def test_reformulation_identity(self, grid16):
        # original energy equals the quadratic form plus R^2 when R = sqrt(E1)
        p = make_params()
        for seed in range(5):
            phi = smooth_field(grid16, seed)
            temp = smooth_field(grid16, seed + 100)
            lhs = original_energy(grid16, phi, temp, p)
            state = init_state(grid16, phi, temp, p)
            rhs = scheme_energy(grid16, p, state) - p.bconst * grid16.area
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_original_energy_zero_state(self, grid16):
        p = make_params()
        value = original_energy(grid16, grid16.zeros(), grid16.zeros(), p)
        assert value == pytest.approx(grid16.area * 0.25 / p.eps**2)

    def test_interface_energy_scales_with_eps(self):
        # tanh disc whose profile width tracks eps: the potential term of the
        # energy concentrates on the interface band and ~doubles when eps
        # halves (band integral of F is pi*eps/3, analytic oracle)
        g = GridSpec(256, 256)
        x, y = g.mesh()

        def f_term(eps):
            phi = np.tanh((0.25 - x**2 - y**2) / eps)
            from dendrosim.grid import integrate

            return integrate(g, _big_f_well(phi)) / eps**2

        assert f_term(0.1) == pytest.approx(np.pi * 0.1 / (3 * 0.1**2), rel=0.02)
        assert f_term(0.05) / f_term(0.1) == pytest.approx(2.0, rel=0.05)


# The anisotropy kernels as they stood before the geometry was shared: each
# function takes its own gradient, kappa and |grad phi|^2, and H goes through
# the generic power.  Private references for the oracle tests below.

def _ref_kappa(gx, gy, sigma, reg=1e-12):
    x2 = gx * gx
    y2 = gy * gy
    denom = (x2 + y2 + reg) ** 2
    cos4 = (x2 * x2 - 6.0 * x2 * y2 + y2 * y2) / denom
    return 1.0 + sigma * cos4


def _ref_aniso_h(gx, gy, sigma, reg=1e-12):
    x2 = gx * gx
    y2 = gy * gy
    denom = (x2 + y2 + reg) ** 3
    scale = 16.0 * sigma / denom
    return scale * gx * (x2 * y2 - y2 * y2), scale * gy * (x2 * y2 - x2 * x2)


def _ref_g_residual(grid, phi, p):
    out = (f_well(phi) - p.s2 * phi) / p.eps**2
    gx, gy = gradient(grid, phi)
    kap = _ref_kappa(gx, gy, p.sigma)
    out -= face_flux_divergence(grid, kap * kap - p.s1, phi)
    hx, hy = _ref_aniso_h(gx, gy, p.sigma)
    w = kap * (gx * gx + gy * gy)
    out -= divergence(grid, w * hx, w * hy)
    return out


def _ref_bulk(grid, phi, p):
    gx, gy = gradient(grid, phi)
    kap = _ref_kappa(gx, gy, p.sigma)
    return 0.5 * kap * kap * (gx * gx + gy * gy)


def _ref_e1_energy(grid, phi, p):
    bulk = _ref_bulk(grid, phi, p) + (_big_f_well(phi) - 0.5 * p.s2 * phi * phi) / p.eps**2
    return (integrate(grid, bulk) + p.bconst * grid.area
            - 0.5 * p.s1 * grad_norm_sq(grid, phi))


def _ref_original_energy(grid, phi, temp, p):
    bulk = _ref_bulk(grid, phi, p) + _big_f_well(phi) / p.eps**2
    return integrate(grid, bulk) + 0.5 * p.lam / (p.eps * p.latent) * norm_sq(grid, temp)


ORACLE_GRIDS = {
    "16x16": GridSpec(16, 16),
    "24x40": GridSpec(24, 40),
    "hx-ne-hy": GridSpec(33, 20, x0=-1.5, x1=2.0, y0=0.0, y1=0.5),
    "128x128": GridSpec(128, 128),
}


def _oracle_field(grid, kind):
    x, y = grid.mesh()
    cx, cy = 0.5 * (grid.x0 + grid.x1), 0.5 * (grid.y0 + grid.y1)
    r = min(grid.x1 - grid.x0, grid.y1 - grid.y0)
    if kind == "random":
        return random_field(grid, 3, scale=0.5)
    if kind == "tanh":
        # a fourfold-perturbed disc: every gradient direction, saturated bulk
        theta = np.arctan2(y - cy, x - cx)
        rad = np.hypot(x - cx, y - cy)
        return np.tanh((0.25 * r * (1.0 + 0.2 * np.cos(4.0 * theta)) - rad) / (0.05 * r))
    if kind == "zero":
        return grid.zeros()
    return grid.full(0.7)


@pytest.mark.parametrize("grid_id", list(ORACLE_GRIDS))
@pytest.mark.parametrize("kind", ["random", "tanh", "zero", "constant"])
@pytest.mark.parametrize("sigma, s1", [(0.05, 0.9), (0.3, 0.4)])
class TestSharedGeometryOracle:
    """One shared geometry evaluation and the one-product anisotropy vector
    reproduce the separately evaluated references: g to 1e-14 of max|g|,
    the energies to 1e-14 relative."""

    def test_g_residual(self, grid_id, kind, sigma, s1):
        grid = ORACLE_GRIDS[grid_id]
        p = make_params(sigma=sigma, s1=s1)
        phi = _oracle_field(grid, kind)
        with np.errstate(all="raise"):
            want = _ref_g_residual(grid, phi, p)
            got = g_residual(grid, phi, p)
            shared = g_residual(grid, phi, p, anisotropy(grid, phi, p.sigma))
        assert np.array_equal(got, shared)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_energies(self, grid_id, kind, sigma, s1):
        grid = ORACLE_GRIDS[grid_id]
        p = make_params(sigma=sigma, s1=s1)
        phi = _oracle_field(grid, kind)
        temp = smooth_field(grid, 5)
        with np.errstate(all="raise"):
            geom = anisotropy(grid, phi, p.sigma)
            e1 = e1_energy(grid, phi, p, geom)
            orig = original_energy(grid, phi, temp, p, geom)
            e1_want = _ref_e1_energy(grid, phi, p)
            orig_want = _ref_original_energy(grid, phi, temp, p)
        assert e1 == e1_energy(grid, phi, p)
        assert orig == original_energy(grid, phi, temp, p)
        assert abs(e1 - e1_want) <= 1e-14 * abs(e1_want)
        assert abs(orig - orig_want) <= 1e-14 * abs(orig_want)

    def test_kappa(self, grid_id, kind, sigma, s1):
        grid = ORACLE_GRIDS[grid_id]
        gx, gy = gradient(grid, _oracle_field(grid, kind))
        with np.errstate(all="raise"):
            kap = Anisotropy.from_gradient(gx, gy, sigma).kap
            assert np.max(np.abs(kap - _ref_kappa(gx, gy, sigma))) <= 1e-15


# e1_energy and original_energy as they stood before their sums became dot
# products: one bulk field, integrated.  Private references for the test below.

def _bulk_e1_energy(grid, phi, p, geom):
    bulk = 0.5 * geom.kap * geom.kap * geom.mag2
    bulk += (_big_f_well(phi) - 0.5 * p.s2 * phi * phi) / p.eps**2
    return integrate(grid, bulk) + p.bconst * grid.area - 0.5 * p.s1 * grad_norm_sq(grid, phi)


def _bulk_original_energy(grid, phi, temp, p, geom):
    bulk = 0.5 * geom.kap * geom.kap * geom.mag2
    bulk += _big_f_well(phi) / p.eps**2
    return integrate(grid, bulk) + 0.5 * p.lam / (p.eps * p.latent) * norm_sq(grid, temp)


@pytest.mark.parametrize("case", ["case2", "dendrite"])
def test_energy_dot_products_match_bulk_sums(case):
    # on the levels and leads of a few bdf2 levels, the dot-product energies
    # agree with the bulk-field integrals to 1e-14 relative
    if case == "case2":
        grid, p, initial, tau = GridSpec(64, 64), CASE2.params, CASE2.initial, 1e-3
    else:
        grid, p, initial, tau = GridSpec(128, 128), DENDRITE.params, DENDRITE.initial, 1e-2
    state = init_state(grid, *initial.build(grid), p)
    state, _ = bdf2.bootstrap(grid, state, tau, p)
    fields = []
    for _ in range(4):
        state, _ = bdf2.step2(grid, state, tau, p)
        fields += [(state.phi, state.temp), (state.lead("phi"), state.lead("temp"))]
    for phi, temp in fields:
        geom = anisotropy(grid, phi, p.sigma)
        e1, e1_want = e1_energy(grid, phi, p, geom), _bulk_e1_energy(grid, phi, p, geom)
        orig = original_energy(grid, phi, temp, p, geom)
        orig_want = _bulk_original_energy(grid, phi, temp, p, geom)
        assert abs(e1 - e1_want) <= 1e-14 * abs(e1_want)
        assert abs(orig - orig_want) <= 1e-14 * abs(orig_want)
