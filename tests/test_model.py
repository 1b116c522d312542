import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dendrosim.config import case2_params
from dendrosim.grid import GridSpec, laplacian
from dendrosim.model import (
    ConstantMobility,
    EnergyPositivityError,
    FieldMobility,
    ModelParams,
    aniso_h,
    big_f_well,
    e1_energy,
    f_well,
    g_residual,
    h_latent,
    h_prime,
    kappa,
    modified_energy,
    original_energy,
)

from conftest import smooth_field


def make_params(**overrides):
    base = dict(eps=0.1, lam=1.0, diff=5e-2, latent=0.1, sigma=0.05,
                mobility=ConstantMobility(1e3), s1=0.9, s2=10.0, s3=0.0,
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

    def test_rejects_nonpositive_mobility(self):
        with pytest.raises(ValueError, match="rho"):
            ConstantMobility(0.0)

    def test_field_mobility_positivity_guard(self):
        mob = FieldMobility(lambda phi: phi)
        with pytest.raises(ValueError, match="non-positive"):
            mob.rho_at(np.array([-1.0, 1.0]))


class TestPotentials:
    def test_double_well_roots(self):
        phi = np.array([0.0, 1.0, -1.0, 2.0])
        assert f_well(phi) == pytest.approx([0.0, 0.0, 0.0, 6.0])
        assert big_f_well(phi) == pytest.approx([0.25, 0.0, 0.0, 2.25])

    def test_latent_heat_values(self):
        assert h_latent(np.array([1.0]))[0] == pytest.approx(8.0 / 15.0)
        assert h_latent(np.array([-1.0]))[0] == pytest.approx(-8.0 / 15.0)
        assert h_prime(np.array([0.0, 1.0, -1.0])) == pytest.approx([1.0, 0.0, 0.0])

    @settings(max_examples=50, deadline=None)
    @given(st.floats(-2.5, 2.5, allow_nan=False))
    def test_f_is_derivative_of_big_f(self, phi):
        d = 1e-6
        lo, hi = np.array([phi - d]), np.array([phi + d])
        fd = (big_f_well(hi) - big_f_well(lo)) / (2 * d)
        assert f_well(np.array([phi]))[0] == pytest.approx(fd[0], abs=1e-7 * max(1, abs(phi)**3))

    @settings(max_examples=50, deadline=None)
    @given(st.floats(-2.5, 2.5, allow_nan=False))
    def test_h_prime_is_derivative_of_h(self, phi):
        d = 1e-6
        fd = (h_latent(np.array([phi + d])) - h_latent(np.array([phi - d]))) / (2 * d)
        assert h_prime(np.array([phi]))[0] == pytest.approx(fd[0], abs=1e-6 * max(1, abs(phi)**4))

    @settings(max_examples=50, deadline=None)
    @given(st.floats(-5, 5, allow_nan=False))
    def test_h_prime_nonnegative(self, phi):
        assert h_prime(np.array([phi]))[0] >= 0.0


class TestAnisotropy:
    def test_isotropic_limit(self):
        g = np.linspace(-2, 2, 7)
        assert kappa(g, g[::-1], sigma=0.0) == pytest.approx(1.0)

    def test_principal_directions(self):
        one, zero = np.array([1.0]), np.array([0.0])
        assert kappa(one, zero, 0.05, reg=1e-300)[0] == pytest.approx(1.05)
        assert kappa(one, one, 0.05, reg=1e-300)[0] == pytest.approx(0.95)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(-1e3, 1e3, allow_nan=False), st.floats(-1e3, 1e3, allow_nan=False),
           st.floats(0, 0.99, allow_nan=False))
    def test_bounds(self, gx, gy, sigma):
        val = kappa(np.array([gx]), np.array([gy]), sigma)[0]
        assert 1.0 - sigma - 1e-12 <= val <= 1.0 + sigma + 1e-12

    def test_flux_coefficient_positive(self):
        # kappa^2 >= (1-sigma)^2 > s1 keeps the flux coefficient positive
        p = case2_params()
        rng = np.random.default_rng(0)
        gx, gy = rng.standard_normal((2, 50)) * 10
        w = kappa(gx, gy, p.sigma) ** 2 - p.s1
        assert np.all(w > 0.0)

    def test_aniso_h_vanishes_on_symmetry_axes(self):
        one, zero = np.array([1.0]), np.array([0.0])
        hx, hy = aniso_h(one, zero, 0.1, reg=1e-300)
        assert hx[0] == 0.0 and hy[0] == 0.0
        hx, hy = aniso_h(one, one, 0.1, reg=1e-300)
        assert hx[0] == pytest.approx(0.0, abs=1e-15)
        assert hy[0] == pytest.approx(0.0, abs=1e-15)

    @settings(max_examples=80, deadline=None)
    @given(st.floats(0, 2 * math.pi, allow_nan=False),
           st.floats(0.05, 50.0, allow_nan=False),
           st.floats(0, 0.9, allow_nan=False))
    def test_rational_form_equals_arctan_form(self, theta, r, sigma):
        # the branch-free rational expression reproduces 1 + sigma*cos(4*theta)
        gx = np.array([r * math.cos(theta)])
        gy = np.array([r * math.sin(theta)])
        expected = 1.0 + sigma * math.cos(4.0 * math.atan2(gy[0], gx[0]))
        assert kappa(gx, gy, sigma, reg=1e-300)[0] == pytest.approx(expected, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0, 2 * math.pi, allow_nan=False))
    def test_matches_angular_derivative_of_kappa(self, theta):
        # d kappa / d theta == H . d(grad)/d theta on unit gradients
        sigma = 0.3
        d = 1e-6

        def kap(t):
            return kappa(np.array([math.cos(t)]), np.array([math.sin(t)]),
                         sigma, reg=1e-12)[0]

        fd = (kap(theta + d) - kap(theta - d)) / (2 * d)
        gx, gy = np.array([math.cos(theta)]), np.array([math.sin(theta)])
        hx, hy = aniso_h(gx, gy, sigma, reg=1e-12)
        analytic = hx[0] * (-math.sin(theta)) + hy[0] * math.cos(theta)
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


class TestEnergies:
    def test_e1_zero_field(self, grid16):
        p = make_params()
        expected = grid16.area * (0.25 / p.eps**2 + p.bconst)
        assert e1_energy(grid16, grid16.zeros(), p) == pytest.approx(expected)

    def test_e1_case2_constant_one(self, grid16):
        # closed form with the Case-II constants: 4 * (5000 - 500) = 18000
        p = case2_params()
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

    def test_modified_energy_zero_state(self, grid16):
        p = make_params()
        r0 = math.sqrt(e1_energy(grid16, grid16.zeros(), p))
        value = modified_energy(grid16, grid16.zeros(), r0, grid16.zeros(), p)
        assert value == pytest.approx(grid16.area * 0.25 / p.eps**2)

    def test_modified_energy_quadratic_in_temp(self, grid16):
        p = make_params()
        phi = smooth_field(grid16, 2)
        temp = smooth_field(grid16, 4)
        e1v = modified_energy(grid16, phi, 1.0, temp, p)
        e2v = modified_energy(grid16, phi, 1.0, 2.0 * temp, p)
        t_norm = 0.5 * p.lam / (p.eps * p.latent)
        from dendrosim.grid import norm_sq

        assert e2v - e1v == pytest.approx(3.0 * t_norm * norm_sq(grid16, temp), rel=1e-12)

    def test_reformulation_identity(self, grid16):
        # original energy equals the quadratic form plus R^2 when R = sqrt(E1)
        p = make_params()
        for seed in range(5):
            phi = smooth_field(grid16, seed)
            temp = smooth_field(grid16, seed + 100)
            r = math.sqrt(e1_energy(grid16, phi, p))
            lhs = original_energy(grid16, phi, temp, p)
            rhs = modified_energy(grid16, phi, r, temp, p)
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

            return integrate(g, big_f_well(phi)) / eps**2

        assert f_term(0.1) == pytest.approx(np.pi * 0.1 / (3 * 0.1**2), rel=0.02)
        assert f_term(0.05) / f_term(0.1) == pytest.approx(2.0, rel=0.05)
