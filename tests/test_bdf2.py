import math
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dendrosim import bdf1
from dendrosim.bdf1 import State, identity_proof_lines, init_state, scheme_energy
from dendrosim.bdf2 import bootstrap, energy_identity_residual2, step2
from dendrosim.config import RunConfig
from dendrosim.diagnostics import make_record
from dendrosim.experiments import run_accuracy
from dendrosim.grid import GridSpec, grad_norm_sq, inner, laplacian, norm_sq
from dendrosim.model import (
    NO_SOURCES,
    Anisotropy,
    EnergyPositivityError,
    ModelParams,
    e1_energy,
    g_residual,
    h_prime,
    original_energy,
)
from dendrosim.solvers import CG_TOL

from conftest import shipped_config, smooth_field

CASE2 = shipped_config("case2")

finite = dict(allow_nan=False, allow_infinity=False)


class TestTelescopingIdentities:
    @settings(max_examples=100, deadline=None)
    @given(st.floats(-1e3, 1e3, **finite), st.floats(-1e3, 1e3, **finite),
           st.floats(-1e3, 1e3, **finite))
    def test_bdf_weight_identity(self, a, b, c):
        lhs = 2 * a * (3 * a - 4 * b + c)
        rhs = a**2 - b**2 + (2 * a - b) ** 2 - (2 * b - c) ** 2 + (a - 2 * b + c) ** 2
        assert lhs == pytest.approx(rhs, abs=1e-7 * max(1.0, a * a, b * b, c * c))

    @settings(max_examples=100, deadline=None)
    @given(st.floats(-1e3, 1e3, **finite), st.floats(-1e3, 1e3, **finite),
           st.floats(-1e3, 1e3, **finite))
    def test_curvature_weight_identity(self, a, b, c):
        lhs = (a - 2 * b + c) * (3 * a - 4 * b + c)
        rhs = (a - b) ** 2 - (b - c) ** 2 + 2 * (a - 2 * b + c) ** 2
        assert lhs == pytest.approx(rhs, abs=1e-7 * max(1.0, a * a, b * b, c * c))


class TestBootstrap:
    def test_level_zero_preserved(self, case2):
        grid, p, phi0, temp0 = case2
        state, report = bootstrap(grid, init_state(grid, phi0, temp0, p), 0.01, p)
        assert np.array_equal(state.phi_prev, phi0)
        assert np.array_equal(state.temp_prev, temp0)
        assert state.n == 1
        assert state.t == pytest.approx(0.01)
        assert state.r > 0.0 and state.r_prev > 0.0
        assert report.a1 > 0.0

    def test_mu_prev_comes_from_initialization(self, case2):
        grid, p, phi0, temp0 = case2
        s0 = init_state(grid, phi0, temp0, p)
        state, _ = bootstrap(grid, s0, 0.01, p)
        assert np.array_equal(state.mu_prev, s0.mu)
        assert state.r_prev == s0.r


class TestStep2:
    def test_steady_constant_fixed_point(self, grid16):
        p = replace(CASE2.params, s3=2.0, s4=1.0)
        s0 = init_state(grid16, grid16.full(1.0), grid16.zeros(), p)
        state = State(
            phi=s0.phi.copy(), phi_prev=s0.phi.copy(),
            temp=s0.temp.copy(), temp_prev=s0.temp.copy(),
            mu=s0.mu.copy(), mu_prev=s0.mu.copy(),
            r=s0.r, r_prev=s0.r, t=1.0, n=3,
        )
        new, rep = step2(grid16, state, 0.7, p)
        assert rep.xi == pytest.approx(1.0, rel=1e-12)
        assert new.phi == pytest.approx(1.0, rel=1e-11)
        assert new.temp == pytest.approx(0.0, abs=1e-12)
        assert new.r == pytest.approx(s0.r, rel=1e-12)

    def test_back_substitution_into_coupled_system(self, case2):
        # the recombined solution satisfies all four scheme equations
        grid, p, phi0, temp0 = case2
        p = replace(CASE2.params, s3=2.0, s4=1.5)
        tau = 0.05
        state, _ = bootstrap(grid, init_state(grid, phi0, temp0, p), tau, p)
        new, rep = step2(grid, state, tau, p)

        phi_bar = 2 * state.phi - state.phi_prev
        temp_bar = 2 * state.temp - state.temp_prev
        mu_bar = 2 * state.mu - state.mu_prev
        rho = 1e3
        m = 1.0 / rho
        hp = h_prime(phi_bar)
        g_bar = g_residual(grid, phi_bar, p)
        xi = rep.xi
        curv = new.phi - 2 * state.phi + state.phi_prev

        res_phi = (3 * new.phi - 4 * state.phi + state.phi_prev) / (2 * tau) - m * (
            new.mu - (p.s3 / p.eps**2) * curv + p.s4 * laplacian(grid, curv)
        )
        res_mu = new.mu - (
            -xi * g_bar + p.s1 * laplacian(grid, new.phi)
            - (p.s2 / p.eps**2) * new.phi - xi * (p.lam / p.eps) * hp * temp_bar
        )
        res_temp = (3 * new.temp - 4 * state.temp + state.temp_prev) / (2 * tau) - (
            p.diff * laplacian(grid, new.temp) + xi * p.latent * hp * m * mu_bar
        )
        # R-equation in its rewritten (S3/S4 absorbed) form
        e1_bar = e1_energy(grid, phi_bar, p)
        bdf_phi = 3 * new.phi - 4 * state.phi + state.phi_prev
        res_r = (3 * new.r - 4 * state.r + state.r_prev) / (2 * tau) - (
            inner(grid, g_bar, bdf_phi / (2 * tau))
            - (p.lam / p.eps) * inner(grid, hp * m * mu_bar, new.temp)
            + (p.lam / p.eps) * inner(grid, hp * temp_bar, bdf_phi / (2 * tau))
        ) / (2.0 * math.sqrt(e1_bar))

        assert np.max(np.abs(res_phi)) < 1e-9 * max(1.0, np.max(np.abs(new.phi)) / tau)
        assert np.max(np.abs(res_mu)) < 1e-9 * max(1.0, np.max(np.abs(new.mu)))
        assert np.max(np.abs(res_temp)) < 1e-9 * max(1.0, np.max(np.abs(new.temp)) / tau)
        assert abs(res_r) < 1e-9 * max(1.0, abs(new.r) / tau)

    @pytest.mark.parametrize("tau", [1e-3, 1.0, 10.0, 100.0])
    def test_energy_identity_any_tau(self, case2, tau):
        grid, p, phi0, temp0 = case2
        state, _ = bootstrap(grid, init_state(grid, phi0, temp0, p), tau, p)
        e_prev = scheme_energy(grid, p, state)
        for _ in range(5):
            state, rep = step2(grid, state, tau, p, check_identity=True)
            assert rep.identity_residual <= 1e-9
            e = scheme_energy(grid, p, state)
            assert e <= e_prev + 1e-9 * abs(e_prev)
            e_prev = e

    def test_proof_lines_vanish_individually(self, case2):
        grid, p, phi0, temp0 = case2
        before, _ = bootstrap(grid, init_state(grid, phi0, temp0, p), 0.5, p)
        after, _ = step2(grid, before, 0.5, p)
        scale = abs(scheme_energy(grid, p, before))
        for line in identity_proof_lines(grid, p, 0.5, before, after):
            assert abs(line) <= 1e-9 * scale

    def test_long_large_step_dissipation(self, case2):
        # strict monotone decay over 1000 steps at tau = 100
        grid, p, phi0, temp0 = case2
        state, _ = bootstrap(grid, init_state(grid, phi0, temp0, p), 100.0, p)
        e_prev = scheme_energy(grid, p, state)
        for _ in range(1000):
            state, _rep = step2(grid, state, 100.0, p)
            e = scheme_energy(grid, p, state)
            assert e <= e_prev + 1e-9 * abs(e_prev)
            e_prev = e

    def test_second_order_error_ratio(self):
        # halving tau quarters the self-convergence error despite the
        # first-order bootstrap step
        grid = GridSpec(32, 32)
        p = CASE2.params
        x, y = grid.mesh()
        phi0 = np.tanh((0.25 - x**2 - y**2) / 0.1)
        temp0 = -0.5 * phi0

        def solve(tau, t_end=0.2):
            state, _ = bootstrap(grid, init_state(grid, phi0, temp0, p), tau, p)
            for _ in range(round(t_end / tau) - 1):
                state, _rep = step2(grid, state, tau, p)
            return state.phi

        ref = solve(1e-4)
        e_coarse = math.sqrt(norm_sq(grid, solve(4e-3) - ref))
        e_fine = math.sqrt(norm_sq(grid, solve(2e-3) - ref))
        assert e_coarse / e_fine == pytest.approx(4.0, rel=0.25)

    def test_extrapolation_overshoot_guarded(self, grid16):
        # violent extrapolation can push E1(phi_bar) negative: expect the
        # structured error, not a crash or silent clamp
        p = ModelParams(eps=0.1, lam=1.0, diff=5e-2, latent=0.1, sigma=0.0,
                        mobility=1e3, s1=0.0, s2=10.0,
                        s3=0.0, s4=0.0, bconst=500.0)
        s0 = init_state(grid16, grid16.full(0.5), grid16.zeros(), p)
        state = State(
            phi=grid16.full(0.5), phi_prev=grid16.full(-1.0),
            temp=grid16.zeros(), temp_prev=grid16.zeros(),
            mu=s0.mu, mu_prev=s0.mu, r=s0.r, r_prev=s0.r, t=0.1, n=1,
        )
        with pytest.raises(EnergyPositivityError, match="extrapolat"):
            step2(grid16, state, 0.1, p)

    def test_affine_recombination_property(self, case2):
        # recombination is affine in xi: rebuilding the xi-dependent part
        # from separate solves and a perturbed xi' reproduces phi1 + xi'*phi2
        grid, p, phi0, temp0 = case2
        tau = 0.1
        state, _ = bootstrap(grid, init_state(grid, phi0, temp0, p), tau, p)
        new, rep = step2(grid, state, tau, p)
        phi_bar = 2 * state.phi - state.phi_prev
        temp_bar = 2 * state.temp - state.temp_prev
        core2 = -(g_residual(grid, phi_bar, p)
                  + (p.lam / p.eps) * h_prime(phi_bar) * temp_bar)
        from dendrosim.solvers import helmholtz_solve

        coeff = 1.5 * 1e3 / tau + (p.s2 + p.s3) / p.eps**2
        phi2 = helmholtz_solve(grid, coeff, p.s1 + p.s4, core2)
        phi1 = new.phi - rep.xi * phi2
        for xi_prime in (0.5, 1.0, 2.0):
            rebuilt = phi1 + xi_prime * phi2
            expected = new.phi + (xi_prime - rep.xi) * phi2
            assert rebuilt == pytest.approx(expected, abs=1e-12)


def pcg_identity_slack(grid, p, tau, before, after):
    """Bound on the identity residual that PCG phase solves can leave.

    The identity check gets mu^{n+1} from the solve equations, so only the
    combined phase equation coeff*phi - (s1 + s4)*Lap(phi) = rhs_1 + xi*core
    can fail, by the solve residual r, with ||r|| <= CG_TOL*(||rhs_1|| +
    |xi|*||core||).  Line 1 tests that equation against
    B = 3phi^{n+1} - 4phi^n + phi^{n-1} twice, so the lines sum to 2<r, B>
    and the residual |sum|/(4|E^n|) is at most h_x h_y ||r|| ||B|| / (2|E^n|).
    """
    phi_bar = 2.0 * before.phi - before.phi_prev
    temp_bar = 2.0 * before.temp - before.temp_prev
    rho = p.rho_at(phi_bar)
    rhs1 = ((2.0 * before.phi - 0.5 * before.phi_prev) * (rho / tau)
            + (p.s3 / p.eps**2) * phi_bar - p.s4 * laplacian(grid, phi_bar))
    core = -(g_residual(grid, phi_bar, p) + (p.lam / p.eps) * h_prime(phi_bar) * temp_bar)
    xi = after.r / math.sqrt(e1_energy(grid, phi_bar, p))
    r_norm = CG_TOL * (np.linalg.norm(rhs1) + abs(xi) * np.linalg.norm(core))
    b_norm = np.linalg.norm(3.0 * after.phi - 4.0 * before.phi + before.phi_prev)
    return grid.cell_area * r_norm * b_norm / (2.0 * abs(scheme_energy(grid, p, before)))


class TestFieldMobility:
    """The paper's distinguishing claim: the second-order scheme with a
    phase-dependent mobility keeps its energy law for any step size."""

    @pytest.mark.parametrize("tau", [1e-3, 1.0, 100.0])
    def test_energy_law_any_tau(self, case2, tau):
        grid, p, phi0, temp0 = case2
        p = replace(p, mobility=1.2e3, mobility_tanh=1 / 6)
        state, _ = bootstrap(grid, init_state(grid, phi0, temp0, p), tau, p)
        e_prev = scheme_energy(grid, p, state)
        for _ in range(20):
            new, rep = step2(grid, state, tau, p, check_identity=True)
            assert rep.cg_iterations > 0
            # roundoff floor of the constant-mobility check plus the PCG slack
            bound = 1e-12 + pcg_identity_slack(grid, p, tau, state, new)
            assert rep.identity_residual <= bound
            # E^{n+1} - E^n = -dissipation + (sum of the lines)/4
            e = scheme_energy(grid, p, new)
            assert e <= e_prev + bound * abs(e_prev)
            state, e_prev = new, e

    def test_temporal_orders(self, case2):
        # Self-convergence through run_accuracy (so through run_single, with
        # the solver's own PCG tolerance) at t = 0.1 against a tau = 5e-5
        # bdf2 reference.  A PCG tolerance of 1e-10 floors the bdf2 phi error
        # near 3.6e-8 (the 5e-4 rung's truncation error is 1e-8) and pulls
        # the slope to about 1.4.
        grid, p, _, _ = case2
        p = replace(p, mobility=1.2e3, mobility_tanh=1 / 6)
        base = RunConfig(grid=grid, scheme="bdf2", tau=1e-3, t_end=0.1, params=p,
                         initial=CASE2.initial, check_identity=False)
        reports = run_accuracy(base, (4e-3, 2e-3, 1e-3, 5e-4), ref_tau=5e-5)
        for scheme, (lo, hi) in (("bdf1", (0.85, 1.15)), ("bdf2", (1.85, 2.15))):
            report = reports[scheme]
            for slope in (report.slope_phi, report.slope_temp):
                assert lo <= slope <= hi, (scheme, report)


class TestIdentityChecker:
    def test_residual_relative_to_energy(self, case2):
        grid, p, phi0, temp0 = case2
        before, _ = bootstrap(grid, init_state(grid, phi0, temp0, p), 1.0, p)
        after, _ = step2(grid, before, 1.0, p)
        res = energy_identity_residual2(grid, p, 1.0, before, after)
        assert 0.0 <= res <= 1e-12

    def test_detects_tampered_state(self, case2):
        # corrupting the new state must blow the residual up
        grid, p, phi0, temp0 = case2
        before, _ = bootstrap(grid, init_state(grid, phi0, temp0, p), 1.0, p)
        after, _ = step2(grid, before, 1.0, p)
        after = replace(after, r=after.r * 1.001)
        assert energy_identity_residual2(grid, p, 1.0, before, after) > 1e-6

    @pytest.mark.parametrize("scheme", ["bdf1", "bdf2"])
    @pytest.mark.parametrize("name", ["g_residual", "h_prime"])
    def test_detects_wrong_explicit_term(self, case2, monkeypatch, scheme, name):
        # the work of g and h' enters two proof lines with opposite signs and
        # cancels from their sum, the energy balance that SAV meets for any
        # explicit data: a check that evaluates g or h' wrongly shows only in
        # the lines one at a time
        grid, p, phi0, temp0 = case2
        before = init_state(grid, phi0, temp0, p)
        step_fn, residual = bdf1.step, bdf1.energy_identity_residual
        if scheme == "bdf2":
            before, _ = bootstrap(grid, before, 1.0, p)
            step_fn, residual = step2, energy_identity_residual2
        after, _ = step_fn(grid, before, 1.0, p)
        fn = getattr(bdf1, name)
        monkeypatch.setattr(bdf1, name, lambda *args: fn(*args) + 7.0)
        assert residual(grid, p, 1.0, replace(before), replace(after)) > 1e-9


# The identity check as it stood before the energy norms were memoized on the
# states: private references that recompute every norm and cross term.

def _ref_identity_proof_lines(grid, p, tau, before, after):
    rho_n = p.rho_at(before.phi)
    g_n = g_residual(grid, before.phi, p)
    hp_n = h_prime(before.phi)
    e1_n = e1_energy(grid, before.phi, p)
    xi = after.r / math.sqrt(e1_n)
    lam_e = p.lam / p.eps
    lam_ek = p.lam / (p.eps * p.latent)

    dphi = after.phi - before.phi
    dtemp = after.temp - before.temp
    dr = after.r - before.r
    hm_mu = hp_n / rho_n * before.mu

    line1 = math.fsum(
        [
            (2.0 / tau) * inner(grid, rho_n * dphi, dphi),
            (2.0 * p.s3 / p.eps**2) * norm_sq(grid, dphi),
            2.0 * p.s4 * grad_norm_sq(grid, dphi),
            2.0 * xi * inner(grid, g_n, dphi),
            p.s1 * (grad_norm_sq(grid, after.phi) - grad_norm_sq(grid, before.phi)
                    + grad_norm_sq(grid, dphi)),
            (p.s2 / p.eps**2) * (norm_sq(grid, after.phi) - norm_sq(grid, before.phi)
                                 + norm_sq(grid, dphi)),
            2.0 * xi * lam_e * inner(grid, hp_n * before.temp, dphi),
        ]
    )
    line2 = math.fsum(
        [
            2.0 * (after.r**2 - before.r**2 + dr**2),
            -2.0 * xi * inner(grid, g_n, dphi),
            2.0 * xi * tau * lam_e * inner(grid, hm_mu, after.temp),
            -2.0 * xi * lam_e * inner(grid, hp_n * before.temp, dphi),
        ]
    )
    line3 = math.fsum(
        [
            lam_ek * (norm_sq(grid, after.temp) - norm_sq(grid, before.temp)
                      + norm_sq(grid, dtemp)),
            2.0 * tau * lam_ek * p.diff * grad_norm_sq(grid, after.temp),
            -2.0 * tau * xi * lam_e * inner(grid, hm_mu, after.temp),
        ]
    )
    return line1, line2, line3


def _ref_identity_proof_lines2(grid, p, tau, before, after):
    phi_bar = 2.0 * before.phi - before.phi_prev
    temp_bar = 2.0 * before.temp - before.temp_prev
    mu_bar = 2.0 * before.mu - before.mu_prev
    rho_bar = p.rho_at(phi_bar)
    g_bar = g_residual(grid, phi_bar, p)
    hp_bar = h_prime(phi_bar)
    e1_bar = e1_energy(grid, phi_bar, p)
    xi = after.r / math.sqrt(e1_bar)
    lam_e = p.lam / p.eps
    lam_ek = p.lam / (p.eps * p.latent)

    bdf_phi = 3.0 * after.phi - 4.0 * before.phi + before.phi_prev
    curv_phi = after.phi - 2.0 * before.phi + before.phi_prev
    d_new = after.phi - before.phi
    d_old = before.phi - before.phi_prev
    lead_new = 2.0 * after.phi - before.phi
    lead_old = 2.0 * before.phi - before.phi_prev
    hm_mubar = hp_bar / rho_bar * mu_bar
    curv_sq = norm_sq(grid, curv_phi)
    curv_grad_sq = grad_norm_sq(grid, curv_phi)

    line1 = math.fsum(
        [
            (1.0 / tau) * inner(grid, rho_bar * bdf_phi, bdf_phi),
            (2.0 * p.s3 / p.eps**2)
            * (norm_sq(grid, d_new) - norm_sq(grid, d_old) + 2.0 * curv_sq),
            2.0 * p.s4
            * (grad_norm_sq(grid, d_new) - grad_norm_sq(grid, d_old)
               + 2.0 * curv_grad_sq),
            p.s1
            * (grad_norm_sq(grid, after.phi) + grad_norm_sq(grid, lead_new)
               - grad_norm_sq(grid, before.phi) - grad_norm_sq(grid, lead_old)
               + curv_grad_sq),
            (p.s2 / p.eps**2)
            * (norm_sq(grid, after.phi) + norm_sq(grid, lead_new)
               - norm_sq(grid, before.phi) - norm_sq(grid, lead_old)
               + curv_sq),
            2.0 * xi * inner(grid, g_bar, bdf_phi),
            2.0 * xi * lam_e * inner(grid, hp_bar * temp_bar, bdf_phi),
        ]
    )
    line2 = math.fsum(
        [
            2.0
            * (
                after.r**2
                + (2.0 * after.r - before.r) ** 2
                - before.r**2
                - (2.0 * before.r - before.r_prev) ** 2
                + (after.r - 2.0 * before.r + before.r_prev) ** 2
            ),
            -2.0 * xi * inner(grid, g_bar, bdf_phi),
            4.0 * tau * xi * lam_e * inner(grid, hm_mubar, after.temp),
            -2.0 * xi * lam_e * inner(grid, hp_bar * temp_bar, bdf_phi),
        ]
    )
    lead_t_new = 2.0 * after.temp - before.temp
    lead_t_old = 2.0 * before.temp - before.temp_prev
    curv_t = after.temp - 2.0 * before.temp + before.temp_prev
    line3 = math.fsum(
        [
            lam_ek
            * (norm_sq(grid, after.temp) + norm_sq(grid, lead_t_new)
               - norm_sq(grid, before.temp) - norm_sq(grid, lead_t_old)
               + norm_sq(grid, curv_t)),
            4.0 * tau * lam_ek * p.diff * grad_norm_sq(grid, after.temp),
            -4.0 * tau * xi * lam_e * inner(grid, hm_mubar, after.temp),
        ]
    )
    return line1, line2, line3


# The modified energies as they stood before both schemes shared one order-k
# energy law: private references that evaluate every norm afresh.

def _ref_scheme_energy(grid, p, state):
    return (
        0.5 * p.s1 * grad_norm_sq(grid, state.phi)
        + 0.5 * p.s2 / p.eps**2 * norm_sq(grid, state.phi)
        + 0.5 * p.lam / (p.eps * p.latent) * norm_sq(grid, state.temp)
        + state.r**2
    )


def _ref_scheme_energy2(grid, p, state):
    lead_phi = 2.0 * state.phi - state.phi_prev
    dphi = state.phi - state.phi_prev
    return 0.25 * math.fsum(
        [
            p.s1 * (grad_norm_sq(grid, state.phi) + grad_norm_sq(grid, lead_phi)),
            p.s2 / p.eps**2 * (norm_sq(grid, state.phi) + norm_sq(grid, lead_phi)),
            2.0 * p.s3 / p.eps**2 * norm_sq(grid, dphi),
            2.0 * p.s4 * grad_norm_sq(grid, dphi),
            p.lam / (p.eps * p.latent)
            * (norm_sq(grid, state.temp) + norm_sq(grid, 2.0 * state.temp - state.temp_prev)),
            2.0 * (state.r**2 + (2.0 * state.r - state.r_prev) ** 2),
        ]
    )


# scheme -> (step, production lines, reference lines, modified energy,
#            reference energy, ulps the energy may differ from the reference)
ORACLE_SCHEMES = {
    "bdf1": (bdf1.step, identity_proof_lines, _ref_identity_proof_lines, scheme_energy,
             _ref_scheme_energy, 1),
    "bdf2": (step2, identity_proof_lines, _ref_identity_proof_lines2, scheme_energy,
             _ref_scheme_energy2, 0),
}


def _stepped_pairs(scheme, case2, p, tau=0.1, levels=4):
    """(before, after) pairs of consecutive states, stepped with the identity
    check on, so each state's norms are memoized the way a run memoizes them."""
    grid, _, phi0, temp0 = case2
    step_fn = ORACLE_SCHEMES[scheme][0]
    state = init_state(grid, phi0, temp0, p)
    if scheme == "bdf2":
        state, _ = bootstrap(grid, state, tau, p, check_identity=True)
    pairs = []
    for _ in range(levels):
        new, _ = step_fn(grid, state, tau, p, check_identity=True)
        pairs.append((state, new))
        state = new
    return pairs


@pytest.mark.parametrize("scheme", ["bdf1", "bdf2"])
@pytest.mark.parametrize("s_set", [dict(s1=0.9, s2=10.0, s3=0.0, s4=0.0),
                                   dict(s1=0.5, s2=4.0, s3=3.0, s4=2.0)],
                         ids=["case2", "s3-s4"])
class TestProofLineOracles:
    """The identity check, reading memoized state norms and sharing its cross
    terms, gives the reference's proof lines to 1e-12 relative to |E^n|."""

    def test_stepped_states(self, case2, scheme, s_set):
        p = replace(CASE2.params, **s_set)
        _, lines, ref_lines, energy = ORACLE_SCHEMES[scheme][:4]
        grid = case2[0]
        for before, after in _stepped_pairs(scheme, case2, p):
            assert before._norms and after._norms
            scale = abs(energy(grid, p, before))
            for got, want in zip(lines(grid, p, 0.1, before, after),
                                 ref_lines(grid, p, 0.1, before, after)):
                assert abs(got - want) <= 1e-12 * scale

    def test_tampered_states(self, case2, scheme, s_set):
        p = replace(CASE2.params, **s_set)
        _, lines, ref_lines, energy = ORACLE_SCHEMES[scheme][:4]
        grid = case2[0]
        for k, (before, after) in enumerate(_stepped_pairs(scheme, case2, p)):
            tampered = replace(after, phi=after.phi + 0.01 * smooth_field(grid, 40 + k),
                               temp=after.temp + 0.01 * smooth_field(grid, 50 + k),
                               r=after.r * 1.01)
            scale = abs(energy(grid, p, before))
            want = ref_lines(grid, p, 0.1, before, tampered)
            assert max(abs(w) for w in want) > 1e-3 * scale
            for got, w in zip(lines(grid, p, 0.1, before, tampered), want):
                assert abs(got - w) <= 1e-12 * scale

    def test_energy_matches_reference(self, case2, scheme, s_set):
        # the one order-k energy law gives bdf2's former energy bitwise and
        # bdf1's to 1 ulp (its terms are now summed with fsum)
        p = replace(CASE2.params, **s_set)
        energy, ref_energy, ulps = ORACLE_SCHEMES[scheme][3:]
        grid = case2[0]
        pairs = _stepped_pairs(scheme, case2, p)
        for state in [pairs[0][0]] + [after for _, after in pairs]:
            want = ref_energy(grid, p, state)
            assert abs(energy(grid, p, state) - want) <= ulps * math.ulp(want)

    def test_ledger_energy_matches_fresh_state(self, case2, scheme, s_set):
        # a row's e_modified is read from the norms the identity check memoized;
        # it must equal, bitwise, the energy of a copy that has no memo
        p = replace(CASE2.params, **s_set)
        energy = ORACLE_SCHEMES[scheme][3]
        grid = case2[0]
        for _, after in _stepped_pairs(scheme, case2, p):
            fresh = replace(after)
            assert after._norms and not fresh._norms
            rec = make_record(grid, p, after, None)
            assert rec.e_modified == energy(grid, p, fresh)


    def test_ledger_original_energy_matches_fresh_state(self, case2, scheme, s_set):
        # a row's e_original takes ||T^n||^2 from the state's memoized norms;
        # it must equal, bitwise, original_energy evaluated without any memo
        p = replace(CASE2.params, **s_set)
        grid = case2[0]
        for _, after in _stepped_pairs(scheme, case2, p):
            fresh = replace(after)
            assert bdf1.state_norms(grid, after).temp_level == norm_sq(grid, after.temp)
            rec = make_record(grid, p, after, None)
            assert rec.e_original == original_energy(grid, fresh.phi, fresh.temp, p)


class TestStateNormMemo:
    @pytest.mark.parametrize("scheme", ["bdf1", "bdf2"])
    def test_states_are_frozen(self, case2, scheme):
        # a memo of norms cannot go stale: fields cannot be reassigned, and a
        # replaced state starts with an empty memo
        grid, p, _, _ = case2
        state = _stepped_pairs(scheme, case2, p, levels=1)[0][1]
        energy = ORACLE_SCHEMES[scheme][3]
        energy(grid, p, state)
        assert state._norms
        with pytest.raises(FrozenInstanceError):
            state.temp = state.temp + 0.5
        warmer = replace(state, temp=state.temp + 0.5)
        assert not warmer._norms
        assert energy(grid, p, warmer) != energy(grid, p, state)
        assert energy(grid, p, state) == energy(grid, p, replace(state))


def _explicit_memos(state):
    return [v for k, v in state._norms.items() if isinstance(k, tuple) and k[0] == "explicit"]


def _memo_fields(state):
    """The fields (arrays, geometries, explicit data) that a state's memo holds."""
    return [v for v in state._norms.values()
            if isinstance(v, (np.ndarray, Anisotropy, dict, bdf1.ExplicitData))]


def _row_then_step(grid, p, state, checked):
    """A copy of ``state`` whose ledger row was made, as in a run, and the
    SAV step from it, without the identity check that ``step`` would add."""
    before = replace(state)
    make_record(grid, p, before)
    bdf1.sav_step(grid, p, 0.1, before, NO_SOURCES, before.t + 0.1, checked)
    return before


@pytest.mark.parametrize("scheme", ["bdf1", "bdf2"])
class TestExplicitDataMemo:
    """A state's explicit data is evaluated once, by the step from it, and
    owned by its last reader: the unchecked step, or the checked step's
    identity check."""

    def test_memo_equals_fresh_evaluation(self, case2, scheme):
        # the identity check takes g, h', rho and E1 that a checked step kept
        # out of the memo, and forms phi_bar, T_bar and mu_bar again; its
        # leads, rho, h', E1 and g(phi_bar) equal, bitwise, those of a copy
        # of the state that has no memo, whose g is evaluated from a geometry
        # that dies with the call
        grid, p, _, _ = case2
        for state, _ in _stepped_pairs(scheme, case2, p, levels=2):
            before = _row_then_step(grid, p, state, checked=True)
            (memo,) = _explicit_memos(before)
            assert "mu" not in memo
            got = bdf1.explicit_data(grid, p, before)
            assert _explicit_memos(before) == [] and _memo_fields(before) == []
            for name in ("hp", "g"):
                assert getattr(got, name) is memo[name]
            assert np.array_equal(got.phi, replace(state).lead("phi"))
            fresh = replace(state)
            want = bdf1.explicit_data(grid, p, fresh)
            assert _memo_fields(fresh) == []
            for name in ("phi", "temp", "mu", "hp", "g"):
                assert np.array_equal(getattr(got, name), getattr(want, name))
            assert got.rho == want.rho and got.e1 == want.e1
            assert np.array_equal(got.g, g_residual(grid, fresh.lead("phi"), p))
            for name in ("phi", "temp", "mu", "r"):
                assert np.array_equal(before.lead(name), fresh.lead(name))
            # E1 at the lead reads ||grad phi_bar||^2 from the state's norms
            assert got.e1 == e1_energy(grid, fresh.lead("phi"), p)

    def test_memo_keeps_explicit_data_only_for_checked_step(self, case2, scheme):
        # the ledger row leaves the geometry (bdf1) or the lead of phi (bdf2)
        # in the memo for the step; an unchecked step takes every field
        # out, a checked one keeps for its identity check what it cannot form
        # again from the state: g(phi_bar), in place of the four fields of the
        # geometry, h', 1/M and E1, not the leads
        grid, p, phi0, temp0 = case2
        state = init_state(grid, phi0, temp0, p)
        if scheme == "bdf2":
            state, _ = bootstrap(grid, state, 0.1, p)
        row_only = replace(state)
        make_record(grid, p, row_only)
        assert _memo_fields(row_only)
        assert _memo_fields(_row_then_step(grid, p, state, checked=False)) == []
        checked = _row_then_step(grid, p, state, checked=True)
        (memo,) = _explicit_memos(checked)
        assert sorted(memo) == ["e1", "g", "hp", "rho"]
        assert not any(isinstance(v, Anisotropy) for v in checked._norms.values())

    @pytest.mark.parametrize("check", [False, True])
    def test_memo_holds_no_field_after_the_step(self, case2, scheme, check):
        # the step is the last reader of the explicit data, or its identity
        # check is: after either, the memo of the state it left holds no field
        grid, p, phi0, temp0 = case2
        state = init_state(grid, phi0, temp0, p)
        step_fn = bdf1.step
        if scheme == "bdf2":
            state, _ = bootstrap(grid, state, 0.1, p)
            step_fn = step2
        for _ in range(2):
            make_record(grid, p, state)
            new, _ = step_fn(grid, state, 0.1, p, check_identity=check)
            assert _memo_fields(state) == []
            state = new

    def test_checked_run_evaluates_once_per_level(self, case2, scheme, monkeypatch):
        # a checked run_single calls e1_energy and h_prime once per level
        # (the bdf2 bootstrap included): the step evaluates them, and its
        # identity check reads them from the memo
        from dendrosim import diagnostics, experiments, model

        calls = {"e1_energy": 0, "h_prime": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            fn = getattr(model, name)
            for module in (model, bdf1, diagnostics):
                if getattr(module, name, None) is fn:
                    monkeypatch.setattr(module, name, counted(name, fn))
        seen, record = [], experiments.make_record

        def counted_record(*args):
            rec = record(*args)
            seen.append(dict(calls))  # the counts up to this level's ledger row
            return rec

        monkeypatch.setattr(experiments, "make_record", counted_record)
        grid = case2[0]
        cfg = RunConfig(grid=grid, scheme=scheme, tau=0.01, t_end=0.06, params=case2[1],
                        initial=CASE2.initial, check_identity=True)
        res = experiments.run_single(cfg)
        assert res.max_identity_residual > 0.0
        levels = [{k: b[k] - a[k] for k in calls} for a, b in zip(seen, seen[1:])]
        assert levels == [{"e1_energy": 1, "h_prime": 1}] * 6

    @pytest.mark.parametrize("check", [False, True])
    def test_anisotropy_once_per_bdf1_level(self, case2, scheme, check, monkeypatch):
        # bdf1's phi_bar is phi^n, so the geometry that the ledger row of level
        # n evaluates (init_state's at level 0) serves the step to n+1: one
        # evaluation per level; bdf2 evaluates its lead and its new level, and
        # its bootstrap step takes the level-0 geometry.  The final state of
        # the run carries no geometry out.
        from dendrosim import diagnostics, experiments, model

        calls, real = [], model.anisotropy

        def counted(*args):
            calls.append(args)
            return real(*args)

        for module in (model, bdf1, diagnostics):
            if getattr(module, "anisotropy", None) is real:
                monkeypatch.setattr(module, "anisotropy", counted)
        seen, record = [], experiments.make_record

        def counted_record(*args):
            rec = record(*args)
            seen.append(len(calls))  # the count up to this level's ledger row
            return rec

        monkeypatch.setattr(experiments, "make_record", counted_record)
        cfg = RunConfig(grid=case2[0], scheme=scheme, tau=0.01, t_end=0.06, params=case2[1],
                        initial=CASE2.initial, check_identity=check)
        res = experiments.run_single(cfg)
        levels = [b - a for a, b in zip(seen, seen[1:])]
        assert seen[0] == 1
        assert levels == ([1] * 6 if scheme == "bdf1" else [1] + [2] * 5)
        memo = res.final_state._norms.values()
        assert not any(isinstance(v, (Anisotropy, bdf1.ExplicitData)) for v in memo)
