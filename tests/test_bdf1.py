import inspect
import math
from dataclasses import replace
from typing import NamedTuple

import numpy as np
import pytest

from dendrosim import bdf1, bdf2
from dendrosim.bdf1 import (
    identity_proof_lines,
    init_state,
    partial_solves,
    phase_potential,
    scheme_energy,
    step,
)
from dendrosim.grid import GridSpec, inner, laplacian, norm_sq
from dendrosim.model import (
    ModelParams,
    SourceTerms,
    e1_energy,
    g_residual,
    h_prime,
)
from dendrosim.solvers import CG_TOL, solve_shifted

from conftest import shipped_config, smooth_field

CASE2 = shipped_config("case2")


class Levels(NamedTuple):
    """Stands in for a state in ``partial_solves``: its leading coefficient,
    the leads of phi and mu, and the phase and temperature histories."""

    a0: float
    phi_bar: np.ndarray
    mu_bar: np.ndarray
    phi_hist: np.ndarray
    temp_hist: np.ndarray

    def lead(self, name, take=False):
        return {"phi": self.phi_bar, "mu": self.mu_bar}[name]

    def history(self, name):
        return {"phi": self.phi_hist, "temp": self.temp_hist}[name]


def solves(grid, p, tau, rho=1e3, a0=1.0, phi_bar=None, phi_hist=None, temp_hist=None,
           core=None, hp=None, mu_bar=None):
    """The kernel's partial solves with zero data for every field not given;
    the phase history defaults to the explicit field (the bdf1 setting).
    T_2 is forced by K*hp/rho*mu_bar."""
    z = grid.zeros()
    phi_bar = z if phi_bar is None else phi_bar
    phi_hist = phi_bar if phi_hist is None else phi_hist
    levels = Levels(a0, phi_bar, z if mu_bar is None else mu_bar, phi_hist,
                    z if temp_hist is None else temp_hist)
    return partial_solves(grid, p, tau, levels, rho, z if core is None else core,
                          z if hp is None else hp)


# leading BDF coefficient and phase/temperature history seed of each scheme;
# bdf2's history differs from the explicit data
SCHEMES = pytest.mark.parametrize("a0, hist_seed", [(1.0, None), (1.5, 21)], ids=["bdf1", "bdf2"])

# the phase solves of each scheme, plus the b = s1 + s4 = 0 limit (mu is read
# off the solve equation with weight s1/b) and a phase-dependent mobility,
# whose solves run PCG
PHASE_CASES = pytest.mark.parametrize(
    "a0, hist_seed, case",
    [(1.0, None, "plain"), (1.5, 21, "plain"), (1.5, 21, "b_zero"), (1.5, 21, "pcg")],
    ids=["bdf1", "bdf2", "bdf2-s1-s4-zero", "bdf2-pcg"],
)


def phase_case(case, phi_n, s3, s4):
    """Parameters and 1/M of one PHASE_CASES case."""
    if case == "b_zero":
        return replace(CASE2.params, s1=0.0, s3=s3, s4=0.0), 1e3
    rho = 1e3 * (1.2 + 0.2 * np.tanh(phi_n)) if case == "pcg" else 1e3
    return replace(CASE2.params, s3=s3, s4=s4), rho


def cg_slack(case, p, rhs):
    """Bound on |r|/b for the residual r of a phase solve, b = s1 + s4: zero
    for the exact cosine solve, CG_TOL*||rhs||/b for PCG.  A pair read off its
    solve equation satisfies mu = s1*Lap(phi) - ... up to -(s1/b)*r, and the
    phase equation up to -(s4/b)*r/rho."""
    return CG_TOL * float(np.linalg.norm(rhs)) / (p.s1 + p.s4) if case == "pcg" else 0.0


def raw_closure(grid, p, tau, state, parts, mu1, mu2, e1_n, rho_n):
    """A1/A2 straight from the unsimplified definitions (independent oracle
    for the production formulas)."""
    hp = h_prime(state.phi)
    m = 1.0 / rho_n
    lam_e = p.lam / p.eps
    hm = hp * m
    dphi1 = parts.phi1 - state.phi
    a1 = (
        2.0 * e1_n
        - inner(grid, g_residual(grid, state.phi, p), parts.phi2)
        + tau * lam_e * (inner(grid, hm * state.mu, parts.temp2)
                         - inner(grid, hm * state.temp, mu2))
        + tau * lam_e * inner(grid, hm * state.temp,
                              (p.s3 / p.eps**2) * parts.phi2
                              - p.s4 * laplacian(grid, parts.phi2))
    )
    a2 = (
        2.0 * math.sqrt(e1_n) * state.r
        + inner(grid, g_residual(grid, state.phi, p), dphi1)
        - tau * lam_e * (inner(grid, hm * state.mu, parts.temp1)
                         - inner(grid, hm * state.temp, mu1))
        - tau * lam_e * inner(grid, hm * state.temp,
                              (p.s3 / p.eps**2) * dphi1
                              - p.s4 * laplacian(grid, dphi1))
    )
    return a1, a2


def case2_state(grid, p, seed=None):
    x, y = grid.mesh()
    phi0 = np.tanh((0.25 - x**2 - y**2) / 0.1)
    temp0 = -0.5 * phi0
    state = init_state(grid, phi0, temp0, p)
    if seed is not None:
        # roughen the state so closure oracles see generic data
        phi = phi0 + 0.05 * smooth_field(grid, seed)
        state = replace(state, phi=phi, temp=temp0 + 0.05 * smooth_field(grid, seed + 1),
                        mu=smooth_field(grid, seed + 2),
                        r=math.sqrt(e1_energy(grid, phi, p)) * 1.01)
    return state


class TestInitState:
    def test_zero_data(self, grid16):
        p = CASE2.params
        s = init_state(grid16, grid16.zeros(), grid16.zeros(), p)
        expected_r = math.sqrt(grid16.area * (0.25 / p.eps**2 + p.bconst))
        assert s.r == pytest.approx(expected_r)
        assert s.mu == pytest.approx(0.0, abs=1e-12)

    def test_case2_r0_regression(self):
        grid = GridSpec(64, 64)
        p = CASE2.params
        x, y = grid.mesh()
        phi0 = np.tanh((0.25 - x**2 - y**2) / 0.1)
        s = init_state(grid, phi0, -0.5 * phi0, p)
        assert np.isfinite(s.r) and s.r > 0
        # frozen regression value (midpoint quadrature, 64x64)
        assert s.r == pytest.approx(135.36722186200697, abs=1e-9)

    def test_mu_linear_in_temp(self, grid16):
        p = CASE2.params
        x, y = grid16.mesh()
        phi0 = np.tanh((0.25 - x**2 - y**2) / 0.1)
        s_zero = init_state(grid16, phi0, grid16.zeros(), p)
        s_half = init_state(grid16, phi0, -0.5 * phi0, p)
        delta = s_half.mu - s_zero.mu
        expected = -(p.lam / p.eps) * h_prime(phi0) * (-0.5 * phi0)
        assert delta == pytest.approx(expected, abs=1e-10)


class TestState:
    """One state type for both BDF orders: its table reads the order from
    whether the state holds level n-1."""

    @staticmethod
    def levels(grid, order):
        rng = np.random.default_rng(7)
        fields = {name: rng.standard_normal(grid.shape) for name in ("phi", "temp", "mu")}
        fields.update(r=1.25, t=0.3, n=4)
        if order == 2:
            fields.update({name + "_prev": rng.standard_normal(grid.shape)
                           for name in ("phi", "temp", "mu")}, r_prev=1.5)
        return fields

    def test_order_one_table(self, grid16):
        state = bdf1.State(**self.levels(grid16, 1))
        assert state.order == 1 and state.a0 == 1.0
        for name in ("phi", "temp", "mu", "r"):
            x = getattr(state, name)
            assert state.lead(name) is x and state.lead(name, take=True) is x
            assert state.history(name) is x

    def test_order_two_table(self, grid16):
        state = bdf1.State(**self.levels(grid16, 2))
        assert state.order == 2 and state.a0 == 1.5
        for name in ("phi", "temp", "mu"):
            x, x_prev = getattr(state, name), getattr(state, name + "_prev")
            lead = state.lead(name)
            assert np.array_equal(lead, 2.0 * x - x_prev)
            assert state.lead(name, take=True) is lead  # formed once; taken out
            assert ("lead", name) not in state._norms
            assert np.array_equal(state.history(name), 2.0 * x - 0.5 * x_prev)
        assert state.lead("r") == 2.0 * 1.25 - 1.5
        assert state.history("r") == 2.0 * 1.25 - 0.5 * 1.5

    @pytest.mark.parametrize("held", [("phi_prev",), ("r_prev",),
                                      ("phi_prev", "temp_prev", "mu_prev")])
    def test_half_filled_state_refused(self, grid16, held):
        fields = self.levels(grid16, 2)
        for name in ("phi_prev", "temp_prev", "mu_prev", "r_prev"):
            if name not in held:
                del fields[name]
        with pytest.raises(ValueError, match="or none of them"):
            bdf1.State(**fields)

    @pytest.mark.parametrize("order", [1, 2])
    def test_next_level_keeps_the_order(self, grid16, order):
        state = bdf1.State(**self.levels(grid16, order))
        phi, temp, mu = grid16.zeros(), grid16.zeros(), grid16.zeros()
        new = state.next_level(phi, temp, mu, 0.5, 0.4)
        assert new.order == order and new.n == 5 and new.t == 0.4 and new.r == 0.5
        assert new.phi is phi and new.temp is temp and new.mu is mu
        if order == 2:
            assert new.phi_prev is state.phi and new.temp_prev is state.temp
            assert new.mu_prev is state.mu and new.r_prev == state.r


class TestPhaseSolves:
    def test_phi1_zero_input(self, grid16):
        p = CASE2.params
        parts = solves(grid16, p, 0.1)
        assert np.all(parts.phi1 == 0.0)
        mu1 = phase_potential(p, parts.coeff, parts.phi1, parts.rhs1, grid16.zeros())
        assert np.all(mu1 == 0.0)

    def test_phi1_constant_closed_form(self, grid16):
        p = replace(CASE2.params, s3=2.0, s4=1.0)
        tau, rho, c = 0.05, 1e3, 0.8
        phi1 = solves(grid16, p, tau, rho, phi_bar=grid16.full(c)).phi1
        expected = c * (rho / tau + p.s3 / p.eps**2) / (rho / tau + (p.s2 + p.s3) / p.eps**2)
        assert phi1 == pytest.approx(expected, rel=1e-12)

    @PHASE_CASES
    def test_phi1_back_substitution(self, grid16, a0, hist_seed, case):
        # the returned pair satisfies the original coupled system
        tau = 0.02
        phi_n = smooth_field(grid16, 7)
        p, rho = phase_case(case, phi_n, s3=3.0, s4=2.0)
        phi_hist = phi_n if hist_seed is None else smooth_field(grid16, hist_seed)
        with np.errstate(all="raise"):
            parts = solves(grid16, p, tau, rho, a0, phi_bar=phi_n, phi_hist=phi_hist)
            phi1 = parts.phi1
            mu1 = phase_potential(p, parts.coeff, phi1, parts.rhs1, grid16.zeros())
        if case == "b_zero":
            assert np.array_equal(mu1, -(p.s2 / p.eps**2) * phi1)
        m = 1.0 / rho
        res_a = (a0 * phi1 - phi_hist) / tau - m * (
            mu1 - (p.s3 / p.eps**2) * (phi1 - phi_n)
            + p.s4 * (laplacian(grid16, phi1) - laplacian(grid16, phi_n))
        )
        res_b = mu1 - p.s1 * laplacian(grid16, phi1) + (p.s2 / p.eps**2) * phi1
        rhs1 = phi_hist * (rho / tau) + (p.s3 / p.eps**2) * phi_n - p.s4 * laplacian(grid16, phi_n)
        slack = cg_slack(case, p, rhs1)
        scale = max(1.0, np.max(np.abs(phi1)) / tau)
        assert np.max(np.abs(res_a)) < 1e-10 * scale + p.s4 * slack / np.min(rho)
        assert np.max(np.abs(res_b)) < 1e-10 * max(1.0, np.max(np.abs(mu1))) + p.s1 * slack

    def test_phi2_zero_forcing(self, grid16):
        p = CASE2.params
        parts = solves(grid16, p, 0.1, core=grid16.zeros())
        assert np.all(parts.phi2 == 0.0)
        mu2 = phase_potential(p, parts.coeff, parts.phi2, grid16.zeros(), grid16.zeros())
        assert np.all(mu2 == 0.0)

    def test_phi2_unit_forcing_sign(self, grid16):
        # g = 1, T = 0: constant output with the closed-form negative value
        p = CASE2.params
        tau, rho = 0.1, 1e3
        phi2 = solves(grid16, p, tau, rho, core=grid16.full(-1.0)).phi2  # core = -(g + 0)
        m = 1.0 / rho
        expected = -tau * m / (1.0 + tau * m * (p.s2 + p.s3) / p.eps**2)
        assert phi2 == pytest.approx(expected, rel=1e-12)
        assert np.all(phi2 < 0.0)

    @PHASE_CASES
    def test_phi2_back_substitution(self, grid16, a0, hist_seed, case):
        tau = 0.02
        phi_n = smooth_field(grid16, 8)
        temp_n = smooth_field(grid16, 9)
        p, rho = phase_case(case, phi_n, s3=1.0, s4=0.5)
        phi_hist = phi_n if hist_seed is None else smooth_field(grid16, hist_seed)
        g_n = g_residual(grid16, phi_n, p)
        coupling = (p.lam / p.eps) * h_prime(phi_n) * temp_n
        core = -(g_n + coupling)
        with np.errstate(all="raise"):
            parts = solves(grid16, p, tau, rho, a0, phi_bar=phi_n, phi_hist=phi_hist, core=core)
            phi2 = parts.phi2
            mu2 = phase_potential(p, parts.coeff, phi2, grid16.zeros(), core)
        if case == "b_zero":
            assert np.array_equal(mu2, core - (p.s2 / p.eps**2) * phi2)
        m = 1.0 / rho
        res_a = a0 * phi2 / tau - m * (
            mu2 - (p.s3 / p.eps**2) * phi2 + p.s4 * laplacian(grid16, phi2)
        )
        res_b = mu2 + g_n - p.s1 * laplacian(grid16, phi2) + (p.s2 / p.eps**2) * phi2 + coupling
        slack = cg_slack(case, p, core)
        assert np.max(np.abs(res_a)) < (1e-10 * max(1.0, np.max(np.abs(phi2)) / tau)
                                        + p.s4 * slack / np.min(rho))
        assert np.max(np.abs(res_b)) < 1e-10 * max(1.0, np.max(np.abs(mu2))) + p.s1 * slack


class TestZeroStabilizers:
    """A zero stabilizer weight costs nothing and moves no bit."""

    @pytest.mark.parametrize("s4, laplacians", [(0.0, 0), (2.0, 1)])
    def test_step_laplacian_calls(self, grid16, monkeypatch, s4, laplacians):
        # the s4 term of the phase history is the only real-space Laplacian
        # of a constant-mobility step
        from dendrosim import grid as grid_module
        from dendrosim import solvers

        p = replace(CASE2.params, s3=3.0, s4=s4)
        state = case2_state(grid16, p, seed=5)
        calls, real = [], grid_module.laplacian

        def counted(*args):
            calls.append(args)
            return real(*args)

        for module in (grid_module, bdf1, solvers):
            monkeypatch.setattr(module, "laplacian", counted)
        step(grid16, state, 0.01, p)
        assert len(calls) == laplacians

    @pytest.mark.parametrize("s3", [0.0, 3.0])
    @pytest.mark.parametrize("s4", [0.0, 2.0])
    def test_phase_pair_matches_full_history(self, grid16, s3, s4):
        # the phase pair equals, bitwise, that of the history written out
        # with every stabilizer term, zero-weighted ones included
        p = replace(CASE2.params, s3=s3, s4=s4)
        tau, rho, a0 = 0.02, 1e3, 1.5
        phi_bar, phi_hist = smooth_field(grid16, 7), smooth_field(grid16, 21)
        parts = solves(grid16, p, tau, rho, a0, phi_bar=phi_bar, phi_hist=phi_hist)
        b = p.s1 + p.s4
        coeff = a0 * rho / tau + (p.s2 + p.s3) / p.eps**2
        rhs1 = phi_hist * (rho / tau) + (p.s3 / p.eps**2) * phi_bar - p.s4 * laplacian(grid16, phi_bar)
        phi1, _ = solve_shifted(grid16, coeff, b, rhs1)
        mu1 = p.s1 / b * (coeff * phi1 - rhs1) - p.s2 / p.eps**2 * phi1
        assert parts.coeff == coeff and parts.rhs1.tobytes() == rhs1.tobytes()
        assert parts.phi1.tobytes() == phi1.tobytes()
        got = phase_potential(p, parts.coeff, parts.phi1, parts.rhs1, grid16.zeros())
        assert got.tobytes() == mu1.tobytes()


class TestTemperatureSolves:
    def test_constant_is_fixed_point(self, grid16):
        p = CASE2.params
        t1 = solves(grid16, p, 0.25, temp_hist=grid16.full(1.7)).temp1
        assert t1 == pytest.approx(1.7, rel=1e-12)

    def test_zero_mu_gives_zero_t2(self, grid16):
        p = CASE2.params
        hp = grid16.full(1.0)
        assert np.all(solves(grid16, p, 0.25, hp=hp, mu_bar=grid16.zeros()).temp2 == 0.0)

    @SCHEMES
    def test_mean_conservation(self, grid16, a0, hist_seed):
        from dendrosim.grid import integrate

        p = CASE2.params
        temp = smooth_field(grid16, 12 if hist_seed is None else hist_seed)
        t1 = solves(grid16, p, 0.3, a0=a0, temp_hist=temp).temp1
        assert integrate(grid16, t1) == pytest.approx(integrate(grid16, temp) / a0, abs=1e-12)


class TestClosure:
    def test_decoupled_limit(self, grid16):
        # zero phi, T and mu make phi2 = mu2 = temp2 = 0, which forces xi = R / sqrt(E1)
        p = CASE2.params
        s = init_state(grid16, grid16.zeros(), grid16.zeros(), p)
        s = replace(s, r=s.r * 1.23)
        e1_n = e1_energy(grid16, s.phi, p)
        _, rep = step(grid16, s, 0.1, p)
        xi, a1 = rep.xi, rep.a1
        assert xi == pytest.approx(s.r / math.sqrt(e1_n), rel=1e-12)
        assert a1 == pytest.approx(2.0 * e1_n, rel=1e-12)

    def test_steady_state_is_fixed_point(self, grid16):
        # phi = 1, T = 0 with R = sqrt(E1) reproduces itself and xi = 1
        p = replace(CASE2.params, s3=1.0, s4=1.0)
        s = init_state(grid16, grid16.full(1.0), grid16.zeros(), p)
        new, rep = step(grid16, s, 0.5, p)
        assert rep.xi == pytest.approx(1.0, rel=1e-12)
        assert new.phi == pytest.approx(1.0, rel=1e-11)
        assert new.temp == pytest.approx(0.0, abs=1e-12)
        assert new.r == pytest.approx(s.r, rel=1e-12)

    @pytest.mark.parametrize("s_set", [(0.9, 10.0, 0.0, 0.0), (0.5, 4.0, 3.0, 2.0)])
    def test_raw_definition_oracle(self, s_set):
        # the kernel's A1 (sum-of-squares form) and A2 (substituted form) agree
        # with the raw defining expressions of its partial solves on a roughened state
        grid = GridSpec(24, 24)
        s1, s2, s3, s4 = s_set
        p = replace(CASE2.params, s1=s1, s2=s2, s3=s3, s4=s4)
        state = case2_state(grid, p, seed=42)
        tau, rho = 0.05, 1e3
        e1_n = e1_energy(grid, state.phi, p)
        g_n = g_residual(grid, state.phi, p)
        coupling = (p.lam / p.eps) * h_prime(state.phi) * state.temp
        core = -(g_n + coupling)
        parts = solves(grid, p, tau, rho, phi_bar=state.phi, temp_hist=state.temp, core=core,
                       hp=h_prime(state.phi), mu_bar=state.mu)
        # the pair the step forms after xi from (phi_1, rhs_1) and (phi_2, core)
        mu1 = phase_potential(p, parts.coeff, parts.phi1, parts.rhs1, grid.zeros())
        mu2 = phase_potential(p, parts.coeff, parts.phi2, grid.zeros(), core)
        _, rep = step(grid, state, tau, p)
        a1, a2 = rep.a1, rep.a2
        a1_raw, a2_raw = raw_closure(grid, p, tau, state, parts, mu1, mu2, e1_n, rho)
        assert a1 == pytest.approx(a1_raw, rel=1e-9)
        assert a2 == pytest.approx(a2_raw, rel=1e-9)
        assert a1 > 0.0

    @pytest.mark.parametrize("scheme", ["bdf1", "bdf2"])
    def test_new_mu_is_formed_once_from_the_new_phi(self, grid16, monkeypatch, scheme):
        # once xi is known the step forms one mu, read off the recombined
        # phase equation coeff*phi - b*Lap(phi) = rhs_1 + xi*core, bitwise
        # mu = (s1/b)(coeff*phi - rhs_1 - xi*core) - (s2/eps^2) phi + xi*core
        solved, formed = [], []
        real_solves, real_potential = bdf1.partial_solves, bdf1.phase_potential

        def recorded_solves(*args):
            parts = real_solves(*args)
            core = args[5]
            solved.append([parts.coeff] + [x.copy() for x in (parts.phi1, parts.rhs1,
                                                                parts.phi2, core)])
            return parts

        def recorded_potential(*args):
            formed.append(args)
            return real_potential(*args)

        p = replace(CASE2.params, s3=3.0, s4=2.0)
        state, step_fn = case2_state(grid16, p, seed=5), step
        if scheme == "bdf2":
            state, _ = bdf2.bootstrap(grid16, state, 0.01, p)
            step_fn = bdf2.step2
        monkeypatch.setattr(bdf1, "partial_solves", recorded_solves)
        monkeypatch.setattr(bdf1, "phase_potential", recorded_potential)
        new, rep = step_fn(grid16, state, 0.01, p)
        assert len(formed) == 1
        (coeff, phi1, rhs1, phi2, core), = solved
        xi, b = rep.xi, p.s1 + p.s4
        phi = phi1 + xi * phi2
        mu = p.s1 / b * (coeff * phi - rhs1 - xi * core) - p.s2 / p.eps**2 * phi + xi * core
        assert new.phi.tobytes() == phi.tobytes()
        assert new.mu.tobytes() == mu.tobytes()


class TestStep:
    def test_small_step_consistency(self, case2):
        grid, p, phi0, temp0 = case2
        s = init_state(grid, phi0, temp0, p)
        deltas = []
        for tau in (1e-3, 5e-4, 2.5e-4):
            new, _ = step(grid, s, tau, p)
            deltas.append(math.sqrt(norm_sq(grid, new.phi - s.phi)))
        assert deltas[0] / deltas[1] == pytest.approx(2.0, rel=0.1)
        assert deltas[1] / deltas[2] == pytest.approx(2.0, rel=0.1)

    @pytest.mark.parametrize("tau", [1e-3, 1e-1, 1.0, 10.0, 100.0])
    def test_energy_identity_and_dissipation(self, case2, tau):
        grid, p, phi0, temp0 = case2
        s = init_state(grid, phi0, temp0, p)
        e_prev = scheme_energy(grid, p, s)
        for _ in range(5):
            s, rep = step(grid, s, tau, p, check_identity=True)
            assert rep.identity_residual <= 1e-9
            assert rep.a1 > 0.0
            e = scheme_energy(grid, p, s)
            assert e <= e_prev + 1e-9 * abs(e_prev)
            e_prev = e

    def test_proof_lines_vanish_individually(self, case2):
        grid, p, phi0, temp0 = case2
        s = init_state(grid, phi0, temp0, p)
        new, _ = step(grid, s, 0.5, p)
        lines = identity_proof_lines(grid, p, 0.5, s, new)
        scale = abs(scheme_energy(grid, p, s))
        for line in lines:
            assert abs(line) <= 1e-9 * scale

    def test_xi_tends_to_one(self, case2):
        grid, p, phi0, temp0 = case2
        devs = []
        for tau in (1e-1, 1e-2, 1e-3):
            s = init_state(grid, phi0, temp0, p)
            _, rep = step(grid, s, tau, p)
            devs.append(abs(rep.xi - 1.0))
        assert devs[0] > devs[1] > devs[2]

    def test_affine_recombination(self, case2):
        # phi^{n+1} depends affinely on xi: rebuilding with a perturbed xi
        # matches phi1 + xi'*phi2 exactly
        grid, p, phi0, temp0 = case2
        s = init_state(grid, phi0, temp0, p)
        tau, rho = 0.1, 1e3
        g_n = g_residual(grid, s.phi, p)
        coupling = (p.lam / p.eps) * h_prime(s.phi) * s.temp
        parts = solves(grid, p, tau, rho, phi_bar=s.phi, core=-(g_n + coupling))
        phi1, phi2 = parts.phi1, parts.phi2
        new, rep = step(grid, s, tau, p)
        assert np.array_equal(new.phi, phi1 + rep.xi * phi2)
        xi_prime = rep.xi + 0.25
        assert phi1 + xi_prime * phi2 == pytest.approx(new.phi + 0.25 * phi2, rel=1e-12)

    def test_source_terms_enter_xi_independent_parts(self, case2):
        # adding forcing shifts phi1/T1 but leaves the phi2/T2 pair untouched
        grid, p, phi0, temp0 = case2
        src = SourceTerms(phi=lambda x, y, t: 0.3 * np.cos(np.pi * x),
                          temp=lambda x, y, t: 0.1 * np.cos(np.pi * y))
        s = init_state(grid, phi0, temp0, p)
        plain, rep_plain = step(grid, s, 0.01, p)
        forced, rep_forced = step(grid, s, 0.01, p, sources=src)
        assert not np.array_equal(plain.phi, forced.phi)
        assert rep_forced.a1 == pytest.approx(rep_plain.a1, rel=1e-12)

    def test_variable_mobility_path(self, case2):
        grid, p, phi0, temp0 = case2
        p_var = ModelParams(
            eps=p.eps, lam=p.lam, diff=p.diff, latent=p.latent, sigma=p.sigma,
            mobility=1.2e3, s1=p.s1, s2=p.s2, s3=p.s3, s4=p.s4, bconst=p.bconst,
            mobility_tanh=1 / 6,
        )
        s = init_state(grid, phi0, temp0, p_var)
        e_prev = scheme_energy(grid, p_var, s)
        for _ in range(3):
            s, rep = step(grid, s, 0.5, p_var, check_identity=True)
            assert rep.cg_iterations > 0
            assert rep.identity_residual <= 1e-8
            e = scheme_energy(grid, p_var, s)
            assert e <= e_prev + 1e-9 * abs(e_prev)
            e_prev = e

    def test_steppers_share_one_signature(self):
        # one run_single loop drives bdf1.step, bdf2.bootstrap and bdf2.step2
        def params(fn):
            return [(q.name, q.kind, q.default) for q in inspect.signature(fn).parameters.values()]

        assert params(bdf1.step) == params(bdf2.bootstrap) == params(bdf2.step2)

    def test_rejects_nonpositive_tau(self, case2):
        grid, p, phi0, temp0 = case2
        s = init_state(grid, phi0, temp0, p)
        with pytest.raises(ValueError, match="tau"):
            step(grid, s, 0.0, p)
