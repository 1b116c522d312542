"""Row-blocked kernels against the whole-field kernels they replace.

The references below are the full-field formulations of each kernel, one
ufunc pass over whole fields per operation.  Every blocked kernel must give
their bits exactly, whatever the block budget: the budget is monkeypatched
so that a 60x16 field is cut into several equal blocks, into blocks with a
ragged last one, and into one-row blocks.
"""

from dataclasses import replace

import numpy as np
import pytest

from dendrosim import bdf1, diagnostics, grid as grid_mod, model
from dendrosim.bdf1 import State, init_state, partial_solves, phase_potential, sav_step
from dendrosim.experiments import run_single
from dendrosim.grid import GridSpec, face_flux_divergence, gradient, laplacian, row_blocks
from dendrosim.model import (
    NO_SOURCES,
    Anisotropy,
    SourceTerms,
    aniso_flux,
    g_residual,
    h_prime,
)
from dendrosim.solvers import helmholtz_solve, solve_shifted

from conftest import random_field, shipped_config, smooth_field
from test_grid import _laid_out, _ref_face_flux_divergence, _ref_laplacian, _same_bits

DENDRITE = shipped_config("dendrite")
GRID = GridSpec(60, 16, -1.0, 1.0, -0.5, 0.5)
ROW = 16 * 8  # bytes of one row of GRID

# budgets that cut GRID into equal blocks for every live count from 2 to 6
# (30, 20, 15, 12 and 10 rows), into blocks whose last is short for each of
# them (33, 22, 16, 13 and 11 rows), and into one-row blocks
BUDGETS = {"several": 60 * ROW, "ragged": 66 * ROW, "one-row": 1}


@pytest.fixture(params=list(BUDGETS))
def budget(request, monkeypatch):
    monkeypatch.setattr(grid_mod, "_BLOCK_BYTES", BUDGETS[request.param])
    return request.param


# ---- the whole-field kernels the blocked ones replace ----------------------


def _ref_from_gradient(gx, gy, sigma, reg=model.DEFAULT_GRAD_REG):
    x2 = gx * gx
    y2 = gy * gy
    mag2 = x2 + y2
    kap = x2 - y2
    kap *= kap
    x2 *= y2
    x2 *= 4.0
    kap -= x2
    inv = mag2 + reg
    np.reciprocal(inv, out=inv)
    kap *= inv
    kap *= inv
    kap *= sigma
    kap += 1.0
    return Anisotropy(gx, gy, kap, mag2)


def _ref_aniso_flux(geom, sigma, reg=model.DEFAULT_GRAD_REG):
    gx, gy, kap, mag2 = geom
    e = gx * gx
    vx = gy * gy
    e -= vx
    np.add(mag2, reg, out=vx)
    np.reciprocal(vx, out=vx)
    e *= kap
    e *= mag2
    e *= vx
    e *= vx
    e *= vx
    e *= 16.0 * sigma
    e *= gx
    e *= gy
    np.multiply(e, gy, out=vx)
    e *= gx
    np.negative(e, out=e)
    return vx, e


def _ref_g_residual(grid, phi, p, geom):
    w = geom.kap * geom.kap
    w -= p.s1
    out = _ref_face_flux_divergence(grid, w, phi)
    np.negative(out, out=out)
    bulk = phi * (phi * phi - 1.0)
    bulk -= p.s2 * phi
    bulk /= p.eps**2
    out += bulk
    if p.sigma > 0.0:
        model._subtract_divergence(grid, *_ref_aniso_flux(geom, p.sigma), out)
    return out


def _ref_h_prime(phi):
    q = phi * phi - 1.0
    return q * q


def _ref_interface_sums(phi, geom):
    q = phi * phi
    q -= 1.0
    return (0.5 * float(np.dot((geom.kap * geom.kap).ravel(), geom.mag2.ravel())),
            0.25 * float(np.dot(q.ravel(), q.ravel())))


def _ref_phase_potential(p, coeff, phi, rhs, forcing):
    b = p.s1 + p.s4
    mu = coeff * phi
    mu -= rhs
    mu -= forcing
    mu *= p.s1 / b if b > 0.0 else 0.0
    mu -= (p.s2 / p.eps**2) * phi
    mu += forcing
    return mu


def _ref_partial_solves(grid, p, tau, state, rho, core, hp, sources, t_new):
    order2 = state.phi_prev is not None
    a0 = 1.5 if order2 else 1.0

    def history(name):
        x = getattr(state, name)
        return 2.0 * x - 0.5 * getattr(state, name + "_prev") if order2 else x

    def lead(name):
        x = getattr(state, name)
        return 2.0 * x - getattr(state, name + "_prev") if order2 else x

    coeff = a0 * rho / tau + (p.s2 + p.s3) / p.eps**2
    phi_hist = history("phi")
    rhs1 = phi_hist * (rho / tau)
    phi_bar = lead("phi")
    if p.s3 > 0.0:
        rhs1 += (p.s3 / p.eps**2) * phi_bar
    if p.s4 > 0.0:
        lap = _ref_laplacian(grid, phi_bar)
        lap *= p.s4
        rhs1 -= lap
    src = sources.at("phi", grid, t_new)
    if src is not None:
        rhs1 += rho * src
    temp_forcing = p.latent * hp
    temp_forcing /= rho
    temp_forcing *= lead("mu")
    rhs_t1 = history("temp") / tau
    src = sources.at("temp", grid, t_new)
    if src is not None:
        rhs_t1 += src
    temp1 = helmholtz_solve(grid, a0 / tau, p.diff, rhs_t1)
    temp2 = helmholtz_solve(grid, a0 / tau, p.diff, temp_forcing)
    phi1, _ = solve_shifted(grid, coeff, p.s1 + p.s4, rhs1)
    phi2, _ = solve_shifted(grid, coeff, p.s1 + p.s4, core)
    return phi1, rhs1, phi2, temp1, temp2, temp_forcing


# ---- fixtures ---------------------------------------------------------------


def _params(**changes):
    return replace(DENDRITE.params, **changes)


def _order2_state(seed=0):
    """An order-2 state on GRID with O(1) fields of its own."""
    fields = [np.tanh(2.0 * smooth_field(GRID, seed + k)) for k in range(6)]
    return State(*fields[:3], 1.3, 0.2, 2, *fields[3:], 1.1)


def _phi():
    return np.tanh(3.0 * smooth_field(GRID, 7) + 0.1 * random_field(GRID, 8))


FIELD_MOBILITY = dict(mobility=1.2e3, mobility_tanh=1 / 6)


# ---- the blocks themselves --------------------------------------------------


class TestRowBlocks:
    @pytest.mark.parametrize("live", [1, 2, 3, 4, 5, 6, 8])
    def test_cover_the_rows_in_order(self, budget, live):
        blocks = list(row_blocks(GRID.shape, live))
        covered = np.concatenate([np.arange(GRID.nx)[rows] for rows in blocks])
        assert np.array_equal(covered, np.arange(GRID.nx))
        sizes = [len(range(GRID.nx)[rows]) for rows in blocks]
        assert all(size == sizes[0] for size in sizes[:-1]) and 0 < sizes[-1] <= sizes[0]
        assert sizes[0] == min(GRID.nx, max(1, BUDGETS[budget] // (live * ROW)))

    def test_budget_cases(self, budget):
        lengths = {live: [len(range(GRID.nx)[rows]) for rows in row_blocks(GRID.shape, live)]
                   for live in range(2, 7)}
        for live, sizes in lengths.items():
            if budget == "one-row":
                assert sizes == [1] * GRID.nx
            elif budget == "several":
                assert len(sizes) == live and len(set(sizes)) == 1
            else:
                assert len(sizes) > 1 and sizes[-1] < sizes[0]

    @pytest.mark.parametrize("live", [2, 4, 5, 6, 8])
    def test_a_128_field_is_one_block(self, live):
        assert list(row_blocks((128, 128), live)) == [slice(0, 128)]

    def test_a_512_field_is_cut_within_the_budget(self):
        for live in (2, 4, 6):
            blocks = list(row_blocks((512, 512), live))
            assert len(blocks) > 1
            assert all(live * len(range(512)[rows]) * 512 * 8 <= grid_mod._BLOCK_BYTES
                       for rows in blocks)

    def test_a_0d_shape_is_one_block(self):
        assert list(row_blocks((), 3)) == [...]


# ---- oracles ----------------------------------------------------------------


class TestBlockedKernelOracles:
    """Each blocked kernel gives the whole-field kernel's bits exactly."""

    def test_from_gradient(self, budget):
        gx, gy = gradient(GRID, _phi())
        got, want = Anisotropy.from_gradient(gx, gy, 0.1), _ref_from_gradient(gx, gy, 0.1)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_aniso_flux(self, budget):
        geom = _ref_from_gradient(*gradient(GRID, _phi()), 0.1)
        for got, want in zip(aniso_flux(geom, 0.1), _ref_aniso_flux(geom, 0.1)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("sigma", [0.0, 0.1])
    def test_g_residual(self, budget, sigma):
        p = _params(sigma=sigma)
        phi = _phi()
        geom = _ref_from_gradient(*gradient(GRID, phi), sigma)
        want = _ref_g_residual(GRID, phi, p, geom)
        assert np.array_equal(g_residual(GRID, phi, p, geom), want)
        assert np.array_equal(g_residual(GRID, phi, p), want)

    def test_h_prime(self, budget):
        phi = _phi()
        assert np.array_equal(h_prime(phi), _ref_h_prime(phi))

    def test_interface_sums(self, budget):
        phi = _phi()
        geom = _ref_from_gradient(*gradient(GRID, phi), 0.1)
        assert model._interface_sums(phi, geom) == _ref_interface_sums(phi, geom)

    def test_crystal_area(self, budget):
        phi = _phi()
        want = float(np.sum(0.5 * (1.0 + phi))) * GRID.cell_area
        assert diagnostics.crystal_area(GRID, phi) == want

    @pytest.mark.parametrize("layout", ["C", "F", "view"])
    def test_flux_divergences(self, budget, layout):
        f, w = random_field(GRID, 1), 0.5 + np.random.default_rng(2).random(GRID.shape)
        assert _same_bits(laplacian(GRID, _laid_out(f, layout)), _ref_laplacian(GRID, f))
        want = _ref_face_flux_divergence(GRID, w, f)
        assert _same_bits(face_flux_divergence(GRID, _laid_out(w.copy(), layout),
                                               _laid_out(f, layout)), want)

    def test_helmholtz_divisor_blocks(self, budget, monkeypatch):
        rhs = random_field(GRID, 3)
        got = helmholtz_solve(GRID, 2.5, 0.3, rhs)
        monkeypatch.setattr(grid_mod, "_BLOCK_BYTES", 1 << 20)
        assert np.array_equal(got, helmholtz_solve(GRID, 2.5, 0.3, rhs))

    def test_lead_and_history(self, budget):
        state = _order2_state()
        for name in ("phi", "temp", "mu"):
            x, x_prev = getattr(state, name), getattr(state, name + "_prev")
            assert np.array_equal(state.lead(name), 2.0 * x - x_prev)
            assert np.array_equal(state.history(name), 2.0 * x - 0.5 * x_prev)
        assert state.lead("r") == 2.0 * 1.3 - 1.1
        assert state.history("r") == 2.0 * 1.3 - 0.5 * 1.1

    @pytest.mark.parametrize("coeff", [7.5, "field"])
    def test_phase_potential(self, budget, coeff):
        p = _params()
        phi, rhs, forcing = _phi(), random_field(GRID, 4), random_field(GRID, 5)
        if coeff == "field":
            coeff = 3.0 + random_field(GRID, 6) ** 2
        assert np.array_equal(phase_potential(p, coeff, phi, rhs, forcing),
                              _ref_phase_potential(p, coeff, phi, rhs, forcing))

    @pytest.mark.parametrize("mobility", ["constant", "field"])
    @pytest.mark.parametrize("order", [1, 2])
    def test_partial_solves(self, budget, mobility, order):
        p = _params()
        if mobility == "field":
            p = replace(p, **FIELD_MOBILITY)
        state = _order2_state(10)
        if order == 1:
            state = State(state.phi, state.temp, state.mu, state.r)
        sources = SourceTerms(phi=lambda x, y, t: np.cos(3 * x) * y + t,
                              temp=lambda x, y, t: np.sin(2 * y) - x * t)
        phi_bar = state.lead("phi")
        rho = p.rho_at(phi_bar)
        core, hp = random_field(GRID, 11), h_prime(phi_bar)
        want = _ref_partial_solves(GRID, p, 0.01, state, rho, core, hp, sources, 0.21)
        got = partial_solves(GRID, p, 0.01, state, rho, core, hp, sources, 0.21)
        assert np.array_equal(got.temp1, want[3]) and np.array_equal(got.temp2, want[4])
        assert np.array_equal(got.rhs1, want[1])
        assert np.array_equal(got.phi1, want[0]) and np.array_equal(got.phi2, want[2])
        assert got.forcing_temp2 == GRID.cell_area * float(np.dot(want[5].ravel(),
                                                                  want[4].ravel()))


class TestBlockedSteps:
    """Whole steps and runs give the bits of a single-block run."""

    @pytest.mark.parametrize("checked", [False, True])
    @pytest.mark.parametrize("scheme", ["bdf1", "bdf2"])
    def test_run_single(self, budget, monkeypatch, scheme, checked):
        cfg = replace(DENDRITE, grid=GRID, scheme=scheme, check_identity=checked,
                      t_end=4 * DENDRITE.tau, snapshot_times=())
        blocked = run_single(cfg)
        monkeypatch.setattr(grid_mod, "_BLOCK_BYTES", 1 << 20)
        whole = run_single(cfg)
        assert blocked.records == whole.records
        for name in ("phi", "temp", "mu"):
            assert np.array_equal(getattr(blocked.final_state, name),
                                  getattr(whole.final_state, name))

    def test_field_mobility_step(self, budget, monkeypatch):
        p = _params(**FIELD_MOBILITY)
        phi0, temp0 = DENDRITE.initial.build(GRID)

        def stepped():
            state = init_state(GRID, phi0, temp0, p)
            new, report = bdf1.step(GRID, state, 1e-3, p, NO_SOURCES, True)
            return new, report

        blocked, report = stepped()
        monkeypatch.setattr(grid_mod, "_BLOCK_BYTES", 1 << 20)
        whole, whole_report = stepped()
        assert report == whole_report
        for name in ("phi", "temp", "mu"):
            assert np.array_equal(getattr(blocked, name), getattr(whole, name))

    def test_sav_step_recombination(self, budget, monkeypatch):
        p = _params()
        state = _order2_state(20)
        blocked, report = sav_step(GRID, p, 0.01, replace(state), NO_SOURCES, 0.21, False)
        monkeypatch.setattr(grid_mod, "_BLOCK_BYTES", 1 << 20)
        whole, whole_report = sav_step(GRID, p, 0.01, replace(state), NO_SOURCES, 0.21, False)
        assert report == whole_report
        assert all(np.array_equal(a, b) for a, b in zip(blocked[:3], whole[:3]))
        assert blocked[3] == whole[3]
