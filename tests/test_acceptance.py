"""Acceptance gate: every criterion of the build contract, at its stated
tolerance, printed one PASS line per criterion.

Run with `pytest tests/test_acceptance.py -v -s`.  The dendrite criterion
is marked slow; deselect with `-m "not slow"` for a quick pass.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from dendrosim.config import RunConfig
from dendrosim.experiments import run_accuracy, run_dendrite, run_single
from dendrosim.grid import GridSpec, laplacian
from dendrosim.snapshots import read_checkpoint, write_checkpoint
from dendrosim.solvers import helmholtz_solve, variable_helmholtz_solve

from conftest import shipped_config

ACCURACY_LADDER = (4e-3, 2e-3, 1e-3, 5e-4)
# 5e-5 keeps the whole ladder >= 10x the reference step, which the ladder
# protocol requires (1e-4 would leave the last rung at only 5x)
REFERENCE_TAU = 5e-5
CASE2 = shipped_config("case2")


def case2_cfg(**overrides) -> RunConfig:
    base = dict(
        grid=GridSpec(64, 64),
        scheme="bdf2",
        tau=1e-3,
        t_end=1.0,
        params=CASE2.params,
        initial=CASE2.initial,
    )
    base.update(overrides)
    return RunConfig(**base)


@pytest.fixture(scope="module")
def a1_registry():
    """min A1 observed per criterion; criterion 5 audits it."""
    return {}


@pytest.fixture(scope="module")
def identity_runs(a1_registry):
    out = {}
    for scheme in ("bdf1", "bdf2"):
        for tau in (1e-3, 1e-1, 1.0, 10.0, 100.0):
            cfg = case2_cfg(scheme=scheme, tau=tau, t_end=50 * tau,
                            check_identity=True)
            res = run_single(cfg)
            assert len(res.records) == 51
            out[(scheme, tau)] = res
    a1_registry["criterion-1"] = min(r.min_a1 for r in out.values())
    return out


@pytest.fixture(scope="module")
def stability_runs(a1_registry):
    out = {}
    for tau in (1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0):
        cfg = case2_cfg(scheme="bdf2", tau=tau, t_end=200 * tau,
                        check_identity=False)
        out[tau] = run_single(cfg)
    a1_registry["criterion-2"] = min(r.min_a1 for r in out.values())
    return out


@pytest.fixture(scope="module")
def accuracy_reports(a1_registry):
    reports = run_accuracy(case2_cfg(check_identity=False), ACCURACY_LADDER, REFERENCE_TAU)
    a1_registry["criterion-3"] = min(r.min_a1 for r in reports.values())
    return reports


@pytest.fixture(scope="module")
def xi_study(a1_registry):
    """max |xi - 1| per (stabilizer set, tau) on the Case-II setup."""
    runs = {}
    horizons = {1e-2: 2.0, 1e-1: 20.0, 1.0: 20.0}
    for s_set in ((0.0, 0.0, 5.0, 5.0), (0.1, 4.0, 5.0, 5.0)):
        s1, s2, s3, s4 = s_set
        for tau, t_end in horizons.items():
            cfg = case2_cfg(
                params=replace(CASE2.params, s1=s1, s2=s2, s3=s3, s4=s4), tau=tau, t_end=t_end,
                check_identity=False,
            )
            runs[(s_set, tau)] = run_single(cfg)
    cfg0 = case2_cfg(params=replace(CASE2.params, s1=0.0, s2=0.0, s3=0.0, s4=0.0), tau=1.0,
                     t_end=20.0, check_identity=False)
    runs[((0.0, 0.0, 0.0, 0.0), 1.0)] = run_single(cfg0)
    a1_registry["criterion-4"] = min(r.min_a1 for r in runs.values())
    return runs


def test_criterion_1_energy_identity(identity_runs):
    """Largest proof line <= 1e-9 relative at every step, both schemes,
    tau from 1e-3 to 100, Case-II data on 64x64."""
    worst = 0.0
    for (scheme, tau), res in identity_runs.items():
        assert res.max_identity_residual <= 1e-9, (scheme, tau)
        worst = max(worst, res.max_identity_residual)
    print(f"\n[acceptance] criterion 1 PASS: energy identity residual "
          f"<= {worst:.3e} (gate 1e-9) over {len(identity_runs)} runs x 50 steps")


def test_criterion_2_unconditional_stability(stability_runs):
    """Modified energy monotone (tol 1e-9 |E|) for the second-order scheme
    at tau in {1e-3 .. 100}, 200 steps each."""
    for tau, res in stability_runs.items():
        energies = [r.e_modified for r in res.records[1:]]
        for a, b in zip(energies, energies[1:]):
            assert b <= a + 1e-9 * abs(a), f"tau={tau}"
    print(f"\n[acceptance] criterion 2 PASS: modified energy monotone for "
          f"tau in {sorted(stability_runs)} over 200 steps each")


def test_criterion_3_convergence_orders(accuracy_reports):
    """Self-convergence slopes: first-order scheme in [0.85, 1.15], second
    order in [1.85, 2.15], phi and T, Case-II ladder at t=1."""
    bands = {"bdf1": (0.85, 1.15), "bdf2": (1.85, 2.15)}
    for scheme, report in accuracy_reports.items():
        lo, hi = bands[scheme]
        assert lo <= report.slope_phi <= hi, (scheme, report.slope_phi)
        assert lo <= report.slope_temp <= hi, (scheme, report.slope_temp)
    print("\n[acceptance] criterion 3 PASS: slopes "
          + ", ".join(f"{s}: phi {r.slope_phi:.3f} / T {r.slope_temp:.3f}"
                      for s, r in accuracy_reports.items()))


def test_criterion_3b_asymptotic_regime(accuracy_reports):
    """Richardson sanity: the smallest-tau error sits within 10x of the
    value extrapolated from the two largest rungs."""
    for scheme, rep in accuracy_reports.items():
        for errs in (rep.errors_phi, rep.errors_temp):
            slope = (math.log(errs[0]) - math.log(errs[1])) / (
                math.log(rep.taus[0]) - math.log(rep.taus[1]))
            extrap = errs[0] * (rep.taus[-1] / rep.taus[0]) ** slope
            ratio = errs[-1] / extrap
            assert 0.1 <= ratio <= 10.0, (scheme, ratio)
    print("\n[acceptance] criterion 3b PASS: ladder errors consistent with "
          "their own asymptotic extrapolation")


def test_criterion_4_xi_accuracy_and_stabilizer_effect(xi_study):
    """With s3 = s4 = 5 the auxiliary ratio stays within 0.05 of 1 for all
    tau <= 1; with no stabilizers at tau = 1 it does not."""
    stabilized = {k: v for k, v in xi_study.items() if k[0][2] == 5.0}
    for (s_set, tau), res in stabilized.items():
        assert res.max_xi_dev <= 0.05, (s_set, tau, res.max_xi_dev)
    bare = xi_study[((0.0, 0.0, 0.0, 0.0), 1.0)]
    assert bare.max_xi_dev > 0.05, bare.max_xi_dev
    worst = max(r.max_xi_dev for r in stabilized.values())
    print(f"\n[acceptance] criterion 4 PASS: stabilized max|xi-1| = {worst:.2e} "
          f"(gate 0.05); unstabilized at tau=1 reaches {bare.max_xi_dev:.3f}")


def test_criterion_5_a1_positivity(identity_runs, stability_runs,
                                   accuracy_reports, xi_study, a1_registry):
    """Closure denominator A1 > 0 at every step of criteria 1-4 (the
    dendrite criterion checks its own runs)."""
    assert set(a1_registry) == {"criterion-1", "criterion-2", "criterion-3",
                                "criterion-4"}
    for name, value in a1_registry.items():
        assert value > 0.0, name
    floor = min(a1_registry.values())
    print(f"\n[acceptance] criterion 5 PASS: A1 >= {floor:.6g} > 0 across "
          "all criterion 1-4 runs")


@pytest.mark.slow
def test_criterion_6_dendrite_reproduction(tmp_path):
    """256x256, tau = 0.01, K in {0.6, 1.2}: four axis-aligned branches,
    strictly increasing crystal area, thinner crystal at larger K."""
    base = shipped_config("dendrite")  # 256x256, bdf2, tau = 0.01
    base = replace(base, check_identity=False, strict_energy=True,
                   snapshot_times=(0.0, 3.0, 6.0, 9.0))
    results = {}
    for r in run_dendrite(base, latent_values=(0.6, 1.2), out_dir=tmp_path):
        results[r.latent] = r
        assert r.arms == 4, (r.latent, r.arms)
        assert r.axis_arms == 4, (r.latent, r.axis_arms)
        areas = [rec.area for rec in r.result.records]
        assert all(b > a for a, b in zip(areas, areas[1:])), r.latent
        assert r.result.min_a1 > 0.0
        energies = [rec.e_modified for rec in r.result.records[1:]]
        assert all(b <= a + 1e-9 * abs(a) for a, b in zip(energies, energies[1:]))
    t9 = lambda res: res.result.records[-1].area
    assert t9(results[1.2]) < t9(results[0.6])
    print(f"\n[acceptance] criterion 6 PASS: 4 axis-aligned branches for both K; "
          f"area strictly increasing; area(K=1.2)={t9(results[1.2]):.4f} < "
          f"area(K=0.6)={t9(results[0.6]):.4f} at t=9")


def test_criterion_7_solver_oracles():
    """Fast solvers match dense direct solves on 6x6: 100 random instances
    each, 1e-10 (constant) and 1e-8 (variable coefficient)."""
    grid = GridSpec(6, 6)
    n = grid.nx * grid.ny
    rng = np.random.default_rng(2024)

    def dense(cdiag, b):
        cols = []
        for idx in range(n):
            e = np.zeros(n)
            e[idx] = 1.0
            e = e.reshape(grid.shape)
            cols.append((cdiag * e - b * laplacian(grid, e)).ravel())
        return np.array(cols).T

    for _ in range(100):
        a = float(rng.uniform(0.05, 100.0))
        b = float(rng.uniform(0.0, 20.0))
        rhs = rng.standard_normal(grid.shape)
        expected = np.linalg.solve(dense(a, b), rhs.ravel()).reshape(grid.shape)
        u = helmholtz_solve(grid, a, b, rhs)
        scale = max(1.0, float(np.max(np.abs(expected))))
        assert np.max(np.abs(u - expected)) <= 1e-10 * scale

    for _ in range(100):
        c = rng.uniform(0.5, 3.0) + rng.uniform(0.1, 1.0) * rng.random(grid.shape)
        b = float(rng.uniform(0.0, 5.0))
        rhs = rng.standard_normal(grid.shape)
        expected = np.linalg.solve(dense(c, b), rhs.ravel()).reshape(grid.shape)
        u, _ = variable_helmholtz_solve(grid, c, b, rhs)  # CG_TOL = 1e-12
        scale = max(1.0, float(np.max(np.abs(expected))))
        assert np.max(np.abs(u - expected)) <= 1e-8 * scale
    print("\n[acceptance] criterion 7 PASS: 100+100 dense-oracle instances "
          "within 1e-10 / 1e-8")


def test_criterion_8_determinism_and_persistence(tmp_path):
    """A checkpoint file written mid-run and read back steps on bit for bit
    as uninterrupted stepping does."""
    from dendrosim import bdf1
    from dendrosim import bdf2 as b2

    cfg = case2_cfg(tau=0.05)
    grid = cfg.grid
    phi0, temp0 = cfg.initial.build(grid)

    start = bdf1.init_state(grid, phi0, temp0, cfg.params)
    state, _ = b2.bootstrap(grid, start, cfg.tau, cfg.params)

    def advance(s, n):
        for _ in range(n):
            s, _rep = b2.step2(grid, s, cfg.tau, cfg.params)
        return s

    straight = advance(state, 10)
    path = tmp_path / "half.ckpt"
    write_checkpoint(path, grid, advance(state, 5))
    _, resumed = read_checkpoint(path)
    resumed = advance(resumed, 5)
    for name in ("phi", "phi_prev", "temp", "temp_prev", "mu", "mu_prev"):
        assert np.array_equal(getattr(straight, name), getattr(resumed, name))
    assert straight.r == resumed.r and straight.r_prev == resumed.r_prev
    print("\n[acceptance] criterion 8 PASS: 10 steps == 5 + checkpoint file "
          "+ 5, bitwise")
