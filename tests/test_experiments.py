import math
import os
import re
import resource
import struct
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dendrosim import bdf1, bdf2, experiments, model, solvers
from dendrosim import grid as grid_mod
from dendrosim.cli import (
    EXIT_CONFIG,
    EXIT_ENERGY,
    EXIT_NUMERICAL,
    EXIT_OK,
    _apply_overrides,
    build_parser,
    main,
)
from dendrosim.config import (
    ConfigError,
    InvalidValueError,
    RunConfig,
    load_config,
    serialize_config,
)
from dendrosim.diagnostics import EnergyLawViolation, NonFiniteRecordError, read_ledger
from dendrosim.experiments import (
    STABILIZER_SETS,
    estimate_order,
    run_accuracy,
    run_dendrite,
    run_single,
    run_stability,
)
from dendrosim.grid import GridSpec
from dendrosim.model import EnergyPositivityError, SourceTerms
from dendrosim.snapshots import (
    FieldSnapshot,
    SourceSeriesError,
    read_snapshot,
    source_from_snapshots,
    write_snapshot,
)
from dendrosim.solvers import SolverError

from conftest import shipped_config

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
CASE2, DENDRITE = shipped_config("case2"), shipped_config("dendrite")


def tiny_config(**overrides) -> RunConfig:
    base = dict(
        grid=GridSpec(16, 16),
        scheme="bdf2",
        tau=0.01,
        t_end=0.05,
        params=CASE2.params,
        initial=CASE2.initial,
    )
    base.update(overrides)
    return RunConfig(**base)


class TestEstimateOrder:
    def test_exact_first_order(self):
        taus = [0.4, 0.2, 0.1, 0.05]
        errs = [3.0 * t for t in taus]
        assert estimate_order(errs, taus) == pytest.approx(1.0, abs=1e-12)

    def test_exact_second_order(self):
        taus = [0.4, 0.2, 0.1]
        errs = [0.7 * t**2 for t in taus]
        assert estimate_order(errs, taus) == pytest.approx(2.0, abs=1e-12)

    def test_single_point_rejected(self):
        with pytest.raises(ValueError, match="two ladder points"):
            estimate_order([1.0], [0.1])

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            estimate_order([1.0, 0.0], [0.2, 0.1])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            estimate_order([1.0, 0.5], [0.2, 0.1, 0.05])


class TestRunSingle:
    def test_writes_ledger_and_provenance(self, tmp_path):
        cfg = tiny_config()
        res = run_single(cfg, tmp_path)
        assert (tmp_path / "resolved.cfg").exists()
        records = read_ledger(res.ledger_path)
        assert len(records) == cfg.n_steps + 1
        assert records[0].step == 0 and records[-1].step == cfg.n_steps
        assert res.min_a1 > 0.0

    def test_deterministic_reruns_bit_identical(self, tmp_path):
        cfg = tiny_config(t_end=0.03)
        run_single(cfg, tmp_path / "a")
        run_single(cfg, tmp_path / "b")
        assert (tmp_path / "a" / "ledger.csv").read_bytes() == \
               (tmp_path / "b" / "ledger.csv").read_bytes()

    def test_snapshot_cadence_and_times(self, tmp_path):
        cfg = tiny_config(t_end=0.05, snapshot_every=2, snapshot_times=(0.03,))
        run_single(cfg, tmp_path)
        names = sorted(p.name for p in tmp_path.glob("run_phi_*.snp"))
        # every 2 steps (incl. the initial level) plus the listed time t=0.03
        assert names == [
            "run_phi_n000000.snp", "run_phi_n000002.snp",
            "run_phi_n000003.snp", "run_phi_n000004.snp",
        ]
        snap = read_snapshot(tmp_path / "run_phi_n000003.snp")
        assert snap.time == pytest.approx(0.03)
        assert snap.name == "phi"

    def test_level_n_sits_at_n_tau(self, tmp_path):
        # ten steps of 1e-3 end at t = 0.01, in the ledger and in the snapshot
        # headers; a running sum of tau would read 0.010000000000000002
        cfg = tiny_config(tau=1e-3, t_end=0.01, snapshot_every=5)
        run_single(cfg, tmp_path)
        rows = (tmp_path / "ledger.csv").read_text().splitlines()[1:]
        assert [row.split(",")[1] for row in rows] == [repr(n * 1e-3) for n in range(11)]
        assert rows[-1].split(",")[1] == "0.01"
        assert read_snapshot(tmp_path / "run_temp_n000010.snp").time == 0.01

    def test_snapshot_times_within_half_a_step(self, tmp_path):
        # levels at t = 0, 0.01, ..., 0.05: a time within tau/2 of one of
        # them is written, one past it is refused before anything is created
        for when in (-0.005, 0.055):
            run_single(tiny_config(snapshot_times=(when,)), tmp_path / "ok")
        for when in (-0.0051, 0.0551, 1.0):
            with pytest.raises(InvalidValueError, match="output.snapshot_times"):
                run_single(tiny_config(snapshot_times=(0.02, when)), tmp_path / "refused")
            assert not (tmp_path / "refused").exists()

    @pytest.mark.parametrize("times, levels", [
        ((0.0, 0.001, 0.03), [0, 3]),  # 0.0 and 0.001 share level 0
        ((0.0049, 0.005), [0]),  # a tie goes to the first level within tau/2
        ((0.029, 0.012), [1, 3]),
    ])
    def test_snapshot_times_take_first_level(self, tmp_path, times, levels):
        # levels at t = 0, 0.01, ..., 0.05, decided before the run
        assert experiments._snapshot_levels(tiny_config(snapshot_times=times)) == set(levels)
        run_single(tiny_config(snapshot_times=times), tmp_path)
        names = sorted(p.name for p in tmp_path.glob("run_phi_*.snp"))
        assert names == [f"run_phi_n{n:06d}.snp" for n in levels]

    @pytest.mark.skipif(tracemalloc.is_tracing(), reason="memory is traced already")
    def test_snapshot_levels_hold_no_list_of_level_times(self, monkeypatch):
        # a million levels and one snapshot time: the snapshot levels come
        # from the level nearest each time, not from a list of every level
        # time (about 31 MiB), and are known before the first level
        cfg = tiny_config(tau=1e-6, t_end=1.0, snapshot_times=(0.01,))
        assert cfg.n_steps == 10**6

        class FirstLevel(Exception):
            pass

        def init_state(*args):
            raise FirstLevel(tracemalloc.get_traced_memory()[1])

        monkeypatch.setattr(bdf1, "init_state", init_state)
        tracemalloc.start()
        try:
            with pytest.raises(FirstLevel) as first:
                run_single(cfg)
        finally:
            tracemalloc.stop()
        assert first.value.args[0] < 1 << 20
        assert experiments._snapshot_levels(cfg) == {10_000}

    def test_pcg_failure_names_level(self, monkeypatch):
        # a variable-mobility run whose phase solves may take 2 PCG iterations:
        # the failure names the level and time and keeps residual and count
        monkeypatch.setattr(solvers, "CG_MAXIT", 2)
        params = replace(CASE2.params, mobility=1.2e3, mobility_tanh=1 / 6)
        cfg = tiny_config(params=params)
        with pytest.raises(SolverError, match=r"^level 1 \(t=0\.01\): PCG did not reach "
                                              r"tol=1e-12 in 2 iterations ") as err:
            run_single(cfg)
        assert err.value.iterations == 2
        assert err.value.residual > 1e-12

    def test_bdf1_scheme_runs(self, tmp_path):
        res = run_single(tiny_config(scheme="bdf1"), tmp_path)
        assert res.final_state.n == 5

    @pytest.mark.parametrize("scheme,module,name,error", [
        ("bdf1", bdf1, "step", FloatingPointError),
        ("bdf2", bdf2, "step2", EnergyPositivityError),
    ])
    def test_breakdown_names_failing_level(self, monkeypatch, scheme, module, name, error):
        real_step = getattr(module, name)

        def failing_step(grid, state, *args):
            if state.n == 2:
                raise error("closure broke down")
            return real_step(grid, state, *args)

        monkeypatch.setattr(module, name, failing_step)
        with pytest.raises(error, match=r"^level 3 \(t=0\.03\): closure broke down$"):
            run_single(tiny_config(scheme=scheme, t_end=0.05), None)

    def test_case1_config_runs(self):
        # the manufactured-solution parameter set starts from ~zero fields
        # and steps cleanly even without its (user-supplied) forcing
        cfg = shipped_config("case1")
        cfg = replace(cfg, grid=GridSpec(16, 16), tau=0.01, t_end=0.03)
        res = run_single(cfg)
        assert res.final_state.n == 3
        assert res.max_identity_residual <= 1e-9
        assert np.max(np.abs(res.final_state.phi)) < 1e-12

    def test_file_sources_match_analytic(self, tmp_path, grid16):
        # the externally-supplied snapshot-series source reproduces the
        # analytic-callable run exactly
        tau = 0.01
        x, y = grid16.mesh()

        def phi_src(xx, yy, t):
            return math.sin(t) * np.cos(np.pi * xx)

        src_dir = tmp_path / "src"
        src_dir.mkdir()
        for level in range(1, 6):
            t = level * tau
            write_snapshot(
                FieldSnapshot(grid=grid16, time=t, name="s", values=phi_src(x, y, t)),
                src_dir / f"sphi_{level:06d}.snp",
            )
        cfg = tiny_config(tau=tau, t_end=0.05)
        res_analytic = run_single(cfg, sources=SourceTerms(phi=phi_src))
        res_files = run_single(
            cfg, sources=SourceTerms(phi=source_from_snapshots(src_dir, "sphi", tau, grid16))
        )
        assert np.array_equal(res_analytic.final_state.phi, res_files.final_state.phi)
        # the same forcing declared through the [sources] config section
        cfg_src = tiny_config(tau=tau, t_end=0.05, source_phi_dir=str(src_dir),
                              source_phi_prefix="sphi")
        res_cfg = run_single(cfg_src)
        assert np.array_equal(res_analytic.final_state.phi, res_cfg.final_state.phi)


    @pytest.mark.parametrize("scheme", ["bdf1", "bdf2"])
    def test_sources_build_the_mesh_once(self, monkeypatch, scheme):
        # the source hooks get the cell centres of one cached, read-only mesh
        # instead of a new grid.mesh() per hook and level
        built = []
        real_mesh = GridSpec.mesh
        monkeypatch.setattr(GridSpec, "mesh", lambda grid: built.append(grid) or real_mesh(grid))
        seen = []

        def hook(x, y, t):
            seen.append(x.flags.writeable or y.flags.writeable)
            return 0.1 * np.cos(np.pi * x) * t

        cfg = tiny_config(scheme=scheme)
        model._cell_centers.cache_clear()
        run_single(cfg, sources=SourceTerms(phi=hook, temp=hook))
        assert len(seen) == 2 * cfg.n_steps and not any(seen)
        # one mesh for the initial condition, one for every hook of the run
        assert len(built) == 2

    def test_reports_cg_iterations(self):
        cfg = tiny_config(t_end=0.03)
        res = run_single(cfg)
        assert (res.cg_iterations, res.max_cg_iterations) == (0, 0)
        params = replace(cfg.params, mobility=1.2e3, mobility_tanh=1 / 6)
        res = run_single(replace(cfg, params=params))
        assert 0 < res.max_cg_iterations <= res.cg_iterations <= 3 * res.max_cg_iterations

    def test_summary_is_read_from_the_stepped_rows(self):
        # min a1, max |xi - 1| and the largest identity residual follow the
        # ledger rows after level 0, so a result cut to its first stepped
        # level reports that level's values
        res = run_single(tiny_config(t_end=0.03))
        stepped = res.records[1:]
        assert res.min_a1 == min(rec.a1 for rec in stepped)
        assert res.max_xi_dev == max(abs(rec.xi - 1.0) for rec in stepped)
        assert res.max_identity_residual == max(rec.identity_residual for rec in stepped)
        first = replace(res, records=res.records[:2])
        assert (first.min_a1, first.max_xi_dev, first.max_identity_residual) == (
            stepped[0].a1, abs(stepped[0].xi - 1.0), stepped[0].identity_residual)
        unstepped = replace(res, records=res.records[:1])
        assert (unstepped.min_a1, unstepped.max_xi_dev, unstepped.max_identity_residual) == (
            math.inf, 0.0, 0.0)

    def test_forcing_file_removed_mid_run_names_its_level(self, tmp_path, monkeypatch):
        # the whole series passes the check before the run; each step reads
        # its file afresh, so one removed after level 1 stops level 2
        grid, tau = GridSpec(16, 16), 1e-3
        forcing = tmp_path / "forcing"
        forcing.mkdir()
        for n in (1, 2):
            write_snapshot(FieldSnapshot(grid, n * tau, "s_phi", grid.full(0.1)),
                           forcing / f"s_phi_{n:06d}.snp")
        cfg = replace(shipped_config("case1"), grid=grid, scheme="bdf1", tau=tau,
                      t_end=2 * tau, source_phi_dir=str(forcing))
        record = experiments.make_record

        def remove_after_level_1(grid, p, state, report):
            if state.n == 1:
                (forcing / "s_phi_000002.snp").unlink()
            return record(grid, p, state, report)

        monkeypatch.setattr(experiments, "make_record", remove_after_level_1)
        with pytest.raises(SourceSeriesError, match=r"^level 2 \(t=0\.002\): cannot read "
                                                    r"forcing snapshot .*s_phi_000002\.snp"):
            run_single(cfg, tmp_path / "out")
        assert [rec.step for rec in read_ledger(tmp_path / "out" / cfg.ledger)] == [0, 1]

    def test_unwritable_config_creates_no_directory(self, tmp_path):
        # a variable mobility cannot be written to resolved.cfg; the run must
        # fail before it creates its output directory
        params = replace(CASE2.params, mobility=1.2e3, mobility_tanh=1 / 6)
        cfg = tiny_config(t_end=0.02, params=params)
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match="only constant mobility"):
            run_single(cfg, out)
        assert not out.exists()


def _scripted_energies(monkeypatch, energies):
    """Rows of real levels, with e_modified set to energies[n] at level n."""
    real = experiments.make_record

    def scripted(grid, p, state, report=None):
        return replace(real(grid, p, state, report), e_modified=energies[state.n])

    monkeypatch.setattr(experiments, "make_record", scripted)


def _inflate_r(monkeypatch, module, name, level):
    """Rebinds a stepper so that the state it returns at ``level`` has 1.5x its R."""
    real_step = getattr(module, name)

    def inflating_step(grid, state, *args):
        new, report = real_step(grid, state, *args)
        if new.n == level:
            new = replace(new, r=1.5 * new.r)
        return new, report

    monkeypatch.setattr(module, name, inflating_step)


class TestEnergyLawGuard:
    """run_single holds every strict_energy run to the energy law, with or
    without a ledger."""

    def test_strict_mode_raises(self, monkeypatch, tmp_path):
        _scripted_energies(monkeypatch, [5.0, 4.0, 4.5])
        cfg = tiny_config(scheme="bdf1", t_end=0.02, strict_energy=True)
        with pytest.raises(EnergyLawViolation, match="step 2"):
            run_single(cfg, tmp_path)
        # the row that broke the law is not written
        assert [r.step for r in read_ledger(tmp_path / "ledger.csv")] == [0, 1]

    def test_bootstrap_row_not_compared(self, monkeypatch):
        _scripted_energies(monkeypatch, [5.0, 5.3, 5.4])
        cfg = tiny_config(scheme="bdf2", t_end=0.02, strict_energy=True)
        with pytest.raises(EnergyLawViolation, match="step 2"):  # 0 -> 1 exempt
            run_single(cfg, None)
        # bdf1 has no bootstrap: its 0 -> 1 rise is a violation
        with pytest.raises(EnergyLawViolation, match="step 1"):
            run_single(replace(cfg, scheme="bdf1"), None)

    def test_tolerance_absorbs_roundoff(self, monkeypatch):
        _scripted_energies(monkeypatch, [5.0, 5.0 * (1 + 1e-12)])
        run_single(tiny_config(scheme="bdf1", t_end=0.01, strict_energy=True), None)

    @pytest.mark.parametrize("scheme,module,name", [
        ("bdf1", bdf1, "step"),
        ("bdf2", bdf2, "step2"),
    ])
    def test_guards_run_without_ledger(self, monkeypatch, scheme, module, name):
        _inflate_r(monkeypatch, module, name, level=3)
        cfg = tiny_config(scheme=scheme, t_end=0.05)
        res = run_single(cfg, None)  # not strict: the run goes on
        assert res.records[3].e_modified > res.records[2].e_modified
        with pytest.raises(EnergyLawViolation,
                           match=r"^modified energy increased at step 3: "):
            run_single(replace(cfg, strict_energy=True), None)


def _glibc() -> bool:
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (AttributeError, ValueError, OSError):
        return False


class _FakeLibc:
    def __init__(self, accept: bool):
        self.accept = accept
        self.calls = []

    def mallopt(self, param, value):
        self.calls.append((param, value))
        return int(self.accept)


class TestRetainHeap:
    @pytest.fixture
    def fresh(self, monkeypatch):
        """A process that has not set the allocator yet, on a glibc."""
        monkeypatch.setattr(experiments, "_heap_retained", False)
        monkeypatch.setattr(experiments.os, "confstr", lambda name: "glibc 2.36")
        return monkeypatch

    def test_sets_both_thresholds_once(self, fresh):
        libc = _FakeLibc(accept=True)
        fresh.setattr(experiments.ctypes, "CDLL", lambda name: libc)
        experiments._retain_heap()
        experiments._retain_heap()
        # M_MMAP_THRESHOLD = 32 MiB, then M_TRIM_THRESHOLD = 256 MiB
        assert libc.calls == [(-3, 32 << 20), (-1, 256 << 20)]

    def test_refused_mmap_threshold_sets_nothing_else(self, fresh):
        # the trim threshold alone would pin the mmap threshold at 128 KiB
        libc = _FakeLibc(accept=False)
        fresh.setattr(experiments.ctypes, "CDLL", lambda name: libc)
        experiments._retain_heap()
        assert libc.calls == [(-3, 32 << 20)]

    def test_missing_mallopt_is_a_silent_no_op(self, fresh):
        fresh.setattr(experiments.ctypes, "CDLL", lambda name: object())
        experiments._retain_heap()
        assert experiments._heap_retained

    def test_other_libc_is_left_alone(self, fresh):
        libc = _FakeLibc(accept=True)
        fresh.setattr(experiments.ctypes, "CDLL", lambda name: libc)

        def no_glibc(name):
            raise ValueError("unrecognized configuration name")

        fresh.setattr(experiments.os, "confstr", no_glibc)
        experiments._retain_heap()
        assert libc.calls == []

    @pytest.mark.skipif(not sys.platform.startswith("linux") or not _glibc(),
                        reason="the allocator setting exists on glibc only")
    def test_levels_reuse_freed_pages(self, tmp_path):
        # glibc's defaults mmap each 256^2 temporary afresh and fault it in
        # again every level (about 2,200 minor faults per level); once the
        # memory stays on the heap, a second run faults in next to nothing
        cfg = shipped_config("dendrite")
        levels = 10
        cfg = replace(cfg, t_end=levels * cfg.tau, snapshot_every=0)
        assert cfg.grid.shape == (256, 256) and cfg.scheme == "bdf2" and cfg.check_identity
        run_single(cfg, tmp_path / "first")
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        run_single(cfg, tmp_path / "second")
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults < 50 * levels


class TestCheckedRunMatchesUnchecked:
    """The identity check reads the states and writes into none of them: a
    checked run is the unchecked run plus the ledger's identity column."""

    @pytest.mark.parametrize("scheme", ["bdf1", "bdf2"])
    @pytest.mark.parametrize("case", ["dendrite64", "case2-s3-s4"])
    def test_bitwise_equal_outputs(self, scheme, case):
        if case == "dendrite64":
            g = DENDRITE.grid
            cfg = replace(DENDRITE, grid=GridSpec(64, 64, g.x0, g.x1, g.y0, g.y1),
                          t_end=6 * DENDRITE.tau)
        else:
            cfg = replace(CASE2, t_end=6 * CASE2.tau,
                          params=replace(CASE2.params, s3=0.3, s4=0.02))
        cfg = replace(cfg, scheme=scheme, snapshot_every=0, snapshot_times=())
        checked = run_single(replace(cfg, check_identity=True))
        unchecked = run_single(replace(cfg, check_identity=False))
        assert checked.max_identity_residual > 0.0
        for name in ("phi", "temp", "mu"):
            assert np.array_equal(getattr(checked.final_state, name),
                                  getattr(unchecked.final_state, name))
        assert checked.final_state.r == unchecked.final_state.r
        assert len(checked.records) == len(unchecked.records) == 7
        for a, b in zip(checked.records, unchecked.records):
            assert replace(a, identity_residual=0.0) == b


class TestWorkingSet:
    """A level holds the state and the fields of its solves, and every field
    of a step dies after its last reader."""

    # peak traced fields over the run's baseline, half a field above what the
    # steps reach (14.1 / 15.1 / 11.1 / 12.1); no step call passes a field
    # that should die inside it, so the peak is the same where a call's
    # arguments live as long as the call (Python 3.10)
    BOUNDS = {("bdf2", False): 14.5, ("bdf2", True): 15.5,
              ("bdf1", False): 11.5, ("bdf1", True): 12.5}

    @pytest.mark.skipif(tracemalloc.is_tracing(), reason="memory is traced already")
    @pytest.mark.parametrize("scheme, check", list(BOUNDS))
    def test_peak_live_fields(self, scheme, check):
        cfg = shipped_config("dendrite")
        grid = GridSpec(128, 128, cfg.grid.x0, cfg.grid.x1, cfg.grid.y0, cfg.grid.y1)
        cfg = replace(cfg, grid=grid, scheme=scheme, check_identity=check,
                      t_end=5 * cfg.tau, snapshot_times=())
        run_single(cfg)  # caches and FFT plans are filled by a first run
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run_single(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        fields = (peak - base) / (8 * grid.nx * grid.ny)
        assert fields <= self.BOUNDS[scheme, check]

    @pytest.mark.skipif(tracemalloc.is_tracing(), reason="memory is traced already")
    @pytest.mark.parametrize("scheme, check", list(BOUNDS))
    def test_peak_live_fields_in_row_blocks(self, monkeypatch, scheme, check):
        # a 128^2 field is one row block at the default budget; with a 24 KiB
        # budget every blocked chain runs over several blocks, a short one
        # last, and the peak is held to the same bounds
        monkeypatch.setattr(grid_mod, "_BLOCK_BYTES", 24 << 10)
        assert len(list(grid_mod.row_blocks((128, 128), 2))) > 1
        self.test_peak_live_fields(scheme, check)


class TestSpatialOrder:
    """bdf2 at tau = 1e-3 to t = 0.1 on case2: each grid against the 2x2 cell
    averages of the next is second order in h, for phi and T."""

    def test_second_order_in_space(self):
        finals = []
        for n in (32, 64, 128, 256):
            cfg = replace(CASE2, grid=GridSpec(n, n), scheme="bdf2", tau=1e-3, t_end=0.1,
                          check_identity=False)
            finals.append(run_single(cfg).final_state)
        for name in ("phi", "temp"):
            errors = []
            for coarse, fine in zip(finals, finals[1:]):
                f = getattr(fine, name)
                averaged = 0.25 * (f[0::2, 0::2] + f[1::2, 0::2] + f[0::2, 1::2] + f[1::2, 1::2])
                grid = GridSpec(*coarse.phi.shape)
                errors.append(math.sqrt(grid_mod.norm_sq(grid, getattr(coarse, name) - averaged)))
            orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
            assert all(abs(order - 2.0) <= 0.15 for order in orders), (name, errors, orders)


class TestForcedIdentity:
    """The identity check of a forced run leaves out the source work today
    (about 3.5e-8 with a phase source, 5.4e-8 with a temperature source,
    against 1e-15 unforced), so the residual is not the forced law's."""

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 16")
    @pytest.mark.parametrize("scheme", ["bdf1", "bdf2"])
    @pytest.mark.parametrize("kind", ["phi", "temp"])
    def test_forced_law_residual(self, scheme, kind):
        source = SourceTerms(**{kind: lambda x, y, t: np.sin(t) * np.cos(np.pi * x)})
        cfg = tiny_config(scheme=scheme, tau=1e-3, t_end=0.02, check_identity=True)
        res = run_single(cfg, sources=source)
        assert len(res.records) == 21
        assert res.max_identity_residual <= 1e-9


class TestRunAccuracy:
    def test_mini_ladder_first_order(self):
        cfg = tiny_config(scheme="bdf1", t_end=0.1)
        report = run_accuracy(cfg, ladder=(1e-2, 5e-3), ref_tau=2e-4)["bdf1"]
        assert 0.7 <= report.slope_phi <= 1.3
        assert 0.7 <= report.slope_temp <= 1.3

    def test_ladder_preconditions(self):
        cfg = tiny_config()
        with pytest.raises(ValueError, match="decreasing"):
            run_accuracy(cfg, ladder=(1e-3, 1e-3), ref_tau=1e-5)
        with pytest.raises(ValueError, match="factor 10"):
            run_accuracy(cfg, ladder=(1e-2, 5e-3), ref_tau=1e-3)
        with pytest.raises(ValueError, match="at least two"):
            run_accuracy(cfg, ladder=(1e-2,), ref_tau=1e-4)

    @pytest.mark.parametrize("t_end, ladder, ref_tau, needle", [
        # 0.021 / 4e-3 rounds to 5 steps, which end at t = 0.02
        (0.021, (4e-3, 2e-3), 1e-4, "time.tau=0.004 does not divide time.t_end=0.021: "
                                    "its 5 steps end at t=0.02"),
        (0.05, (1e-2, 3e-3), 1e-4, "time.tau=0.003 does not divide time.t_end=0.05: "
                                   "its 17 steps end at t=0.051"),
        (0.05, (1e-2, 5e-3), 3e-4, "time.tau=0.0003 does not divide time.t_end=0.05: "
                                   "its 167 steps end at t=0.0501"),
        # a rung of more than 2 t_end rounds to no step at all
        (0.05, (0.2, 0.1), 1e-2, "time.t_end=0.05 must be at least one step tau=0.2"),
    ], ids=["rungs-stop-early", "rung-rounds-up", "reference-rounds-up", "rung-of-no-step"])
    def test_every_step_divides_t_end(self, tmp_path, monkeypatch, t_end, ladder, ref_tau,
                                      needle):
        # a rung that ended before or after t_end would be compared with the
        # reference at another time: it is refused before any run and before
        # out_dir is made
        runs = []
        monkeypatch.setattr(experiments, "run_single", lambda *args, **kwargs: runs.append(args))
        out = tmp_path / "acc"
        with pytest.raises(InvalidValueError, match=f"^{re.escape(needle)}$"):
            run_accuracy(tiny_config(t_end=t_end), ladder=ladder, ref_tau=ref_tau, out_dir=out)
        assert runs == [] and not out.exists()

    def test_report_file(self, tmp_path):
        cfg = tiny_config(scheme="bdf1", t_end=0.05)
        run_accuracy(cfg, ladder=(1e-2, 5e-3), ref_tau=5e-4, out_dir=tmp_path)
        for scheme in ("bdf1", "bdf2"):
            text = (tmp_path / f"accuracy_{scheme}.csv").read_text()
            assert text.startswith("tau,error_phi,error_temp\n")
            assert "# slope_phi" in text

    def test_one_reference_for_both_ladders(self, monkeypatch):
        # one bdf2 run at ref_tau, then each scheme's ladder, none checked
        runs, run = [], experiments.run_single

        def counted_run(cfg, *args, **kwargs):
            runs.append((cfg.scheme, cfg.tau, cfg.check_identity))
            return run(cfg, *args, **kwargs)

        monkeypatch.setattr(experiments, "run_single", counted_run)
        reports = run_accuracy(tiny_config(), ladder=(1e-2, 5e-3), ref_tau=5e-4)
        assert runs == [("bdf2", 5e-4, False), ("bdf1", 1e-2, False), ("bdf1", 5e-3, False),
                        ("bdf2", 1e-2, False), ("bdf2", 5e-3, False)]
        assert {s: r.scheme for s, r in reports.items()} == {"bdf1": "bdf1", "bdf2": "bdf2"}


class TestRunStability:
    def test_sweep_writes_ledgers_and_reports(self, tmp_path):
        cfg = tiny_config()
        results = run_stability(cfg, taus=(0.5,), out_dir=tmp_path, n_steps=10)
        assert len(results) == len(STABILIZER_SETS)
        for r in results:
            assert r.min_a1 > 0.0
            assert r.ledger_path.exists()
            assert len(read_ledger(r.ledger_path)) == 11

    @pytest.mark.parametrize("n_steps", [0, -2])
    def test_step_count_checked_before_any_run(self, tmp_path, monkeypatch, n_steps):
        runs = []
        monkeypatch.setattr(experiments, "run_single", lambda *args, **kwargs: runs.append(args))
        with pytest.raises(InvalidValueError, match=f"stability step count must be at least 1, "
                                                    f"got {n_steps}"):
            run_stability(tiny_config(), taus=(0.5,), out_dir=tmp_path / "sweep", n_steps=n_steps)
        assert runs == [] and not (tmp_path / "sweep").exists()

    def test_stabilized_sets_keep_xi_near_one(self, tmp_path):
        cfg = tiny_config()
        results = run_stability(cfg, taus=(0.5,), out_dir=tmp_path, n_steps=10)
        by_set = {(r.config.params.s1, r.config.params.s2, r.config.params.s3,
                   r.config.params.s4): r.max_xi_dev for r in results}
        assert by_set[(0.0, 0.0, 5.0, 5.0)] < 0.05
        assert by_set[(0.1, 4.0, 5.0, 5.0)] < 0.05


class TestRunDendrite:
    def test_orchestration_coarse(self, tmp_path):
        # coarse, short run: checks wiring (per-K dirs, snapshots at the
        # configured instants, ledgers), not the physics
        cfg = RunConfig(
            grid=GridSpec(48, 48), scheme="bdf2", tau=0.01, t_end=0.05,
            params=DENDRITE.params, initial=DENDRITE.initial, snapshot_times=(0.02, 0.05),
        )
        results = run_dendrite(cfg, latent_values=(0.6,), out_dir=tmp_path)
        assert len(results) == 1
        k_dir = tmp_path / "K0.6"
        assert (k_dir / "dendrite_K0.6.csv").exists()
        snaps = sorted(p.name for p in k_dir.glob("dendrite_K0.6_phi_*.snp"))
        assert snaps == ["dendrite_K0.6_phi_n000002.snp", "dendrite_K0.6_phi_n000005.snp"]
        assert {rec.time for rec in results[0].result.records} == {
            0.0, 0.01, 0.02, 0.03, 0.04, 0.05}

    def test_configured_instants_replace_the_preset(self, tmp_path):
        # K = 0.6 has preset instants (0, 3, 6, 9); a configuration that sets
        # snapshot_times snapshots at exactly those and stops at the last one,
        # whatever its t_end
        cfg = RunConfig(
            grid=GridSpec(32, 32), scheme="bdf2", tau=0.01, t_end=1.0,
            params=DENDRITE.params, initial=DENDRITE.initial, snapshot_times=(0.03, 0.01),
        )
        (res,) = run_dendrite(cfg, latent_values=(0.6,), out_dir=tmp_path)
        assert [rec.step for rec in res.result.records] == [0, 1, 2, 3]
        assert res.result.config.t_end == 0.03
        snaps = sorted(p.name for p in (tmp_path / "K0.6").glob("*_phi_*.snp"))
        assert snaps == ["dendrite_K0.6_phi_n000001.snp", "dendrite_K0.6_phi_n000003.snp"]


    def test_ends_at_the_level_nearest_the_last_instant(self, tmp_path):
        # tau = 0.007 divides no instant: the run still goes, to level 4 at
        # t = 0.028, the level nearest 0.03, and snapshots the nearest levels
        cfg = RunConfig(
            grid=GridSpec(32, 32), scheme="bdf2", tau=0.007, t_end=9.0,
            params=DENDRITE.params, initial=DENDRITE.initial, snapshot_times=(0.01, 0.03),
        )
        (res,) = run_dendrite(cfg, latent_values=(0.6,), out_dir=tmp_path)
        assert [rec.step for rec in res.result.records] == [0, 1, 2, 3, 4]
        assert res.result.records[-1].time == res.result.config.t_end == 4 * 0.007
        assert load_config(tmp_path / "K0.6" / "resolved.cfg").t_end == 4 * 0.007
        snaps = sorted(p.name for p in (tmp_path / "K0.6").glob("*_phi_*.snp"))
        assert snaps == ["dendrite_K0.6_phi_n000001.snp", "dendrite_K0.6_phi_n000004.snp"]


    def test_overflowing_step_count_refused(self, monkeypatch):
        # K = 1.2 runs to 17: 17/tau overflows where the config's 9/tau did not,
        # so the run is refused before it starts, as any such run is
        runs = []
        monkeypatch.setattr(experiments, "run_single", lambda *args, **kwargs: runs.append(args))
        with pytest.raises(InvalidValueError, match=r"^time\.t_end=17\.0 / time\.tau=6e-308: "
                                                    r"the step count is not a finite number$"):
            run_dendrite(replace(DENDRITE, tau=6e-308), latent_values=(1.2,))
        assert runs == []


class TestCli:
    def test_run_subcommand(self, tmp_path, capsys):
        code = main([
            "run", "--config", str(CONFIG_DIR / "case2.cfg"),
            "--out", str(tmp_path), "--tau", "0.01", "--t-end", "0.05",
        ])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "finished bdf2 run" in out
        assert "CG iterations 0 (at most 0 per level)" in out
        assert (tmp_path / "case2.csv").exists()

    @pytest.mark.parametrize("check", [True, False])
    def test_run_reports_identity_check(self, tmp_path, capsys, check):
        # an unchecked run has no identity residual to report: it says the
        # check is off rather than print a residual of 0 that reads as perfect
        cfg = tmp_path / "case2.cfg"
        cfg.write_text((CONFIG_DIR / "case2.cfg").read_text()
                       + f"\n[solver]\ncheck_identity = {str(check).lower()}\n")
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out"),
                     "--t-end", "0.01"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert ("max identity residual" in out) is check
        assert ("identity check off" in out) is not check
        if check:
            assert float(re.search(r"max identity residual (\S+)", out).group(1)) > 0.0

    def test_overrides_apply(self, tmp_path):
        main([
            "run", "--config", str(CONFIG_DIR / "case2.cfg"),
            "--out", str(tmp_path), "--tau", "0.02", "--t-end", "0.04",
            "--scheme", "bdf1", "--snapshot-every", "1", "--strict-energy",
        ])
        resolved = load_config(tmp_path / "resolved.cfg")
        assert resolved.scheme == "bdf1"
        assert resolved.tau == 0.02
        assert resolved.strict_energy is True
        # steps 0, 1, 2 at cadence 1
        assert len(list(tmp_path.glob("case2_phi_*.snp"))) == 3

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[time]\ntau = -1\n")
        assert main(["run", "--config", str(bad), "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_numerical_breakdown_exit_code(self, tmp_path, capsys):
        # a tiny bconst leaves the auxiliary energy E1 negative
        cfg = self._write_tiny_cfg(tmp_path, params=replace(CASE2.params, bconst=1e-9))
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("numerical breakdown: ") and err.count("\n") == 1
        # E1 < 0 already at the initial data: the line names level 0 and t=0
        assert "level 0 (t=0): auxiliary energy E1=" in err

    def test_non_finite_record_exit_code(self, tmp_path, capsys, monkeypatch):
        def broken_run(*args, **kwargs):
            raise NonFiniteRecordError("non-finite value in energy record")

        monkeypatch.setattr("dendrosim.cli.run_single", broken_run)
        cfg = self._write_tiny_cfg(tmp_path)
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("numerical breakdown: non-finite") and err.count("\n") == 1

    def test_non_finite_config_exit_code(self, tmp_path, capsys):
        cfg = self._write_tiny_cfg(tmp_path)
        cfg.write_text(cfg.read_text().replace("t_end = 0.05", "t_end = inf"))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert "time.t_end: not a finite number" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, key", [("--t-end", "t_end"), ("--tau", "tau")])
    def test_non_finite_override_exit_code(self, tmp_path, capsys, flag, key):
        # overrides go through dataclasses.replace, so RunConfig itself must refuse them
        out = tmp_path / "out"
        code = main(["run", "--config", str(CONFIG_DIR / "case2.cfg"), "--out", str(out),
                     flag, "inf"])
        assert code == EXIT_CONFIG
        assert f"time.{key}: not a finite number" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flags", "file"])
    def test_step_count_overflow_exit_code(self, tmp_path, capsys, source):
        # t_end / tau overflows to inf: refused with exit 2 before --out is created
        cfg, args = CONFIG_DIR / "case2.cfg", ["--tau", "1e-320", "--t-end", "1"]
        if source == "file":
            cfg = tmp_path / "tiny_tau.cfg"
            cfg.write_text((CONFIG_DIR / "case2.cfg").read_text()
                           .replace("tau = 1e-3", "tau = 1e-320"))
            args = []
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out), *args]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error: time.t_end=1.0 / time.tau=1e-320")
        assert "step count is not a finite number" in err
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flags", "file"])
    def test_step_that_does_not_divide_t_end_exit_code(self, tmp_path, capsys, source):
        # ten steps of 2e-3 end at t = 0.02, short of t_end = 0.021: refused
        # with exit 2 before --out is created, not run to the wrong time
        cfg, args = CONFIG_DIR / "case2.cfg", ["--tau", "2e-3", "--t-end", "0.021"]
        if source == "file":
            cfg = tmp_path / "short.cfg"
            cfg.write_text(serialize_config(replace(CASE2, tau=2e-3, t_end=0.021)))
            args = []
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out), *args]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "configuration error: time.tau=0.002 does not divide time.t_end=0.021: "
            "its 10 steps end at t=0.02\n")
        assert not out.exists()

    # header bytes (offset, replacement) that corrupt a snapshot's header
    HEADER_DAMAGE = {
        "nx-2": (8, struct.pack("<I", 2)),
        "nan-x0": (16, struct.pack("<d", math.nan)),
        "non-utf8-name": (56, b"\xff"),
    }

    @pytest.mark.parametrize("case, level, needle", [
        ("missing", 4, "s_phi_000004.snp: No such file or directory"),
        pytest.param("mis-shaped", 2, "lies on GridSpec(nx=8, ny=8, x0=-1.0, x1=1.0, "
                     "y0=-1.0, y1=1.0), not on the run's grid GridSpec(nx=16, ny=16, ",
                     id="mis-shaped-2-has shape (8, 8), expected (16, 16)"),
        ("off-domain", 2, "lies on GridSpec(nx=16, ny=16, x0=0.0, x1=5.0, y0=0.0, y1=5.0), "
                          "not on the run's grid GridSpec(nx=16, ny=16, x0=-1.0, x1=1.0, "),
        ("mis-timed", 2, "holds time 0.0035, more than tau/2 from t=0.002"),
        ("trailing", 3, "s_phi_000003.snp: expected 2048 bytes, found 2560"),
        ("nx-2", 2, "s_phi_000002.snp: grid needs nx, ny >= 4, got 2x16"),
        ("nan-x0", 2, "s_phi_000002.snp: x0 must be a finite number, got nan"),
        ("non-utf8-name", 3, "s_phi_000003.snp is not UTF-8"),
    ])
    def test_forcing_series_failure_exit_code(self, tmp_path, capsys, case, level, needle):
        # a case1 run fed by a [sources] series of three levels: a missing,
        # mis-shaped, off-domain, mis-timed, overlong or corrupt-header file
        # is a configuration error naming the level, found before the run
        # creates anything
        from dendrosim.config import serialize_config

        tau, grid = 1e-3, GridSpec(16, 16)
        forcing = tmp_path / "forcing"
        forcing.mkdir()
        for n in (1, 2, 3):
            snap_grid, t = grid, n * tau
            if n == level and case == "mis-shaped":
                snap_grid = GridSpec(8, 8)
            if n == level and case == "off-domain":
                snap_grid = GridSpec(16, 16, 0.0, 5.0, 0.0, 5.0)
            if n == level and case == "mis-timed":
                t = 3.5e-3
            snap = FieldSnapshot(grid=snap_grid, time=t, name="s_phi",
                                 values=snap_grid.full(0.1))
            path = forcing / f"s_phi_{n:06d}.snp"
            write_snapshot(snap, path)
            if n == level and case == "trailing":
                with open(path, "ab") as fh:
                    fh.write(np.ones(64).tobytes())
            if n == level and case in self.HEADER_DAMAGE:
                offset, raw = self.HEADER_DAMAGE[case]
                with open(path, "r+b") as fh:
                    fh.seek(offset)
                    fh.write(raw)
                    if case == "nx-2":  # a 2x16 payload: only the grid is at fault
                        fh.truncate(72 + 8 * 2 * 16)
        t_end = 5e-3 if case == "missing" else 3e-3
        cfg = replace(shipped_config("case1"), grid=grid, scheme="bdf1",
                      tau=tau, t_end=t_end, source_phi_dir=str(forcing))
        path = tmp_path / "case1.cfg"
        path.write_text(serialize_config(cfg))
        out = tmp_path / "out"
        code = main(["run", "--config", str(path), "--out", str(out)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: level {level} (t={level * tau:g}): ")
        assert needle in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("kind, value, needle", [
        ("phi", math.nan, "helmholtz_solve: rhs contains non-finite values"),
        ("temp", math.nan, "helmholtz_solve: rhs contains non-finite values"),
        ("phi", 1e308, "helmholtz_solve: rhs contains non-finite values"),
        ("temp", 1e308, "xi closure: A1=80200.0 and A2=nan must be finite"),
    ], ids=["phi-nan", "temp-nan", "phi-1e+308", "temp-1e+308"])
    def test_non_finite_forcing_exit_code(self, tmp_path, capsys, kind, value, needle):
        # a NaN in a forcing file, or a finite value that overflows the phase
        # right-hand side, reaches the first solve of level 1; a finite T value
        # whose solve overflows reaches the xi closure: exit 5, one line naming
        # the level, the time and where the run broke down, and no warning
        tau, grid = 1e-3, GridSpec(16, 16)
        forcing = tmp_path / "forcing"
        forcing.mkdir()
        values = grid.full(0.1)
        values[3, 5] = value
        for n in (1, 2):
            write_snapshot(FieldSnapshot(grid, n * tau, "s", values),
                           forcing / f"s_{kind}_{n:06d}.snp")
        cfg = replace(shipped_config("case1"), grid=grid, scheme="bdf1", tau=tau,
                      t_end=2 * tau, **{f"source_{kind}_dir": str(forcing)})
        path = tmp_path / "case1.cfg"
        path.write_text(serialize_config(cfg))
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == EXIT_NUMERICAL
        assert capsys.readouterr().err == f"numerical breakdown: level 1 (t=0.001): {needle}\n"

    def test_unusable_out_path_exit_code(self, tmp_path, capsys):
        # --out below a regular file cannot be created: exit 2, one line
        # that names the path, no traceback
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "sub"
        cfg = self._write_tiny_cfg(tmp_path)
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"output error: cannot write {out}: ") and err.count("\n") == 1

    def test_tiny_eps_exit_code(self, tmp_path, capsys):
        # an eps whose square underflows is a configuration error (it was a
        # ZeroDivisionError traceback after the output directory was made)
        cfg = tmp_path / "case2.cfg"
        text = (CONFIG_DIR / "case2.cfg").read_text()
        assert "\neps = 0.1\n" in text
        cfg.write_text(text.replace("\neps = 0.1\n", "\neps = 1e-200\n"))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error: model: eps=1e-200 ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("latent", ["0", "-0.1"])
    def test_nonpositive_latent_exit_code(self, tmp_path, capsys, latent):
        # the energies divide by the latent heat: a zero one was a
        # ZeroDivisionError traceback after the output directory was made
        cfg = tmp_path / "case2.cfg"
        text = (CONFIG_DIR / "case2.cfg").read_text()
        assert "\nlatent = 0.1\n" in text
        cfg.write_text(text.replace("\nlatent = 0.1\n", f"\nlatent = {latent}\n"))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == f"configuration error: model: latent must be positive, got {float(latent)}\n"
        assert not out.exists()

    @pytest.mark.parametrize("lam", ["0", "-1"])
    def test_nonpositive_lambda_exit_code(self, tmp_path, capsys, lam):
        # lambda = -1 made the modified energy unbounded below (a run without
        # --strict-energy exited 0, with it exit 4 at step 2), and lambda = 0
        # silently dropped the temperature energy
        cfg = tmp_path / "case2.cfg"
        text = (CONFIG_DIR / "case2.cfg").read_text()
        assert "\nlambda = 1.0\n" in text
        cfg.write_text(text.replace("\nlambda = 1.0\n", f"\nlambda = {lam}\n"))
        out = tmp_path / "out"
        code = main(["run", "--config", str(cfg), "--out", str(out), "--t-end", "0.005"])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == f"configuration error: model: lambda must be positive, got {float(lam)}\n"
        assert not out.exists()

    def test_strict_energy_exit_code(self, tmp_path, capsys, monkeypatch):
        # a modified energy that grows at level 3 ends the run with exit 4
        _inflate_r(monkeypatch, bdf1, "step", level=3)
        cfg = self._write_tiny_cfg(tmp_path, scheme="bdf1")
        out = tmp_path / "out"
        code = main(["run", "--config", str(cfg), "--out", str(out), "--strict-energy"])
        assert code == EXIT_ENERGY
        err = capsys.readouterr().err
        assert err.startswith("energy law violation: modified energy increased at step 3: ")
        assert err.count("\n") == 1
        assert [r.step for r in read_ledger(out / "ledger.csv")] == [0, 1, 2]

    @pytest.mark.parametrize("ladder, ref_tau, needle", [
        pytest.param("1e-3", "5e-4", "accuracy ladder needs at least two step sizes",
                     id="1e-3-accuracy ladder needs at least two step sizes"),
        pytest.param("5e-3,1e-2", "5e-4", "accuracy ladder must be strictly decreasing",
                     id="5e-3,1e-2-accuracy ladder must be strictly decreasing"),
        pytest.param("1e-2,1e-3", "5e-4", "too close to reference tau",
                     id="1e-2,1e-3-too close to reference tau"),
        ("nan,1e-3", "5e-4", "finite and positive, got nan"),
        ("inf,1e-2", "5e-4", "finite and positive, got inf"),
        ("1e-2,5e-3", "0", "finite and positive, got 0.0"),
        ("1e-2,5e-3", "-1", "finite and positive, got -1.0"),
        # 0.05 / 3e-3 rounds to 17 steps, which end at t = 0.051
        pytest.param("1e-2,3e-3", "1e-4", "time.tau=0.003 does not divide time.t_end=0.05: "
                                          "its 17 steps end at t=0.051",
                     id="1e-2,3e-3-1e-4-accuracy step 0.003 does not divide t_end=0.05"),
    ])
    def test_accuracy_bad_ladder_steps_nothing(self, tmp_path, capsys, monkeypatch,
                                               ladder, ref_tau, needle):
        # the ladder and the reference step are checked before the reference
        # run and before --out is made
        runs, run = [], experiments.run_single

        def counted_run(*args, **kwargs):
            runs.append(args)
            return run(*args, **kwargs)

        monkeypatch.setattr(experiments, "run_single", counted_run)
        cfg = self._write_tiny_cfg(tmp_path)
        out = tmp_path / "acc"
        code = main(["accuracy", "--config", str(cfg), "--out", str(out),
                     "--ladder", ladder, "--ref-tau", ref_tau])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and needle in err
        assert err.count("\n") == 1
        assert runs == [] and not out.exists()

    def test_accuracy_unusable_out_steps_nothing(self, tmp_path, capsys, monkeypatch):
        # an --out that cannot be created fails before the reference run
        runs, run = [], experiments.run_single

        def counted_run(*args, **kwargs):
            runs.append(args)
            return run(*args, **kwargs)

        monkeypatch.setattr(experiments, "run_single", counted_run)
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "sub"
        cfg = self._write_tiny_cfg(tmp_path)
        code = main(["accuracy", "--config", str(cfg), "--out", str(out),
                     "--ladder", "1e-2,5e-3", "--ref-tau", "5e-4"])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"output error: cannot write {out}: ")
        with pytest.raises(OSError):
            run_accuracy(tiny_config(), ladder=(1e-2, 5e-3), ref_tau=5e-4, out_dir=out)
        assert runs == []

    def test_config_not_utf8_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"# \xff\n" + (CONFIG_DIR / "case2.cfg").read_bytes())
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {cfg} is not UTF-8 text: ")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_config_is_utf8_under_the_c_locale(self, tmp_path):
        # a UTF-8 comment and a non-ASCII prefix read and round-trip through
        # resolved.cfg whatever the locale's encoding
        cfg = tmp_path / "delta.cfg"
        text = serialize_config(replace(CASE2, prefix="\u0394run"))
        cfg.write_text("# \u0394 = 0.6\n" + text, encoding="utf-8")
        out = tmp_path / "out"
        src = str(Path(experiments.__file__).resolve().parents[1])
        env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        proc = subprocess.run([sys.executable, "-m", "dendrosim.cli", "run", "--config", str(cfg),
                               "--t-end", "0.002", "--out", str(out)],
                              env=env, capture_output=True, timeout=120)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert load_config(out / "resolved.cfg").prefix == "\u0394run"

    def test_missing_file_exit_code(self, tmp_path):
        missing = tmp_path / "nope.cfg"
        assert main(["run", "--config", str(missing), "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_stability_subcommand(self, tmp_path, capsys):
        code = main([
            "stability", "--config", str(CONFIG_DIR / "case2.cfg"),
            "--out", str(tmp_path), "--taus", "0.5,2", "--steps", "5",
        ])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("stabilizers (s1,s2,s3,s4)   tau      max|xi-1|   min a1\n")
        # one row per (stabilizer set, tau), naming both
        rows = [row.rsplit(maxsplit=3) for row in out.splitlines()[1:]]
        assert [(row[0].strip(), row[1]) for row in rows] == [
            (str(s_set), tau) for s_set in STABILIZER_SETS for tau in ("0.5", "2")]

    def _write_tiny_cfg(self, tmp_path, **tweaks):
        from dendrosim.config import serialize_config

        cfg = tiny_config(**tweaks)
        path = tmp_path / "tiny.cfg"
        path.write_text(serialize_config(cfg))
        return path

    def test_accuracy_subcommand(self, tmp_path, capsys):
        cfg_path = self._write_tiny_cfg(tmp_path, t_end=0.05)
        code = main([
            "accuracy", "--config", str(cfg_path), "--out", str(tmp_path / "acc"),
            "--ladder", "1e-2,5e-3", "--ref-tau", "5e-4",
        ])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "bdf1: slope" in out and "bdf2: slope" in out
        assert (tmp_path / "acc" / "accuracy_bdf1.csv").exists()
        assert (tmp_path / "acc" / "accuracy_bdf2.csv").exists()

    def test_dendrite_subcommand(self, tmp_path, capsys):
        # a latent heat outside the preset table falls back to the config's
        # own t_end, which keeps this CLI path fast
        cfg_path = self._write_tiny_cfg(
            tmp_path, params=DENDRITE.params, initial=DENDRITE.initial,
            grid=GridSpec(32, 32), t_end=0.03,
        )
        code = main([
            "dendrite", "--config", str(cfg_path),
            "--out", str(tmp_path / "den"), "--k-values", "0.33",
        ])
        assert code == EXIT_OK
        assert "arms" in capsys.readouterr().out
        assert (tmp_path / "den" / "K0.33" / "dendrite_K0.33.csv").exists()

    @pytest.mark.parametrize("when", [-1.0, 7.0], ids=["negative", "late"])
    def test_unreachable_snapshot_time_exit_code(self, tmp_path, capsys, when):
        # no level of a run to t = 0.01 lies within tau/2 of the time: it is
        # refused with exit 2 before --out is created, not dropped silently
        cfg = tmp_path / "times.cfg"
        cfg.write_text(serialize_config(replace(CASE2, snapshot_times=(0.005, when))))
        out = tmp_path / "out"
        code = main(["run", "--config", str(cfg), "--t-end", "0.01", "--out", str(out)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error: output.snapshot_times")
        assert f"{when!r}" in err and "span t=0 to t=0.01\n" in err
        assert not out.exists()

    def test_dendrite_refuses_t_end(self, tmp_path, capsys):
        # each dendrite run ends at its last snapshot instant, so --t-end
        # would be ignored: it is refused with exit 2 before --out is created
        out = tmp_path / "den"
        with pytest.raises(SystemExit) as exc:
            main(["dendrite", "--config", str(CONFIG_DIR / "dendrite.cfg"),
                  "--out", str(out), "--t-end", "0.02"])
        assert exc.value.code == EXIT_CONFIG
        assert "--t-end" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, flags", [
        ("run", ["--steps", "5"]),
        ("accuracy", ["--tau", "7", "--t-end", "0.02"]),
        ("accuracy", ["--scheme", "bdf1"]),
        ("accuracy", ["--snapshot-every", "1"]),
        ("stability", ["--taus", "0.1", "--steps", "2", "--tau", "3"]),
        ("stability", ["--taus", "0.1", "--steps", "2", "--t-end", "7"]),
        ("stability", ["--taus", "0.1", "--steps", "2", "--strict-energy"]),
        ("stability", ["--taus", "0.1", "--tau", "3"]),
        ("dendrite", ["--k-values", "0.33", "--taus", "0.1"]),
    ])
    def test_unread_flag_refused(self, tmp_path, capsys, command, flags):
        # a subcommand accepts only the flags its driver reads; any other one,
        # or a prefix of a flag it has (stability --tau of --taus), exits 2
        # before --out is created
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(CONFIG_DIR / "case2.cfg"), "--out", str(out), *flags])
        assert exc.value.code == EXIT_CONFIG
        assert "unrecognized arguments: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, flag", [
        ("stability", "--taus"), ("dendrite", "--k-values"), ("accuracy", "--ladder"),
    ])
    def test_malformed_float_list_exit_code(self, tmp_path, capsys, command, flag):
        # a list that is not comma-separated floats is refused by argparse:
        # exit 2, naming the list, before --out is created
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(CONFIG_DIR / "case2.cfg"), "--out", str(out),
                  flag, "0.1,x"])
        assert exc.value.code == EXIT_CONFIG
        assert (f"argument {flag}: expected comma-separated floats, got '0.1,x'"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("command, flags, expected", [
        ("run", ["--scheme", "bdf1", "--tau", "0.02", "--t-end", "0.5", "--strict-energy",
                 "--snapshot-every", "3"],
         dict(scheme="bdf1", tau=0.02, t_end=0.5, strict_energy=True, snapshot_every=3)),
        ("accuracy", ["--t-end", "0.5", "--strict-energy"], dict(t_end=0.5, strict_energy=True)),
        ("stability", ["--scheme", "bdf1", "--snapshot-every", "3"],
         dict(scheme="bdf1", snapshot_every=3)),
        ("dendrite", ["--scheme", "bdf1", "--tau", "0.02", "--strict-energy",
                      "--snapshot-every", "3"],
         dict(scheme="bdf1", tau=0.02, strict_energy=True, snapshot_every=3)),
    ])
    def test_kept_flags_override_the_config(self, command, flags, expected):
        args = build_parser().parse_args([command, "--config", "c.cfg", "--out", "o", *flags])
        cfg = _apply_overrides(CASE2, args)
        assert {name: getattr(cfg, name) for name in expected} == expected
        unchanged = {"scheme", "tau", "t_end", "strict_energy", "snapshot_every"} - set(expected)
        assert all(getattr(cfg, name) == getattr(CASE2, name) for name in unchanged)

    @pytest.mark.parametrize("command, flag, values, needle", [
        ("dendrite", "--k-values", "0", "latent heat values must be finite and positive, got 0.0"),
        ("dendrite", "--k-values", "-1", "values must be finite and positive, got -1.0"),
        ("dendrite", "--k-values", "nan", "values must be finite and positive, got nan"),
        ("dendrite", "--k-values", "0.6,0", "values must be finite and positive, got 0.0"),
        ("dendrite", "--k-values", ",", "latent heat values must not be empty"),
        ("stability", "--taus", ",", "stability step sizes must not be empty"),
        ("stability", "--taus", "0.1,0", "step sizes must be finite and positive, got 0.0"),
        ("stability", "--taus", "inf", "step sizes must be finite and positive, got inf"),
        ("stability", "--steps", "0", "stability step count must be at least 1, got 0"),
        ("stability", "--steps", "-2", "stability step count must be at least 1, got -2"),
        # members whose output names format alike would write into one directory
        ("stability", "--taus", "0.1,0.1000001",
         "stability step sizes 0.1 and 0.1000001 share the output name 'tau0.1'"),
        ("stability", "--taus", "0.5,0.1,0.5",
         "stability step sizes 0.5 and 0.5 share the output name 'tau0.5'"),
        ("dendrite", "--k-values", "0.6,0.6000001",
         "latent heat values 0.6 and 0.6000001 share the output name 'K0.6'"),
        ("dendrite", "--k-values", "1.2,1.2",
         "latent heat values 1.2 and 1.2 share the output name 'K1.2'"),
    ])
    def test_bad_sweep_runs_nothing(self, tmp_path, capsys, monkeypatch, command, flag, values,
                                    needle):
        # every sweep value, and the output name it formats to, is checked before
        # the first run and before --out is made
        runs = []
        monkeypatch.setattr(experiments, "run_single", lambda *args, **kwargs: runs.append(args))
        out = tmp_path / "sweep"
        code = main([command, "--config", str(CONFIG_DIR / "case2.cfg"), "--out", str(out),
                     flag, values])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and needle in err
        assert err.count("\n") == 1
        assert runs == [] and not out.exists()
