import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dendrosim import bdf1, bdf2
from dendrosim.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main
from dendrosim.config import (
    RunConfig,
    case2_initial,
    case2_params,
    dendrite_initial,
    dendrite_params,
    load_config,
)
from dendrosim.diagnostics import NonFiniteRecordError, read_ledger
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
from dendrosim.snapshots import read_snapshot, source_from_snapshots

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def tiny_config(**overrides) -> RunConfig:
    base = dict(
        grid=GridSpec(16, 16),
        scheme="bdf2",
        tau=0.01,
        t_end=0.05,
        params=case2_params(),
        initial=case2_initial(),
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
        cfg = load_config(CONFIG_DIR / "case1.cfg")
        cfg = replace(cfg, grid=GridSpec(16, 16), tau=0.01, t_end=0.03)
        res = run_single(cfg)
        assert res.final_state.n == 3
        assert res.max_identity_residual <= 1e-9
        assert np.max(np.abs(res.final_state.phi)) < 1e-12

    def test_file_sources_match_analytic(self, tmp_path, grid16):
        # the externally-supplied snapshot-series source reproduces the
        # analytic-callable run exactly
        from dendrosim.snapshots import FieldSnapshot, write_snapshot

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
            cfg, sources=SourceTerms(phi=source_from_snapshots(src_dir, "sphi", tau))
        )
        assert np.array_equal(res_analytic.final_state.phi, res_files.final_state.phi)
        # the same forcing declared through the [sources] config section
        cfg_src = tiny_config(tau=tau, t_end=0.05, source_phi_dir=str(src_dir),
                              source_phi_prefix="sphi")
        res_cfg = run_single(cfg_src)
        assert np.array_equal(res_analytic.final_state.phi, res_cfg.final_state.phi)


class TestRunAccuracy:
    def test_mini_ladder_first_order(self):
        cfg = tiny_config(scheme="bdf1", t_end=0.1)
        report = run_accuracy(cfg, ladder=(1e-2, 5e-3), ref_tau=2e-4)
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

    def test_report_file(self, tmp_path):
        cfg = tiny_config(scheme="bdf1", t_end=0.05)
        run_accuracy(cfg, ladder=(1e-2, 5e-3), ref_tau=5e-4, out_dir=tmp_path)
        text = (tmp_path / "accuracy_bdf1.csv").read_text()
        assert text.startswith("tau,error_phi,error_temp\n")
        assert "# slope_phi" in text


class TestRunStability:
    def test_sweep_writes_ledgers_and_reports(self, tmp_path):
        cfg = tiny_config()
        results = run_stability(cfg, taus=(0.5,), out_dir=tmp_path, n_steps=10)
        assert len(results) == len(STABILIZER_SETS)
        for r in results:
            assert r.monotone
            assert r.min_a1 > 0.0
            assert r.ledger_path.exists()
            assert len(read_ledger(r.ledger_path)) == 11

    def test_stabilized_sets_keep_xi_near_one(self, tmp_path):
        cfg = tiny_config()
        results = run_stability(cfg, taus=(0.5,), out_dir=tmp_path, n_steps=10)
        by_set = {r.stabilizers: r.max_xi_dev for r in results}
        assert by_set[(0.0, 0.0, 5.0, 5.0)] < 0.05
        assert by_set[(0.1, 4.0, 5.0, 5.0)] < 0.05


class TestRunDendrite:
    def test_orchestration_coarse(self, tmp_path):
        # coarse, short run: checks wiring (per-K dirs, snapshots at the
        # requested instants, ledgers), not the physics
        cfg = RunConfig(
            grid=GridSpec(48, 48), scheme="bdf2", tau=0.01, t_end=0.05,
            params=dendrite_params(), initial=dendrite_initial(),
        )
        results = run_dendrite(
            cfg, latent_values=(0.6,), out_dir=tmp_path,
            t_end_override=0.05, snapshot_times_override=(0.02, 0.05),
        )
        assert len(results) == 1
        k_dir = tmp_path / "K0.6"
        assert (k_dir / "dendrite_K0.6.csv").exists()
        snaps = sorted(p.name for p in k_dir.glob("dendrite_K0.6_phi_*.snp"))
        assert snaps == ["dendrite_K0.6_phi_n000002.snp", "dendrite_K0.6_phi_n000005.snp"]
        assert set(results[0].area_at) == {0.0, 0.01, 0.02, 0.03, 0.04, 0.05}


class TestCli:
    def test_run_subcommand(self, tmp_path, capsys):
        code = main([
            "run", "--config", str(CONFIG_DIR / "case2.cfg"),
            "--out", str(tmp_path), "--tau", "0.01", "--t-end", "0.05",
        ])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "finished bdf2 run" in out
        assert (tmp_path / "case2.csv").exists()

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
        cfg = self._write_tiny_cfg(tmp_path, params=replace(case2_params(), bconst=1e-9))
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

    @pytest.mark.parametrize("case, level, needle", [
        ("missing", 4, "s_phi_000004.snp: No such file or directory"),
        ("mis-shaped", 2, "has shape (8, 8), expected (16, 16)"),
        ("mis-timed", 2, "holds time 0.0035, more than tau/2 from t=0.002"),
    ])
    def test_forcing_series_failure_exit_code(self, tmp_path, capsys, case, level, needle):
        # a case1 run fed by a [sources] series of three levels: a missing,
        # mis-shaped or mis-timed file is a configuration error naming the level
        from dendrosim.config import serialize_config
        from dendrosim.snapshots import FieldSnapshot, write_snapshot

        tau, grid = 1e-3, GridSpec(16, 16)
        forcing = tmp_path / "forcing"
        forcing.mkdir()
        for n in (1, 2, 3):
            snap_grid, t = grid, n * tau
            if n == level and case == "mis-shaped":
                snap_grid = GridSpec(8, 8)
            if n == level and case == "mis-timed":
                t = 3.5e-3
            snap = FieldSnapshot(grid=snap_grid, time=t, name="s_phi",
                                 values=snap_grid.full(0.1))
            write_snapshot(snap, forcing / f"s_phi_{n:06d}.snp")
        t_end = 5e-3 if case == "missing" else 3e-3
        cfg = replace(load_config(CONFIG_DIR / "case1.cfg"), grid=grid, scheme="bdf1",
                      tau=tau, t_end=t_end, source_phi_dir=str(forcing))
        path = tmp_path / "case1.cfg"
        path.write_text(serialize_config(cfg))
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: level {level} (t={level * tau:g}): ")
        assert needle in err and err.count("\n") == 1

    def test_missing_file_exit_code(self, tmp_path):
        missing = tmp_path / "nope.cfg"
        assert main(["run", "--config", str(missing), "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_stability_subcommand(self, tmp_path, capsys):
        code = main([
            "stability", "--config", str(CONFIG_DIR / "case2.cfg"),
            "--out", str(tmp_path), "--taus", "0.5", "--steps", "5",
        ])
        assert code == EXIT_OK
        assert "monotone" in capsys.readouterr().out

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
            tmp_path, params=dendrite_params(), initial=dendrite_initial(),
            grid=GridSpec(32, 32), t_end=0.03,
        )
        code = main([
            "dendrite", "--config", str(cfg_path),
            "--out", str(tmp_path / "den"), "--k-values", "0.33",
        ])
        assert code == EXIT_OK
        assert "arms" in capsys.readouterr().out
        assert (tmp_path / "den" / "K0.33" / "dendrite_K0.33.csv").exists()
