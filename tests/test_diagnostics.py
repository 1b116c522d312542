import math
import re
import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dendrosim.bdf1 import init_state, step
from dendrosim.bdf2 import bootstrap, step2
from dendrosim.diagnostics import (
    EnergyRecord,
    LEDGER_FIELDS,
    LedgerWriter,
    count_axis_branches,
    crystal_area,
    make_record,
    read_ledger,
)
from dendrosim.grid import GridSpec, norm_sq
from dendrosim.model import e1_energy
from dendrosim.snapshots import (
    FieldSnapshot,
    SnapshotFormatError,
    read_checkpoint,
    read_snapshot,
    source_from_snapshots,
    write_checkpoint,
    write_snapshot,
)

from conftest import random_field, shipped_config


class TestCrystalArea:
    def test_pure_phases(self, grid16):
        assert crystal_area(grid16, grid16.full(-1.0)) == pytest.approx(0.0)
        assert crystal_area(grid16, grid16.full(1.0)) == pytest.approx(grid16.area)
        assert crystal_area(grid16, grid16.zeros()) == pytest.approx(grid16.area / 2)

    def test_case2_disc_regression(self):
        # frozen regression: the tanh disc covers ~pi*r0; growth
        # monotonicity belongs to the dendrite benchmark (strong
        # undercooling), exercised in the acceptance suite
        grid = GridSpec(64, 64)
        x, y = grid.mesh()
        phi0 = np.tanh((0.25 - x**2 - y**2) / 0.1)
        a0 = crystal_area(grid, phi0)
        assert a0 == pytest.approx(math.pi * 0.25, rel=0.02)
        assert a0 == pytest.approx(0.7864529967874684, abs=1e-12)


class TestRecords:
    def test_initial_record_conventions(self, case2):
        grid, p, phi0, temp0 = case2
        state = init_state(grid, phi0, temp0, p)
        rec = make_record(grid, p, state)
        assert rec.xi == 1.0
        assert rec.identity_residual == 0.0
        assert rec.a1 == pytest.approx(2.0 * e1_energy(grid, phi0, p))
        assert rec.step == 0

    def test_original_energy_lower_bound(self, case2):
        # every other integrand is non-negative, so e_original dominates the
        # temperature part
        grid, p, phi0, temp0 = case2
        state = init_state(grid, phi0, temp0, p)
        rec = make_record(grid, p, state)
        t_term = 0.5 * p.lam / (p.eps * p.latent) * norm_sq(grid, state.temp)
        assert rec.e_original >= t_term

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="non-finite"):
            EnergyRecord(step=0, time=0.0, e_modified=float("nan"), e_original=0.0,
                         xi=1.0, area=0.0, identity_residual=0.0, a1=1.0)


def _rec(step_idx, e_mod):
    return EnergyRecord(step=step_idx, time=0.1 * step_idx, e_modified=e_mod,
                        e_original=1.0, xi=1.0, area=2.0,
                        identity_residual=1e-16, a1=3.0)


class TestLedger:
    def test_header_and_roundtrip(self, tmp_path):
        path = tmp_path / "ledger.csv"
        values = [5.5, 5.25, 5.24999999]
        with LedgerWriter(path) as w:
            for k, v in enumerate(values):
                w.append(_rec(k, v))
        text = path.read_text().splitlines()
        assert text[0] == ",".join(LEDGER_FIELDS)
        back = read_ledger(path)
        assert [r.e_modified for r in back] == values
        assert [r.step for r in back] == [0, 1, 2]

    def test_full_precision_roundtrip(self, tmp_path):
        path = tmp_path / "ledger.csv"
        ugly = 19999.123456789012345 / 7.0
        with LedgerWriter(path) as w:
            w.append(_rec(0, ugly))
        assert read_ledger(path)[0].e_modified == ugly

    def test_foreign_header_refused(self, tmp_path):
        path = tmp_path / "ledger.csv"
        path.write_text("step,time,energy\n0,0.0,1.0\n")
        with pytest.raises(ValueError, match=re.escape(
                f"unexpected ledger header in {path}: ['step', 'time', 'energy']")):
            read_ledger(path)


class TestBranchCounting:
    def _field_from_mask(self, grid, mask):
        return np.where(mask, 1.0, -1.0)

    def test_axis_aligned_plus(self):
        grid = GridSpec(128, 128)
        x, y = grid.mesh()
        plus = ((np.abs(x) < 0.08) & (np.abs(y) < 0.8)) | \
               ((np.abs(y) < 0.08) & (np.abs(x) < 0.8))
        arms, axis_arms = count_axis_branches(grid, self._field_from_mask(grid, plus))
        assert arms == 4
        assert axis_arms == 4

    def test_diagonal_cross_is_not_axis_aligned(self):
        grid = GridSpec(128, 128)
        x, y = grid.mesh()
        u, v = (x + y) / math.sqrt(2), (x - y) / math.sqrt(2)
        cross = ((np.abs(u) < 0.08) & (np.abs(v) < 0.8)) | \
                ((np.abs(v) < 0.08) & (np.abs(u) < 0.8))
        arms, axis_arms = count_axis_branches(grid, self._field_from_mask(grid, cross))
        assert arms == 4
        assert axis_arms == 0

    def test_disc_has_no_arms(self):
        grid = GridSpec(64, 64)
        x, y = grid.mesh()
        disc = x**2 + y**2 < 0.3
        arms, axis_arms = count_axis_branches(grid, self._field_from_mask(grid, disc))
        assert arms == 0
        assert axis_arms == 0


class TestSnapshots:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_roundtrip_bit_exact(self, seed):
        import tempfile
        from pathlib import Path

        grid = GridSpec(6, 9, -2.0, 1.0, 0.0, 4.0)
        values = random_field(grid, seed)
        snap = FieldSnapshot(grid=grid, time=0.625, name="phi", values=values)
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "f.snp"
            write_snapshot(snap, path)
            back = read_snapshot(path)
        assert back.grid == grid
        assert back.time == 0.625
        assert back.name == "phi"
        assert np.array_equal(back.values, values)
        assert back.values.dtype == np.float64

    @pytest.mark.parametrize("layout", ["c", "fortran", "strided", "big-endian", "float32"])
    def test_file_is_header_and_payload_bytes(self, tmp_path, layout):
        # the payload is written from the array's own buffer, or from a
        # contiguous little-endian copy of it: byte for byte the header and
        # the C-ordered doubles
        grid = GridSpec(6, 9, -2.0, 1.0, 0.0, 4.0)
        base = random_field(grid, 3)
        values = {
            "c": base,
            "fortran": np.asfortranarray(base),
            "strided": np.repeat(base, 2, axis=1)[:, ::2],
            "big-endian": base.astype(">f8"),
            "float32": base.astype(np.float32),
        }[layout]
        path = tmp_path / "f.snp"
        write_snapshot(FieldSnapshot(grid, 0.625, "temp", values), path)
        header = struct.pack("<4sIIIddddd16s", b"PFC1", 1, 6, 9, -2.0, 1.0, 0.0, 4.0, 0.625,
                             b"temp".ljust(16, b"\0"))
        assert path.read_bytes() == header + values.astype("<f8").tobytes()

    def test_truncated_payload_error_names_counts(self, tmp_path, grid8):
        path = tmp_path / "f.snp"
        snap = FieldSnapshot(grid=grid8, time=0.0, name="phi", values=grid8.zeros())
        write_snapshot(snap, path)
        data = path.read_bytes()
        path.write_bytes(data[:-17])
        with pytest.raises(SnapshotFormatError, match=r"expected 512 bytes, found 495"):
            read_snapshot(path)

    def test_trailing_bytes_rejected(self, tmp_path, grid8):
        # 64 doubles after the payload of an 8x8 snapshot
        path = tmp_path / "f.snp"
        write_snapshot(FieldSnapshot(grid8, 0.0, "phi", grid8.zeros()), path)
        with open(path, "ab") as fh:
            fh.write(np.ones(64).tobytes())
        with pytest.raises(SnapshotFormatError,
                           match=r"trailing bytes in .*f\.snp: expected 512 bytes, found 1024"):
            read_snapshot(path)

    def test_bad_magic(self, tmp_path, grid8):
        path = tmp_path / "f.snp"
        write_snapshot(FieldSnapshot(grid8, 0.0, "phi", grid8.zeros()), path)
        data = bytearray(path.read_bytes())
        data[:4] = b"NOPE"
        path.write_bytes(bytes(data))
        with pytest.raises(SnapshotFormatError, match="magic"):
            read_snapshot(path)

    def test_bad_version(self, tmp_path, grid8):
        path = tmp_path / "f.snp"
        write_snapshot(FieldSnapshot(grid8, 0.0, "phi", grid8.zeros()), path)
        data = bytearray(path.read_bytes())
        data[4] = 99
        path.write_bytes(bytes(data))
        with pytest.raises(SnapshotFormatError, match="version"):
            read_snapshot(path)

    @pytest.mark.parametrize("nx, x0, name, needle", [
        (2, -1.0, b"phi", ": grid needs nx, ny >= 4, got 2x8"),
        (8, math.nan, b"phi", ": x0 must be a finite number, got nan"),
        (8, -1.0, b"\xffphi", " is not UTF-8"),
    ], ids=["nx-2", "nan-x0", "non-utf8-name"])
    def test_corrupt_header_rejected(self, tmp_path, nx, x0, name, needle):
        # a file of the payload size its header declares, whose grid GridSpec
        # refuses or whose field name is not UTF-8: a format error that names
        # the file
        path = tmp_path / "f.snp"
        header = struct.pack("<4sIIIddddd16s", b"PFC1", 1, nx, 8, x0, 1.0, -1.0, 1.0, 0.0,
                             name.ljust(16, b"\0"))
        path.write_bytes(header + np.zeros(nx * 8).tobytes())
        with pytest.raises(SnapshotFormatError) as err:
            read_snapshot(path)
        assert f"{path}{needle}" in str(err.value)

    @pytest.mark.parametrize("size", [0, 71])
    @pytest.mark.parametrize("read, need", [(read_snapshot, 72), (read_checkpoint, 84)],
                             ids=["snapshot", "checkpoint"])
    def test_truncated_header_rejected(self, tmp_path, read, need, size):
        # a file shorter than its header: a format error naming the file and both sizes
        path = tmp_path / "f.bin"
        path.write_bytes(b"P" * size)
        with pytest.raises(SnapshotFormatError) as err:
            read(path)
        assert str(err.value) == (f"truncated header in {path}: "
                                  f"expected {need} bytes, found {size}")

    def test_name_too_long(self, grid8, tmp_path):
        snap = FieldSnapshot(grid8, 0.0, "x" * 17, grid8.zeros())
        with pytest.raises(ValueError, match="name too long"):
            write_snapshot(snap, tmp_path / "f.snp")


class TestCheckpoint:
    def test_bdf1_roundtrip(self, case2, tmp_path):
        grid, p, phi0, temp0 = case2
        state = init_state(grid, phi0, temp0, p)
        state, _ = step(grid, state, 0.01, p)
        path = tmp_path / "state.ckpt"
        write_checkpoint(path, grid, state)
        grid2, back = read_checkpoint(path)
        assert grid2 == grid
        assert back.n == state.n and back.t == state.t and back.r == state.r
        assert back.order == state.order == 1 and back.a0 == state.a0 == 1.0
        for name in ("phi", "temp", "mu"):
            assert np.array_equal(getattr(back, name), getattr(state, name))

    def test_bdf2_roundtrip_includes_previous_level(self, case2, tmp_path):
        grid, p, phi0, temp0 = case2
        state, _ = bootstrap(grid, init_state(grid, phi0, temp0, p), 0.01, p)
        state, _ = step2(grid, state, 0.01, p)
        path = tmp_path / "state.ckpt"
        write_checkpoint(path, grid, state)
        _, back = read_checkpoint(path)
        for name in ("phi", "phi_prev", "temp", "temp_prev", "mu", "mu_prev"):
            assert np.array_equal(getattr(back, name), getattr(state, name))
        assert back.r == state.r and back.r_prev == state.r_prev
        assert back.order == state.order == 2 and back.a0 == state.a0 == 1.5

    @pytest.mark.parametrize("scheme", ["bdf1", "bdf2"])
    def test_restart_equals_uninterrupted_bitwise(self, case2, scheme, tmp_path):
        # 10 steps == 5 steps + checkpoint file + 5 steps, bit for bit:
        # restart must not re-bootstrap or lose any level
        grid, p, phi0, temp0 = case2
        tau = 0.05

        def advance(state, n):
            for _ in range(n):
                if scheme == "bdf1":
                    state, _ = step(grid, state, tau, p)
                else:
                    state, _ = step2(grid, state, tau, p)
            return state

        start = init_state(grid, phi0, temp0, p)
        if scheme == "bdf2":
            start, _ = bootstrap(grid, start, tau, p)

        straight = advance(start, 10)
        path = tmp_path / "half.ckpt"
        write_checkpoint(path, grid, advance(start, 5))
        _, resumed = read_checkpoint(path)
        resumed = advance(resumed, 5)
        for name in ("phi", "temp", "mu"):
            assert np.array_equal(getattr(straight, name), getattr(resumed, name))
        assert straight.r == resumed.r

    @staticmethod
    def _file(case2, tmp_path):
        grid, p, phi0, temp0 = case2
        path = tmp_path / "state.ckpt"
        write_checkpoint(path, grid, init_state(grid, phi0, temp0, p))
        return path

    def test_truncated_checkpoint(self, case2, tmp_path):
        path = self._file(case2, tmp_path)
        path.write_bytes(path.read_bytes()[:-100])
        with pytest.raises(SnapshotFormatError, match=r"^truncated payload in .*state\.ckpt: "):
            read_checkpoint(path)

    def test_trailing_bytes_rejected(self, case2, tmp_path):
        grid = case2[0]
        path = self._file(case2, tmp_path)
        payload = 3 * 8 * grid.nx * grid.ny  # phi, T and mu
        path.write_bytes(path.read_bytes() + bytes(8))
        with pytest.raises(SnapshotFormatError,
                           match=rf"^trailing bytes in .*state\.ckpt: expected {payload} bytes, "
                                 rf"found {payload + 8}"):
            read_checkpoint(path)

    def test_bad_grid_rejected(self, case2, tmp_path):
        path = self._file(case2, tmp_path)
        buf = bytearray(path.read_bytes())
        buf[12:16] = struct.pack("<I", 2)  # nx
        path.write_bytes(bytes(buf))
        with pytest.raises(SnapshotFormatError,
                           match=r"^bad grid in .*state\.ckpt: grid needs nx, ny >= 4, got 2x"):
            read_checkpoint(path)

    def test_unknown_scheme_tag_rejected(self, case2, tmp_path):
        path = self._file(case2, tmp_path)
        buf = bytearray(path.read_bytes())
        buf[8:12] = b"BDF3"  # the scheme tag
        path.write_bytes(bytes(buf))
        with pytest.raises(SnapshotFormatError,
                           match=r"^unknown scheme tag b'BDF3' in .*state\.ckpt$"):
            read_checkpoint(path)

    @pytest.mark.skipif(tracemalloc.is_tracing(), reason="memory is traced already")
    def test_fields_stream_uncopied(self, tmp_path):
        # a bdf2 state of six 128^2 fields is written from the fields' own
        # buffers and read into the six returned arrays, with no copy of the
        # payload in memory on either side
        cfg, grid = shipped_config("case2"), GridSpec(128, 128)
        start = init_state(grid, *cfg.initial.build(grid), cfg.params)
        state, _ = bootstrap(grid, start, 0.01, cfg.params)
        path, field = tmp_path / "state.ckpt", 8 * grid.nx * grid.ny
        tracemalloc.start()
        try:
            write_checkpoint(path, grid, state)
            write_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            _, back = read_checkpoint(path)
            read_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert write_peak < field / 8
        assert 6 * field <= read_peak < 6 * field + field / 8

    def test_field_off_grid_leaves_no_file(self, case2, tmp_path):
        grid, p, phi0, temp0 = case2
        state = init_state(grid, phi0, temp0, p)
        path = tmp_path / "state.ckpt"
        with pytest.raises(ValueError, match="not conformable"):
            write_checkpoint(path, replace(grid, nx=grid.nx + 1), state)
        assert not path.exists()


class TestSnapshotSources:
    def test_file_series_matches_analytic(self, tmp_path, grid16):
        # a source fed from per-level snapshot files reproduces the analytic
        # path bit for bit when the files hold the same arrays
        tau = 0.01
        x, y = grid16.mesh()

        def analytic(xx, yy, t):
            return math.sin(t) * np.cos(np.pi * xx) * np.cos(np.pi * yy)

        for level in range(1, 5):
            t = level * tau
            snap = FieldSnapshot(grid=grid16, time=t, name="s_phi",
                                 values=analytic(x, y, t))
            write_snapshot(snap, tmp_path / f"src_{level:06d}.snp")

        provider = source_from_snapshots(tmp_path, "src", tau, grid16)
        for level in range(1, 5):
            t = level * tau
            assert np.array_equal(provider(x, y, t), analytic(x, y, t))

    def test_shape_mismatch_rejected(self, tmp_path, grid16, grid8):
        snap = FieldSnapshot(grid=grid8, time=0.01, name="s", values=grid8.zeros())
        write_snapshot(snap, tmp_path / "src_000001.snp")
        provider = source_from_snapshots(tmp_path, "src", 0.01, grid16)
        x, y = grid16.mesh()
        with pytest.raises(SnapshotFormatError, match=r"GridSpec\(nx=8, ny=8, .*not on the "
                                                      r"run's grid GridSpec\(nx=16, ny=16, "):
            provider(x, y, 0.01)
