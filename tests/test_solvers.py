import importlib.machinery
import importlib.util
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.fft

import dendrosim
from dendrosim import bdf1, solvers
from dendrosim.experiments import run_single
from dendrosim.grid import GridSpec, laplacian
from dendrosim.model import SourceTerms
from dendrosim.solvers import (
    SolverError,
    helmholtz_solve,
    solve_shifted,
    variable_helmholtz_solve,
)

from conftest import random_field, shipped_config


def dense_operator(grid: GridSpec, c, b: float) -> np.ndarray:
    """Assemble c*I - b*Lap column by column (oracle for the fast solvers)."""
    n = grid.nx * grid.ny
    cols = []
    cdiag = np.broadcast_to(np.asarray(c, dtype=float), grid.shape)
    for idx in range(n):
        e = np.zeros(n)
        e[idx] = 1.0
        e = e.reshape(grid.shape)
        cols.append((cdiag * e - b * laplacian(grid, e)).ravel())
    return np.array(cols).T


def scipy_helmholtz(grid: GridSpec, a: float, b: float, rhs: np.ndarray) -> np.ndarray:
    """helmholtz_solve's arithmetic with the public scipy.fft transforms."""
    div = np.add(*solvers._neumann_eigenvalues(grid.nx, grid.ny, grid.hx, grid.hy))
    div *= -b
    div += a
    coef = scipy.fft.dctn(rhs, type=2, norm="ortho")
    coef /= div
    return scipy.fft.idctn(coef, type=2, norm="ortho", overwrite_x=True)


def run_python(code: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports this checkout's dendrosim."""
    src = str(Path(dendrosim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out


def layouts(shape: tuple[int, int], seed: int):
    """A float64 field of the given shape as C-ordered, F-ordered and strided arrays."""
    rng = np.random.default_rng(seed)
    yield "C", rng.standard_normal(shape)
    yield "F", np.asfortranarray(rng.standard_normal(shape))
    yield "strided", rng.standard_normal((2 * shape[0], 3 * shape[1]))[::2, 1::3]


class TestTransforms:
    """On float64 arrays solvers.dctn/idctn are scipy.fft.dctn/idctn(type=2, norm="ortho"),
    bit for bit."""

    @pytest.mark.parametrize("shape", [(4, 4), (5, 7), (64, 48), (8, 512)])
    def test_float64_layouts(self, shape):
        for layout, x in layouts(shape, seed=sum(shape)):
            expected = scipy.fft.dctn(x, type=2, norm="ortho")
            coef = solvers.dctn(x)
            assert np.shares_memory(coef, x), layout  # the forward transform is written into x
            assert coef.dtype == expected.dtype and np.array_equal(x, expected), layout
            back = scipy.fft.idctn(x, type=2, norm="ortho")
            got = solvers.idctn(x)
            assert np.shares_memory(got, x), layout  # the inverse is written into x
            assert got.dtype == back.dtype and np.array_equal(got, back), layout

    @pytest.mark.parametrize("extension", [
        None,
        b"not a shared object",
        # a dct whose arguments or results are not those of scipy 1.17's
        pytest.param("def dct(x, type, axes, norm, out, nthreads):\n    return x",
                     id="other signature"),
        pytest.param("def dct(x, *args):\n    return x", id="wrong values"),
        pytest.param("def dct(x, *args):\n    return x[:1] * 0.5 ** 0.5", id="wrong shape"),
    ])
    def test_falls_back_to_scipy_fft(self, tmp_path, extension):
        # scipy is found in a directory whose pocketfft extension is missing,
        # broken, or loads with a dct that fails the import-time probe; one
        # grid has rows of 4 KiB, the width the solve pads
        grids = [GridSpec(12, 10, 0.0, 2.0, 0.0, 1.5), GridSpec(8, 512, 0.0, 2.0, 0.0, 1.5)]
        for i, grid in enumerate(grids):
            np.save(tmp_path / f"rhs{i}.npy", random_field(grid, 4))
        pocketfft = tmp_path / "scipy" / "fft" / "_pocketfft"
        pocketfft.mkdir(parents=True)
        if extension is not None:
            (pocketfft / "pypocketfft.so").write_bytes(
                extension if isinstance(extension, bytes) else b"")
        run_python(f"""
import importlib.machinery, importlib.util
find_spec = importlib.util.find_spec
def moved(name, package=None):
    if name != "scipy":
        return find_spec(name, package)
    spec = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
    spec.submodule_search_locations[:] = [{str(tmp_path / "scipy")!r}]
    return spec
importlib.util.find_spec = moved
source = {extension!r}
if isinstance(source, str):  # the extension loads, with this dct
    import importlib.abc  # registers the real loader class on import
    class Loader:
        def __init__(self, name, path):
            pass
        def create_module(self, spec):
            return None
        def exec_module(self, module):
            exec(source, vars(module))
            loaded.append(module.dct)
    loaded = []
    importlib.machinery.ExtensionFileLoader = Loader
import numpy as np
from dendrosim import solvers
from dendrosim.grid import GridSpec
import scipy.fft
assert solvers._dct is None
assert not isinstance(source, str) or len(loaded) == 1  # its dct was probed and refused
assert solvers.dctn.func is scipy.fft.dctn and solvers.idctn.func is scipy.fft.idctn
x = np.ones((6, 5))
assert np.shares_memory(solvers.dctn(x), x)  # written into its argument, as on pocketfft
for i, shape in enumerate([(12, 10), (8, 512)]):
    rhs = np.load({str(tmp_path)!r} + f"/rhs{{i}}.npy")
    np.save({str(tmp_path)!r} + f"/u{{i}}.npy",
            solvers.helmholtz_solve(GridSpec(*shape, 0.0, 2.0, 0.0, 1.5), 3.0, 0.7, rhs))
""")
        for i, grid in enumerate(grids):
            rhs = np.load(tmp_path / f"rhs{i}.npy")
            u = np.load(tmp_path / f"u{i}.npy")
            assert np.array_equal(u, helmholtz_solve(grid, 3.0, 0.7, rhs))
            assert np.array_equal(u, scipy_helmholtz(grid, 3.0, 0.7, rhs))

    @pytest.mark.parametrize("refusal", ["missing", "load fails", "no dct"])
    def test_fallback_copy_matches_the_extension(self, monkeypatch, refusal):
        # a second copy of the module, loaded in this process with the
        # extension refused, binds scipy.fft; dendrosim.solvers keeps its dct
        class Loader:
            def __init__(self, name, path):
                pass

            def create_module(self, spec):
                return None

            def exec_module(self, module):
                if refusal == "load fails":
                    raise ImportError("refused")

        if refusal == "missing":
            find_spec = importlib.util.find_spec
            monkeypatch.setattr(importlib.util, "find_spec",
                                lambda name, *args: None if name == "scipy"
                                else find_spec(name, *args))
        monkeypatch.setattr(importlib.machinery, "ExtensionFileLoader", Loader)
        spec = importlib.util.spec_from_file_location("dendrosim._fallback_solvers",
                                                      solvers.__file__)
        fallback = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(fallback)
        monkeypatch.undo()
        assert fallback._dct is None and fallback.dctn.func is scipy.fft.dctn
        assert fallback.idctn.func is scipy.fft.idctn
        assert sys.modules["dendrosim.solvers"] is solvers and solvers._dct is not None
        for shape in ((64, 64), (128, 96), (512, 512)):
            x = np.random.default_rng(shape[1]).standard_normal(shape)
            assert np.array_equal(fallback.dctn(x.copy()), solvers.dctn(x.copy()))
            assert np.array_equal(fallback.idctn(x.copy()), solvers.idctn(x.copy()))
        grid = GridSpec(64, 48, 0.0, 2.0, 0.0, 1.5)
        rhs = random_field(grid, 9)
        assert np.array_equal(fallback.helmholtz_solve(grid, 3.0, 0.7, rhs),
                              helmholtz_solve(grid, 3.0, 0.7, rhs))

    def test_probe_refuses_a_dct_that_raises_or_scales_otherwise(self):
        def raises(*args):
            raise TypeError("incompatible function arguments")

        def backward(x, type, axes, norm, out, nthreads, *rest):
            return scipy.fft.dct(x, type=type)  # unnormalized: [2, 2]

        assert solvers._transforms_like_dctn(solvers._dct)
        assert not solvers._transforms_like_dctn(raises)
        assert not solvers._transforms_like_dctn(backward)


@pytest.mark.parametrize("module", ["dendrosim.experiments", "dendrosim.cli"])
def test_import_leaves_out_scipy_fft(module):
    # scipy.fft imports scipy.special, which no solve uses
    out = run_python(f"import sys, {module}\n"
                     "print(sorted({'scipy.fft', 'scipy.special'} & set(sys.modules)))")
    assert out.stdout.strip() == "[]"


class TestHelmholtz:
    def test_pure_mass_is_identity(self, grid8):
        rhs = random_field(grid8, 0)
        u = helmholtz_solve(grid8, 1.0, 0.0, rhs)
        assert np.array_equal(u, rhs)

    def test_matches_dense_lu(self):
        g = GridSpec(6, 6)
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = float(rng.uniform(0.1, 50.0))
            b = float(rng.uniform(0.0, 10.0))
            rhs = rng.standard_normal(g.shape)
            dense = dense_operator(g, a, b)
            expected = np.linalg.solve(dense, rhs.ravel()).reshape(g.shape)
            u = helmholtz_solve(g, a, b, rhs)
            assert np.max(np.abs(u - expected)) < 1e-10 * max(1.0, np.max(np.abs(expected)))

    def test_eigenmode_identity(self):
        g = GridSpec(16, 12, 0.0, 3.0, 0.0, 2.0)
        a, b = 2.5, 0.7
        x, _ = g.mesh()
        mode = np.cos(np.pi * (x - g.x0) / (g.x1 - g.x0))
        lam10 = -(2.0 / g.hx**2) * (1 - np.cos(np.pi / g.nx))
        u = helmholtz_solve(g, a, b, (a - b * lam10) * mode)
        assert u == pytest.approx(mode, abs=1e-12)

    def test_residual_contract(self):
        # residual <= 1e-11 * ||rhs|| even for the stiff temperature solve scales
        g = GridSpec(64, 64)
        rhs = random_field(g, 3)
        for a, b in ((1e-2, 5e-2), (1.0, 0.9), (1010.0, 0.9), (150.0, 8.0)):
            u = helmholtz_solve(g, a, b, rhs)
            res = np.linalg.norm(a * u - b * laplacian(g, u) - rhs)
            assert res <= 1e-11 * np.linalg.norm(rhs)

    @pytest.mark.parametrize("dtype", [np.float64, np.int64, np.float32])
    def test_matches_scipy_fft_bitwise(self, dtype):
        # every rhs solves in float64: another real dtype gives the solve of
        # rhs.astype(float64), bit for bit; a 4x4 result is too small to hold
        # the divisor blocks, which get a buffer
        for g in (GridSpec(64, 48, 0.0, 2.0, 0.0, 1.5), GridSpec(4, 4, 0.0, 2.0, 0.0, 1.5)):
            for seed, (a, b) in enumerate(((1e-2, 5e-2), (1.0, 0.9), (150.0, 8.0), (2.0, 0.0))):
                rhs = (100 * random_field(g, seed)).astype(dtype)
                u = helmholtz_solve(g, a, b, rhs)
                wide = rhs.astype(np.float64)
                assert u.dtype == np.float64
                assert np.array_equal(u, helmholtz_solve(g, a, b, wide))
                if b > 0.0:
                    assert np.array_equal(u, scipy_helmholtz(g, a, b, wide))

    @pytest.mark.parametrize("shape", [(8, 512), (512, 512)])
    def test_bitwise_at_4kib_rows(self, shape):
        # a row of 512 doubles is 4 KiB, the stride the padded workspace avoids
        g = GridSpec(*shape, 0.0, 2.0, 0.0, 1.5)
        for layout, x in layouts(shape, seed=shape[0]):
            for rhs in (x, (100 * x).astype(np.float32), (100 * x).astype(np.int64)):
                rhs0 = rhs.copy()
                u = helmholtz_solve(g, 1.0, 0.9, rhs)
                expected = scipy_helmholtz(g, 1.0, 0.9, rhs.astype(np.float64))
                assert u.dtype == np.float64 and np.array_equal(u, expected), layout
                assert u.flags.c_contiguous and u.flags.owndata, layout
                assert not np.shares_memory(u, rhs), layout
                assert np.array_equal(rhs, rhs0), layout

    @pytest.mark.skipif(tracemalloc.is_tracing(), reason="memory is traced already")
    def test_working_set(self):
        # the result plus the padded workspace: the divisor is built in row
        # blocks inside the result's memory, never as a full field
        g = GridSpec(256, 256)
        rhs = random_field(g, 6)
        helmholtz_solve(g, 2.0, 0.5, rhs)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            helmholtz_solve(g, 2.0, 0.5, rhs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - base) / rhs.nbytes <= 2.1

    def test_rejects_nonpositive_a(self, grid8):
        with pytest.raises(ValueError, match="a > 0"):
            helmholtz_solve(grid8, 0.0, 1.0, grid8.zeros())

    @pytest.mark.parametrize("a, b", [(np.inf, 1.0), (np.nan, 1.0), (1.0, np.inf), (1.0, np.nan)])
    def test_rejects_nonfinite_coefficients(self, grid8, a, b):
        with pytest.raises(ValueError, match=f"finite a and b, got a={a}, b={b}"):
            helmholtz_solve(grid8, a, b, grid8.zeros())

    @pytest.mark.parametrize("name", ["helmholtz_solve", "variable_helmholtz_solve"])
    def test_rejects_negative_b(self, grid8, name):
        a = 1.0 if name == "helmholtz_solve" else grid8.full(1.0)
        with pytest.raises(ValueError, match=rf"^{name} needs b >= 0, got b=-0\.5$"):
            getattr(solvers, name)(grid8, a, -0.5, grid8.zeros())

    def test_rejects_nonfinite_rhs(self, grid8):
        rhs = grid8.zeros()
        rhs[0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            helmholtz_solve(grid8, 1.0, 1.0, rhs)

    def test_nonfinite_input_is_a_floating_point_error(self, grid8):
        # a run reports a non-finite solve input as a numerical breakdown
        rhs = grid8.zeros()
        rhs[0, 0] = np.inf
        with pytest.raises(FloatingPointError, match="^helmholtz_solve: rhs contains non-finite"):
            helmholtz_solve(grid8, 1.0, 1.0, rhs)
        with pytest.raises(FloatingPointError, match="^variable_helmholtz_solve: rhs contains"):
            variable_helmholtz_solve(grid8, grid8.full(1.0), 1.0, rhs)
        with pytest.raises(FloatingPointError, match="finite a and b"):
            helmholtz_solve(grid8, np.nan, 1.0, grid8.zeros())

    @pytest.mark.parametrize("b", [1.0, 0.0])
    def test_rejects_complex_rhs(self, grid8, b):
        # the float64 workspace would drop the imaginary part without a word
        rhs = grid8.zeros() + 1j * random_field(grid8, 5)
        with pytest.raises(ValueError, match="^helmholtz_solve needs a real rhs, got dtype complex"):
            helmholtz_solve(grid8, 1.0, b, rhs)


class TestVariableHelmholtz:
    def test_constant_coefficient_reduces(self, grid16):
        rhs = random_field(grid16, 5)
        c = grid16.full(3.0)
        u, iters = variable_helmholtz_solve(grid16, c, 2.0, rhs)  # CG_TOL = 1e-12
        u_ref = helmholtz_solve(grid16, 3.0, 2.0, rhs)
        assert u == pytest.approx(u_ref, abs=1e-10 * max(1.0, np.max(np.abs(u_ref))))
        assert iters <= 3

    def test_matches_dense_lu(self):
        g = GridSpec(6, 6)
        x, _ = g.mesh()
        c = 2.0 + np.sin(np.pi * x)
        b = 1.3
        rng = np.random.default_rng(11)
        dense = dense_operator(g, c, b)
        for _ in range(20):
            rhs = rng.standard_normal(g.shape)
            expected = np.linalg.solve(dense, rhs.ravel()).reshape(g.shape)
            u, _ = variable_helmholtz_solve(g, c, b, rhs)  # CG_TOL = 1e-12
            assert np.max(np.abs(u - expected)) < 1e-8 * max(1.0, np.max(np.abs(expected)))

    def test_iteration_count_regression(self, monkeypatch):
        # 10% coefficient variation about the mean: the constant-shift
        # preconditioner keeps PCG short
        monkeypatch.setattr(solvers, "CG_TOL", 1e-10)
        g = GridSpec(128, 128)
        x, y = g.mesh()
        c = 10.0 * (1.0 + 0.1 * np.sin(np.pi * x) * np.cos(np.pi * y))
        rhs = random_field(g, 21)
        _, iters = variable_helmholtz_solve(g, c, 1.0, rhs)
        assert iters <= 25

    def test_nonconvergence_raises_with_residual(self, grid16, monkeypatch):
        monkeypatch.setattr(solvers, "CG_TOL", 1e-300)
        monkeypatch.setattr(solvers, "CG_MAXIT", 3)
        c = grid16.full(1.0)
        rhs = random_field(grid16, 8)
        with pytest.raises(SolverError) as err:
            variable_helmholtz_solve(grid16, c, 5.0, rhs)
        assert err.value.iterations == 3
        assert err.value.residual > 0.0

    def test_rejects_nonpositive_coefficient(self, grid8):
        c = grid8.full(1.0)
        c[2, 2] = 0.0
        with pytest.raises(ValueError, match="c > 0"):
            variable_helmholtz_solve(grid8, c, 1.0, grid8.zeros())

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_rejects_nonfinite_coefficient(self, grid8, value):
        # refused by the variable solve itself, not by its preconditioner
        c = grid8.full(1.0)
        c[0, 0] = value
        with pytest.raises(ValueError, match="^variable_helmholtz_solve needs a finite c"):
            variable_helmholtz_solve(grid8, c, 1.0, grid8.full(1.0))

    @pytest.mark.parametrize("b", [np.inf, np.nan])
    def test_rejects_nonfinite_b(self, grid8, b):
        with pytest.raises(ValueError, match=f"finite b, got b={b}"):
            variable_helmholtz_solve(grid8, grid8.full(1.0), b, grid8.zeros())

    def test_zero_rhs_short_circuits(self, grid8):
        u, iters = variable_helmholtz_solve(grid8, grid8.full(2.0), 1.0, grid8.zeros())
        assert np.all(u == 0.0)
        assert iters == 0


class TestSolveShifted:
    def test_dispatch(self, grid8):
        rhs = random_field(grid8, 2)
        u_fast, it_fast = solve_shifted(grid8, 2.0, 1.0, rhs)
        u_cg, it_cg = solve_shifted(grid8, grid8.full(2.0), 1.0, rhs)
        assert it_fast == 0
        assert it_cg >= 1
        assert u_fast == pytest.approx(u_cg, abs=1e-10)


def test_solve_path_sees_float64_only(monkeypatch):
    # pocketfft transforms float32 natively and helmholtz_solve converts any
    # real rhs, so a field that left float64 would pass without an error: the
    # dtypes that the runs send are pinned here
    seen = []

    def census(fn, *array_at):
        def wrapped(*args):
            seen.append((fn.__name__, [args[i].dtype for i in array_at]))
            return fn(*args)
        return wrapped

    monkeypatch.setattr(solvers, "dctn", census(solvers.dctn, 0))
    monkeypatch.setattr(solvers, "idctn", census(solvers.idctn, 0))
    solve = census(solvers.helmholtz_solve, 3)
    monkeypatch.setattr(solvers, "helmholtz_solve", solve)
    monkeypatch.setattr(bdf1, "helmholtz_solve", solve)

    base = replace(shipped_config("case2"), grid=GridSpec(16, 16), tau=0.01, t_end=0.03)
    run_single(replace(base, scheme="bdf2", check_identity=True, strict_energy=True))
    run_single(replace(base, scheme="bdf1"), sources=SourceTerms(
        phi=lambda x, y, t: 0.3 * np.cos(np.pi * x), temp=lambda x, y, t: 0.1 * y + t))
    p = replace(base.params, mobility=1.2e3, mobility_tanh=1 / 6)
    phi0, temp0 = base.initial.build(base.grid)
    _, report = bdf1.step(base.grid, bdf1.init_state(base.grid, phi0, temp0, p), 0.01, p)
    assert report.cg_iterations > 0

    assert {name for name, _ in seen} == {"dctn", "idctn", "helmholtz_solve"}
    assert all(dtype == np.float64 for _, dtypes in seen for dtype in dtypes)
