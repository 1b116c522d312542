import functools
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_selftest_counts(tmp_path, monkeypatch):
    # the benchmark's tracer binds stepper entry points by name; a renamed or
    # re-routed entry point shows up here as a wrong per-level call count
    monkeypatch.chdir(ROOT)
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from selftest import run_selftest

    assert run_selftest(tmp_path) == []


def test_traced_entry_points_are_distinct(monkeypatch):
    # the tracer wraps each (module, attribute) entry; if one entry point were
    # an alias of another it would be wrapped twice and every call would
    # count under both names
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from tracer import TRACED

    functions = [
        functools.reduce(getattr, attr.split("."), importlib.import_module(module))
        for _, module, attr in TRACED
    ]
    assert len(TRACED) == 23
    assert len({id(fn) for fn in functions}) == len(TRACED)
