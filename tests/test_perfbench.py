from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_selftest_counts(tmp_path, monkeypatch):
    # the benchmark's tracer binds stepper entry points by name; a renamed or
    # re-routed entry point shows up here as a wrong per-level call count
    monkeypatch.chdir(ROOT)
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from selftest import run_selftest

    assert run_selftest(tmp_path) == []
