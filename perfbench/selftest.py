"""Tracer self-test: exact traced calls per level on a 32^2 grid.

Each steady level (every bdf1 level, every bdf2 level after the bootstrap)
must show the counts in ``EXPECTED``; the bdf2 bootstrap level must show
one ``bdf1.step`` inside one ``bdf2.bootstrap``.  A wrapper bound twice
would double a count; a rebinding missed at a module that imported the
function by name would drop one (for example the inner ``helmholtz_solve``
of the phase solves, which ``solvers.solve_shifted`` reaches through its
own module).

Run from the repository root: ``python3 perfbench/selftest.py``.
"""

from __future__ import annotations

import dataclasses
import shutil
import sys
from pathlib import Path

EXPECTED = {
    "solvers.dct": 8,
    "solvers.helmholtz_solve": 4,
    "solvers.solve_shifted": 2,
    "diagnostics.make_record": 1,
    "diagnostics.LedgerWriter.append": 1,
}
LEVELS = 4


def per_level_calls(cfg, out_dir: Path) -> list[dict]:
    """Traced call counts of each level 1..n of one run_single call."""
    from dendrosim import experiments
    from tracer import LevelClock, Tracer

    tracer, clock, seen = Tracer(), LevelClock(), []
    tracer.install()
    clock.on_level = lambda: seen.append(dict(tracer.calls))
    clock.install()
    try:
        experiments.run_single(cfg, out_dir)
    finally:
        clock.uninstall()
        tracer.uninstall()
    return [{k: after[k] - before[k] for k in after} for before, after in zip(seen, seen[1:])]


def run_selftest(out_dir: Path) -> list[str]:
    """Returns one line per count that differs from the expected one."""
    from dendrosim import config
    from dendrosim.grid import GridSpec

    base = config.load_config("configs/dendrite.cfg")
    problems = []
    for scheme in ("bdf1", "bdf2"):
        for identity in (True, False):
            cfg = dataclasses.replace(base, grid=GridSpec(32, 32), scheme=scheme,
                                      t_end=LEVELS * base.tau, check_identity=identity,
                                      snapshot_every=0)
            levels = per_level_calls(cfg, out_dir / f"{scheme}-{int(identity)}")
            expected = dict(EXPECTED, **{"model.g_residual": 2 if identity else 1})
            for n, calls in enumerate(levels, start=1):
                want = dict(expected)
                if scheme == "bdf1":
                    want.update({"bdf1.step": 1, "bdf2.step2": 0})
                elif n == 1:
                    want.update({"bdf1.step": 1, "bdf2.bootstrap": 1, "bdf2.step2": 0})
                else:
                    want.update({"bdf1.step": 0, "bdf2.bootstrap": 0, "bdf2.step2": 1})
                for name, count in want.items():
                    if calls[name] != count:
                        problems.append(f"{scheme} identity={identity} level {n}: "
                                        f"{name} called {calls[name]}x, expected {count}")
    return problems


if __name__ == "__main__":
    sys.path.insert(0, "src")
    out = Path(".perfbench_work") / "selftest"
    try:
        problems = run_selftest(out)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    for line in problems:
        print(line, file=sys.stderr)
    print("tracer self-test:", "FAILED" if problems else "passed")
    sys.exit(1 if problems else 0)
