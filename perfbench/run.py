"""dendrosim benchmark: the command that runs one workload (or all of them).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  It writes the seed's inputs
(configs, forcing series) under ``.perfbench_work/``, then starts fresh
single-threaded worker processes: set-up processes (--trace 0 only) and
one steady-stepping process.  It prints every metric by name with its
unit and, as its last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A failed check is named on
stderr (workload, seed, call, level, check) and the exit code is 1.

``--workload all`` runs every workload in turn and ends with one JSON
object keyed by workload.  See README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import TRACED_NAMES  # noqa: E402
from workloads import HELD_OUT_VARIANT, WORKLOADS, grid_shape, make_inputs, variant_of  # noqa: E402

THREAD_ENV = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
}
SETUP_PROCESSES = 5  # measured; one more cold process runs first and is discarded
DEADLINE_S = 170.0  # every run ends (or is killed) before the 180 s limit
WORK_DIR = ".perfbench_work"


class BenchError(RuntimeError):
    """The checkout cannot be benchmarked or a worker did not finish."""


def check_checkout(root: Path) -> None:
    needed = [root / "src" / "dendrosim" / "__init__.py"]
    needed += sorted({root / w.base_config for w in WORKLOADS.values()})
    missing = [str(p.relative_to(root)) for p in needed if not p.is_file()]
    if missing:
        raise BenchError(f"not a dendrosim checkout, missing: {', '.join(missing)}")


def worker_env(root: Path) -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_worker(root: Path, args: list[str], deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, cwd=root, env=worker_env(root), capture_output=True,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the worker
        raise BenchError(f"worker {args[0]} killed after {exc.timeout:.0f} s") from exc
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"worker {args[0]} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def cache_sizes() -> dict:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def provenance(root: Path) -> dict:
    from importlib import metadata

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    head = root / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = root / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        commit = ref
    versions = {"python": sys.version.split()[0]}
    for dist in ("numpy", "scipy"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = "missing"
    return {
        "commit": commit,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "caches": cache_sizes(),
        "versions": versions,
        "thread_env": THREAD_ENV,
    }


def field_vs_l2(root: Path, name: str, caches: dict) -> str:
    nx, ny = grid_shape(root, WORKLOADS[name])
    return f"{nx}x{ny} field {nx * ny * 8 / 2**20:g} MiB against L2 {caches.get('L2', '?')}"


def run_workload(root: Path, name: str, seed: int, seconds: int, trace: bool,
                 deadline: float) -> dict:
    workload = WORKLOADS[name]
    work = root / WORK_DIR / f"{name}-s{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        inputs = make_inputs(root, workload, seed, work / "inputs")
        setup_s = []
        if not trace:
            for i in range(SETUP_PROCESSES + 1):
                out = run_worker(root, ["setup", "--config", str(inputs["setup"]),
                                        "--out", str(work / f"setup{i}")], deadline)
                if i:  # the first process warms the OS file cache and is discarded
                    setup_s.append(out["setup_s"])
        steady = run_worker(root, ["steady", "--workload", name, "--seed", str(seed),
                                   "--work", str(work), "--seconds", str(seconds),
                                   "--trace", str(int(trace))], deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass
    return summarize(workload, steady, setup_s, trace)


def summarize(workload, steady: dict, setup_s: list, trace: bool) -> dict:
    phases = {kind: steady[kind] for kind in ("untraced", "traced") if kind in steady}
    attempted = sum(p["attempted"] for p in phases.values())
    failed = sum(p["failed"] for p in phases.values())
    failures = [dict(f, phase=kind) for kind, p in phases.items() for f in p["failures"]]
    if trace:  # the tracer self-test counts as one more sample
        problems = steady["selftest_problems"]
        attempted += 1
        failed += bool(problems)
        failures += [{"phase": "selftest", "call": 0, "level": 0, "check": "tracer_selftest",
                      "detail": problem} for problem in problems]
    lines, metrics = [], {}

    def add(metric: str, value: float, unit: str, note: str = "") -> None:
        metrics[metric] = {"value": value, "unit": unit}
        lines.append(f"{metric:<52} {value:>14.6g} {unit:<12} {note}".rstrip())

    untraced = steady["untraced"]
    rates = untraced["rates"]
    if not trace:
        if rates:
            tail = workload.tail_pct
            add("levels_per_s", untraced["rate"], "levels/s",
                f"{len(rates)} samples of {workload.block} levels, "
                f"median sample {statistics.median(rates):.6g}")
            add("levels_per_s_tail", percentile(rates, tail), "levels/s",
                f"p{tail} of the same samples ({len(rates) * tail // 100} below it)")
        add("setup_s", statistics.median(setup_s), "s",
            f"median of {len(setup_s)} fresh processes, one cold process discarded")
        add("peak_rss_mb", steady["peak_rss_mb"], "MiB", "steady-stepping process")
    else:
        traced = steady["traced"]
        levels = traced["levels"]
        for fn in TRACED_NAMES:
            add(f"{fn}.calls_per_level", traced["calls_by_name"][fn] / levels, "calls/level")
            add(f"{fn}.ms_per_level", 1e3 * traced["span_s"][fn] / levels, "ms/level")
            add(f"{fn}.self_ms_per_level", 1e3 * traced["self_s"][fn] / levels, "ms/level")
        counts = traced["counts"]
        add("snapshots.bytes_written_per_level", counts["snapshots.bytes_written"] / levels,
            "bytes/level")
        add("snapshots.bytes_read_per_level", counts["snapshots.bytes_read"] / levels,
            "bytes/level")
        add("diagnostics.ledger_bytes_per_level", traced["ledger_bytes"] / levels, "bytes/level",
            "ledger file size over the levels of its call")
        add("solvers.dct.computed_bytes_per_level",
            counts["solvers.dct.computed_bytes"] / levels, "bytes/level",
            "computed from array sizes (input + output), not measured traffic")
        level_ms = 1e3 * traced["wall_s"] / levels
        self_sum_ms = 1e3 * sum(traced["self_s"].values()) / levels
        add("trace.level_ms", level_ms, "ms/level",
            "wall time of the traced load_config + run_single calls")
        add("trace.self_sum_ms_per_level", self_sum_ms, "ms/level",
            "sum of the self times of all traced functions")
        if untraced["rate"] and traced["rate"]:
            overhead = untraced["rate"] / traced["rate"] - 1.0
            add("trace_overhead_frac", overhead, "frac",
                f"untraced {untraced['rate']:.4g} vs traced "
                f"{traced['rate']:.4g} levels/s, calls interleaved")
            gap = abs(1.0 - self_sum_ms / level_ms)
            verdict = "within" if gap <= abs(overhead) else "NOT within"
            lines.append(f"self times cover the traced level time to {gap:.2e}, "
                         f"{verdict} |trace_overhead_frac|")
    calls = sum(p["calls"] for p in phases.values())
    lines.append(f"failure_rate {failed / attempted:g} ({failed}/{attempted} samples, "
                 f"{calls} calls of {workload.levels} levels)")
    if steady["digest_matches_reference"] is False:
        lines.append("note: ledger sha256 differs from the recorded one; values agree "
                     "within the reference tolerances")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "lines": lines,
        "failures": failures,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    os.environ.update(THREAD_ENV)  # the forcing series is made with numpy in this process

    root = Path.cwd()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        check_checkout(root)
        prov = provenance(root)
        for name in names:
            results[name] = run_workload(root, name, args.seed, args.seconds, bool(args.trace),
                                         time.monotonic() + DEADLINE_S)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    print("provenance " + json.dumps(prov))
    ok = True
    for name, res in results.items():
        variant = variant_of(args.seed)
        held = " (held-out variant)" if variant == HELD_OUT_VARIANT else ""
        print(f"== {name}  seed {args.seed} -> variant {variant}{held}  "
              f"trace {args.trace}  {field_vs_l2(root, name, prov['caches'])}")
        for line in res.pop("lines"):
            print("  " + line)
        for f in res.pop("failures"):
            ok = False
            print(f"FAILED workload={name} seed={args.seed} phase={f['phase']} call={f['call']} "
                  f"level={f['level']} check={f['check']}: {f['detail']}", file=sys.stderr)
    last = results[names[0]] if len(names) == 1 else results
    print(json.dumps(last))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
