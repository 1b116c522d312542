"""Benchmark worker: one fresh, single-threaded process per measurement.

``run.py`` starts it with the thread pools pinned to 1 and ``src`` on the
import path; it prints one JSON object as its last line.

    worker.py setup  --config C --out DIR
        time ``import dendrosim`` + load_config + run_single of one level
    worker.py steady --workload W --seed S --work DIR --seconds R --trace 0|1
        repeat sample calls for R seconds and check every call; with
        --trace 1 the calls alternate between untraced and traced
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
from pathlib import Path


def setup_main(args) -> dict:
    t0 = time.perf_counter()  # numpy and scipy load with dendrosim, inside the timing
    from dendrosim import config, experiments

    cfg = config.load_config(args.config)
    experiments.run_single(cfg, args.out)
    return {"setup_s": time.perf_counter() - t0}


class SampleRunner:
    """Runs sample calls of one workload and checks each of them."""

    def __init__(self, workload, seed: int, work: Path, clock):
        from checks import load_reference
        from workloads import variant_of

        self.workload = workload
        self.clock = clock
        self.main_cfg = work / "inputs" / "main.cfg"
        self.warmup_cfg = work / "inputs" / "warmup.cfg"
        self.out = work / "out"
        self.reference = load_reference(workload.name, variant_of(seed))
        self.first_digest: str | None = None
        self.digest_matches_reference: bool | None = None

    def call(self, cfg_path: Path):
        """One load_config + run_single; returns (result, stamps, wall_s)."""
        from dendrosim import config, experiments

        shutil.rmtree(self.out, ignore_errors=True)
        first = len(self.clock.stamps)
        t0 = time.perf_counter()
        cfg = config.load_config(cfg_path)
        res = experiments.run_single(cfg, self.out)
        wall = time.perf_counter() - t0
        return res, self.clock.stamps[first:], wall

    def warm_up(self) -> None:
        self.call(self.warmup_cfg)

    def sample(self) -> dict:
        """One checked sample call; rates holds levels/s of each block."""
        from checks import CheckFailure, check_final, check_records, ledger_digest

        w = self.workload
        n_blocks = (w.levels - w.start_level) // w.block
        first = len(self.clock.stamps)
        out = {"blocks": n_blocks, "rates": [], "failure": None, "wall_s": 0.0,
               "window_s": 0.0, "ledger_bytes": 0}
        try:
            try:
                res, stamps, out["wall_s"] = self.call(self.main_cfg)
            except Exception as exc:  # any raise fails the sample; report it by level
                level = len(self.clock.stamps) - first
                raise CheckFailure(level, "raised", f"{type(exc).__name__}: {exc}") from exc
            if len(stamps) != w.levels + 1:
                raise CheckFailure(len(stamps) - 1, "level_count",
                                   f"{len(stamps)} ledger rows, expected {w.levels + 1}")
            cfg = res.config
            check_records(res.records, cfg.check_identity, cfg.strict_energy,
                          1 if cfg.scheme == "bdf2" else 0)
            check_final(self.reference, w.levels, res.final_state.phi,
                        res.final_state.temp, res.records[-1])
            digest = ledger_digest(res.ledger_path)
            out["ledger_bytes"] = res.ledger_path.stat().st_size
            if self.first_digest is None:
                self.first_digest = digest
                self.digest_matches_reference = digest == self.reference["ledger_sha256"]
            elif digest != self.first_digest:
                raise CheckFailure(w.levels, "ledger_determinism",
                                   "ledger bytes differ from the first call of this seed")
        except CheckFailure as fail:
            out["failure"] = {"level": fail.level, "check": fail.check, "detail": fail.detail}
            return out
        b = w.block
        out["rates"] = [b / (stamps[i + b] - stamps[i])
                        for i in range(w.start_level, w.levels - b + 1, b)]
        out["window_s"] = stamps[w.start_level + n_blocks * b] - stamps[w.start_level]
        return out

    def phase(self, seconds: float, tracer=None) -> dict:
        """Sample calls until the next round would end after ``seconds``.

        With a tracer, each round is one untraced and one traced call, so
        both kinds see the same machine load.  At least two rounds run, so
        the ledgers of two calls of this seed are always compared.
        """
        kinds = ("untraced", "traced") if tracer else ("untraced",)
        samples = {kind: [] for kind in kinds}
        t0 = time.perf_counter()
        while True:
            t_round = time.perf_counter()
            for kind in kinds:
                if kind == "traced":
                    tracer.install()
                try:
                    samples[kind].append(self.sample())
                finally:
                    if kind == "traced":
                        tracer.uninstall()
            now = time.perf_counter()
            if len(samples["untraced"]) >= 2 and (now - t0) + (now - t_round) > seconds:
                break
        return {kind: self._summary(s) for kind, s in samples.items()}

    def _summary(self, samples: list[dict]) -> dict:
        rates = [r for s in samples for r in s["rates"]]
        window_s = sum(s["window_s"] for s in samples)
        return {
            "rates": rates,
            # levels in all timing windows over their summed time: the steady throughput
            "rate": len(rates) * self.workload.block / window_s if window_s else None,
            "attempted": sum(s["blocks"] for s in samples),
            "failed": sum(s["blocks"] for s in samples if s["failure"]),
            "failures": [dict(s["failure"], call=i) for i, s in enumerate(samples)
                         if s["failure"]],
            "calls": len(samples),
            "levels": len(samples) * self.workload.levels,
            "wall_s": sum(s["wall_s"] for s in samples),
            "ledger_bytes": sum(s["ledger_bytes"] for s in samples),
        }


def steady_main(args) -> dict:
    from workloads import WORKLOADS

    import dendrosim.experiments  # noqa: F401  (loads every traced module)
    from tracer import LevelClock, Tracer

    result = {}
    if args.trace:
        from selftest import run_selftest

        result["selftest_problems"] = run_selftest(args.work / "selftest")

    clock = LevelClock()
    clock.install()
    runner = SampleRunner(WORKLOADS[args.workload], args.seed, args.work, clock)
    runner.warm_up()
    tracer = Tracer() if args.trace else None
    result.update(runner.phase(args.seconds, tracer))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result["traced"].update(span_s=tracer.span_s, self_s=tracer.self_s,
                                calls_by_name=tracer.calls, counts=tracer.counts)
    result["digest_matches_reference"] = runner.digest_matches_reference
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="worker.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    p_setup = sub.add_parser("setup")
    p_setup.add_argument("--config", type=Path, required=True)
    p_setup.add_argument("--out", type=Path, required=True)
    p_steady = sub.add_parser("steady")
    p_steady.add_argument("--workload", required=True)
    p_steady.add_argument("--seed", type=int, required=True)
    p_steady.add_argument("--work", type=Path, required=True)
    p_steady.add_argument("--seconds", type=float, required=True)
    p_steady.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = setup_main(args) if args.mode == "setup" else steady_main(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
