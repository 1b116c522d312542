"""Command-line driver for single runs and the experiment reproductions.

Exit codes: 0 success, 2 configuration error (among them a [sources] forcing
snapshot that is missing, corrupt or on another grid, a configuration file
that is not UTF-8, a tau that does not divide t_end, a list flag that is
not numbers, and sweep members that share an output name) or an output
path that cannot be written (the one stderr line names the path), 3 solver
failure (a variable-mobility PCG solve, which only the Python API selects),
4 energy-law violation under --strict-energy, 5 numerical breakdown (a
non-positive auxiliary energy E1 or closure denominator A1, a non-finite
ledger value, or a non-finite solve input such as a NaN forcing value).
Failures during a run are reported with the level n and its time n*tau.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .config import ConfigError, load_config
from .diagnostics import EnergyLawViolation
from .experiments import run_accuracy, run_dendrite, run_single, run_stability
from .model import EnergyPositivityError
from .solvers import SolverError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_ENERGY = 4
EXIT_NUMERICAL = 5


def _float_list(raw: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in raw.split(",") if part.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats, got {raw!r}") from exc


# the config overrides, by the RunConfig field each sets; flag --<field with dashes>
_OVERRIDES = {
    "scheme": dict(choices=("bdf1", "bdf2"), help="override time scheme"),
    "tau": dict(type=float, help="override time step size"),
    "t_end": dict(type=float, help="override final time"),
    "strict_energy": dict(action="store_true", default=None,
                          help="abort (exit 4) if the modified energy ever increases"),
    "snapshot_every": dict(type=int, help="dump phi and T snapshots every N steps"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dendrosim",
        description="Energy-stable phase-field crystal growth runs and experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, summary: str, *overrides: str) -> argparse.ArgumentParser:
        """A subcommand with --config, --out and the ``overrides`` its driver
        reads; argparse refuses any other flag, and any abbreviation (exit 2)."""
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        p.add_argument("--config", required=True, type=Path, help="configuration file")
        p.add_argument("--out", required=True, type=Path, help="output directory")
        for name in overrides:
            p.add_argument("--" + name.replace("_", "-"), dest=name, **_OVERRIDES[name])
        return p

    command("run", "one simulation with ledger and snapshots", *_OVERRIDES)

    p_acc = command("accuracy", "self-convergence ladders of both schemes, unsnapshotted",
                    "t_end", "strict_energy")
    p_acc.add_argument("--ladder", type=_float_list, default=(4e-3, 2e-3, 1e-3, 5e-4))
    p_acc.add_argument("--ref-tau", type=float, default=5e-5, dest="ref_tau")

    p_sta = command("stability", "step-size and stabilizer sweep; every run is strict, "
                    "with tau from --taus and t_end from --steps", "scheme", "snapshot_every")
    p_sta.add_argument("--taus", type=_float_list,
                       default=(1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0))
    p_sta.add_argument("--steps", type=int, default=200, help="steps per sweep member")

    p_den = command("dendrite", "fourfold dendritic growth sweep; each run ends at its "
                    "last snapshot instant", "scheme", "tau", "strict_energy", "snapshot_every")
    p_den.add_argument("--k-values", type=_float_list, default=(0.6, 0.8, 1.0, 1.2),
                       dest="k_values", help="latent heat sweep")

    return parser


def _apply_overrides(cfg, args):
    updates = {name: value for name, value in vars(args).items()
               if name in _OVERRIDES and value is not None}
    return replace(cfg, **updates) if updates else cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _apply_overrides(load_config(args.config), args)
    except (ConfigError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        if args.command == "run":
            res = run_single(cfg, args.out)
            last = res.records[-1]
            print(f"finished {cfg.scheme} run: {last.step} steps to t={last.time:g}")
            print(f"  e_modified {res.records[0].e_modified:.8g} -> {last.e_modified:.8g}")
            print(f"  max|xi-1| {res.max_xi_dev:.3e}  min a1 {res.min_a1:.6g}")
            if cfg.check_identity:
                print(f"  max identity residual {res.max_identity_residual:.3e}")
            else:  # the ledger's identity_residual column reads 0.0 for an unchecked level
                print("  identity check off")
            print(f"  CG iterations {res.cg_iterations} (at most {res.max_cg_iterations} per level)")
            print(f"  ledger: {res.ledger_path}")
        elif args.command == "accuracy":
            reports = run_accuracy(cfg, args.ladder, args.ref_tau, args.out)
            for scheme, rep in reports.items():
                print(f"{scheme}: slope(phi)={rep.slope_phi:.3f} "
                      f"slope(T)={rep.slope_temp:.3f}")
                for tau, ep, et in zip(rep.taus, rep.errors_phi, rep.errors_temp):
                    print(f"  tau={tau:<8g} err_phi={ep:.6e} err_T={et:.6e}")
        elif args.command == "stability":
            results = run_stability(cfg, args.taus, args.steps, args.out)
            print("stabilizers (s1,s2,s3,s4)   tau      max|xi-1|   min a1")
            for r in results:
                p = r.config.params
                print(f"  {str((p.s1, p.s2, p.s3, p.s4)):<24} {r.config.tau:<8g} "
                      f"{r.max_xi_dev:<11.3e} {r.min_a1:.6g}")
        elif args.command == "dendrite":
            results = run_dendrite(cfg, args.k_values, args.out)
            print("K      arms  axis-arms  final area")
            for r in results:
                final_area = r.result.records[-1].area
                print(f"{r.latent:<6g} {r.arms:<5d} {r.axis_arms:<10d} {final_area:.6f}")
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except EnergyLawViolation as exc:
        print(f"energy law violation: {exc}", file=sys.stderr)
        return EXIT_ENERGY
    except (EnergyPositivityError, FloatingPointError) as exc:
        print(f"numerical breakdown: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:  # inputs fail as ConfigError, so this is an output file
        path = exc.filename if exc.filename is not None else args.out
        print(f"output error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
