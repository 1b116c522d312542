"""Correctness checks applied to every sample call.

A call fails when it raises or when one of these checks fails:

* ``identity_residual``: above ``IDENTITY_MAX`` on a level the workload checks;
* ``energy_increase``: the modified energy rises under the strict ledger;
* ``a1_positive``: a closure denominator A1 <= 0;
* ``final_phi`` / ``final_temp``: the final field differs from the reference;
* ``ledger_final_row``: the last ledger row differs from the reference;
* ``ledger_determinism``: the ledger is not byte-identical to that of the
  first call of the same seed.

The reference values were recorded by ``record_references.py`` at the
commit named in ``references.json``.  Fields are compared on fixed probe
points and through whole-field sums, within ``FIELD_ATOL`` and ``SUM_RTOL``,
so a change that only reorders floating-point sums still passes; the
recorded ledger digest is reported but, for the same reason, not gated.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

IDENTITY_MAX = 1e-9
ENERGY_RTOL = 1e-9  # same relative slack as the strict ledger writer
FIELD_ATOL = 1e-8
SUM_RTOL = 1e-9
ROW_RTOL = 1e-8
PROBES = 8  # probe lattice is PROBES x PROBES, plus a PROBES x PROBES centre window

REFERENCES = Path(__file__).with_name("references.json")


class CheckFailure(Exception):
    def __init__(self, level: int, check: str, detail: str):
        super().__init__(f"level={level} check={check} {detail}")
        self.level = level
        self.check = check
        self.detail = detail


def field_summary(values) -> dict:
    """Probe values and whole-field sums that stand in for a stored field."""
    import numpy as np

    nx, ny = values.shape
    ii = np.linspace(0, nx - 1, PROBES).round().astype(int)
    jj = np.linspace(0, ny - 1, PROBES).round().astype(int)
    ci = nx // 2 - PROBES // 2 + np.arange(PROBES)
    cj = ny // 2 - PROBES // 2 + np.arange(PROBES)
    return {
        "lattice": values[np.ix_(ii, jj)].ravel().tolist(),
        "centre": values[np.ix_(ci, cj)].ravel().tolist(),
        "sum_abs": math.fsum(np.abs(values).ravel().tolist()),
        "sum_sq": math.fsum((values * values).ravel().tolist()),
    }


def ledger_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def row_values(rec) -> dict:
    return {k: float(v) for k, v in vars(rec).items() if k != "identity_residual"}


def load_reference(workload: str, variant: int) -> dict:
    refs = json.loads(REFERENCES.read_text())
    return refs["workloads"][workload]["variants"][str(variant)]


def check_records(records, check_identity: bool, strict: bool, strict_from: int) -> None:
    prev = None
    for rec in records:
        if rec.step >= 1:
            if check_identity and not rec.identity_residual <= IDENTITY_MAX:
                raise CheckFailure(rec.step, "identity_residual",
                                   f"residual {rec.identity_residual:.3e} > {IDENTITY_MAX}")
            if not rec.a1 > 0.0:
                raise CheckFailure(rec.step, "a1_positive", f"A1 = {rec.a1!r}")
        if (strict and prev is not None and prev.step >= strict_from
                and rec.e_modified > prev.e_modified + ENERGY_RTOL * abs(prev.e_modified)):
            raise CheckFailure(rec.step, "energy_increase",
                               f"{prev.e_modified!r} -> {rec.e_modified!r}")
        prev = rec


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def check_final(reference: dict, level: int, phi, temp, last_record) -> None:
    for name, values in (("phi", phi), ("temp", temp)):
        got, want = field_summary(values), reference[name]
        for key in ("lattice", "centre"):
            worst = max(abs(g - w) for g, w in zip(got[key], want[key]))
            if not worst <= FIELD_ATOL:
                raise CheckFailure(level, f"final_{name}",
                                   f"{key} probes differ by {worst:.3e} > {FIELD_ATOL}")
        for key in ("sum_abs", "sum_sq"):
            if not _close(got[key], want[key], SUM_RTOL):
                raise CheckFailure(level, f"final_{name}",
                                   f"{key} {got[key]!r} != reference {want[key]!r}")
    got_row = row_values(last_record)
    for key, want in reference["last_row"].items():
        if not _close(got_row[key], want, ROW_RTOL):
            raise CheckFailure(level, "ledger_final_row",
                               f"{key} {got_row[key]!r} != reference {want!r}")
