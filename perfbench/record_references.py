"""Record the reference outputs of every workload and input variant.

    python3 perfbench/record_references.py

Run from the repository root, at a commit whose outputs are trusted; it
rewrites ``perfbench/references.json``.  For each workload and variant it
runs one sample call and stores the ledger digest, the last ledger row
and probe summaries of the final phi and T (see checks.py).  Re-record
only on purpose, when a change is meant to alter the numbers, and say so.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import THREAD_ENV, WORK_DIR, provenance  # noqa: E402

os.environ.update(THREAD_ENV)  # before numpy loads
sys.path.insert(0, "src")

import json  # noqa: E402
import shutil  # noqa: E402

from checks import IDENTITY_MAX, REFERENCES, field_summary, ledger_digest, row_values  # noqa: E402
from workloads import VARIANTS, WORKLOADS, make_inputs  # noqa: E402


def main() -> int:
    from dendrosim import config, experiments

    root = Path.cwd()
    prov = provenance(root)
    refs = {"commit": prov["commit"], "versions": prov["versions"], "workloads": {}}
    for name, workload in WORKLOADS.items():
        variants = {}
        for variant in range(VARIANTS):
            work = root / WORK_DIR / f"record-{name}-{variant}"
            shutil.rmtree(work, ignore_errors=True)
            paths = make_inputs(root, workload, variant, work / "inputs")
            res = experiments.run_single(config.load_config(paths["main"]), work / "out")
            worst = max(r.identity_residual for r in res.records)
            if worst > IDENTITY_MAX:
                raise SystemExit(f"{name} variant {variant}: identity residual {worst:.3e}")
            variants[str(variant)] = {
                "ledger_sha256": ledger_digest(res.ledger_path),
                "last_row": row_values(res.records[-1]),
                "phi": field_summary(res.final_state.phi),
                "temp": field_summary(res.final_state.temp),
            }
            print(f"{name} variant {variant}: {len(res.records) - 1} levels, "
                  f"max identity residual {worst:.2e}, area {res.records[-1].area:.6g}")
            shutil.rmtree(work)
        refs["workloads"][name] = {"levels": workload.levels, "variants": variants}
    REFERENCES.write_text(dump(refs))
    return 0


def dump(refs: dict) -> str:
    """JSON with one line per workload variant, so diffs stay readable."""
    rows = [f'  {json.dumps(name)}: {{"levels": {entry["levels"]}, "variants": {{\n'
            + ",\n".join(f"   {json.dumps(v)}: {json.dumps(ref)}"
                         for v, ref in entry["variants"].items()) + "}}"
            for name, entry in refs["workloads"].items()]
    head = json.dumps({k: v for k, v in refs.items() if k != "workloads"})
    return head[:-1] + ', "workloads": {\n' + ",\n".join(rows) + "\n}}\n"


if __name__ == "__main__":
    sys.exit(main())
