"""Record ``goldens.json``: the outputs of every workload that the
correctness gate compares against.  Run it only on a commit whose outputs
are known to be right:

    python3 perfbench/record_goldens.py
"""

from __future__ import annotations

import json
import shutil
import sys

import gate
import run
from workloads import WORKLOADS, make_ops


def _rounded(found: dict) -> dict:
    """12 significant digits: far below the gate's tolerance, and compact."""
    def r(x: float) -> float:
        return float(f"{x:.12g}")

    return {k: [r(x) for x in v] if isinstance(v, list) else r(v) for k, v in found.items()}


def main() -> int:
    cli = run.load_cli()
    if cli is None:
        return 2
    goldens = {}
    for workload in WORKLOADS:
        ops = make_ops(workload, 0)
        goldens[workload] = {}
        for op, cfg in zip(ops, run.write_configs(run.OUT, workload, ops)):
            out = run.out_dir(run.OUT, op)
            shutil.rmtree(out, ignore_errors=True)
            rc = cli.main([op.command, str(cfg), "--out", str(out), "--quiet"])
            if gate.check(op, rc, out, None).status == gate.OK:  # failures get no golden
                goldens[workload][op.key] = _rounded(gate.extract(op, out))
        print(f"{workload}: {len(goldens[workload])}/{len(ops)} invocations recorded")
    blocks = []
    for workload, recorded in goldens.items():
        lines = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in recorded.items())
        blocks.append(f" {json.dumps(workload)}: {{\n{lines}\n }}")
    run.GOLDENS.write_text("{\n" + ",\n".join(blocks) + "\n}\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
