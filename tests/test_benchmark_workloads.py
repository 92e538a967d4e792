"""The benchmark's invocations (perfbench/workloads.py) must stay valid
configs that do the work the benchmark credits them with: every config
parses, and each invocation completes exactly ``Op.steps`` time steps, which
the benchmark divides by the time a pass takes.  Each step is solved once
(an iteration count that the segment kernel, ``segment_kernel``, appends)
and certified once (a row of ``step_residuals``).  A config-layer change that would make an invocation
exit 2, or change its work, fails here first."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from rothe_hvi import cli, stepper

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks its own module up by name
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_invocation_parses_and_runs_the_steps_it_is_credited_with(
    tmp_path, monkeypatch, workload
):
    solves, certified = [], []
    solve, certify = stepper.segment_kernel, stepper.step_residuals

    def counting_solve(p, rhs, u, xi, iterations, *args, **kwargs):
        # a count appended for each step the segment solves
        before = len(iterations)
        try:
            return solve(p, rhs, u, xi, iterations, *args, **kwargs)
        finally:
            solves.extend([None] * (len(iterations) - before))

    def counting_certify(p, u, *args, **kwargs):
        certified.append(len(u))
        return certify(p, u, *args, **kwargs)

    monkeypatch.setattr(stepper, "segment_kernel", counting_solve)
    monkeypatch.setattr(stepper, "step_residuals", counting_certify)
    for i, op in enumerate(workloads.make_ops(workload, 0)):
        cfg = cli.parse_config(op.config)
        # run takes the coarsest tau; study runs the reference and the
        # ladder; compare two references (two-step and one-step) and two
        # ladders (one per scheme)
        ref = round(cfg.t_final / cfg.reference_tau())
        ladder = sum(round(cfg.t_final / tau) for tau in cfg.taus)
        planned = {"run": round(cfg.t_final / cfg.taus[0]), "study": ref + ladder,
                   "compare": 2 * ref + 2 * ladder}[op.command]
        assert planned == op.steps, op.key
        path = tmp_path / f"{i}.ini"
        path.write_text(op.config, encoding="utf-8")
        solves.clear()
        certified.clear()
        rc = cli.main([op.command, str(path), "--out", str(tmp_path / str(i)), "--quiet"])
        # each step solved once and certified once
        assert (rc, len(solves), sum(certified)) == (0, op.steps, op.steps), op.key
