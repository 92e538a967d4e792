"""Self-tests of the benchmark harness, kept out of the program's test suite:

    python3 -m pytest perfbench/selftest.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import gate
import run
from calibrate import Calibrator
from tracer import PACKAGE, Tracer
from workloads import make_ops

CLI = run.load_cli()
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
COUNTS = ("fem1d.assemble_forcing_calls", "inclusion_solver.solve_calls",
          "inclusion_solver.newton_iters", "galerkin.dual_norm_calls", "potentials.calls")


def _bindings() -> dict:
    """Every attribute of every rothe_hvi module and of the classes they define."""
    found = {}
    for name, mod in list(sys.modules.items()):
        if name != PACKAGE and not name.startswith(PACKAGE + "."):
            continue
        for attr, value in vars(mod).items():
            found[(name, attr)] = value
            if isinstance(value, type) and value.__module__.startswith(PACKAGE):
                for key, member in vars(value).items():
                    found[(name, attr, key)] = member
    return found


def _small_pass(tmp_path: Path, tracer: Tracer | None = None) -> run.PassResult:
    ops = [op for op in make_ops("ncvx-sweep", 0) if ",n_el=8," in op.key][:4]
    configs = run.write_configs(tmp_path, "ncvx-sweep", ops)
    if tracer is None:
        return run.run_pass(CLI, tmp_path, ops, configs, {})
    with tracer.installed():
        return run.run_pass(CLI, tmp_path, ops, configs, {})


def test_untraced_run_sees_the_original_functions(tmp_path):
    before = _bindings()
    tracer = Tracer()
    with tracer.installed():
        patched = {(id(owner), attr) for owner, attr, _ in tracer.patched}
        assert CLI.main is not before[(f"{PACKAGE}.cli", "main")]
        assert len(patched) == len(tracer.patched)
    assert tracer.patched == []
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    _small_pass(tmp_path, tracer)
    recorded = (len(tracer.spans), tracer.metrics()["potentials.calls"])
    assert recorded[0] > 0 and recorded[1] > 0
    _small_pass(tmp_path)
    assert (len(tracer.spans), tracer.metrics()["potentials.calls"]) == recorded


def test_counts_repeat_exactly_and_match_seed0_ladder(tmp_path):
    ops = make_ops("ladder-smooth", 0)
    configs = run.write_configs(tmp_path, "ladder-smooth", ops)
    counts = []
    for _ in range(2):
        tracer = Tracer()
        with tracer.installed():
            run.run_pass(CLI, tmp_path, ops, configs, {})
        found = tracer.metrics()
        counts.append({name: found[name] for name in COUNTS})
    assert counts[0] == counts[1]
    assert counts[0]["inclusion_solver.solve_calls"] == 3240
    assert counts[0]["fem1d.assemble_forcing_calls"] == 32340


def test_seed0_is_the_reference_grid_and_other_seeds_shuffle_it():
    ref = make_ops("ncvx-sweep", 0)
    assert len(ref) == 100 and ref == make_ops("ncvx-sweep", 0)
    assert ref[40].key == "f0=3,n_el=8,bdf2,N=4"
    assert "f0_value = 3.0\n" in ref[40].config and "potential_d = 1.0\n" in ref[40].config
    other = make_ops("ncvx-sweep", 7)
    assert [op.key for op in other] != [op.key for op in ref]
    # the same configurations, so the same goldens and failures
    assert sorted(other, key=lambda op: op.key) == sorted(ref, key=lambda op: op.key)


def test_calibration_process_answers_and_ends_with_its_pipe():
    calib = Calibrator(min(os.sched_getaffinity(0)))
    try:
        begin = time.perf_counter()
        time.sleep(0.3)
        speed = calib.speed(begin, time.perf_counter())
        assert 0.1 < speed < 10.0
    finally:
        calib.close()
    assert calib.proc.returncode == 0


def test_gate_flags_a_perturbed_output(tmp_path):
    op = next(op for op in make_ops("ncvx-sweep", 0) if op.key == "f0=4,n_el=8,bdf2,N=4")
    configs = run.write_configs(tmp_path, "ncvx-sweep", [op])
    golden = json.loads(run.GOLDENS.read_text())["ncvx-sweep"][op.key]
    result = run.run_pass(CLI, tmp_path, [op], configs, {op.key: golden})
    assert (result.failed, result.wrong) == (0, [])
    path = run.out_dir(tmp_path, op) / "trajectory.csv"
    lines = path.read_text().splitlines()
    cells = lines[-1].split(",")
    cells[1] = repr(float(cells[1]) * (1.0 + 1e-4))
    path.write_text("\n".join(lines[:-1] + [",".join(cells)]) + "\n")
    verdict = gate.check(op, 0, run.out_dir(tmp_path, op), golden)
    assert verdict.status == gate.WRONG and "trajectory.last" in verdict.reason


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", "wide-smooth", "--seed", "0", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_is_emitted_with_its_unit(trace, section):
    proc = _bench(run.ROOT, "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    assert all(set(m) == {"value", "unit"} for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
