"""Benchmark of the ``rothe-hvi`` command line program.

    python3 perfbench/run.py --workload ladder-smooth --seed 0 --seconds 25 --trace 0

Run it from the root of a checkout: it imports the package from ``src/``.
One process drives ``rothe_hvi.cli.main`` in-process, with BLAS pinned to
one thread, on the invocations ``workloads.make_ops`` generates from the
seed.  A pass is one execution of all of them.  After a warm-up pass, passes
repeat until ``--seconds`` have gone by; every invocation of every pass goes
through the correctness gate (``gate.py``).  The program is deterministic,
so an invocation must end the same way in every pass; the JSON fields
``attempted``/``failed`` count the distinct invocations and those that
failed, each once.

``--trace 0`` reports the end-to-end metrics:
  steps_per_s   completed time steps (reference runs included) per second,
                median over passes;
  setup_s       parse_config + build_problem for the pass's configs, timed
                per config outside the CLI commands, median over
                repetitions spread over the run;
  ops_ok_share  invocations that exited 0 and passed the gate, over those
                attempted;
  peak_rss_mb   peak resident memory of a fresh process running one pass.
The two timings are process CPU time scaled to a reference CPU speed: the
timed passes run pinned to one CPU, beside the calibration process of
``calibrate.py`` pinned to the same CPU, and each pass or set-up burst is
divided by the speed that process saw over the same interval.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of ``tracer.py``, plus the tracing overhead; the spans of
the last traced pass are written to ``.perfbench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple

import gate
from calibrate import Calibrator
from tracer import Tracer
from workloads import WORKLOADS, Op, make_ops

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
GOLDENS = HERE / "goldens.json"
SPEC = ROOT / "BENCHMARK.json"  # names and units of the metrics to report
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_BURST_S = 0.5  # set-up is sampled this long before every timed pass
RSS_PROBE = "--rss-probe"

class PassResult(NamedTuple):
    wall_s: float  # time inside cli.main, summed over the invocations
    cpu_s: float  # process CPU time inside cli.main, summed likewise
    window: tuple[float, float]  # perf_counter at the start and end of the pass
    steps: int
    attempted: int
    failed: int
    outcomes: tuple  # gate status of each invocation
    wrong: list  # gate failures: (op key, reason)
    bytes_written: int


def load_cli():
    """Import rothe_hvi.cli from the checkout's sources, BLAS pinned to one
    thread (numpy reads the variables on import); None if there are none."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "rothe_hvi" / "cli.py").is_file():
        print(f"error: no rothe_hvi sources under {SRC}; run from a checkout", file=sys.stderr)
        return None
    sys.path.insert(0, str(SRC))
    from rothe_hvi import cli

    return cli


def write_configs(root: Path, workload: str, ops: list[Op]) -> list[Path]:
    cfg_dir = root / "configs"
    cfg_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, op in enumerate(ops):
        path = cfg_dir / f"{workload}-{i:03d}.ini"
        path.write_text(op.config, encoding="utf-8")
        paths.append(path)
    return paths


def out_dir(root: Path, op: Op) -> Path:
    return root / "runs" / re.sub(r"[^A-Za-z0-9_.-]", "_", op.key)


def run_pass(cli, root: Path, ops: list[Op], configs: list[Path], goldens: dict) -> PassResult:
    wall = cpu = 0.0
    steps = failed = written = 0
    outcomes, wrong = [], []
    begin = time.perf_counter()
    for op, cfg in zip(ops, configs):
        out = out_dir(root, op)
        shutil.rmtree(out, ignore_errors=True)
        argv = [op.command, str(cfg), "--out", str(out), "--quiet"]
        start, start_cpu = time.perf_counter(), time.process_time()
        try:
            rc = cli.main(argv)  # looked up on the module, so a tracer sees it
        except Exception:
            traceback.print_exc(file=sys.stderr)
            rc = None
        wall += time.perf_counter() - start
        cpu += time.process_time() - start_cpu
        verdict = gate.check(op, rc, out, goldens.get(op.key))
        steps += verdict.steps
        outcomes.append(verdict.status)
        if verdict.status != gate.OK:
            failed += 1
        if verdict.status == gate.WRONG:
            wrong.append((op.key, verdict.reason))
        written += sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
    window = (begin, time.perf_counter())
    return PassResult(wall, cpu, window, steps, len(ops), failed, tuple(outcomes), wrong, written)


def repeat_for(seconds: float, step):
    """Call ``step`` until ``seconds`` are used up, stopping early when the
    next call would most likely end past the deadline; at least once."""
    results = []
    begin = time.perf_counter()
    while True:
        results.append(step())
        elapsed = time.perf_counter() - begin
        if elapsed + 0.5 * elapsed / len(results) >= seconds:
            return results


def measure_setup(cli, configs: list[Path], calib: Calibrator) -> list[float]:
    """A burst of samples of parse_config + build_problem CPU time, summed
    over the configs (each one parsed and built by its own calls), at the
    reference CPU speed."""
    samples = []
    begin = time.perf_counter()
    while len(samples) < 2 or (time.perf_counter() - begin < SETUP_BURST_S and len(samples) < 100):
        total = 0.0
        for path in configs:
            start = time.process_time()
            cli.build_problem(cli.parse_config(path))
            total += time.process_time() - start
        samples.append(total)
    speed = calib.speed(begin, time.perf_counter())
    return [t * speed for t in samples]


def start_rss_probe(workload: str, seed: int) -> subprocess.Popen:
    """A fresh process that runs one pass and prints its peak RSS in MB
    (ru_maxrss is a process-wide high-water mark, so this process cannot
    measure it for one pass)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), RSS_PROBE]
    return subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def finish_rss_probe(proc: subprocess.Popen) -> float:
    stdout, stderr = proc.communicate(timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"peak-RSS probe exited {proc.returncode}: {stderr[-2000:]}")
    return float(stdout.split()[-1])


def _print_metric(name: str, unit: str, value: float, samples: list[float]) -> None:
    """The value with the median, quartiles and count of its samples."""
    if len(samples) > 1:
        q1, med, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    else:
        q1 = med = q3 = samples[0]
    print(f"  {name:34s} {value:14.6g} {unit:6s} "
          f"(samples: median {med:.6g}, q1 {q1:.6g}, q3 {q3:.6g}, n={len(samples)})")


def end_to_end(cli, args, ops, configs, goldens) -> tuple[list[PassResult], dict]:
    probe = start_rss_probe(args.workload, args.seed)
    try:
        # the warm-up pass is not timed, so it may share the machine with the probe
        warm = run_pass(cli, OUT, ops, configs, goldens)
        peak_rss = finish_rss_probe(probe)
    finally:
        if probe.poll() is None:
            probe.kill()
            probe.wait()
    setup: list[float] = []
    rates: list[float] = []
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    calib = Calibrator(cpu)

    def timed_pass() -> PassResult:
        # set-up samples taken throughout the run, not in one stretch
        setup.extend(measure_setup(cli, configs, calib))
        result = run_pass(cli, OUT, ops, configs, goldens)
        rates.append(result.steps / (result.cpu_s * calib.speed(*result.window)))
        return result

    try:
        passes = repeat_for(args.seconds, timed_pass)
    finally:
        calib.close()
    ok_share = 1.0 - warm.failed / warm.attempted
    samples = {
        "steps_per_s": (statistics.median(rates), rates),
        "setup_s": (statistics.median(setup), setup),
        "ops_ok_share": (ok_share, [ok_share]),
        "peak_rss_mb": (peak_rss, [peak_rss]),
    }
    return [warm, *passes], samples


def per_layer(cli, args, ops, configs, goldens) -> tuple[list[PassResult], dict]:
    warm = run_pass(cli, OUT, ops, configs, goldens)
    tracers: list[Tracer] = []
    layers: list[dict] = []

    def pair() -> tuple[PassResult, PassResult]:
        plain = run_pass(cli, OUT, ops, configs, goldens)
        tracer = Tracer()
        with tracer.installed():
            traced = run_pass(cli, OUT, ops, configs, goldens)
        found = tracer.metrics()
        found["cli.bytes_written"] = float(traced.bytes_written)
        found["cli.ops_failed_share"] = traced.failed / traced.attempted
        found["trace.overhead_share"] = traced.wall_s / plain.wall_s - 1.0
        layers.append(found)
        tracers.append(tracer)
        return plain, traced

    pairs = repeat_for(args.seconds, pair)
    tracers[-1].write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.csv")
    samples = {}
    for name in layers[0]:
        values = [found[name] for found in layers]
        samples[name] = (statistics.median(values), values)
    return [warm, *(p for pr in pairs for p in pr)], samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(RSS_PROBE, action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    cli = load_cli()
    if cli is None:
        return 2
    ops = make_ops(args.workload, args.seed)
    goldens = json.loads(GOLDENS.read_text())[args.workload]
    if args.rss_probe:
        root = OUT / "rss-probe"
        run_pass(cli, root, ops, write_configs(root, args.workload, ops), goldens)
        print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        return 0

    configs = write_configs(OUT, args.workload, ops)
    print(f"workload {args.workload}, seed {args.seed}: {len(ops)} invocations per pass")
    measure = per_layer if args.trace else end_to_end
    passes, samples = measure(cli, args, ops, configs, goldens)
    spec = json.loads(SPEC.read_text())["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in spec:
        value, values = samples[m["name"]]
        _print_metric(m["name"], m["unit"], value, values)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    wrong = [w for p in passes for w in p.wrong]
    if len({p.outcomes for p in passes}) > 1:
        wrong.append(("(passes)", "an invocation ended differently in two passes"))
    attempted, failed = passes[0].attempted, passes[0].failed
    print(f"  failed invocations: {failed}/{attempted} (each counted once over {len(passes)} passes)")
    print(f"  gate: {'PASS' if not wrong else 'FAIL'} ({len(wrong)} invocations with wrong output)")
    for key, reason in wrong[:10]:
        print(f"    {key}: {reason}")
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
