"""CPU-speed calibration for the end-to-end timings.

The speed of a vCPU on a shared host drifts by tens of percent within
minutes, so raw times of the same work disagree between runs.  A small
side process, pinned to the same CPU as the benchmark, times a fixed kernel
(a pure-Python loop, small numpy operations and a small Cholesky
factorization, the mix the program itself runs) in process CPU time every
``INTERVAL_S`` seconds.  Its mean kernel time over a measured window gives
the CPU's speed during that window, relative to ``REF_KERNEL_S``; the
benchmark divides its own CPU time by that speed.  Started as

    python3 perfbench/calibrate.py <cpu>

it answers each line ``<t0> <t1>`` on stdin (``time.perf_counter`` values,
which are system-wide) with ``<mean kernel s> <samples>`` for the kernels
that ended inside the window, and exits when stdin closes, so it also ends
when the benchmark does.  It prints ``ready`` once its first kernel ran.
"""

from __future__ import annotations

import os
import select
import subprocess
import sys
import time
from pathlib import Path

# kernel CPU time on a 2-vCPU Intel Xeon VM in its slower state; it only
# scales the reported figures, so it stays fixed for every run and commit
REF_KERNEL_S = 0.0022
INTERVAL_S = 0.02  # pause between kernels: about 10% of the CPU


def _kernel():
    import numpy as np
    from scipy.linalg import cho_factor

    vec = np.arange(64.0)
    mat = np.eye(96) * 96.0 + np.ones((96, 96))

    def run() -> float:
        start = time.process_time()
        acc = 0.0
        for i in range(20000):
            acc += i * 0.5
        x = vec
        for _ in range(200):
            x = np.sqrt(x * x + 1.0)
        for _ in range(4):
            cho_factor(mat)
        return time.process_time() - start

    return run


def serve(cpu: int) -> None:
    os.sched_setaffinity(0, {cpu})
    kernel = _kernel()
    kernel()
    print("ready", flush=True)
    samples: list[tuple[float, float]] = []  # (end, kernel CPU s)
    while True:
        took = kernel()
        samples.append((time.perf_counter(), took))
        ready, _, _ = select.select([sys.stdin], [], [], INTERVAL_S)
        if not ready:
            continue
        line = sys.stdin.readline()
        if not line:
            return
        t0, t1 = map(float, line.split())
        inside = [d for t, d in samples if t0 <= t <= t1]
        samples = [s for s in samples if s[0] > t1]
        mean = sum(inside) / len(inside) if inside else 0.0
        print(f"{mean!r} {len(inside)}", flush=True)


class Calibrator:
    """The benchmark's side of the calibration process."""

    def __init__(self, cpu: int):
        cmd = [sys.executable, str(Path(__file__).resolve()), str(cpu)]
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        if self.proc.stdout.readline().strip() != "ready":
            self.close()
            raise RuntimeError("calibration process did not start")

    def speed(self, t0: float, t1: float) -> float:
        """CPU speed over [t0, t1] relative to the reference (1.0 = as fast
        as the reference CPU, below 1 = slower)."""
        self.proc.stdin.write(f"{t0!r} {t1!r}\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline().split()
        if len(reply) != 2 or int(reply[1]) == 0:
            raise RuntimeError(f"calibration process gave no samples for the window: {reply}")
        return REF_KERNEL_S / float(reply[0])

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


if __name__ == "__main__":
    serve(int(sys.argv[1]))
