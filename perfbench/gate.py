"""Correctness gate for one CLI invocation of the benchmark.

Every invocation is checked against the solver's own certificates: the exit
code, every per-step residual at or below the bound the solver tolerance
implies, finite outputs, errors that fall as tau halves and fitted orders
in a band.  The outputs are also compared with goldens recorded from the
program (``goldens.json``); every seed runs the same configurations.  The
gap fields of the estimate tables are left out of the goldens on purpose:
ROADMAP item 4 redefines them.

An invocation that exits nonzero is a failure; it is not wrong output as
long as it leaves the failure report the CLI documents (``summary.csv``
marked FAIL and, for ``run``, the partial trajectory).
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import NamedTuple, Optional

from workloads import BACKWARD_EULER, BDF2, SOLVER_TOL, Op

# fitted order of the error at T against the two-step reference, by scheme;
# the ladder-smooth configuration gives 1.92 and 1.21
ORDER_BANDS = {BDF2: (1.7, 2.2), BACKWARD_EULER: (0.9, 1.5)}
GAP_COLUMNS = ("gap_closed_form", "gap_quadrature")
RTOL, ATOL, ORDER_ATOL = 1e-6, 1e-8, 1e-4

OK, FAILED, WRONG = "ok", "failed", "wrong"


class Verdict(NamedTuple):
    status: str  # OK, FAILED (nonzero exit, reported) or WRONG (gate failure)
    steps: int  # time steps the invocation completed
    reason: str


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    """Header and rows of a CLI CSV file (after its schema comment line)."""
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines() if ln]
    if not lines or not lines[0].startswith("# schema_version="):
        raise ValueError(f"{path.name}: missing schema line")
    header = lines[1].split(",")
    rows = [ln.split(",") for ln in lines[2:]]
    if any(len(r) != len(header) for r in rows):
        raise ValueError(f"{path.name}: ragged rows")
    return header, rows


def residual_bound(tau: float) -> float:
    """Largest unscaled step residual a converged solve can leave.

    The solver accepts a step when the V*-norm of the scaled residual is at
    most tol; the unscaled residual is that divided by c*tau, c >= 2/3."""
    return 1.5 * SOLVER_TOL / tau + 1e-12


def extract(op: Op, out: Path) -> dict:
    """The quantities of a successful invocation that goldens pin down."""
    found: dict = {}
    if op.command == "run":
        header, rows = read_csv(out / "trajectory.csv")
        found["trajectory.last"] = [float(v) for h, v in zip(header, rows[-1]) if h != "residual"]
        return found
    if op.command == "study":
        header, rows = read_csv(out / "ladder.csv")
        for row in rows:
            for h, v in zip(header[1:], row[1:]):
                if h not in GAP_COLUMNS:
                    found[f"ladder[{row[0]}].{h}"] = float(v)
    for name, n_keys in (("errors", 2), ("orders", 1)):
        header, rows = read_csv(out / f"{name}.csv")
        for row in rows:
            label = ",".join(row[:n_keys])
            for h, v in zip(header[n_keys:], row[n_keys:]):
                found[f"{name}[{label}].{h}"] = float(v)
    return found


def _close(name: str, got: float, want: float) -> bool:
    if "order" in name:
        return abs(got - want) <= ORDER_ATOL
    return abs(got - want) <= RTOL * abs(want) + ATOL


def _compare(found: dict, golden: dict) -> Optional[str]:
    for name, want in golden.items():
        got = found.get(name)
        if got is None:
            return f"{name} missing"
        pairs = list(zip(got, want)) if isinstance(want, list) else [(got, want)]
        if isinstance(want, list) and len(got) != len(want):
            return f"{name}: {len(got)} values, golden has {len(want)}"
        for i, (g, w) in enumerate(pairs):
            if not _close(name, g, w):
                return f"{name}[{i}] = {g!r}, golden {w!r}"
    return None


def _check_failure(op: Op, out: Path) -> Verdict:
    """A nonzero exit must leave the CLI's failure report."""
    header, rows = read_csv(out / "summary.csv")
    if not rows or rows[0][1] != "FAIL":
        return Verdict(WRONG, 0, "nonzero exit without a FAIL summary")
    if op.command != "run":
        return Verdict(FAILED, 0, rows[0][2])
    header, rows = read_csv(out / "trajectory.csv.partial")
    res = [float(r[header.index("residual")]) for r in rows[1:]]
    if not all(r <= residual_bound(op.taus[0]) for r in res):
        return Verdict(WRONG, 0, "partial trajectory residual above the solver bound")
    return Verdict(FAILED, len(res), f"failed after {len(res)} steps")


def _check_success(op: Op, out: Path) -> Optional[str]:
    if op.command == "run":
        header, rows = read_csv(out / "trajectory.csv")
        if len(rows) != op.steps + 1:
            return f"trajectory has {len(rows)} rows, expected {op.steps + 1}"
        values = [float(v) for r in rows for v in r]
        if not all(math.isfinite(v) for v in values):
            return "non-finite trajectory value"
        col = header.index("residual")
        worst = max(float(r[col]) for r in rows)
        if worst > residual_bound(op.taus[0]):
            return f"step residual {worst:.3e} above the solver bound"
        read_csv(out / "estimates.csv")
        return None
    header, rows = read_csv(out / "orders.csv")
    for row in rows:
        order = float(row[1])
        lo, hi = ORDER_BANDS[row[0]]
        if not lo <= order <= hi:
            return f"{row[0]} fitted order {order:.3f} outside [{lo}, {hi}]"
    header, rows = read_csv(out / "errors.csv")
    for scheme in {r[0] for r in rows}:
        errs = [float(r[2]) for r in rows if r[0] == scheme]
        if not all(math.isfinite(e) and e > 0 for e in errs):
            return f"{scheme}: non-finite or zero error"
        if any(b >= a for a, b in zip(errs, errs[1:])):
            return f"{scheme}: error does not fall as tau halves"
    return None


def check(op: Op, rc: Optional[int], out: Path, golden: Optional[dict]) -> Verdict:
    """Verdict on one invocation; ``rc`` is None when it raised."""
    if rc is None:
        return Verdict(FAILED, 0, "raised an exception")
    try:
        if rc != 0:
            return _check_failure(op, out)
        problem = _check_success(op, out)
        if problem is None and golden is not None:
            problem = _compare(extract(op, out), golden)
    except (OSError, ValueError, IndexError) as exc:
        problem = f"unreadable output: {exc}"
    if problem is not None:
        return Verdict(WRONG, 0, problem)
    return Verdict(OK, op.steps, "")
