"""The brute-force oracle audits every step of real runs.

Each step of a run of the benchmark's workloads (perfbench/workloads.py) is
rebuilt from the run's trajectory and forcing table: its step operator, its
right-hand side c tau F_n + M times the stencil's history, formed densely
here, and its warm start's boundary value.  ``oracle.scan_roots_reduced`` then scans the step's
boundary inclusion on |s| <= |t S^-1 b| + F d_j + 1 and maps every root
back to a coefficient vector.  The step's u must lie within 1e-10 of one of
them, and that root must be the one whose boundary value is nearest the
warm start's, the smaller one on a tie: the root the step solver promises
to take.  Tier-1 audits a few runs of the nonconvex robustness grid (the
ncvx-sweep invocations), chosen to hold steps with several roots; under the
exhaustive hypothesis profile (``--hypothesis-profile=exhaustive``) it
audits all 100 runs of the grid and every run of a ladder-smooth pass: both
schemes' ladders and both fine references, at the references' tol 1e-12."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from rothe_hvi import BACKWARD_EULER, BDF2, TimeGrid, average_forcing, run_rothe, scan_roots_reduced
from rothe_hvi.cli import build_problem, parse_config

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
SCAN_CELLS = 4000
U_TOL = 1e-10
# three runs of the n_el = 8 half of the grid, both schemes: 16 steps, 13
# of them with three roots (every step of the first two, step 1 of the last)
TIER1_RUNS = (
    "f0=1,n_el=8,bdf2,N=8",
    "f0=1,n_el=8,backward_euler,N=4",
    "f0=2,n_el=8,bdf2,N=4",
)


def _workload_ops(workload: str) -> list:
    """The invocations of a seed-0 pass of ``workload``."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks its own module up by name
    spec.loader.exec_module(module)
    return module.make_ops(workload, 0)


def _ncvx_runs() -> dict:
    """{key: (INI text, scheme, tau, tol)} of the ncvx-sweep invocations, in
    the grid's order."""
    runs = {}
    for op in _workload_ops("ncvx-sweep"):
        cfg = parse_config(op.config)
        runs[op.key] = (op.config, cfg.scheme, cfg.taus[0], cfg.tol)
    return runs


def _ladder_runs() -> dict:
    """{key: (INI text, scheme, tau, tol)} of the runs of a ladder-smooth
    pass: ``compare`` runs both schemes' ladders and both fine references,
    ``study`` a subset of them."""
    config = _workload_ops("ladder-smooth")[0].config
    cfg = parse_config(config)
    runs = {}
    for scheme in (BDF2, BACKWARD_EULER):
        for tau in cfg.taus:
            runs[f"ladder-smooth,{scheme},tau={tau:g}"] = (config, scheme, tau, cfg.tol)
    for scheme in (BDF2, BACKWARD_EULER):  # the references' tol (oracle.reference_solution)
        runs[f"ladder-smooth reference,{scheme},tau={cfg.reference_tau():g}"] = (
            config, scheme, cfg.reference_tau(), 1e-12)
    return runs


NCVX_RUNS = _ncvx_runs()
EXHAUSTIVE = settings.default.max_examples >= settings.get_profile("exhaustive").max_examples
RUNS = {**NCVX_RUNS, **_ladder_runs()} if EXHAUSTIVE else NCVX_RUNS
AUDITED = tuple(RUNS) if EXHAUSTIVE else TIER1_RUNS


def audit_run(config: str, scheme: str, tau: float, tol: float) -> list:
    """(step, roots found, index of the root u lies on or None, index of the
    root nearest the warm start) for every step of the run of ``config``
    with ``scheme`` at step ``tau``, each step solved to ``tol``."""
    cfg = parse_config(config)
    problem = build_problem(cfg)
    grid = TimeGrid.of_step(cfg.t_final, tau)
    u = run_rothe(problem, grid, scheme, tol).u
    f_avg = average_forcing(problem.forcing, grid)
    mass = problem.space.gram_h.toarray()
    t_row = problem.space.trace[0]
    operators = {}
    out = []
    for n in range(1, grid.N + 1):
        two_step = n >= 2 and scheme != BACKWARD_EULER
        c = 2.0 / 3.0 if two_step else 1.0
        if c not in operators:
            operators[c] = problem.step_problem(c, grid.tau)
        p = operators[c]
        if two_step:
            history = (4.0 / 3.0) * u[n - 1] - (1.0 / 3.0) * u[n - 2]
            warm = 2.0 * u[n - 1] - u[n - 2]
        else:
            history = warm = u[n - 1]
        rhs = p.flux_coef * f_avg[n - 1] + mass @ history
        s_b = t_row @ np.linalg.solve(p.system.toarray(), rhs)
        factor = p.flux_coef * p.weights[0] * t_row @ np.linalg.solve(p.system.toarray(), t_row)
        bound = abs(s_b) + factor * p.potential.d_j + 1.0
        roots = scan_roots_reduced(p, rhs, -bound, bound, SCAN_CELLS)
        on = [i for i, root in enumerate(roots) if np.max(np.abs(u[n] - root)) <= U_TOL]
        s_warm = t_row @ warm
        nearest = min(range(len(roots)), key=lambda i: (abs(t_row @ roots[i] - s_warm), t_row @ roots[i]))
        out.append((n, len(roots), on[0] if on else None, nearest if roots else None))
    return out


@pytest.mark.parametrize("key", AUDITED)
def test_every_step_takes_the_oracle_root_nearest_its_warm_start(key):
    for n, found, on, nearest in audit_run(*RUNS[key]):
        assert on is not None, f"{key}, step {n}: u is on none of the {found} oracle roots"
        assert on == nearest, (
            f"{key}, step {n}: u is on oracle root {on} of {found}, the root nearest "
            f"the warm start is {nearest}"
        )


def test_the_tier1_runs_hold_steps_with_several_roots():
    found = [found for key in TIER1_RUNS for _, found, _, _ in audit_run(*NCVX_RUNS[key])]
    assert (len(found), sum(f > 1 for f in found)) == (16, 13)
