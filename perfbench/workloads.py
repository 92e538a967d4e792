"""The CLI invocations of one benchmark pass, generated from a seed.

Every seed gives the reference configurations of ROADMAP.md; seed 0 runs
them in a fixed order and any other seed shuffles the order.  The values in
the configurations stay fixed because the program's work and failures hinge
on them: scaling ``potential_d`` and ``f0_value`` by up to 10% moves the
Newton iterations of the wide-smooth run between 38 and 65, and at
potential_d = 0.9926, f0_value = 0.9747 the ladder-smooth reference run
stalls at step 904 (the ROADMAP item 2 defect).  Fixed values keep the work
of a pass and the set of failing invocations (7 of the 100 ncvx-sweep runs)
the same in every run of the benchmark.  The program only ever sees the INI
files written from these definitions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

BDF2 = "bdf2"
BACKWARD_EULER = "backward_euler"
SOLVER_TOL = 1e-10  # the CLI's default [solver] tol, which these configs keep
LADDER_TAUS = (0.125, 0.0625, 0.03125)
REF_STEPS = 1024  # fine reference run: tau_ref = min(taus) / 32 on [0, 1]

# BENCHMARK.json records why each workload exists
WORKLOADS = ("ladder-smooth", "wide-smooth", "ncvx-sweep")

NCVX_F0 = (1.0, 2.0, 3.0, 4.0, 6.0)
NCVX_N_EL = (8, 64)
NCVX_STEPS = (4, 8, 16, 32, 64)


@dataclass(frozen=True)
class Op:
    """One CLI invocation: ``rothe-hvi <command> <config>``."""

    key: str  # stable name, used for output directories and goldens
    command: str  # run, study or compare
    config: str  # INI text
    steps: int  # time steps a successful invocation completes
    taus: tuple[float, ...]


def _ini(problem: dict, scheme: str, taus: tuple[float, ...]) -> str:
    lines = ["[problem]"]
    lines += [f"{k} = {v}" for k, v in problem.items()]
    lines += ["", "[scheme]", f"kind = {scheme}", "", "[ladder]"]
    lines.append("taus = " + ",".join(repr(t) for t in taus))
    return "\n".join(lines) + "\n"


def _problem(base: dict) -> dict:
    """``base`` with the flux-law scale and forcing amplitude written out."""
    out = dict(base)
    out["potential_d"] = repr(float(base.get("potential_d", 1.0)))
    out["f0_value"] = repr(float(base.get("f0_value", 1.0)))
    return out


def _smooth(n_el: int) -> dict:
    return {
        "n_el": n_el,
        "t_final": 1.0,
        "forcing": "smooth",
        "potential": "paper_exponential",
        "u0": "zero",
    }


def _steps(taus: tuple[float, ...]) -> int:
    return sum(round(1.0 / t) for t in taus)


def make_ops(workload: str, seed: int) -> list[Op]:
    """The invocations of one pass of ``workload``, in execution order."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    if workload == "ladder-smooth":
        cfg = _ini(_problem(_smooth(64)), BDF2, LADDER_TAUS)
        ladder = _steps(LADDER_TAUS)
        ops = [
            Op("study", "study", cfg, REF_STEPS + ladder, LADDER_TAUS),
            Op("compare", "compare", cfg, 2 * REF_STEPS + 2 * ladder, LADDER_TAUS),
        ]
    elif workload == "wide-smooth":
        taus = (0.03125,)
        cfg = _ini(_problem(_smooth(1024)), BDF2, taus)
        ops = [Op("run", "run", cfg, _steps(taus), taus)]
    else:
        ops = []
        for f0 in NCVX_F0:
            for n_el in NCVX_N_EL:
                for scheme in (BDF2, BACKWARD_EULER):
                    for n in NCVX_STEPS:
                        base = {
                            "n_el": n_el,
                            "t_final": 1.0,
                            "forcing": "constant",
                            "f0_value": f0,
                            "potential": "nonconvex_piecewise",
                        }
                        taus = (1.0 / n,)
                        cfg = _ini(_problem(base), scheme, taus)
                        key = f"f0={f0:g},n_el={n_el},{scheme},N={n}"
                        ops.append(Op(key, "run", cfg, n, taus))
    if seed != 0:
        random.Random(seed).shuffle(ops)
    return ops
