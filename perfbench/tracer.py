"""Outside-in tracing of rothe_hvi by its public calls.

``Tracer.installed`` wraps the public functions of each module where callers
look them up: ``from .x import f`` binds a second reference to ``f`` in the
importing module, so every reference that *is* the original object, in every
loaded ``rothe_hvi`` module, is replaced.  Leaving the block puts the
originals back.  Spans (name, start, end, parent) are kept in memory; self time is
derived from them once the pass is over.  ``ScalarPotential`` evaluations
are only counted, because they are too frequent and too short to time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "rothe_hvi"

# (module, attribute path, span name) of every timed public call
TIMED = (
    ("cli", "main", "cli.main"),
    ("cli", "cmd_run", "cli.cmd_run"),
    ("cli", "cmd_study", "cli.cmd_study"),
    ("cli", "cmd_compare", "cli.cmd_compare"),
    ("cli", "parse_config", "cli.parse_config"),
    ("cli", "build_problem", "cli.build_problem"),
    ("fem1d", "assemble_space", "fem1d.assemble_space"),
    ("fem1d", "assemble_forcing", "fem1d.assemble_forcing"),
    ("fem1d", "make_initial", "fem1d.make_initial"),
    ("galerkin", "GalerkinSpace.__post_init__", "galerkin.space_init"),
    ("galerkin", "LinearOperatorA.__post_init__", "galerkin.operator_init"),
    ("galerkin", "GalerkinSpace.dual_norm", "galerkin.dual_norm"),
    ("galerkin", "GalerkinSpace.trace_operator_norm", "galerkin.trace_operator_norm"),
    ("inclusion_solver", "solve_step_inclusion", "inclusion_solver.solve"),
    ("stepper", "run_rothe", "stepper.run_rothe"),
    ("stepper", "average_forcing", "stepper.average_forcing"),
    ("stepper", "initial_step", "stepper.step"),
    ("stepper", "bdf2_step", "stepper.step"),
    ("diagnostics", "estimate_report", "diagnostics.estimate_report"),
    ("diagnostics", "tau_ladder_study", "diagnostics.ladder"),
    ("oracle", "reference_solution", "oracle.reference_solution"),
)

POTENTIAL_METHODS = (
    "value",
    "interval_arrays",
    "branch_slope",
    "one_sided_limits",
    "probe_points",
    "clarke_interval",
    "membership_interval",
    "selection",
    "regularized_selection",
)

# spans reported as total seconds, and as call counts; ``Tracer.metrics``
# derives the rest, and run.py adds what it measures outside the program
# (cli.bytes_written, cli.ops_failed_share, trace.overhead_share)
SPAN_SECONDS = (
    "oracle.reference_solution",
    "stepper.average_forcing",
    "fem1d.assemble_forcing",
    "inclusion_solver.solve",
    "galerkin.dual_norm",
    "galerkin.space_init",
    "galerkin.operator_init",
    "fem1d.assemble_space",
    "galerkin.trace_operator_norm",
    "diagnostics.estimate_report",
    "diagnostics.ladder",
    "cli.parse_config",
)
SPAN_CALLS = ("fem1d.assemble_forcing", "inclusion_solver.solve", "galerkin.dual_norm")


def _percentile(ordered: list[float], q: float) -> float:
    """Linearly interpolated percentile of an ascending list (0 when empty)."""
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _modules() -> list:
    return [
        mod for name, mod in list(sys.modules.items())
        if name == PACKAGE or name.startswith(PACKAGE + ".")
    ]


class Tracer:
    """Spans and counts of the calls made while ``installed()`` is active."""

    def __init__(self) -> None:
        self.spans: list = []  # (name, start, end, parent index or -1)
        self._stack: list[int] = []
        self._potential = [0, 0]  # [nesting depth, calls from outside the layer]
        self.newton_iters: list[int] = []
        self.nonconvergence = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------

    def _timed(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)

        return wrapper

    def _solve(self, name: str, fn):
        timed = self._timed(name, fn)
        nonconvergence = importlib.import_module(f"{PACKAGE}.inclusion_solver").NonConvergenceError

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = timed(*args, **kwargs)
            except nonconvergence as exc:
                self.newton_iters.append(exc.report.iterations)
                self.nonconvergence += 1
                raise
            self.newton_iters.append(result[2].iterations)
            return result

        return wrapper

    def _counted(self, fn):
        state = self._potential

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if state[0] == 0:
                state[1] += 1
            state[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                state[0] -= 1

        return wrapper

    # -- install / uninstall --------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    @contextlib.contextmanager
    def installed(self):
        """The wrappers are in place for the duration of the block only."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        try:
            self._install()
            yield self
        finally:
            self._uninstall()

    def _install(self) -> None:
        importlib.import_module(f"{PACKAGE}.cli")  # loads every module
        modules = _modules()
        for mod_name, path, span in TIMED:
            owner = importlib.import_module(f"{PACKAGE}.{mod_name}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            make = self._solve if span == "inclusion_solver.solve" else self._timed
            if outer:  # a method or cached property of a class
                if isinstance(original, functools.cached_property):
                    new = functools.cached_property(make(span, original.func))
                    new.__set_name__(owner, attr)
                else:
                    new = make(span, original)
                self._patch(owner, attr, new)
                continue
            new = make(span, original)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, new)
        potentials = importlib.import_module(f"{PACKAGE}.potentials")
        for cls in list(vars(potentials).values()):
            if isinstance(cls, type) and issubclass(cls, potentials.ScalarPotential):
                for meth in POTENTIAL_METHODS:
                    if meth in cls.__dict__:
                        self._patch(cls, meth, self._counted(cls.__dict__[meth]))

    def _uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def patched(self) -> list[tuple[object, str, object]]:
        """(owner, attribute, original) of every wrapper installed now."""
        return list(self._patches)

    # -- results --------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans and counts recorded so far."""
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - child[i]
            calls[name] += 1
        out = {f"{name}_s": total[name] for name in SPAN_SECONDS}
        out.update({f"{name}_calls": float(calls[name]) for name in SPAN_CALLS})
        steps = sorted(1e3 * (e - s) for name, s, e, _ in self.spans if name == "stepper.step")
        out["stepper.step_ms_p50"] = _percentile(steps, 50)
        out["stepper.step_ms_p99"] = _percentile(steps, 99)
        out["stepper.run_rothe_self_s"] = own["stepper.run_rothe"]
        out["cli.self_s"] = sum(v for k, v in own.items() if k.startswith("cli."))
        solves = len(self.newton_iters)
        out["inclusion_solver.newton_iters"] = float(sum(self.newton_iters))
        out["inclusion_solver.newton_iters_max"] = float(max(self.newton_iters, default=0))
        out["inclusion_solver.nonconvergence"] = float(self.nonconvergence)
        out["inclusion_solver.converged_ratio"] = (
            (solves - self.nonconvergence) / solves if solves else 1.0
        )
        out["potentials.calls"] = float(self._potential[1])
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{start!r},{end!r},{parent}\n")
