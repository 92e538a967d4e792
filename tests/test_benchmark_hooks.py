"""The benchmark's tracer (perfbench/tracer.py) wraps program functions it
looks up by module and attribute path; every one of them must exist, or
``--trace 1`` fails with a KeyError.  The benchmark's self-test also pins
how often a run calls the step solver and the forcing assembler; those
counts are checked here too, so that a change to them shows in this suite.
The assembler is counted as ``fem1d.assemble_forcing``, the name through
which ``fem1d.separable_load`` calls it and the tracer wraps it.  A run's
step loop solves the steps of each segment (the steps of a row block that
share one operator) by one call of the segment kernel
(``inclusion_solver.segment_kernel``), which appends an iteration count
for each step it solves, and certifies them by one ``step_residuals``
call; both are counted where ``stepper`` looks them up, the kernel by the
counts it appends.
perfbench/selftest.py still pins the 32,340 forcing assemblies per
ladder-smooth pass made when every step assembled its own loads; the
program now makes 2, one per problem built.  It also pins 3,240
``inclusion_solver.solve`` spans a pass, and the tracer, which wraps
``solve_step_inclusion``, ``initial_step`` and ``bdf2_step``, now reads 0
there, since the step loop calls none of them.  That self-test fails until
the benchmark's next refresh re-pins it."""

from __future__ import annotations

import importlib
import importlib.util
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
WORKLOADS = TRACER.with_name("workloads.py")


def _load_tracer():
    # loading the module defines its tables; nothing is wrapped until a
    # Tracer is installed
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_name_resolves_in_the_package():
    tracer = _load_tracer()
    missing = []
    for module, path, _ in tracer.TIMED:
        owner = importlib.import_module(f"{tracer.PACKAGE}.{module}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        # the tracer reads the attribute from the owner's own namespace
        if owner is None or attr not in vars(owner):
            missing.append(f"{module}.{path}")
    assert not missing, f"traced names missing from the package: {missing}"


def test_main_calls_the_command_the_tracer_wraps(tmp_path):
    # main must look the command up on the module when it is called; a
    # reference taken at import time would bypass the wrapper
    cli = importlib.import_module("rothe_hvi.cli")
    cfg = tmp_path / "config.ini"
    cfg.write_text("[problem]\nn_el = 4\n\n[ladder]\ntaus = 0.5\n", encoding="utf-8")
    tracer = _load_tracer().Tracer()
    with tracer.installed():
        rc = cli.main(["run", str(cfg), "--out", str(tmp_path / "out"), "--quiet"])
    assert rc == 0
    names = [name for name, _, _, _ in tracer.spans]
    assert names.count("cli.cmd_run") == 1
    (main_span,) = [i for i, name in enumerate(names) if name == "cli.main"]
    assert tracer.spans[names.index("cli.cmd_run")][3] == main_span


def _counting(monkeypatch, module, name: str, record=lambda *args: None) -> list:
    """Replace ``module.name`` with a wrapper that records each call, as
    ``record`` of its positional arguments."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(record(*args))
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def _counting_steps(monkeypatch, stepper) -> list:
    """Replace the step loop's segment kernel, ``stepper.segment_kernel``,
    with a wrapper that records a None for each step it solves: each
    appends its iteration count, also in a segment that fails."""
    steps = []
    kernel = stepper.segment_kernel

    def wrapper(p, rhs, u, xi, iterations, *args, **kwargs):
        before = len(iterations)
        try:
            return kernel(p, rhs, u, xi, iterations, *args, **kwargs)
        finally:
            steps.extend([None] * (len(iterations) - before))

    monkeypatch.setattr(stepper, "segment_kernel", wrapper)
    return steps


def _smooth_problem():
    cli = importlib.import_module("rothe_hvi.cli")
    return cli.build_problem(cli.parse_config("[problem]\nn_el = 4\nforcing = smooth\n"))


@pytest.mark.parametrize("scheme", ["bdf2", "backward_euler"])
@pytest.mark.parametrize("n_steps", [2, 3, 8])
def test_run_rothe_makes_the_call_counts_the_benchmark_pins(monkeypatch, scheme, n_steps):
    fem1d = importlib.import_module("rothe_hvi.fem1d")
    stepper = importlib.import_module("rothe_hvi.stepper")
    # the tracer counts the functions where the package looks them up
    forcing = _counting(monkeypatch, fem1d, "assemble_forcing")
    problem = _smooth_problem()
    assert len(forcing) == 1
    solves = _counting_steps(monkeypatch, stepper)
    # the rows of each segment's certificate
    certified = _counting(monkeypatch, stepper, "step_residuals", lambda p, u, *_: len(u))
    # one step operator per stencil, factored once, whatever the step count
    operators = _counting(monkeypatch, stepper, "StepProblem")
    stepper.run_rothe(problem, stepper.TimeGrid(1.0, n_steps), scheme)
    assert (len(solves), len(forcing)) == (n_steps, 1)
    assert len(operators) == (2 if scheme == "bdf2" else 1)
    # one block: step 1 alone, then steps 2.. under the two-step operator
    assert certified == ([1, n_steps - 1] if scheme == "bdf2" else [n_steps])


@pytest.mark.parametrize("scheme", ["bdf2", "backward_euler"])
@pytest.mark.parametrize("n_steps", [2, 3, 8])
def test_a_run_calls_the_load_factors_once_at_every_gauss_time(scheme, n_steps):
    stepper = importlib.import_module("rothe_hvi.stepper")
    problem = _smooth_problem()
    calls = []

    def factors(t):
        calls.append(np.array(t))
        return problem.forcing.factors(t)

    load = stepper.SeparableLoad(factors, problem.forcing.loads)
    stepper.run_rothe(replace(problem, forcing=load), stepper.TimeGrid(1.0, n_steps), scheme)
    # one call, at the 5 Gauss times of each window, each once
    assert len(calls) == 1
    assert calls[0].shape == (5 * n_steps,) and len(set(calls[0].tolist())) == 5 * n_steps


def test_one_traced_run_builds_one_forcing_table():
    stepper = importlib.import_module("rothe_hvi.stepper")
    problem = _smooth_problem()
    tracer = _load_tracer().Tracer()
    with tracer.installed():
        stepper.run_rothe(problem, stepper.TimeGrid(1.0, 8), "bdf2")
    names = [name for name, _, _, _ in tracer.spans]
    assert names.count("stepper.average_forcing") == 1
    assert names.count("fem1d.assemble_forcing") == 0


def test_the_tracer_measures_every_step_of_a_run():
    # the tracer reads the solver's report from the third item of its
    # result and times both step functions by name.  Driven through the
    # single-step API, each step is one span of each; its certificate is a
    # one-row step_residuals, which calls GalerkinSpace.dual_norm only for a
    # residual whose square is not finite, so there is no dual_norm span
    stepper = importlib.import_module("rothe_hvi.stepper")
    problem = _smooth_problem()
    grid = stepper.TimeGrid(1.0, 8)
    f_avg = stepper.average_forcing(problem.forcing, grid)
    one_step = problem.step_problem(1.0, grid.tau)
    two_step = problem.step_problem(2.0 / 3.0, grid.tau)
    tracer = _load_tracer().Tracer()
    with tracer.installed():
        states = [problem.u0, stepper.initial_step(one_step, problem.u0, f_avg[0])[0]]
        for n in range(2, grid.N + 1):
            states.append(stepper.bdf2_step(two_step, states[-1], states[-2], f_avg[n - 1])[0])
    names = [name for name, _, _, _ in tracer.spans]
    assert [names.count(name) for name in
            ("inclusion_solver.solve", "stepper.step", "galerkin.dual_norm")] == [8, 8, 0]
    assert len(tracer.newton_iters) == 8
    assert tracer.nonconvergence == 0
    # a run's step loop calls segment_kernel and step_residuals, which the
    # tracer does not wrap, so a traced run records no span of the step layer
    tracer = _load_tracer().Tracer()
    with tracer.installed():
        stepper.run_rothe(problem, grid, "bdf2")
    names = [name for name, _, _, _ in tracer.spans]
    assert [names.count(name) for name in
            ("inclusion_solver.solve", "stepper.step", "galerkin.dual_norm")] == [0, 0, 0]
    assert len(tracer.newton_iters) == 0


def test_a_seed0_ladder_smooth_pass_makes_3240_solves_and_2_load_assemblies(
    tmp_path, monkeypatch
):
    # the pass is study (reference, 3 ladder runs) and compare (two
    # references, 2 x 3 ladder runs), reference 1,024 steps, ladder 8, 16,
    # 32; each command builds its problem, and so assembles its load, once
    cli = importlib.import_module("rothe_hvi.cli")
    fem1d = importlib.import_module("rothe_hvi.fem1d")
    stepper = importlib.import_module("rothe_hvi.stepper")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclass looks it up
    spec.loader.exec_module(workloads)
    solves = _counting_steps(monkeypatch, stepper)
    forcing = _counting(monkeypatch, fem1d, "assemble_forcing")
    for i, op in enumerate(workloads.make_ops("ladder-smooth", 0)):
        path = tmp_path / f"{i}.ini"
        path.write_text(op.config, encoding="utf-8")
        assert cli.main([op.command, str(path), "--out", str(tmp_path / str(i)), "--quiet"]) == 0
    assert [len(solves), len(forcing)] == [3240, 2]
