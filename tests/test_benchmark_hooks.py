"""The benchmark's tracer (perfbench/tracer.py) wraps program functions it
looks up by module and attribute path; every one of them must exist, or
``--trace 1`` fails with a KeyError.  The benchmark's self-test also pins
how often a run calls the step solver and the forcing assembler; those
counts are checked here too, so that a change to them shows in this suite."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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


def _counting(monkeypatch, module, name: str) -> list:
    """Replace ``module.name`` with a wrapper that records each call."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def _steps_and_forcing_calls(n_steps: int) -> tuple[int, int]:
    """One solve per step; the forcing of every window is assembled at its 5
    Gauss times, and every window but the last is integrated twice, as the
    current window of one step and the previous window of the next."""
    return n_steps, 5 * (2 * n_steps - 1)


def _smooth_problem():
    cli = importlib.import_module("rothe_hvi.cli")
    return cli.build_problem(cli.parse_config("[problem]\nn_el = 4\nforcing = smooth\n"))


@pytest.mark.parametrize("scheme", ["bdf2", "backward_euler"])
@pytest.mark.parametrize("n_steps", [2, 3, 8])
def test_run_rothe_makes_the_call_counts_the_benchmark_pins(monkeypatch, scheme, n_steps):
    cli = importlib.import_module("rothe_hvi.cli")
    stepper = importlib.import_module("rothe_hvi.stepper")
    problem = _smooth_problem()
    # the tracer counts the functions where the package looks them up
    solves = _counting(monkeypatch, stepper, "solve_step_inclusion")
    forcing = _counting(monkeypatch, cli, "assemble_forcing")
    # one step operator per stencil, factored once, whatever the step count
    operators = _counting(monkeypatch, stepper, "StepProblem")
    stepper.run_rothe(problem, stepper.TimeGrid(1.0, n_steps), scheme)
    assert (len(solves), len(forcing)) == _steps_and_forcing_calls(n_steps)
    assert len(operators) == (2 if scheme == "bdf2" else 1)


def test_the_tracer_measures_every_step_of_a_run():
    # the tracer reads the solver's report from the third item of its
    # result and times both step functions by name
    stepper = importlib.import_module("rothe_hvi.stepper")
    problem = _smooth_problem()
    tracer = _load_tracer().Tracer()
    with tracer.installed():
        stepper.run_rothe(problem, stepper.TimeGrid(1.0, 8), "bdf2")
    names = [name for name, _, _, _ in tracer.spans]
    assert names.count("inclusion_solver.solve") == 8
    assert names.count("stepper.step") == 8
    assert len(tracer.newton_iters) == 8
    assert tracer.nonconvergence == 0


def test_the_counts_add_up_to_the_seed0_ladder_smooth_pin():
    # perfbench/selftest.py pins 3,240 solves and 32,340 forcing calls per
    # ladder-smooth pass: study (reference, 3 ladder runs) and compare (two
    # references, 2 x 3 ladder runs), reference 1,024 steps, ladder 8, 16, 32
    ladder = [8, 16, 32]
    runs = [1024, *ladder] + [1024, 1024, *ladder, *ladder]
    totals = [sum(c) for c in zip(*map(_steps_and_forcing_calls, runs))]
    assert totals == [3240, 32340]
