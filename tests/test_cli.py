from __future__ import annotations

import configparser
import io
import math
import os
import platform
import re
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import fields
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import fem_problem, one, zero
from rothe_hvi import LinearRobin, cli, diagnostics, floatfmt, inclusion_solver, stepper
from rothe_hvi.cli import (
    ConfigError, ExperimentConfig, _fmt, _poly, _write_csv, main, parse_config, render_config,
)
from rothe_hvi.diagnostics import QUANTITY_FIELDS

SRC = str(Path(__file__).resolve().parents[1] / "src")

NCVX = """[problem]
n_el = 64
forcing = constant
f0_value = 3.0
potential = nonconvex_piecewise

[ladder]
taus = 0.125,0.0625,0.03125
"""


def read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "# schema_version=2"
    header = lines[1].split(",")
    rows = [ln.split(",") for ln in lines[2:]]
    assert all(len(r) == len(header) for r in rows)
    return header, rows


SMOOTH_TINY = """[problem]
n_el = 8
forcing = smooth
potential = paper_exponential

[ladder]
taus = 0.25,0.125

[check]
n_samples = 20
n_fuzz = 50
coercivity_taus = 0.1
"""


def run_cli(tmp_path, command, config_text, *flags, out_name="out"):
    cfg = tmp_path / "config.ini"
    cfg.write_text(config_text, encoding="utf-8")
    out = tmp_path / out_name
    return main([command, str(cfg), "--out", str(out), "--quiet", *flags]), out


def test_run_on_a_nonconvex_step_with_a_root_past_the_drop_window(tmp_path):
    text = NCVX.replace("n_el = 64", "n_el = 8").replace("f0_value = 3.0", "f0_value = 2.0")
    text = text.replace("0.125,0.0625,0.03125", "0.125")
    rc, out = run_cli(tmp_path, "run", text)
    assert rc == 0
    header, rows = read_csv(out / "trajectory.csv")
    assert header == ["t", *(f"u{i}" for i in range(9)), "xi0", "residual"]
    assert len(rows) == 9
    assert np.all(np.isfinite(np.array(rows, dtype=float)))
    _, summary = read_csv(out / "summary.csv")
    assert summary[0][:2] == ["run", "PASS"]


@pytest.mark.parametrize("f0_value", ["3", "10"])
def test_run_finds_a_root_where_the_slope_of_z_jumps(tmp_path, f0_value):
    # the tail slope 1e18 puts the boundary root between 1.0 and the next
    # float, beside the first float where g' >= 0
    text = (
        "[problem]\nn_el = 4\npotential = nonconvex_piecewise\nncvx_tail_slope = 1e18\n"
        f"forcing = constant\nf0_value = {f0_value}\n\n[ladder]\ntaus = 0.25\n"
    )
    rc, out = run_cli(tmp_path, "run", text)
    assert rc == 0
    _, summary = read_csv(out / "summary.csv")
    assert summary[0][:2] == ["run", "PASS"]


def test_compare_on_the_nonconvex_reference_config(tmp_path):
    rc, out = run_cli(tmp_path, "compare", NCVX)
    assert rc == 0
    header, rows = read_csv(out / "orders.csv")
    assert header == ["scheme", "order_vs_two_step_ref", "order_vs_one_step_ref"]
    assert [r[0] for r in rows] == ["bdf2", "backward_euler"]


NON_FINITE_FORCING = """[problem]
n_el = 8
forcing = poly
f0_t_coeffs = 0.0,1e308,1e308
potential = paper_exponential

[ladder]
taus = 0.25
"""


@pytest.mark.parametrize("command", ["run", "study", "compare"])
def test_run_with_non_finite_forcing_reports_the_failure(tmp_path, capsys, command):
    cfg = tmp_path / "config.ini"
    cfg.write_text(NON_FINITE_FORCING, encoding="utf-8")
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning on the way
        rc = main([command, str(cfg), "--out", str(out)])
    assert rc == 1
    _, summary = read_csv(out / "summary.csv")
    assert len(summary) == 1 and summary[0][:2] == [command, "FAIL"]
    detail = summary[0][2]
    # step 1's forcing average is finite, and so is its residual norm, far
    # above tol
    assert re.fullmatch(r"step 1 failed: step residual \S+e\+2\d\d above tol \S+", detail)
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"{command} failed: {detail}\n")
    partial = {"trajectory.csv.partial"} if command == "run" else set()
    assert {p.name for p in out.iterdir()} == {"summary.csv", *partial}
    if command == "run":
        header, rows = read_csv(out / "trajectory.csv.partial")
        assert header[0] == "t" and header[-1] == "residual"
        assert len(rows) >= 1  # at least the initial state


STUDY_SERIES = ["error_at_T", "u1_u0_gap", "gap_closed_form", *QUANTITY_FIELDS]
WRITTEN = {
    "run": ["trajectory.csv", "estimates.csv"],
    "study": ["ladder.csv", "errors.csv", "orders.csv", "plots.gp",
              *(f"series_{name}.dat" for name in STUDY_SERIES)],
    "compare": ["errors.csv", "orders.csv", "plots.gp",
                "series_error_bdf2.dat", "series_error_backward_euler.dat"],
    "check": [],  # its summary has one row per certificate
}


@pytest.mark.parametrize("command", sorted(WRITTEN))
def test_each_command_writes_its_files_and_prints_its_summary(tmp_path, capsys, command):
    cfg = tmp_path / "config.ini"
    cfg.write_text(SMOOTH_TINY, encoding="utf-8")
    out = tmp_path / "out"
    assert main([command, str(cfg), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted([*WRITTEN[command], "summary.csv"])
    _, summary = read_csv(out / "summary.csv")
    assert [status for _, status, _ in summary] == ["PASS"] * len(summary)
    if command != "check":
        assert [name for name, _, _ in summary] == [command]
    captured = capsys.readouterr()
    expected = "".join(f"{name} ok: {detail}\n" for name, _, detail in summary)
    # a summary cell holds its text with each comma written as ";"
    assert (captured.out.replace(",", ";"), captured.err) == (expected, "")


def test_removed_solver_keys_are_rejected(tmp_path, capsys):
    rc, _ = run_cli(tmp_path, "run", NCVX + "\n[solver]\ntol = 1e-10\neps0 = 0.01\n")
    assert rc == 2
    assert "[solver] eps0" in capsys.readouterr().err


def test_render_parse_render_is_byte_identical():
    for cfg in (ExperimentConfig(), parse_config(NCVX)):
        text = render_config(cfg)
        assert render_config(parse_config(text)) == text


DEFAULTS_TEXT = """[problem]
n_el = 64
t_final = 1.0
forcing = zero
f0_value = 1.0
fn_value = 0.0
f0_t_coeffs = 1.0
f0_x_coeffs = 1.0
fn_t_coeffs = 0.0
potential = zero
potential_d = 1.0
potential_k = 1.0
paper_literal_subdiff = false
ncvx_jump = 1.0
ncvx_drop_slope = 4.0
ncvx_drop_width = 1.0
ncvx_tail_slope = 1.0
u0 = zero
u0_value = 0.0
u0_coeffs = 0.0
alpha = default
beta = default
a_growth = default
b_growth = default

[scheme]
kind = bdf2

[ladder]
taus = 0.125,0.0625,0.03125
tau_ref = auto

[solver]
tol = 1e-10

[check]
n_samples = 1000
n_fuzz = 2000
coercivity_taus = 0.1,0.05,0.01

[output]
""" + "dir = \n"  # an empty value, written with the separator's trailing space


def test_the_canonical_form_keeps_its_sections_keys_and_spellings():
    # the layout is derived from the order of the ExperimentConfig fields
    assert render_config(ExperimentConfig()) == DEFAULTS_TEXT
    assert parse_config(DEFAULTS_TEXT) == ExperimentConfig()


def test_study_writes_one_exact_gap_column_and_its_series(tmp_path):
    rc, out = run_cli(tmp_path, "study", SMOOTH_TINY)
    assert rc == 0
    header, rows = read_csv(out / "ladder.csv")
    assert [h for h in header if h.startswith("gap")] == ["gap_closed_form"]
    assert [float(r[0]) for r in rows] == [0.25, 0.125]
    read_csv(out / "errors.csv")
    header, _ = read_csv(out / "orders.csv")
    assert header == ["scheme", "fitted_order"]
    series = (out / "series_gap_closed_form.dat").read_text(encoding="utf-8").splitlines()
    assert series[:2] == ["# schema_version=2", "# tau gap_closed_form"]
    assert len(series) == 4
    assert not (out / "series_gap_quadrature.dat").exists()


def test_check_is_reproducible_for_a_seed(tmp_path):
    rc_a, out_a = run_cli(tmp_path, "check", SMOOTH_TINY, "--seed", "7", out_name="a")
    rc_b, out_b = run_cli(tmp_path, "check", SMOOTH_TINY, "--seed", "7", out_name="b")
    assert rc_a == rc_b == 0
    checks = (out_a / "summary.csv").read_bytes()
    assert checks == (out_b / "summary.csv").read_bytes()
    header, rows = read_csv(out_a / "summary.csv")
    assert header == ["name", "status", "detail"]
    assert all(r[1] == "PASS" for r in rows)
    assert sorted(p.name for p in out_a.iterdir()) == ["summary.csv"]


@pytest.mark.parametrize("lines, failing", [
    ("potential = nonconvex_piecewise\nncvx_jump = 1e308", {
        "growth_configured", "growth_nonconvex_piecewise", "coercivity_tau_0.1",
    }),
    ("potential_d = 1e308", {"growth_paper_exponential"}),
    ("potential = linear_robin\npotential_k = 1e308", {
        "growth_configured", "coercivity_tau_0.1",
    }),
])
def test_check_fails_each_certificate_whose_values_overflow(tmp_path, lines, failing):
    # a growth bound or a coercivity pairing past the float range is a
    # failed certificate, not a NaN slope that passes; every warning is an
    # error under pytest, so the certificates must not warn on the way
    rc, out = run_cli(tmp_path, "check", tiny(lines))
    assert rc == 1
    _, rows = read_csv(out / "summary.csv")
    assert {r[0] for r in rows if r[1] == "FAIL"} == failing


def test_a_negative_seed_exits_2_at_the_argument_parser(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(tmp_path, "check", SMOOTH_TINY, "--seed", "-1")
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: rothe-hvi check ")
    assert "error: argument --seed: expected a non-negative integer, not '-1'" in err
    assert not (tmp_path / "out").exists()


def _fresh_process(argv, cwd):
    proc = subprocess.run(
        [sys.executable, "-m", "rothe_hvi.cli", *argv], cwd=cwd, capture_output=True,
        text=True, timeout=120, env={**os.environ, "PYTHONPATH": SRC},
    )
    return proc.returncode, proc.stderr


def _this_process(argv, capsys):
    try:
        rc = main(argv)
    except SystemExit as exc:  # argparse rejects a bad flag this way
        rc = exc.code
    return rc, capsys.readouterr().err


def test_one_process_serves_calls_as_fresh_processes_do(tmp_path, monkeypatch, capsys):
    # the argument parser is built once per process and shared by every call
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.ini").write_text(SMOOTH_TINY, encoding="utf-8")
    calls = [
        ["check", "config.ini", "--seed", "3", "--quiet"],
        ["run", "config.ini", "--quiet"],
        ["run", "config.ini", "--quiet", "--seed", "3"],  # --seed belongs to check
    ]
    outputs = {
        "shared": [_this_process([*argv, "--out", f"shared{i}"], capsys)
                   for i, argv in enumerate(calls)],
        "fresh": [_fresh_process([*argv, "--out", f"fresh{i}"], tmp_path)
                  for i, argv in enumerate(calls)],
    }
    assert outputs["shared"] == outputs["fresh"]
    assert [rc for rc, _ in outputs["shared"]] == [0, 0, 2]
    for i, name in ((0, "summary.csv"), (1, "trajectory.csv"), (1, "estimates.csv")):
        shared = (tmp_path / f"shared{i}" / name).read_bytes()
        assert shared == (tmp_path / f"fresh{i}" / name).read_bytes()


WIDE_SMOOTH = """[problem]
n_el = 1024
forcing = smooth
potential = paper_exponential
u0 = zero

[scheme]
kind = bdf2

[ladder]
taus = 0.03125
"""

# four runs through main, the output directory removed before each; prints
# the minor page faults of the last three
REPEATED_RUNS = """
import resource, shutil, sys
from rothe_hvi.cli import main
config, out = sys.argv[1:]
faults = []
for _ in range(4):
    shutil.rmtree(out, ignore_errors=True)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert main(["run", config, "--out", out, "--quiet"]) == 0
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(*faults[1:])
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the policy is glibc's mallopt")
def test_a_repeated_wide_run_faults_no_pages_back_in(tmp_path):
    # each row block frees up to about a megabyte of scratch; kept in the
    # heap, the next block and the next run reuse it.  glibc's default trims
    # it, and every run faulted 300-1,100 pages back in
    (tmp_path / "wide.ini").write_text(WIDE_SMOOTH, encoding="utf-8")
    blas_one_thread = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"), "1")
    proc = subprocess.run(
        [sys.executable, "-c", REPEATED_RUNS, "wide.ini", "out"], cwd=tmp_path,
        capture_output=True, text=True, timeout=120,
        env={**os.environ, **blas_one_thread, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 0, proc.stderr
    faults = [int(word) for word in proc.stdout.split()]
    assert len(faults) == 3 and max(faults) < 100, faults


@pytest.fixture
def first_main_call():
    """Each main call of the test sets the allocator policy as a process's
    first call does, until one has set it."""
    cli._keep_freed_scratch.cache_clear()
    yield
    cli._keep_freed_scratch.cache_clear()


class _Libc:
    """A C library whose mallopt records its calls and returns ``answer``."""

    def __init__(self, answer):
        self.answer = answer
        self.calls = []

    def mallopt(self, param, value):
        self.calls.append((param, value))
        return self.answer


def _no_c_library(name):
    raise OSError("no C library")


@pytest.mark.parametrize("cdll", [_no_c_library, lambda name: object()],
                         ids=["no-c-library", "no-mallopt"])
def test_a_run_without_mallopt_writes_the_same_bytes(tmp_path, monkeypatch, first_main_call, cdll):
    rc, with_policy = run_cli(tmp_path, "run", SMOOTH_TINY, out_name="with-policy")
    cli._keep_freed_scratch.cache_clear()
    monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
    rc_without, without = run_cli(tmp_path, "run", SMOOTH_TINY, out_name="without")
    assert rc_without == rc == 0
    assert sorted(p.name for p in without.iterdir()) == sorted(p.name for p in with_policy.iterdir())
    for path in with_policy.iterdir():
        assert (without / path.name).read_bytes() == path.read_bytes()


@pytest.mark.parametrize("answer, calls", [
    (1, [(-3, 32 << 20), (-1, 64 << 20)]),
    (0, [(-3, 32 << 20)]),  # a refused mmap threshold: the trim threshold alone would freeze it
], ids=["accepted", "refused"])
def test_the_policy_is_set_on_the_first_main_call_alone(
    tmp_path, monkeypatch, first_main_call, answer, calls
):
    libc = _Libc(answer)
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: libc)
    for i in range(2):
        assert run_cli(tmp_path, "run", SMOOTH_TINY, out_name=f"out{i}")[0] == 0
    assert libc.calls == calls


@pytest.mark.parametrize("command", ["run", "study", "compare"])
@pytest.mark.parametrize(
    "problem, ladder",
    [("t_final = 1e300", ""), ("t_final = 1e-323", "taus = 5e-324")],
    ids=["huge-t_final", "reference-tau-underflows"],
)
def test_a_trajectory_too_long_to_index_exits_2_naming_t_final(
    tmp_path, capsys, command, problem, ladder
):
    text = f"[problem]\nn_el = 4\n{problem}\n\n[ladder]\n{ladder}\n"
    rc, out = run_cli(tmp_path, command, text)
    assert rc == 2
    assert "[problem] t_final" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "study", "compare"])
def test_a_trajectory_too_large_to_allocate_exits_1_naming_t_final(tmp_path, capsys, command):
    # every array these runs ask for is over 3 PiB, more than a plain mmap
    # can return on 64-bit Linux, so it is refused at once whatever the
    # overcommit setting; never test a size that could be granted
    cfg = tmp_path / "config.ini"
    cfg.write_text("[problem]\nt_final = 1e12\n", encoding="utf-8")
    out = tmp_path / "out"
    rc = main([command, str(cfg), "--out", str(out)])
    # run: 8e12 steps of tau = 0.125; study and compare fail on their first
    # reference run, 1.024e15 steps of tau = 0.03125 / 32.  A run holds no
    # trajectory: the array of trajectory size it asks for is its (N, 65)
    # forcing table
    steps, tau = (8 * 10**12, "0.125") if command == "run" else (1024 * 10**12, "0.000976562")
    nbytes = 8 * steps * 65
    detail = (f"[problem] t_final = 1e+12 at tau = {tau} takes {steps} steps whose trajectory "
              f"at [problem] n_el = 64 asks for {nbytes} bytes: more than can be allocated")
    assert rc == 1
    assert capsys.readouterr().err == f"{command} failed: {detail}\n"
    _, summary = read_csv(out / "summary.csv")
    assert summary == [[command, "FAIL", detail]]
    assert sorted(p.name for p in out.iterdir()) == ["summary.csv"]


@pytest.mark.parametrize("command", ["run", "study", "compare", "check"])
def test_a_space_too_large_to_allocate_exits_1_naming_n_el(tmp_path, capsys, monkeypatch, command):
    # assembly is made to fail as numpy's allocator would, so no test
    # allocates; n_el = 1e11 passes the config checks and then fails so
    def refuse(mesh):
        raise MemoryError(f"Unable to allocate the space of {mesh.n_el} elements")

    monkeypatch.setattr(cli, "assemble_space", refuse)
    rc, out = run_cli(tmp_path, command, "[problem]\nn_el = 100000000000\n")
    detail = "[problem] n_el = 100000000000 asks for more memory than can be allocated"
    assert rc == 1
    assert capsys.readouterr().err == ""
    _, summary = read_csv(out / "summary.csv")
    assert summary == [[command, "FAIL", detail]]
    assert sorted(p.name for p in out.iterdir()) == ["summary.csv"]


def test_a_sample_draw_too_large_to_allocate_exits_1_naming_n_samples(
    tmp_path, capsys, monkeypatch
):
    # the draw is made to fail as numpy's allocator would, so no test
    # allocates; the space of 4 elements is built, and only the draw that
    # n_samples sizes is refused
    make_rng = np.random.default_rng

    class RefusingGenerator:
        def __init__(self, seed):
            self._rng = make_rng(seed)

        def __getattr__(self, name):
            return getattr(self._rng, name)

        def uniform(self, low, high, size=None):
            if size == 10**12:
                raise MemoryError(f"Unable to allocate {8 * size} bytes")
            return self._rng.uniform(low, high, size)

    monkeypatch.setattr(np.random, "default_rng", RefusingGenerator)
    config = "[problem]\nn_el = 4\n\n[check]\nn_samples = 1000000000000\n"
    rc, out = run_cli(tmp_path, "check", config)
    detail = "[check] n_samples = 1000000000000 asks for more memory than can be allocated"
    assert rc == 1
    assert capsys.readouterr().err == ""
    _, summary = read_csv(out / "summary.csv")
    assert summary == [["check", "FAIL", detail]]
    assert sorted(p.name for p in out.iterdir()) == ["summary.csv"]


def test_poly_presets_equal_polyval_bit_for_bit():
    # one Horner loop serves the time factors (floats) and x and u0 (arrays)
    rng = np.random.default_rng(7)
    for _ in range(200):
        c = tuple(rng.normal(size=rng.integers(1, 6)) * 10.0 ** rng.integers(-3, 4))
        x, t = rng.normal(size=9) * 3.0, float(rng.normal() * 5.0)
        p = _poly(c)
        assert np.array_equal(p(x), np.polynomial.polynomial.polyval(x, c))
        assert type(p(t)) is float and p(t) == np.polynomial.polynomial.polyval(t, c)


@pytest.mark.parametrize("flag", [["--jobs", "2"], ["--seed", "1"], ["--config", "x.ini"]])
def test_run_rejects_removed_flags(tmp_path, flag):
    with pytest.raises(SystemExit) as exc:
        run_cli(tmp_path, "run", SMOOTH_TINY, *flag)
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "command, old, new, key",
    [
        ("study", "taus = 0.25,0.125", "taus = 0.25,0.125\ntau_ref = 0.3", "[ladder] tau_ref"),
        ("study", "taus = 0.25,0.125", "taus = 0.25,0.125\ntau_ref = 0", "[ladder] tau_ref"),
        # a reference no finer than the finest rung: study fitted an order of
        # -0.995 (0.5) or nan (0.125), compare one of -0.99, each a PASS
        ("study", "taus = 0.25,0.125", "taus = 0.25,0.125\ntau_ref = 0.5", "[ladder] tau_ref"),
        ("compare", "taus = 0.25,0.125", "taus = 0.25,0.125\ntau_ref = 0.5", "[ladder] tau_ref"),
        ("study", "taus = 0.25,0.125", "taus = 0.25,0.125\ntau_ref = 0.125", "[ladder] tau_ref"),
        ("compare", "taus = 0.25,0.125", "taus = 0.25,0.125\ntau_ref = 0.125", "[ladder] tau_ref"),
        ("check", "n_samples = 20", "n_samples = 0", "[check] n_samples"),
    ],
)
def test_invalid_values_exit_2_naming_the_key(tmp_path, capsys, command, old, new, key):
    rc, _ = run_cli(tmp_path, command, SMOOTH_TINY.replace(old, new))
    assert rc == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("tau", ["0", "-0.5", "nan", "inf"])
def test_a_rung_that_is_no_positive_step_is_named_as_one(tmp_path, capsys, tau):
    # not "does not divide t_final", which a step of 0 or nan does not say
    rc, _ = run_cli(tmp_path, "study", SMOOTH_TINY.replace("taus = 0.25,0.125", f"taus = {tau}"))
    assert rc == 2
    err = capsys.readouterr().err
    assert f"[ladder] taus: {float(tau)} must be > 0 and divide t_final=1.0" in err


def hard_floats() -> np.ndarray:
    """Cells whose 17 digits are hard to get right: 17-digit ties (x 10^(16-e)
    a half-integer, rounded to even), both neighbours of every power of
    ten, and subnormals."""
    rng = np.random.default_rng(11)
    ties = []
    for j in range(1, 23):  # x = odd / 2^(j+1) in [10^(16-j), 10^(17-j))
        lo = math.ceil(Fraction(10) ** (16 - j) * 2 ** (j + 1))
        hi = min(2**53, math.floor(Fraction(10) ** (17 - j) * 2 ** (j + 1)))
        odd = rng.integers(lo // 2, (hi - 1) // 2, size=8) * 2 + 1
        ties += [float(o) / 2.0 ** (j + 1) for o in odd.tolist()]
    ties = [x for x in ties if (Fraction(x) * 10 ** (16 - math.floor(math.log10(x)))).denominator == 2]
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    subnormals = rng.integers(1, 2**52, size=200, dtype=np.uint64).view(np.float64)
    cells = np.concatenate([
        [2251799813685247.75, 0.5, 2.5, 5e-324, 2.2250738585072009e-308], ties,
        powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf), subnormals,
    ])
    assert len(ties) > 100
    signs = np.where(rng.random(cells.size) < 0.5, -1.0, 1.0)
    return cells * signs


def test_float_rows_are_written_byte_for_byte_as_the_cell_formatter_writes_them(
    tmp_path, monkeypatch
):
    specials = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e308, 1.0 / 3.0, -2.5e-17]
    rng = np.random.default_rng(3)
    magnitudes = 10.0 ** rng.integers(-300, 300, size=(4, len(specials)))
    rows = np.vstack([specials, rng.normal(size=(4, len(specials))) * magnitudes])
    hard = hard_floats()
    several_blocks = np.resize(hard, (-(-3 * floatfmt.BLOCK_CELLS // 7) + 1, 7))
    tables = [rows, hard[:1].reshape(1, 1), hard[:300].reshape(1, -1),
              hard[:300].reshape(-1, 1), several_blocks, np.resize(rows, (40, 9))]
    text_rows = [
        ["a,b", np.float64(0.1), -0.0, 3, "x"],
        ["plain", np.nan, np.float64(-np.inf), True, "y,z"],
    ]
    header = [f"c{i}" for i in range(len(specials))]
    _write_csv(tmp_path / "mixed.csv", header[:5], text_rows)
    files = [("mixed.csv", header[:5], text_rows)]
    # the small tables as written, and every table through the vectorized path
    for vector_min in (floatfmt._VECTOR_MIN_CELLS, 0):
        monkeypatch.setattr(floatfmt, "_VECTOR_MIN_CELLS", vector_min)
        for i, table in enumerate(tables):
            name = f"floats{i}_{vector_min}.csv"
            cols = [f"c{j}" for j in range(table.shape[1])]
            _write_csv(tmp_path / name, cols, iter([table]))
            files.append((name, cols, list(table)))  # np.float64 cells, one at a time
    for name, hdr, cells in files:
        expected = "# schema_version=2\n" + ",".join(hdr) + "\n" + "".join(
            ",".join(_fmt(v) for v in row) + "\n" for row in cells
        )
        assert (tmp_path / name).read_bytes() == expected.encode("utf-8"), name
    assert [_fmt(v) for v in rows[0]] == [
        "0", "-0", "nan", "inf", "-inf", "4.9406564584124654e-324",
        "1e+308", "0.33333333333333331", "-2.4999999999999999e-17",
    ]
    assert _fmt(2251799813685247.75) == "2251799813685247.8"


@pytest.mark.parametrize(
    "text", ["[DEFAULT]\nn_el = 5\n", "[DEFAULT]\ntol = 1e-3\n[solver]\n"], ids=["alone", "leaking"]
)
def test_keys_under_the_default_section_are_rejected(tmp_path, capsys, text):
    rc, _ = run_cli(tmp_path, "run", text)
    assert rc == 2
    assert "unknown section [DEFAULT]" in capsys.readouterr().err


def tiny(problem="", taus="0.25,0.125", coercivity_taus="0.1"):
    """A small config with the given [problem] lines and [ladder]/[check] values."""
    return (
        f"[problem]\nn_el = 8\n{problem}\n\n[ladder]\ntaus = {taus}\n\n"
        f"[check]\nn_samples = 20\nn_fuzz = 50\ncoercivity_taus = {coercivity_taus}\n"
    )


OUT_OF_RANGE = [
    *(
        pytest.param(tiny(lines), f"[problem] {key}", id=lines)
        for lines, key in [
            ("alpha = -1", "alpha"),
            ("alpha = nan", "alpha"),
            ("beta = -1", "beta"),
            ("a_growth = -1", "a_growth"),
            ("b_growth = 0", "b_growth"),
            ("potential = paper_exponential\npotential_d = -1", "potential_d"),
            ("potential = zero\npotential_d = -1", "potential_d"),
            ("potential = linear_robin\npotential_k = -1", "potential_k"),
            ("potential = nonconvex_piecewise\nncvx_jump = 0", "ncvx_jump"),
            ("potential = zero\nncvx_jump = 0", "ncvx_jump"),
            ("forcing = poly\nf0_t_coeffs = ,", "f0_t_coeffs"),
            ("forcing = poly\nf0_x_coeffs = 1e308,1e308", "f0_x_coeffs"),
            ("forcing = poly\nf0_x_coeffs = 1,nan", "f0_x_coeffs"),
            ("u0 = poly\nu0_coeffs = ,", "u0_coeffs"),
            # non-finite constants: a traceback from make_initial, or a
            # growth certificate that passes on a nan margin
            ("u0 = constant\nu0_value = inf", "u0_value"),
            ("u0 = poly\nu0_coeffs = 1e308,1e308", "u0_coeffs"),
            ("potential_d = inf", "potential_d"),
            ("ncvx_tail_slope = inf", "ncvx_tail_slope"),
            ("potential = linear_robin\npotential_k = inf", "potential_k"),
            ("b_growth = inf", "b_growth"),
        ]
    ),
    pytest.param(tiny(coercivity_taus="nan"), "[check] coercivity_taus", id="coercivity_taus"),
    pytest.param(tiny(coercivity_taus=""), "[check] coercivity_taus", id="coercivity_taus empty"),
    pytest.param(tiny().replace("n_fuzz = 50", "n_fuzz = -5"), "[check] n_fuzz", id="n_fuzz = -5"),
    pytest.param(tiny(taus="0.25,0.125\ntau_ref = 1"), "[ladder] tau_ref", id="tau_ref = 1"),
    pytest.param(tiny(taus="1.0,0.5"), "[ladder] taus", id="taus = 1.0,0.5"),
    # every step residual would pass an infinite tolerance
    pytest.param(tiny() + "\n[solver]\ntol = inf\n", "[solver] tol", id="tol = inf"),
]


@pytest.mark.parametrize("command", ["run", "study", "compare", "check"])
@pytest.mark.parametrize("text, key", OUT_OF_RANGE)
def test_values_the_commands_cannot_build_exit_2_naming_the_key(
    tmp_path, capsys, command, text, key
):
    rc, _ = run_cli(tmp_path, command, text)
    assert rc == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("command, rc_expected", [("run", 0), ("study", 0), ("compare", 2)])
def test_a_one_step_ladder_runs_with_the_one_step_scheme_only(
    tmp_path, capsys, command, rc_expected
):
    text = tiny(taus="1.0,0.5") + "[scheme]\nkind = backward_euler\n"
    rc, _ = run_cli(tmp_path, command, text)
    assert rc == rc_expected
    if rc_expected == 2:  # compare always runs the two-step scheme too
        assert "[ladder] taus" in capsys.readouterr().err


def test_compare_on_the_default_config_fits_nan_orders_without_warnings(tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # log(0) in an unmasked fit
        rc, out = run_cli(tmp_path, "compare", "")
    assert rc == 0
    _, rows = read_csv(out / "orders.csv")
    assert rows == [["bdf2", "nan", "nan"], ["backward_euler", "nan", "nan"]]


def test_output_dir_is_the_flag_then_the_config_key_then_rothe_out(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("ROTHE_HVI_OUT", str(tmp_path / "env"))  # not read
    (tmp_path / "a.ini").write_text(SMOOTH_TINY + "[output]\ndir = from_config\n", encoding="utf-8")
    (tmp_path / "b.ini").write_text(SMOOTH_TINY, encoding="utf-8")
    assert main(["run", "a.ini", "--out", "from_flag", "--quiet"]) == 0
    assert main(["run", "a.ini", "--quiet"]) == 0
    assert main(["run", "b.ini", "--quiet"]) == 0
    for name in ("from_flag", "from_config", "rothe_out"):
        assert (tmp_path / name / "trajectory.csv").is_file()
    assert not (tmp_path / "env").exists()


@pytest.mark.parametrize("kind", ["missing", "directory", "not_utf8"])
def test_a_config_that_cannot_be_read_exits_2_and_writes_nothing(tmp_path, capsys, kind):
    cfg = tmp_path / "config.ini"
    if kind == "directory":
        cfg.mkdir()
    elif kind == "not_utf8":
        cfg.write_bytes("[problem]\n# caf\xe9\nn_el = 4\n".encode("latin-1"))
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err.startswith("config error: cannot read config: ")
    assert not out.exists()


def test_a_str_naming_a_missing_file_is_reported_as_unreadable(tmp_path, monkeypatch):
    # config text has a section header, so a str without "[" is a path
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ConfigError, match=r"^cannot read config: .*no_such_config\.ini"):
        parse_config("no_such_config.ini")
    Path("real.ini").write_text("[problem]\nn_el = 5\n", encoding="utf-8")
    assert parse_config("real.ini").n_el == 5
    assert parse_config("[problem]\nn_el = 6\n").n_el == 6


@pytest.mark.parametrize("name, rows", [("trajectory.csv", 150), ("trajectory.csv.partial", 97)])
def test_a_trajectory_spanning_several_row_blocks_keeps_its_bytes(tmp_path, name, rows):
    # 1,003 columns: a row block of the run holds 16 rows, so 150 rows take
    # ten blocks; a failed run writes the completed prefix, 97 of the 151
    # times, and then raises
    rng = np.random.default_rng(5)
    dim, n_steps = 1000, 150
    full = np.zeros((rows, dim + 3))
    full[:, 0] = np.linspace(0.0, 1.0, n_steps + 1)[:rows]
    full[:, 1:-2] = rng.normal(size=(rows, dim)) * 10.0 ** rng.integers(-20, 20, size=(rows, 1))
    full[1:, -2] = rng.normal(size=rows - 1)
    full[1:, -1] = rng.uniform(0.0, 1e-10, size=rows - 1)
    per_block = stepper.block_rows(dim + 3)
    assert per_block == 16

    def blocks():
        for start in range(0, rows, per_block):
            yield full[start : start + per_block].copy()
        if rows <= n_steps:
            raise stepper.StepFailureError(rows, "non-finite forcing average", None)

    header = ["t", *(f"u{i}" for i in range(dim)), "xi0", "residual"]
    if rows <= n_steps:
        with pytest.raises(stepper.StepFailureError):
            _write_csv(tmp_path / name, header, blocks())
    else:
        _write_csv(tmp_path / name, header, blocks())
    expected = "# schema_version=2\n" + ",".join(header) + "\n" + "".join(
        ",".join(_fmt(v) for v in row) + "\n" for row in full.tolist()
    )
    assert (tmp_path / name).read_bytes() == expected.encode("utf-8")


def _prefix_bytes(exc: stepper.StepFailureError, grid: stepper.TimeGrid) -> bytes:
    """trajectory.csv.partial of a failed run's prefix, cell by cell."""
    rows = np.zeros((len(exc.partial_u), exc.partial_u.shape[1] + 3))
    rows[:, 0] = grid.times()[: len(rows)]
    rows[:, 1:-2] = exc.partial_u
    rows[1:, -2:-1] = exc.partial_xi
    rows[1:, -1] = exc.partial_residuals
    header = ["t", *(f"u{i}" for i in range(rows.shape[1] - 3)), "xi0", "residual"]
    text = "# schema_version=2\n" + ",".join(header) + "\n"
    return (text + "".join(",".join(_fmt(v) for v in row) + "\n" for row in rows.tolist())).encode()


@pytest.mark.parametrize("step", [240, 300], ids=["at_a_block_boundary", "in_a_block"])
def test_a_run_that_fails_leaves_the_completed_rows_of_every_block(tmp_path, monkeypatch, step):
    # n_el = 64: a row of the run is 68 cells, a block 240 rows.  The load
    # turns infinite at t = (step - 1) tau, so the forcing average of
    # ``step`` is the first non-finite one: at 240 the first step of the
    # second block fails, at 300 a step inside it
    n_steps = 512
    problem = fem_problem(
        64, LinearRobin(1.0), lambda t: np.where(t < (step - 1) / n_steps, 1.0, np.inf),
        one, zero, zero,
    )
    assert stepper.block_rows(68) == 240
    grid = stepper.TimeGrid(1.0, n_steps)
    with pytest.raises(stepper.StepFailureError) as info:
        stepper.run_rothe(problem, grid)
    assert info.value.step == step
    monkeypatch.setattr(cli, "build_problem", lambda cfg: problem)
    rc, out = run_cli(tmp_path, "run", f"[ladder]\ntaus = {1 / n_steps!r}\n")
    assert rc == 1
    assert sorted(p.name for p in out.iterdir()) == ["summary.csv", "trajectory.csv.partial"]
    assert read_csv(out / "summary.csv")[1] == [
        ["run", "FAIL", f"step {step} failed: non-finite forcing average"]
    ]
    assert (out / "trajectory.csv.partial").read_bytes() == _prefix_bytes(info.value, grid)


# n_el = 4 at 64 cells a block: a row is 8 cells and a block 8 rows, so
# block 0 holds u^0, step 1 and the segment of steps 2-7, block 1 the
# segment of steps 8-15 and block 2 that of steps 16-20
@pytest.mark.parametrize("step", [2, 4, 7, 8, 20], ids=[
    "a_segments_first_row", "mid_segment", "a_segments_last_row", "a_blocks_first_row",
    "the_runs_last_row",
])
def test_a_step_that_fails_in_its_segment_leaves_the_single_step_apis_prefix(
    tmp_path, monkeypatch, step
):
    # the boundary solve of the step-th step finds no root, in the run's
    # segment kernel and through the single-step API alike
    monkeypatch.setattr(stepper, "BLOCK_CELLS", 64)
    roots, calls = inclusion_solver._BoundaryInclusion.roots, []

    def failing(self, target, warm):
        calls.append(None)
        return ([], 7) if len(calls) == step else roots(self, target, warm)

    monkeypatch.setattr(inclusion_solver._BoundaryInclusion, "roots", failing)
    text = "[problem]\nn_el = 4\nforcing = smooth\n\n[ladder]\ntaus = 0.05\n"
    rc, out = run_cli(tmp_path, "run", text)
    calls.clear()
    problem, grid = cli.build_problem(parse_config(text)), stepper.TimeGrid(1.0, 20)
    f_avg = stepper.average_forcing(problem.forcing, grid)
    one_step = problem.step_problem(1.0, grid.tau)
    two_step = problem.step_problem(2.0 / 3.0, grid.tau)
    u, xi, residuals = [problem.u0], [], []
    with pytest.raises(stepper.NonConvergenceError) as info:
        for n in range(1, grid.N + 1):
            if n == 1:
                u_n, xi_n, report = stepper.initial_step(one_step, u[0], f_avg[0])
            else:
                u_n, xi_n, report = stepper.bdf2_step(two_step, u[-1], u[-2], f_avg[n - 1])
            u.append(u_n)
            xi.append(xi_n)
            residuals.append(report.residual / (one_step if n == 1 else two_step).flux_coef)
    assert len(u) == step
    prefix = stepper.StepFailureError(step, str(info.value), info.value.report,
                                      np.array(u), np.array(xi), np.array(residuals))
    assert rc == 1
    assert read_csv(out / "summary.csv")[1] == [["run", "FAIL", f"step {step} failed: {info.value}"]]
    assert (out / "trajectory.csv.partial").read_bytes() == _prefix_bytes(prefix, grid)


def test_compare_reduces_no_estimates_and_study_one_a_rung(tmp_path, monkeypatch):
    # compare writes no ladder table, so it keeps only the last state of
    # each run; study reduces each of its two rungs' estimates
    built, sums = [], diagnostics.EstimateSums

    class Counting(sums):
        def __init__(self, *args, **kwargs):
            built.append(None)
            super().__init__(*args, **kwargs)

    for module in (diagnostics, cli):
        monkeypatch.setattr(module, "EstimateSums", Counting)
    for command, count in (("compare", 0), ("study", 2)):
        built.clear()
        assert run_cli(tmp_path, command, SMOOTH_TINY, out_name=command)[0] == 0
        assert len(built) == count, command


@pytest.mark.parametrize("command, text, tau, minor", [
    ("run", "n_el = 64\nt_final = 1e14\n\n[ladder]\ntaus = 5e13", "5e+13", 65),
    ("study", "n_el = 4\nt_final = 1e16\n\n[ladder]\ntaus = 5e15", "5e+15", 5),
], ids=["run", "study"])
def test_a_step_operator_float64_cannot_factor_fails_its_step(tmp_path, command, text, tau, minor):
    # tau K swamps M in M + c tau K, which then rounds to a singular matrix
    rc, out = run_cli(tmp_path, command, f"[problem]\n{text}\n")
    detail = (f"step 1 failed: the step operator at tau = {tau} cannot be factored in float64: "
              f"{minor}-th leading minor of the matrix is not positive definite")
    assert rc == 1
    assert read_csv(out / "summary.csv")[1] == [[command, "FAIL", detail]]
    written = {"run": ["summary.csv", "trajectory.csv.partial"], "study": ["summary.csv"]}
    assert sorted(p.name for p in out.iterdir()) == written[command]
    if command == "run":  # the initial state alone
        assert len(read_csv(out / "trajectory.csv.partial")[1]) == 1


def test_a_run_holds_its_forcing_table_and_no_trajectory(tmp_path):
    # n_el = 8192 and 256 steps: the trajectory and the forcing table are
    # 16 MiB each, so a run that also held the trajectory would peak above
    # two tables
    cfg = parse_config("[problem]\nn_el = 8192\nforcing = smooth\npotential = paper_exponential"
                       "\n\n[ladder]\ntaus = 0.00390625\n")
    table = 8 * 256 * 8193
    tracemalloc.start()
    try:
        rows = cli.cmd_run(cfg, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows[0][:2] == ("run", True)
    assert len(read_csv(tmp_path / "trajectory.csv")[1]) == 257
    assert peak < 1.25 * table


@pytest.mark.parametrize("out_name", ["blocker", "blocker/out"], ids=["a_file", "under_a_file"])
def test_an_output_directory_that_cannot_be_made_exits_2(tmp_path, capsys, out_name):
    (tmp_path / "blocker").write_text("not a directory\n", encoding="utf-8")
    rc, _ = run_cli(tmp_path, "run", SMOOTH_TINY, out_name=out_name)
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: cannot create output directory: ")
    assert (tmp_path / "blocker").read_text(encoding="utf-8") == "not a directory\n"
    assert not list(tmp_path.rglob("summary.csv"))


@pytest.mark.parametrize(
    "command, name",
    [("run", "trajectory.csv"), ("study", "ladder.csv"), ("check", "summary.csv")],
)
def test_an_output_file_that_cannot_be_written_exits_2_naming_it(tmp_path, capsys, command, name):
    # a directory holds the file's name, so opening it for writing fails
    (tmp_path / "out" / name).mkdir(parents=True)
    rc, out = run_cli(tmp_path, command, SMOOTH_TINY)
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write output: ")
    assert captured.err.count("\n") == 1 and str(out / name) in captured.err
    assert (out / name).is_dir()


def test_no_command_imports_scipy_linalg_or_warns(tmp_path):
    # a fresh interpreter, every warning an error: the kernels come from
    # scipy's compiled modules, not from the scipy.linalg package
    (tmp_path / "config.ini").write_text(SMOOTH_TINY, encoding="utf-8")
    src = Path(cli.__file__).resolve().parents[1]
    script = f"""
import sys
sys.path.insert(0, {str(src)!r})
from rothe_hvi import cli
for command in ("run", "study", "compare", "check"):
    assert cli.main([command, "config.ini", "--out", command, "--quiet"]) == 0, command
print("scipy.linalg" in sys.modules)
"""
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", script], cwd=tmp_path, capture_output=True,
        text=True, timeout=120,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


def _section_of(key: str) -> str:
    return next(section for section, keys in cli._SCHEMA.items() if key in keys)


def test_the_converter_table_covers_every_field():
    # one converter per field, picked once from its type when the module loads
    entries = [entry for keys in cli._SCHEMA.values() for entry in keys.values()]
    assert sorted(name for name, _ in entries) == sorted(f.name for f in fields(ExperimentConfig))
    for cfg in (ExperimentConfig(), EVERY_FIELD_CHANGED):
        for name, convert in entries:
            value = getattr(cfg, name)
            assert convert(cli._fmt_value(name, value)) == value, name


# a value unlike the default in every field, valid together
EVERY_FIELD_CHANGED = ExperimentConfig(
    n_el=32, t_final=2.0, forcing="poly", f0_value=2.5, fn_value=0.5,
    f0_t_coeffs=(1.0, 2.0), f0_x_coeffs=(0.5, -1.0, 3.0), fn_t_coeffs=(0.25,),
    potential="nonconvex_piecewise", potential_d=2.0, potential_k=3.0,
    paper_literal_subdiff=True, ncvx_jump=1.5, ncvx_drop_slope=8.0, ncvx_drop_width=0.5,
    ncvx_tail_slope=2.0, u0="poly", u0_value=1.5, u0_coeffs=(0.0, 1.0),
    alpha=0.5, beta=2.0, a_growth=0.1, b_growth=3.0, scheme="backward_euler",
    taus=(0.5, 0.25), tau_ref=0.0625, tol=1e-9, n_samples=10, n_fuzz=20,
    coercivity_taus=(0.2, 0.1), output_dir="somewhere",
)


@pytest.mark.parametrize("text", [
    render_config(EVERY_FIELD_CHANGED),
    "# a comment\n[problem]\nn_el = 5  ; inline\n\n[ladder]\ntaus = 0.5\n",
], ids=["plain", "commented"])
def test_a_config_file_that_starts_with_a_bom_parses_as_without_it(tmp_path, text):
    plain, bom = tmp_path / "plain.ini", tmp_path / "bom.ini"
    plain.write_text(text, encoding="utf-8")
    bom.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert parse_config(bom) == parse_config(plain) == parse_config(text)


def test_a_config_unlike_the_defaults_in_every_field_round_trips():
    defaults = ExperimentConfig()
    for f in fields(ExperimentConfig):
        assert getattr(EVERY_FIELD_CHANGED, f.name) != getattr(defaults, f.name), f.name
    text = render_config(EVERY_FIELD_CHANGED)
    assert parse_config(text) == EVERY_FIELD_CHANGED
    assert render_config(parse_config(text)) == text


@pytest.mark.parametrize("key, raw, value", [
    ("alpha", "default", None), ("b_growth", "DEFAULT", None), ("beta", "Default", None),
    ("tau_ref", "auto", None), ("tau_ref", "none", None), ("tau_ref", "AUTO", None),
    ("paper_literal_subdiff", "true", True), ("paper_literal_subdiff", "Yes", True),
    ("paper_literal_subdiff", "ON", True), ("paper_literal_subdiff", "1", True),
    ("paper_literal_subdiff", "false", False), ("paper_literal_subdiff", "NO", False),
    ("paper_literal_subdiff", "off", False), ("paper_literal_subdiff", "0", False),
    ("taus", "0.5, 0.25,", (0.5, 0.25)), ("u0_coeffs", " 2 ", (2.0,)),
    ("n_samples", "12", 12), ("tol", "1e-8", 1e-8), ("kind", "backward_euler", "backward_euler"),
])
def test_each_word_parses_to_its_value_and_renders_back(key, raw, value):
    cfg = parse_config(f"[{_section_of(key)}]\n{key} = {raw}\n")
    name = cli._SCHEMA[_section_of(key)][key][0]
    assert getattr(cfg, name) == value
    assert parse_config(render_config(cfg)) == cfg


@pytest.mark.parametrize("key, raw, message", [
    ("alpha", "auto", "[problem] alpha: could not convert string to float: 'auto'"),
    ("tau_ref", "default", "[ladder] tau_ref: could not convert string to float: 'default'"),
    ("paper_literal_subdiff", "maybe", "[problem] paper_literal_subdiff: not a boolean: 'maybe'"),
    ("n_el", "8.0", "[problem] n_el: invalid literal for int() with base 10: '8.0'"),
    ("taus", "0.5,x", "[ladder] taus: could not convert string to float: 'x'"),
])
def test_each_converter_names_the_key_of_a_value_it_cannot_read(key, raw, message):
    with pytest.raises(ConfigError) as info:
        parse_config(f"[{_section_of(key)}]\n{key} = {raw}\n")
    assert str(info.value) == message


_CONFIG_LINES = [
    "[problem]", "[ladder]", "[scheme]", "[DEFAULT]", "[problem]  ", " [ladder]", "[pro]blem]",
    "[]", "[ a ]", "[ladder] x", "n_el = 8", "N_EL=9", "n_el: 7", "taus = 0.5,0.25",
    "tol=1e-9 ", "kind = bdf2", "t_final\t=\t2.0", "dir =", "dir = ", "x = 1 # c", "x = 1;c",
    "= 3", "n_el", "n el = 3", "  n_el = 4", "\tmore", "# comment", "; comment", "", "   ",
    "n_el = 3\r", "u0_coeffs = 1,\x0c2", "potential_d = 1e-3:2", "f0_value\x0b= 2",
]
# lines of the plain form, in any order after a first header; a second
# line declaring the same header or key takes configparser's path
_PLAIN_LINES = [
    "[ladder]", "[scheme]", "[check]", "[ a ]", "[ladder]  ", "n_el = 8", "N_EL=9", "n_el: 7",
    "taus = 0.5,0.25", "tol=1e-9 ", "kind = bdf2", "t_final\t=\t2.0", "dir =", "dir = ",
    "n_samples = 12", "potential_d = 1e-3:2", "u0_coeffs = 1,\x0c2", "", "   ",
]


def _plain_key(line: str) -> str:
    """What a line declares: its header, its lower-cased key, or itself."""
    return line.strip() if line.startswith("[") else re.split("[=:]", line)[0].strip().lower()


_ENDS = st.sampled_from(["", "\n"])
CONFIG_TEXTS = st.one_of(
    st.builds(lambda lines, end: "\n".join(["[problem]", *lines]) + end,
              st.lists(st.sampled_from(_PLAIN_LINES), max_size=8, unique_by=_plain_key), _ENDS),
    st.builds(lambda lines, end: "\n".join(lines) + end,
              st.lists(st.sampled_from(_CONFIG_LINES), max_size=10), _ENDS),
)


def _configparser_sections(lines):
    cp = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#", ";"))
    try:
        cp.read_file(lines, source="<lines>")
    except configparser.Error as exc:
        return type(exc).__name__
    return cp.defaults(), {section: dict(cp.items(section, raw=True)) for section in cp.sections()}


@given(CONFIG_TEXTS)
@example("[problem]\nn_el = 8\n\n[ladder]\ntaus = 0.5\n")
def test_the_plain_reader_reads_what_configparser_reads(text):
    lines = list(io.StringIO(text))
    plain = cli._plain_sections(lines)
    if plain is not None:
        assert _configparser_sections(lines) == ({}, plain)


def _config_outcome(text):
    try:
        return parse_config(text)
    except ConfigError as exc:
        return str(exc)


@given(CONFIG_TEXTS)
def test_a_config_parses_alike_with_and_without_the_plain_reader(text):
    text = "[problem]\n" + text  # config text, not a path
    with mock.patch.object(cli, "_plain_sections", lambda lines: None):
        through_configparser = _config_outcome(text)
    assert _config_outcome(text) == through_configparser


def test_canonical_and_benchmark_configs_take_the_plain_reader():
    texts = [render_config(ExperimentConfig()), render_config(EVERY_FIELD_CHANGED),
             "[problem]\nn_el = 64\nforcing = constant\nf0_value = 3.0\n\n[scheme]\n"
             "kind = bdf2\n\n[ladder]\ntaus = 0.25\n"]
    for text in texts:
        assert cli._plain_sections(list(io.StringIO(text))) is not None
