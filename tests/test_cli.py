from __future__ import annotations

import math
import os
import re
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from rothe_hvi import cli, floatfmt
from rothe_hvi.cli import (
    ConfigError, ExperimentConfig, _fmt, _poly, _write_csv, _write_trajectory, main, parse_config,
    render_config,
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
    # reference run, 1.024e15 steps of tau = 0.03125 / 32
    steps, tau = (8 * 10**12, "0.125") if command == "run" else (1024 * 10**12, "0.000976562")
    nbytes = 8 * ((steps + 1) * 65 + steps * (1 + 65 + 1))
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
        ("check", "n_samples = 20", "n_samples = 0", "[check] n_samples"),
    ],
)
def test_invalid_values_exit_2_naming_the_key(tmp_path, capsys, command, old, new, key):
    rc, _ = run_cli(tmp_path, command, SMOOTH_TINY.replace(old, new))
    assert rc == 2
    assert key in capsys.readouterr().err


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
            _write_csv(tmp_path / name, cols, table)
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
        ]
    ),
    pytest.param(tiny(coercivity_taus="nan"), "[check] coercivity_taus", id="coercivity_taus"),
    pytest.param(tiny(coercivity_taus=""), "[check] coercivity_taus", id="coercivity_taus empty"),
    pytest.param(tiny().replace("n_fuzz = 50", "n_fuzz = -5"), "[check] n_fuzz", id="n_fuzz = -5"),
    pytest.param(tiny(taus="0.25,0.125\ntau_ref = 1"), "[ladder] tau_ref", id="tau_ref = 1"),
    pytest.param(tiny(taus="1.0,0.5"), "[ladder] taus", id="taus = 1.0,0.5"),
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
    # 1,003 columns: a row block holds 65 rows, so 150 rows take three blocks;
    # a failed run writes the completed prefix, 97 of the 151 times
    rng = np.random.default_rng(5)
    dim, n_steps = 1000, 150
    times = np.linspace(0.0, 1.0, n_steps + 1)
    u = rng.normal(size=(rows, dim)) * 10.0 ** rng.integers(-20, 20, size=(rows, 1))
    xi = rng.normal(size=(rows - 1, 1))
    residuals = rng.uniform(0.0, 1e-10, size=rows - 1)
    _write_trajectory(tmp_path / name, times, u, xi, residuals)
    full = np.zeros((rows, dim + 3))
    full[:, 0] = times[:rows]
    full[:, 1:-2] = u
    full[1:, -2:-1] = xi
    full[1:, -1] = residuals
    header = ["t", *(f"u{i}" for i in range(dim)), "xi0", "residual"]
    expected = "# schema_version=2\n" + ",".join(header) + "\n" + "".join(
        ",".join(_fmt(v) for v in row) + "\n" for row in full.tolist()
    )
    assert (tmp_path / name).read_bytes() == expected.encode("utf-8")


@pytest.mark.parametrize("out_name", ["blocker", "blocker/out"], ids=["a_file", "under_a_file"])
def test_an_output_directory_that_cannot_be_made_exits_2(tmp_path, capsys, out_name):
    (tmp_path / "blocker").write_text("not a directory\n", encoding="utf-8")
    rc, _ = run_cli(tmp_path, "run", SMOOTH_TINY, out_name=out_name)
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: cannot create output directory: ")
    assert (tmp_path / "blocker").read_text(encoding="utf-8") == "not a directory\n"
    assert not list(tmp_path.rglob("summary.csv"))
