"""Configuration-driven command line front end.

Subcommands
-----------
run      : one run at the coarsest ladder step; writes its trajectory
           and its estimate report.
study    : full tau ladder with a fine reference run; writes the ladder
           table, terminal-time errors, fitted order and plot series.
compare  : both schemes on the same ladder against both a two-step and a
           one-step fine reference; writes side-by-side order tables.
check    : hypothesis certificates (operator bounds, flux growth, step
           coercivity, discrete identities).

No command holds a trajectory.  A run is the row blocks that
`stepper.run_blocks` yields, and each is read as it comes: `run` writes
each block to ``trajectory.csv.partial`` and feeds it to the estimate
reducer (`diagnostics.EstimateSums`) in the same pass, then renames the
file to ``trajectory.csv``; `study` keeps, of each ladder run, its
estimate report and its last state u^N, and `compare`, which writes no
estimates, keeps of each run its last state alone, as both commands do of
each reference run.  What a run holds besides one block is its (N, dim)
forcing table and a few floats a step.

Each command computes and writes its data files and returns its summary
rows, ``(name, ok, detail)``; `main` alone reports them.  It writes
``summary.csv`` in every case that gets past the config, with columns
name, status (PASS or FAIL) and detail: one row per command, or one per
certificate for `check`.  A failed time step (``step N failed: <reason>``),
a run too long to allocate or any other allocation that fails, such as a
space too large to assemble, becomes the one FAIL row of its command; a
failed step of `run` leaves the completed steps in
``trajectory.csv.partial``, and a run too long to allocate fails before
any file is written.  Unless ``--quiet``, each row is printed as
``<name> ok: <detail>`` on stdout or ``<name> failed: <detail>`` on
stderr.  The exit code is 0 when every row passed, 1 when a run or a
certificate failed, and 2 for a usage or config error, such as a config
that cannot be read, a negative ``--seed`` or an output directory that
cannot be made; it is printed on stderr and writes no output.  An output
file that cannot be written, such as one whose name a directory holds,
also exits 2, with one ``error: cannot write output: <reason>`` line on
stderr naming the file; the files written before it remain, and no
summary row is printed.

Configs are flat INI files whose schema is derived from `ExperimentConfig`:
its fields, in order, are the keys, their types drive parsing, and field
metadata marks where each section starts.  Each field's converter (the
words for None, the bool words, a comma-separated tuple or the plain type)
is picked from its type once, when the module loads.  A config in the
plain form that `render_config` writes (headers and ``key = value`` lines,
no comments or continuation lines) is read line by line to the sections
and raw values configparser would give; any other text goes through
configparser.  Unknown sections (`[DEFAULT]` included) and keys are
rejected, and so are values outside what the commands can build or run.
The config file is the one positional argument; the output directory is
`--out`, else `[output] dir`, else `rothe_out`.  `render_config` emits the
canonical form whose serialize/parse round trip is byte-identical.

All CSV output starts with a `# schema_version=2` comment line and writes
every float exactly as ``'%.17g' % x``.  A float table, such as
``trajectory.csv``, goes through `floatfmt.g17_lines`, which yields those
bytes a block of cells at a time; how it decides them is stated there.  CSV
files are written through a binary handle, so those ASCII blocks reach the
file as they are.  ``trajectory.csv`` is written a row block of the run at a
time, as the run yields it.  Estimate tables carry one interpolant-gap
column, `gap_closed_form`, the exact squared L2(0,T;V*) gap.  Only `check`
draws random samples, seeded by `--seed`.

The first `main` call of a process sets glibc's allocator policy, where the
C library has ``mallopt``: the mmap threshold at 32 MiB and the trim
threshold at 64 MiB, the ceiling of glibc's own dynamic rule and twice it.
A row block's scratch, up to about a megabyte freed at the block's end,
then stays in the heap for the next block, where glibc's default trims it
and the next block faults its pages back in; larger arrays are still mapped
and returned.  Setting the trim threshold or ``M_TOP_PAD`` alone would
freeze glibc's mmap threshold at 128 KiB, and every larger array would be
mapped afresh, so the trim threshold is set only once the mmap threshold
took.  The policy is process-wide, and a later call leaves it as it is, so
a process that calls `main` many times pays for it once.
"""

from __future__ import annotations

import argparse
import configparser
import ctypes
import functools
import io
import math
import os
import re
import sys
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field, fields, replace
from itertools import chain
from pathlib import Path
from typing import Callable, Optional, Sequence, get_args, get_origin, get_type_hints

import numpy as np

from .diagnostics import (
    QUANTITY_FIELDS,
    EstimateSums,
    bdf2_identity_gap,
    bdf2_inequality_slack,
    fitted_order,
    tau_ladder_study,
)
from .fem1d import Mesh1D, assemble_space, make_initial, separable_load
from .floatfmt import g17_lines
from .galerkin import GalerkinSpace, check_hypotheses_A
from .oracle import reference_solution
from .potentials import (
    BoundaryFunctional,
    LinearRobin,
    NonconvexPiecewise,
    PaperExponential,
    ScalarPotential,
    ZeroPotential,
    check_growth,
)
from .stepper import (
    BACKWARD_EULER,
    BDF2,
    RotheProblem,
    StepFailureError,
    TimeGrid,
    TrajectoryMemoryError,
    check_step_coercivity,
    final_state,
    run_blocks,
)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "parse_config",
    "render_config",
    "build_problem",
    "cmd_run",
    "cmd_study",
    "cmd_compare",
    "cmd_check",
    "main",
]

SCHEMA_VERSION = 2


class ConfigError(ValueError):
    """Malformed configuration; message names the offending section/key."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment.  The fields, in order, are the config keys, and their
    types drive parsing: a field with a ``section`` in its metadata opens
    that section, and the fields after it belong to it too."""

    n_el: int = field(default=64, metadata={"section": "problem"})
    t_final: float = 1.0
    forcing: str = "zero"
    f0_value: float = 1.0
    fn_value: float = 0.0
    f0_t_coeffs: tuple[float, ...] = (1.0,)
    f0_x_coeffs: tuple[float, ...] = (1.0,)
    fn_t_coeffs: tuple[float, ...] = (0.0,)
    potential: str = "zero"
    potential_d: float = 1.0
    potential_k: float = 1.0
    paper_literal_subdiff: bool = False
    ncvx_jump: float = 1.0
    ncvx_drop_slope: float = 4.0
    ncvx_drop_width: float = 1.0
    ncvx_tail_slope: float = 1.0
    u0: str = "zero"
    u0_value: float = 0.0
    u0_coeffs: tuple[float, ...] = (0.0,)
    alpha: Optional[float] = None  # None -> the operator's own constant, likewise below
    beta: Optional[float] = None
    a_growth: Optional[float] = None
    b_growth: Optional[float] = None
    scheme: str = field(default=BDF2, metadata={"section": "scheme"})
    taus: tuple[float, ...] = field(
        default=(0.125, 0.0625, 0.03125), metadata={"section": "ladder"}
    )
    tau_ref: Optional[float] = None  # None -> min(taus) / 32
    tol: float = field(default=1e-10, metadata={"section": "solver"})
    n_samples: int = field(default=1000, metadata={"section": "check"})
    n_fuzz: int = 2000
    coercivity_taus: tuple[float, ...] = (0.1, 0.05, 0.01)
    output_dir: str = field(default="", metadata={"section": "output"})

    def reference_tau(self) -> float:
        return self.tau_ref if self.tau_ref is not None else min(self.taus) / 32.0


_FORCING_NAMES = ("zero", "constant", "smooth", "poly")
_POTENTIAL_NAMES = ("zero", "paper_exponential", "linear_robin", "nonconvex_piecewise")
_U0_NAMES = ("zero", "constant", "poly")
_POSITIVE = ("potential_d", "ncvx_jump", "ncvx_drop_slope", "ncvx_drop_width", "alpha", "b_growth")
_NONNEGATIVE = ("ncvx_tail_slope", "beta", "a_growth")
_MAX_ARRAY_VALUES = np.iinfo(np.intp).max // 8  # float64 values one numpy array can index

# the only irregular facts of the layout: the keys named unlike their field,
# and the words for None (case-insensitive on input; the first is written)
_KEYS = {"scheme": "kind", "output_dir": "dir"}
_NONE_WORDS = {"tau_ref": ("auto", "none")}  # every other Optional field: "default"


def _parse_bool(raw: str) -> bool:
    if raw.lower() in ("true", "1", "yes", "on"):
        return True
    if raw.lower() in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _converter(name: str, hint) -> Callable[[str], object]:
    """The parser of a raw value of the field ``name`` of type ``hint``:
    ``raw`` -> value, ValueError if it is none."""
    if type(None) in get_args(hint):  # Optional[X]
        words = _NONE_WORDS.get(name, ("default",))
        convert = _converter(name, get_args(hint)[0])
        return lambda raw: None if raw.lower() in words else convert(raw)
    if hint is bool:
        return _parse_bool
    if get_origin(hint) is tuple:
        item = get_args(hint)[0]
        return lambda raw: tuple(item(x) for x in raw.split(",") if x.strip())
    return hint


def _layout() -> dict[str, dict[str, tuple[str, Callable[[str], object]]]]:
    """section -> key -> (field name, converter of its raw value), in field
    order; each converter is picked once, from the field's type."""
    hints = get_type_hints(ExperimentConfig)
    layout: dict[str, dict[str, tuple[str, Callable[[str], object]]]] = {}
    section = ""
    for f in fields(ExperimentConfig):
        section = f.metadata.get("section", section)
        entry = (f.name, _converter(f.name, hints[f.name]))
        layout.setdefault(section, {})[_KEYS.get(f.name, f.name)] = entry
    return layout


_SCHEMA = _layout()


def _fmt_value(name: str, val) -> str:
    if val is None:
        return _NONE_WORDS.get(name, ("default",))[0]
    if isinstance(val, bool):
        return "true" if val else "false"
    if isinstance(val, tuple):
        return ",".join(repr(float(x)) for x in val)
    if isinstance(val, float):
        return repr(val)
    return str(val)


def render_config(cfg: ExperimentConfig) -> str:
    """Canonical text form: fixed section and key order, one value per key."""
    lines = []
    for section, keys in _SCHEMA.items():
        lines.append(f"[{section}]")
        for key, (name, _) in keys.items():
            lines.append(f"{key} = {_fmt_value(name, getattr(cfg, name))}")
        lines.append("")
    return "\n".join(lines)


# an option line of the plain form: a word key, spaces or tabs, = or :, a value
_PLAIN_OPTION = re.compile(r"([A-Za-z0-9_]+)[ \t]*[=:](.*)")


def _plain_sections(lines: Sequence[str]) -> Optional[dict[str, dict[str, str]]]:
    """section -> key -> raw value of a config in the plain form, exactly
    as configparser reads it (keys lower-cased, values stripped), or None
    for any other text, which configparser then reads.  Plain: no comment
    character, carriage return or indented line; every other line blank,
    a ``[name]`` header not seen before (and not DEFAULT), or ``key = value``
    with a word key not seen before in its section, under a header.  This
    is the form ``render_config`` writes, read without configparser's
    set-up, which costs more than the rest of the parse."""
    sections: dict[str, dict[str, str]] = {}
    current = None
    for line in lines:
        line = line.rstrip("\n")
        if not line or line.isspace():
            continue
        if line[0].isspace() or "#" in line or ";" in line or "\r" in line:
            return None
        if line[0] == "[":
            name = line.rstrip()[1:-1]
            if not (line.rstrip()[-1] == "]" and name and "[" not in name and "]" not in name):
                return None
            if name in sections or name == "DEFAULT":
                return None
            current = sections[name] = {}
            continue
        match = _PLAIN_OPTION.fullmatch(line)
        if match is None or current is None or match[1].lower() in current:
            return None
        current[match[1].lower()] = match[2].strip()
    return sections


def parse_config(source) -> ExperimentConfig:
    """Parse a config file (a Path, or a str naming an existing file or
    holding no ``[``, which config text cannot lack) or a config string
    into an ExperimentConfig.

    The text is read by ``_plain_sections`` when it has the plain form and
    by configparser otherwise, to the same sections and raw values.
    Unknown sections or keys are rejected so typos fail loudly, and a file
    that cannot be read is a ConfigError too."""
    is_path = isinstance(source, str) and ("[" not in source or os.path.exists(source))
    try:
        if isinstance(source, Path) or is_path:
            with open(source, "r", encoding="utf-8-sig") as fh:  # a leading BOM is dropped
                lines, origin = list(fh), fh.name
        else:
            lines, origin = list(io.StringIO(str(source))), "<string>"
        sections = _plain_sections(lines)
        if sections is None:
            cp = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#", ";"))
            cp.read_file(lines, source=origin)
            if cp.defaults():  # configparser would copy these keys into every section
                raise ConfigError("unknown section [DEFAULT]")
            sections = {section: dict(cp.items(section, raw=True)) for section in cp.sections()}
    except configparser.Error as exc:
        lineno = getattr(exc, "lineno", None)
        loc = f" (line {lineno})" if lineno else ""
        raise ConfigError(f"cannot parse config{loc}: {exc.message}") from None
    except (OSError, UnicodeDecodeError) as exc:  # missing, a directory, unreadable, not UTF-8
        raise ConfigError(f"cannot read config: {exc}") from None
    values = {}
    for section, pairs in sections.items():
        keys = _SCHEMA.get(section)
        if keys is None:
            raise ConfigError(f"unknown section [{section}]")
        for key, raw in pairs.items():
            if key not in keys:
                raise ConfigError(f"unknown key [{section}] {key}")
            name, convert = keys[key]
            try:
                values[name] = convert(raw.strip())
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key}: {exc}") from None
    cfg = ExperimentConfig(**values)
    _validate_config(cfg)
    return cfg


def _validate_config(cfg: ExperimentConfig) -> None:
    if cfg.n_el < 1:
        raise ConfigError("[problem] n_el: must be >= 1")
    if not cfg.t_final > 0:
        raise ConfigError("[problem] t_final: must be > 0")
    if cfg.forcing not in _FORCING_NAMES:
        raise ConfigError(f"[problem] forcing: unknown preset {cfg.forcing!r}")
    if cfg.potential not in _POTENTIAL_NAMES:
        raise ConfigError(f"[problem] potential: unknown kind {cfg.potential!r}")
    if cfg.u0 not in _U0_NAMES:
        raise ConfigError(f"[problem] u0: unknown preset {cfg.u0!r}")
    if cfg.scheme not in (BDF2, BACKWARD_EULER):
        raise ConfigError(f"[scheme] kind: unknown scheme {cfg.scheme!r}")
    if not cfg.taus:
        raise ConfigError("[ladder] taus: must be non-empty")
    for tau in cfg.taus:
        if not _divides(tau, cfg.t_final):
            raise ConfigError(f"[ladder] taus: {tau} must be > 0 and divide t_final={cfg.t_final}")
    if any(b >= a for a, b in zip(cfg.taus, cfg.taus[1:])):
        raise ConfigError("[ladder] taus: must be strictly decreasing")
    if cfg.tau_ref is not None and not _divides(cfg.tau_ref, cfg.t_final):
        raise ConfigError(f"[ladder] tau_ref: {cfg.tau_ref} must be > 0 and divide t_final")
    # a reference no finer than the finest rung gives errors that do not fall
    if cfg.tau_ref is not None and not cfg.tau_ref < min(cfg.taus):
        raise ConfigError(f"[ladder] tau_ref: {cfg.tau_ref} must be < min(taus) = {min(cfg.taus)}")
    # every run holds an array of trajectory size, its N x (n_el+1) forcing
    # table, which numpy must be able to index; the reference tau underflows
    # to 0 for subnormal taus
    tau_min = min(*cfg.taus, cfg.reference_tau())
    ratio = cfg.t_final / tau_min if tau_min > 0 else math.inf
    steps = round(ratio) if math.isfinite(ratio) else math.inf
    if not (steps + 1) * (cfg.n_el + 1) <= _MAX_ARRAY_VALUES:
        raise ConfigError(
            f"[problem] t_final: {cfg.t_final} takes {ratio:.6g} steps of tau = {tau_min:g}, "
            f"too many to hold a trajectory of n_el + 1 = {cfg.n_el + 1} values per step"
        )
    if not cfg.tol > 0:
        raise ConfigError("[solver] tol: must be > 0")
    if math.isinf(cfg.tol):  # every residual would pass
        raise ConfigError("[solver] tol: must be finite")
    for key in ("n_samples", "n_fuzz"):  # a check of no samples would pass vacuously
        if getattr(cfg, key) < 1:
            raise ConfigError(f"[check] {key}: must be >= 1")
    # the ranges of what the commands build from the config, so that a config
    # that parses also runs; check builds the paper and nonconvex laws
    # whatever the configured potential is
    robin = ("potential_k",) if cfg.potential == "linear_robin" else ()
    for name in _POSITIVE + _NONNEGATIVE + robin:
        val, strict = getattr(cfg, name), name in _POSITIVE
        if val is not None and not (val > 0 if strict else val >= 0):
            raise ConfigError(f"[problem] {name}: must be {'>' if strict else '>='} 0")
        if val is not None and math.isinf(val):
            raise ConfigError(f"[problem] {name}: must be finite")
    for name in ("f0_t_coeffs", "f0_x_coeffs", "fn_t_coeffs", "u0_coeffs"):
        if not getattr(cfg, name):
            raise ConfigError(f"[problem] {name}: must be non-empty")
    # the spatial factor's load and the initial state are built once and must
    # be finite; on [0, 1] Horner's partial sums are bounded by the
    # coefficients' absolute sum
    if cfg.u0 == "constant" and not math.isfinite(cfg.u0_value):
        raise ConfigError("[problem] u0_value: must be finite")
    for preset, name in (("forcing", "f0_x_coeffs"), ("u0", "u0_coeffs")):
        coeffs = getattr(cfg, name)
        if getattr(cfg, preset) == "poly" and not math.isfinite(sum(abs(c) for c in coeffs)):
            raise ConfigError(f"[problem] {name}: the absolute values must have a finite sum")
    _require_two_steps(cfg, "tau_ref", cfg.reference_tau())  # the reference is a two-step run
    if cfg.scheme == BDF2:
        _require_two_steps(cfg, "taus", cfg.taus[0])
    if not cfg.coercivity_taus:
        raise ConfigError("[check] coercivity_taus: must be non-empty")
    if not all(0 < tau < math.inf for tau in cfg.coercivity_taus):
        raise ConfigError("[check] coercivity_taus: each must be > 0 and finite")


def _require_two_steps(cfg: ExperimentConfig, key: str, tau: float) -> None:
    """The two-step scheme needs at least two steps of length tau."""
    if round(cfg.t_final / tau) < 2:
        raise ConfigError(
            f"[ladder] {key}: {tau} is one step of t_final; the two-step scheme needs two"
        )


def _divides(tau: float, t_final: float) -> bool:
    """True when tau > 0 splits [0, t_final] into a whole number of steps."""
    try:
        TimeGrid.of_step(t_final, tau)
    except ValueError:
        return False
    return True


# ---------------------------------------------------------------------------
# problem construction


def build_potential(cfg: ExperimentConfig) -> ScalarPotential:
    if cfg.potential == "zero":
        return ZeroPotential()
    if cfg.potential == "paper_exponential":
        return PaperExponential(cfg.potential_d, literal_branch=cfg.paper_literal_subdiff)
    if cfg.potential == "linear_robin":
        return LinearRobin(cfg.potential_k)
    return NonconvexPiecewise(
        cfg.ncvx_jump, cfg.ncvx_drop_slope, cfg.ncvx_drop_width, cfg.ncvx_tail_slope
    )


def _poly(coeffs: Sequence[float]) -> Callable:
    """The polynomial by Horner's rule, the operations of ``polyval``: at a
    float in plain floats, at an array elementwise."""
    c = [float(v) for v in coeffs]

    def p(x):
        acc = c[-1] + 0.0 * x
        for ck in reversed(c[:-1]):
            acc = ck + acc * x
        return acc

    return p


def _forcing_factors(cfg: ExperimentConfig) -> tuple[Callable, Callable, Callable]:
    """The preset's load as (a, b, f_N): volume source a(t) b(x) and Neumann
    datum f_N(t) at x = 0, each vectorized."""
    if cfg.forcing == "zero":
        return _poly((0.0,)), _poly((0.0,)), _poly((0.0,))
    if cfg.forcing == "constant":
        return _poly((cfg.f0_value,)), _poly((1.0,)), _poly((cfg.fn_value,))
    if cfg.forcing == "smooth":
        # smooth in time and space with f(0) = f'(0) = 0, so the startup is
        # compatible with a zero initial state and order measurements stay clean
        return (
            lambda t: 1.0 - np.cos(np.pi * t),
            lambda x: 0.5 * (1.0 + x),
            lambda t: 0.5 * t * t * np.exp(-t),
        )
    return _poly(cfg.f0_t_coeffs), _poly(cfg.f0_x_coeffs), _poly(cfg.fn_t_coeffs)


def build_u0(cfg: ExperimentConfig) -> Callable[[np.ndarray], np.ndarray]:
    return _poly({"zero": (0.0,), "constant": (cfg.u0_value,)}.get(cfg.u0, cfg.u0_coeffs))


def build_problem(cfg: ExperimentConfig) -> RotheProblem:
    mesh = Mesh1D(cfg.n_el)
    space, op = assemble_space(mesh)
    names = ("alpha", "beta", "a_growth", "b_growth")
    overrides = {name: getattr(cfg, name) for name in names if getattr(cfg, name) is not None}
    if overrides:
        op = replace(op, **overrides)  # re-certified by __post_init__
    return RotheProblem(
        space=space,
        operator=op,
        boundary=BoundaryFunctional(build_potential(cfg), np.ones(1)),
        forcing=separable_load(mesh, *_forcing_factors(cfg)),
        u0=make_initial(mesh, space, build_u0(cfg)),
    )


# ---------------------------------------------------------------------------
# output helpers


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    # cells are not quoted, so a text cell must hold no comma
    return str(x).replace(",", ";")


def _write_csv(
    path: Path, header: Iterable[str], rows: Sequence[Sequence] | Iterator[np.ndarray]
) -> None:
    """Schema line, header and rows; ``rows`` is a list of cell lists, each
    cell formatted by ``_fmt``, or an iterator of 2-d float arrays written
    one after the other.  `floatfmt.g17_lines` writes the cells of an array
    with the bytes of ``'%.17g'``, as ``_fmt`` does, a block of cells at a
    time.  The file is opened in binary mode: those blocks go to it as they
    are, and the header and ``_fmt`` rows are encoded to UTF-8 once, as one
    text."""
    head = f"# schema_version={SCHEMA_VERSION}\n" + ",".join(header) + "\n"
    with open(path, "wb") as fh:
        if isinstance(rows, Iterator):
            fh.write(head.encode("utf-8"))
            for block in rows:
                fh.writelines(g17_lines(block))
            return
        lines = [head] + [",".join(_fmt(v) for v in row) + "\n" for row in rows]
        fh.write("".join(lines).encode("utf-8"))


_ESTIMATE_COLS = (
    "tau",
    *QUANTITY_FIELDS,
    "gap_closed_form",
    "u1_u0_gap",
    "bv_bound",
)


def _estimate_row(tau: float, rep) -> list:
    return [tau] + [getattr(rep, name) for name in _ESTIMATE_COLS[1:]]


_GNUPLOT_STUB = """# gnuplot script stub for the emitted two-column series
set logscale xy
set xlabel 'tau'
set key left top
plot \\
"""


def _write_plots(out: Path, taus: np.ndarray, series: dict[str, np.ndarray]) -> None:
    """One two-column file ``series_<name>.dat`` per series and a gnuplot
    script plotting them all."""
    for name, values in series.items():
        with open(out / f"series_{name}.dat", "w", encoding="utf-8") as fh:
            fh.write(f"# schema_version={SCHEMA_VERSION}\n# tau {name}\n")
            for t, v in zip(taus, values):
                fh.write(f"{_fmt(t)} {_fmt(v)}\n")
    parts = [f"  'series_{n}.dat' using 1:2 with linespoints title '{n}'" for n in series]
    with open(out / "plots.gp", "w", encoding="utf-8") as fh:
        fh.writelines([_GNUPLOT_STUB, ", \\\n".join(parts) + "\n"])


# ---------------------------------------------------------------------------
# subcommands: each writes its data files and returns its summary rows


_Rows = list[tuple[str, bool, str]]  # (name, passed, detail)


def cmd_run(cfg: ExperimentConfig, out: Path) -> _Rows:
    problem = build_problem(cfg)
    sp, tau = problem.space, cfg.taus[0]
    grid = TimeGrid.of_step(cfg.t_final, tau)
    blocks = run_blocks(problem, grid, cfg.scheme, cfg.tol)  # the forcing table: before any file
    sums = EstimateSums(sp, grid, problem.boundary.weights)
    # names made as the header is joined, so that none is held through the run
    names = chain(["t"], (f"u{i}" for i in range(sp.dim)), (f"xi{i}" for i in range(sp.dim_u)))
    partial = out / "trajectory.csv.partial"
    # each block is written and reduced as it comes; a failed step leaves the rows before it
    _write_csv(partial, chain(names, ["residual"]), map(sums.add, blocks))
    os.replace(partial, out / "trajectory.csv")
    _write_csv(out / "estimates.csv", list(_ESTIMATE_COLS), [_estimate_row(tau, sums.report())])
    return [("run", True, f"worst step residual {sums.worst_residual:.3e}")]


def cmd_study(cfg: ExperimentConfig, out: Path) -> _Rows:
    problem = build_problem(cfg)
    ref = reference_solution(problem, cfg.t_final, cfg.reference_tau())
    study = tau_ladder_study(problem, cfg.t_final, cfg.taus, cfg.scheme, cfg.tol, ref)
    taus = study.taus()
    _write_csv(
        out / "ladder.csv",
        list(_ESTIMATE_COLS),
        [_estimate_row(r.tau, r.report) for r in study.rows],
    )
    _write_csv(
        out / "errors.csv",
        ["scheme", "tau", "error_at_T"],
        [[cfg.scheme, r.tau, r.error_at_T] for r in study.rows],
    )
    order = fitted_order(taus, study.series("error_at_T"))
    _write_csv(out / "orders.csv", ["scheme", "fitted_order"], [[cfg.scheme, order]])
    series = ["error_at_T", "u1_u0_gap", "gap_closed_form", *QUANTITY_FIELDS]
    _write_plots(out, taus, {name: study.series(name) for name in series})
    return [("study", True, f"fitted order {order:.3f}")]


def cmd_compare(cfg: ExperimentConfig, out: Path) -> _Rows:
    """Both schemes' ladders against the two-step and the one-step fine
    references; of each run only u^N is kept, so no estimate is reduced."""
    problem = build_problem(cfg)
    refs = [reference_solution(problem, cfg.t_final, cfg.reference_tau(), scheme=scheme)
            for scheme in (BDF2, BACKWARD_EULER)]
    taus = np.array(cfg.taus)
    err_rows, order_rows, plots = [], [], {}
    for scheme in (BDF2, BACKWARD_EULER):
        finals = [final_state(problem, TimeGrid.of_step(cfg.t_final, tau), scheme, cfg.tol)
                  for tau in cfg.taus]
        errs = [[problem.space.h_norm(u - ref) for u in finals] for ref in refs]
        err_rows += [[scheme, tau, e2, e1] for tau, e2, e1 in zip(cfg.taus, *errs)]
        order_rows.append([scheme, *(fitted_order(taus, e) for e in errs)])
        plots[f"error_{scheme}"] = np.array(errs[0])
    _write_csv(
        out / "errors.csv",
        ["scheme", "tau", "error_vs_two_step_ref", "error_vs_one_step_ref"],
        err_rows,
    )
    _write_csv(
        out / "orders.csv",
        ["scheme", "order_vs_two_step_ref", "order_vs_one_step_ref"],
        order_rows,
    )
    _write_plots(out, taus, plots)
    return [("compare", True, "; ".join(f"{r[0]}: {r[1]:.2f}" for r in order_rows))]


def _fuzz_identities(rng: np.random.Generator, n_fuzz: int) -> tuple[float, float]:
    """Largest relative identity gap and most negative relative slack over
    random triples in random SPD inner products, dims 1..8."""
    worst_gap = 0.0
    worst_slack = 0.0
    for _ in range(n_fuzz):
        dim = int(rng.integers(1, 9))
        b_mat = rng.normal(size=(dim, dim))
        gram_h = b_mat @ b_mat.T + 0.1 * np.eye(dim)
        space = GalerkinSpace(
            gram_h=gram_h,
            gram_v=gram_h + np.eye(dim),
            trace=np.eye(1, dim),
            gram_u=np.eye(1),
        )
        a, b, c = rng.normal(size=(3, dim)) * rng.choice([0.1, 1.0, 10.0])
        scale = 1.0 + sum(space.h_norm(v) ** 2 for v in (a, b, c))
        worst_gap = max(worst_gap, bdf2_identity_gap(a, b, c, space) / scale)
        worst_slack = min(worst_slack, bdf2_inequality_slack(a, b, c, space) / scale)
    return worst_gap, worst_slack


def cmd_check(cfg: ExperimentConfig, seed: int = 0) -> _Rows:
    rng = np.random.default_rng(seed)
    problem = build_problem(cfg)
    space, op = problem.space, problem.operator
    rows: _Rows = []

    try:  # the one draw that [check] n_samples sizes
        scales = 10.0 ** rng.uniform(-1, 2, cfg.n_samples)
        samples = [rng.normal(size=space.dim) * s for s in scales]
    except MemoryError:
        detail = f"[check] n_samples = {cfg.n_samples} asks for more memory than can be allocated"
        return [("check", False, detail)]
    rep_a = check_hypotheses_A(space, op, samples)
    rows.append(
        (
            "operator_bounds",
            rep_a.passed,
            f"growth slack {rep_a.growth_worst_slack:.3e}, "
            f"coercivity slack {rep_a.coercivity_worst_slack:.3e}",
        )
    )

    growth_targets = {"configured": problem.boundary.potential}
    for name in ("paper_exponential", "nonconvex_piecewise"):  # with the configured constants
        fixed = replace(cfg, potential=name, paper_literal_subdiff=False)
        growth_targets[name] = build_potential(fixed)
    s_samples = rng.uniform(-50.0, 50.0, 10_000)
    for name, pot in growth_targets.items():
        rep_g = check_growth(pot, s_samples, problem.boundary.weights)
        rows.append(
            (
                f"growth_{name}",
                rep_g.passed,
                f"worst margin {rep_g.worst_margin:.3e}, lifted d {rep_g.lifted_d:.6g}",
            )
        )

    coerc_samples = [rng.normal(size=space.dim) * s for s in 10.0 ** rng.uniform(-1, 2, 200)]
    for tau in cfg.coercivity_taus:
        rep_c = check_step_coercivity(space, op, problem.boundary, tau, coerc_samples)
        rows.append(
            (
                f"coercivity_tau_{tau:g}",
                rep_c.passed,
                f"c1(one-step) {rep_c.t1.c1:.4g}, c1(two-step) {rep_c.t2.c1:.4g}",
            )
        )

    gap, slack = _fuzz_identities(rng, cfg.n_fuzz)
    rows.append(("identity_fuzz", gap <= 1e-12, f"worst relative gap {gap:.3e}"))
    rows.append(("inequality_fuzz", slack >= -1e-12, f"worst relative slack {slack:.3e}"))
    return rows


# ---------------------------------------------------------------------------


def _command_rows(args: argparse.Namespace, cfg: ExperimentConfig, out: Path) -> _Rows:
    """The summary rows of the command: its own, or one FAIL row for a failed
    step or allocation."""
    try:
        if args.command == "check":
            return cmd_check(cfg, args.seed)
        # looked up when called, so a wrapper installed on the module sees it
        return globals()[f"cmd_{args.command}"](cfg, out)
    except StepFailureError as exc:
        return [(args.command, False, f"step {exc.step} failed: {exc.reason}")]
    except TrajectoryMemoryError as exc:  # name the keys that size the trajectory
        detail = (
            f"[problem] t_final = {cfg.t_final:g} at tau = {exc.tau:g} takes {exc.steps} steps "
            f"whose trajectory at [problem] n_el = {cfg.n_el} asks for {exc.nbytes} bytes: "
            "more than can be allocated"
        )
        return [(args.command, False, detail)]
    except MemoryError:  # a space or operator too large to assemble
        detail = f"[problem] n_el = {cfg.n_el} asks for more memory than can be allocated"
        return [(args.command, False, detail)]


def _seed(text: str) -> int:
    """A sampling seed: an integer >= 0, as numpy's generator takes."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, not {text!r}")
    return seed


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rothe-hvi",
        description="two-step implicit time stepping with set-valued boundary flux laws",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "study", "compare", "check"):
        sp = sub.add_parser(name)
        sp.add_argument("config_path", help="config file")
        sp.add_argument("--out", default=None, help="output directory")
        sp.add_argument("--quiet", action="store_true")
        if name == "check":
            sp.add_argument("--seed", type=_seed, default=0, help="sampling seed")
    return parser


_PARSER = _build_parser()  # parsing keeps no state, so one parser serves every call


@functools.cache
def _keep_freed_scratch() -> None:
    """Set the allocator policy of the module docstring, once a process."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # no C library handle, or no mallopt
        return
    if mallopt(-3, 32 << 20):  # M_MMAP_THRESHOLD; 0 where glibc refuses it
        mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def main(argv: Optional[Sequence[str]] = None) -> int:
    _keep_freed_scratch()
    args = _PARSER.parse_args(argv)
    try:
        cfg = parse_config(Path(args.config_path))
        if args.command == "compare":  # runs the two-step scheme whatever [scheme] kind is
            _require_two_steps(cfg, "taus", cfg.taus[0])
        out = Path(args.out or cfg.output_dir or "rothe_out")
        out.mkdir(parents=True, exist_ok=True)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # from mkdir: the output path is a file, or lies under one
        print(f"error: cannot create output directory: {exc}", file=sys.stderr)
        return 2
    try:
        rows = _command_rows(args, cfg, out)
        cells = [[name, "PASS" if ok else "FAIL", detail] for name, ok, detail in rows]
        _write_csv(out / "summary.csv", ["name", "status", "detail"], cells)
    except OSError as exc:  # an output file is a directory or cannot be opened or written
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    if not args.quiet:
        for name, ok, detail in rows:
            if ok:
                print(f"{name} ok: {detail}")
            else:
                print(f"{name} failed: {detail}", file=sys.stderr)
    return 0 if all(ok for _, ok, _ in rows) else 1


if __name__ == "__main__":
    raise SystemExit(main())
