"""Two-step implicit time stepping (Rothe scheme) with averaged forcing.

The first step uses the one-step implicit stencil, later steps the two-step
backward differentiation stencil (3/2, -2, 1/2)/tau.  The forcing sequence
combines the window integrals W_n = int_{(n-1)tau}^{n tau} f with weights
matched to the stencils:

    F_1 = W_1 / tau,
    F_n = (1.5 W_n - 0.5 W_{n-1}) / tau,   n >= 2.

A run builds the whole sequence once, before its first step, as one (N, dim)
table; a step reads its row and evaluates no forcing.  The load is a
`SeparableLoad`, l(t) = sum_j a_j(t) l_j, which on a Galerkin space is every
load: its time factors a_j come from one vectorized call at the 5N Gauss
times of the window integrals (5-point Gauss sums), and its load vectors
l_j, assembled once, enter the table through one product.  A row computed
alone would differ in its last bits from the row of that product, so a run
holds the table rather than one row at a time.

`run_blocks` holds the only step loop.  It yields the run a row block at a
time, in the row layout of ``trajectory.csv`` (t_n, u^n, xi^n and the
residual of step n), and holds only the two states the stencil reads: a
writer, the estimate reducer and `run_rothe`, which records a
`RotheTrajectory`, each read the same blocks.  A segment is the steps of
one block that share one step operator, cut before a step whose forcing
average is not finite.  It is solved by one call of the segment kernel
(``inclusion_solver.segment_kernel``), which for each step adds M times
the stencil's history to the step's right-hand side in a buffer the run
reuses, solves for u in the state's row of the block, its inclusion on
the boundary, and writes xi beside it, and appends the step's iterations.
The segment is then certified by one residual check.
So a run may step past a failing step to its segment's end, but it
yields and reports the same rows and the same failing step as a loop that
certified each step before the next: the segment is certified before the
switch to the two-step operator, at the block's end, and before an error
of a later step is reported, the steps solved before it counted by the
iterations the kernel appended, and its first failing step is the one
reported.  At a block's end the loop copies the two states the stencil
reads next, so it holds no view of a block it has yielded.
`initial_step` and `bdf2_step` check their operands, form the right-hand
side by the kernel's history half and solve and certify one step
(``solve_step_inclusion``, whose solve is a one-row segment of the kernel
entered at its boundary half).  `final_state` runs the scheme and keeps
only u^N, for the references and the rungs of a comparison.

A one-step (backward Euler) baseline is provided for scheme comparisons;
it consumes the same averaged forcing sequence and differs only in the
time-derivative stencil, so comparisons isolate the stencil's contribution.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .galerkin import GalerkinSpace, LinearOperatorA
from .inclusion_solver import (
    NonConvergenceError,
    NumericalFailureError,
    SolveReport,
    StepProblem,
    residual_failure,
    segment_kernel,
    solve_step_inclusion,
    step_residuals,
)
from .potentials import BoundaryFunctional

__all__ = [
    "BDF2",
    "BACKWARD_EULER",
    "TimeGrid",
    "RotheProblem",
    "RotheTrajectory",
    "StepFailureError",
    "SeparableLoad",
    "average_forcing",
    "initial_step",
    "bdf2_step",
    "run_blocks",
    "final_state",
    "run_rothe",
    "CoercivityReport",
    "check_step_coercivity",
]

BDF2 = "bdf2"
BACKWARD_EULER = "backward_euler"

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(5)  # the 5-point Gauss rule on [-1, 1]
_OFFSETS = 0.5 * (1.0 + _NODES)  # its points on [0, 1], in steps from a window's start
_EPS = float(np.finfo(float).eps)
# cells of a row block of a run (unless two rows take more): 128 KB.  What
# a block's step segment, certificate and consumers derive from it, up to
# about a megabyte at n_el = 1024, is freed at the block's end; glibc's
# default policy trims it off the heap, and the next block faults it back
# in, unless the policy that `cli.main` sets keeps it (cli's docstring)
BLOCK_CELLS = 16384


class StepFailureError(RuntimeError):
    """A time step failed; carries the step index, the reason, the solver
    report (None for non-finite data or solutions, and for a step operator
    that cannot be factored) and, raised by ``run_rothe``, the completed
    prefix of the trajectory (None from ``run_blocks``, which holds none)."""

    def __init__(
        self,
        step: int,
        reason: str,
        report: Optional[SolveReport],
        partial_u: Optional[np.ndarray] = None,
        partial_xi: Optional[np.ndarray] = None,
        partial_residuals: Optional[np.ndarray] = None,
    ):
        super().__init__(f"time step {step} failed: {reason}")
        self.step = step
        self.reason = reason
        self.report = report
        self.partial_u = partial_u
        self.partial_xi = partial_xi
        self.partial_residuals = partial_residuals


class TrajectoryMemoryError(MemoryError):
    """The arrays of trajectory size that a run holds cannot be allocated:
    the (N, dim) forcing table, and with ``run_rothe`` the trajectory too;
    carries the step count, the step size and the bytes they ask for."""

    def __init__(self, steps: int, tau: float, nbytes: int):
        super().__init__(
            f"{steps} steps of tau = {tau:g} ask for {nbytes} bytes of trajectory: "
            "too many to allocate"
        )
        self.steps = steps
        self.tau = tau
        self.nbytes = nbytes


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid of [0, T_final] with N steps of length tau = T_final/N."""

    T_final: float
    N: int

    def __post_init__(self) -> None:
        if not self.T_final > 0:
            raise ValueError("T_final must be > 0")
        if self.N < 1:
            raise ValueError("N must be >= 1")

    @classmethod
    def of_step(cls, T_final: float, tau: float) -> "TimeGrid":
        """The grid of steps tau on [0, T_final]; ValueError unless tau > 0
        splits it into N >= 1 steps, to within 4 ulps of T_final."""
        ratio = T_final / tau if tau > 0 else math.nan
        n = round(ratio) if math.isfinite(ratio) else 0
        if not (n >= 1 and abs(n * tau - T_final) <= 4.0 * _EPS * T_final):
            raise ValueError(f"tau={tau} does not divide T={T_final}")
        return cls(T_final, n)

    @property
    def tau(self) -> float:
        return self.T_final / self.N

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.T_final, self.N + 1)


@dataclass(frozen=True)
class SeparableLoad:
    """The load l(t) = factors([t])[0] @ loads: ``factors`` maps a 1-D array
    of M times to their (M, k) time factors, and ``loads`` holds the k load
    vectors, (k, dim), assembled once."""

    factors: Callable[[np.ndarray], np.ndarray]
    loads: np.ndarray


@dataclass(frozen=True)
class RotheProblem:
    """Problem instance: space, elliptic operator, boundary flux law,
    time-dependent load (its assembled action vector, as a SeparableLoad)
    and the initial coefficient vector.  ValueError unless the forcing has
    finite loads of shape (k, dim), which a bare callable f(t) does not."""

    space: GalerkinSpace
    operator: LinearOperatorA
    boundary: BoundaryFunctional
    forcing: SeparableLoad
    u0: np.ndarray

    def __post_init__(self) -> None:
        u0 = np.asarray(self.u0, dtype=float)
        if u0.shape != (self.space.dim,):
            raise ValueError("u0 has wrong length")
        if self.boundary.dim_u != self.space.dim_u:
            raise ValueError("boundary weights do not match the trace rows")
        loads = np.asarray(getattr(self.forcing, "loads", None), dtype=float)
        if loads.ndim != 2 or loads.shape[1] != self.space.dim or not np.isfinite(loads).all():
            raise ValueError(f"forcing loads must be a finite (k, {self.space.dim}) array")
        object.__setattr__(self, "u0", u0)

    def step_problem(self, c: float, tau: float) -> StepProblem:
        """The step operator of the stencil with factor c (1 for the one-step
        stencil, 2/3 for the two-step one) and step size tau, which factors
        S = M + c tau K once for every step that uses it."""
        return StepProblem(
            space=self.space,
            stiff_scaled=c * tau * self.operator.stiffness,
            weights=self.boundary.weights,
            potential=self.boundary.potential,
            c_coef=c,
            tau=tau,
        )


@dataclass(frozen=True)
class RotheTrajectory:
    grid: TimeGrid
    u: np.ndarray          # (N+1, dim) including the initial vector
    xi: np.ndarray         # (N, dim_u) multipliers for steps 1..N
    per_step_residuals: np.ndarray  # (N,) V*-norms of the unscaled step residual


def average_forcing(load: SeparableLoad, grid: TimeGrid) -> np.ndarray:
    """The (N, dim) table of stencil-weighted averages of the load, row n - 1
    for step n.  Each window integral is a 5-point Gauss sum, exact for
    factors polynomial in t up to degree 9; the factors are evaluated in one
    call at the 5N Gauss times, each once.  Overflow and invalid operations
    raise no warning; they leave non-finite rows."""
    tau = grid.tau
    times = (np.arange(grid.N)[:, None] + _OFFSETS) * tau  # (N, 5)
    gauss = 0.5 * tau * _WEIGHTS  # the Gauss weights of every window
    with np.errstate(over="ignore", invalid="ignore"):
        w = gauss @ load.factors(times.ravel()).reshape(grid.N, len(_NODES), -1)  # (N, k)
        w[1:] = 1.5 * w[1:] - 0.5 * w[:-1]
        return (w / tau) @ load.loads


def _check_stencil(step: StepProblem, c: float, name: str) -> None:
    if not abs(step.c_coef - c) < 1e-12:
        raise ValueError(f"{name} needs the operator with c_coef = {c:.4g}, got {step.c_coef:.4g}")


def initial_step(
    step: StepProblem, u_prev: np.ndarray, f1: np.ndarray, tol: float = 1e-10
) -> tuple[np.ndarray, np.ndarray, SolveReport]:
    """One-step implicit solve with the one-step operator ``step`` (c_coef 1,
    from ``RotheProblem.step_problem``), warm-started from u_prev, which
    enters the solve as its boundary value t u_prev:
    M u + tau K u + tau trace^T W xi = tau f1 + M u_prev.  ValueError when
    ``step`` is the two-step operator or an operand has another shape than
    the operator's."""
    _check_stencil(step, 1.0, "initial_step")
    return _single_step(step, tol, f1, u_prev)


def bdf2_step(
    step: StepProblem,
    u_nm1: np.ndarray,
    u_nm2: np.ndarray,
    f_n: np.ndarray,
    tol: float = 1e-10,
) -> tuple[np.ndarray, np.ndarray, SolveReport]:
    """Two-step stencil solve with the two-step operator ``step`` (c_coef
    2/3, from ``RotheProblem.step_problem``), warm-started from the
    extrapolant 2u^{n-1} - u^{n-2}, which enters the solve as its boundary
    value alone: with c = 2/3,
    M u + c tau K u + c tau trace^T W xi = c tau f_n + M (4/3 u^{n-1} - 1/3 u^{n-2}).
    ValueError when ``step`` is the one-step operator or an operand has
    another shape than the operator's."""
    _check_stencil(step, 2.0 / 3.0, "bdf2_step")
    return _single_step(step, tol, f_n, u_nm1, u_nm2)


def _single_step(step: StepProblem, tol: float, f, u_nm1, u_nm2=None):
    """The step of ``initial_step`` (no u_nm2) or ``bdf2_step`` once its
    operands are checked: the history half of a one-row
    ``segment_kernel`` on new arrays, then ``solve_step_inclusion``."""
    f, u_nm1, u_nm2 = (None if v is None else np.asarray(v, dtype=float) for v in (f, u_nm1, u_nm2))
    for v in (f, u_nm1, u_nm2):
        if v is not None and v.shape != step.shape:
            raise ValueError(f"operand has shape {v.shape}, expected {step.shape}")
    rhs = step.flux_coef * f
    s_warm = segment_kernel(step, rhs[None], None, None, [], u_nm1, u_nm2)
    return solve_step_inclusion(step, rhs, s_warm, tol)


def _block_steps(
    problem: RotheProblem, grid: TimeGrid, scheme: str, tol: float, f_avg: np.ndarray
) -> Iterator[np.ndarray]:
    """The step loop of ``run_blocks``, on its forcing table ``f_avg``.

    A segment is the steps of one block that share one step operator, cut
    before a non-finite forcing row: it is solved by one ``segment_kernel``
    call, which writes u and xi into the block's rows, and certified at its
    end by one ``step_residuals`` call, before the switch to the two-step
    operator, at the block's end, and before an error of a later step is
    reported.  The states the stencil reads across a block's end are
    copies."""
    tau, dim, width = grid.tau, problem.space.dim, problem.space.dim + problem.space.dim_u + 2
    size = block_rows(width)
    times = grid.times()
    rhs = np.empty((min(size, grid.N), dim))  # c tau F_n + M history of a segment's steps
    u_nm2 = u_nm1 = problem.u0  # the states the stencil reads, held between segments
    two_step = False
    for start in range(0, grid.N + 1, size):
        rows = np.zeros((min(size, grid.N + 1 - start), width))
        rows[:, 0] = times[start : start + len(rows)]
        if start == 0:
            rows[0, 1 : dim + 1] = problem.u0
        n, end = max(start, 1), start + len(rows)
        finite = np.isfinite(f_avg[n - 1 : end - 1]).all(axis=1)
        stop = n + int(np.argmin(finite)) if not finite.all() else end + 1  # a bad step, if any
        failure = None  # (step, error) of the first failing step
        # every non-finite value of a step is caught by the solver's own scans
        with np.errstate(over="ignore", invalid="ignore"):
            while n < end and failure is None:
                seg, iterations = n, []  # a count appended for each step solved
                try:
                    if n == 1 or (n == 2 and scheme == BDF2):
                        # one operator per stencil, at most one alive at a
                        # time; from step 2 on the operator stays as it is
                        two_step = n == 2
                        step = None
                        step = _step_operator(problem, 2.0 / 3.0 if two_step else 1.0, tau)
                    last = min(2 if n == 1 and scheme == BDF2 else end, stop)
                    b = np.multiply(step.flux_coef, f_avg[seg - 1 : last - 1], out=rhs[: last - seg])
                    u = rows[seg - start : last - start, 1 : dim + 1]
                    # one boundary row: StepProblem checks dim_u = 1
                    segment_kernel(step, b, u, rows[seg - start : last - start, dim + 1],
                                   iterations, u_nm1, u_nm2 if two_step else None)
                    if last == stop:
                        raise NumericalFailureError("non-finite forcing average")
                    u_nm2, u_nm1 = u[-2] if len(u) > 1 else u_nm1, u[-1]
                except Exception as exc:
                    # any error of step n waits for the certificate of the
                    # steps before it: a failing one among them is reported
                    failure = seg + len(iterations), exc
                n = seg + len(iterations)
                if n > seg:  # the segment's solved steps, certified before any later error
                    failed = _certify(step, rows[seg - start : n - start], b, iterations, tol)
                    if failed is not None:
                        failure = seg + failed[0], failed[1]
        # the loop keeps no view of a block it yields
        u_nm2, u_nm1 = u_nm2.copy(), u_nm1.copy()
        if failure is not None:
            n, exc = failure
            if not isinstance(exc, (NonConvergenceError, NumericalFailureError)):
                raise exc
            if n > start:  # the completed rows of this block
                yield rows[: n - start]
            raise StepFailureError(n, str(exc), getattr(exc, "report", None)) from exc
        yield rows


def _certify(
    step: StepProblem, rows: np.ndarray, rhs: np.ndarray, iterations: list, tol: float
) -> Optional[tuple[int, RuntimeError]]:
    """Write the residuals of a segment's steps, solved into ``rows`` from
    the right-hand sides ``rhs`` with ``iterations`` each, and return the
    index and error of the first step whose residual fails tol, or None."""
    dim = step.dim
    residuals = step_residuals(step, rows[:, 1 : dim + 1], rhs[: len(rows)], rows[:, dim + 1])
    # the step equation is the unscaled one multiplied by c tau
    rows[:, -1] = residuals / step.flux_coef
    failing = np.flatnonzero(~(residuals <= tol))  # NaN fails too
    if not len(failing):
        return None
    i = int(failing[0])
    return i, residual_failure(iterations[i], residuals.item(i), tol)


def _step_operator(problem: RotheProblem, c: float, tau: float) -> StepProblem:
    """``problem.step_problem(c, tau)``; NumericalFailureError, naming tau,
    when float64 cannot factor its S = M + c tau K."""
    try:
        return problem.step_problem(c, tau)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(
            f"the step operator at tau = {tau:g} cannot be factored in float64: {exc}"
        ) from None


def block_rows(width: int) -> int:
    """Rows of a row block of ``width`` cells a row: at most ``BLOCK_CELLS``
    cells, and at least two rows."""
    return max(2, BLOCK_CELLS // width)


def run_blocks(
    problem: RotheProblem, grid: TimeGrid, scheme: str = BDF2, tol: float = 1e-10
) -> Iterator[np.ndarray]:
    """The run of the scheme on the grid, each step solved to ``tol``, as
    an iterator of row blocks: the only step loop.  Row n of the run is
    t_n, u^n, xi^n and the residual of step n, zeros on the row of u^0, the
    row layout of ``trajectory.csv``; a block holds ``block_rows`` rows,
    the last block what is left.  A block is new, and its consumers only
    read it.

    Deterministic: fixed iteration order, no randomness anywhere, so
    identical inputs give bit-identical blocks.  The bits are fixed per
    BLAS and LAPACK kernel: a step's dsbmv, band solve, ddot and daxpy
    round as the BLAS and LAPACK that scipy loads round them (one
    that fuses a multiply and an add rounds once), so another build may
    move the last bits.  The forcing table is built when this is called,
    and a table that cannot be allocated raises TrajectoryMemoryError
    there; so do an unknown scheme, a two-step run of one step and a tol
    that is not > 0, as ValueError.  The blocks are stepped when they are
    asked for, in floating-point state entered once per block and left
    before it is yielded.  A block's steps are certified a segment at a
    time (see the module docstring), so the loop may step past a failing
    step to its segment's end; what it yields and raises is the same as if
    each step were certified before the next.  The first
    failing step, one whose residual is above tol or not finite, whose
    boundary solve fails, whose forcing average is not finite, or whose
    step operator float64 cannot factor, yields the completed rows of its
    block (if any) and then raises StepFailureError, which carries no
    prefix."""
    if scheme not in (BDF2, BACKWARD_EULER):
        raise ValueError(f"unknown scheme {scheme!r}")
    if scheme == BDF2 and grid.N < 2:
        raise ValueError("the two-step scheme needs N >= 2")
    if not tol > 0:
        raise ValueError("tol must be > 0")
    try:
        f_avg = average_forcing(problem.forcing, grid)
    except MemoryError:
        raise TrajectoryMemoryError(grid.N, grid.tau, 8 * grid.N * problem.space.dim) from None
    return _block_steps(problem, grid, scheme, tol, f_avg)


def final_state(
    problem: RotheProblem, grid: TimeGrid, scheme: str = BDF2, tol: float = 1e-10
) -> np.ndarray:
    """u^N of the run of ``run_blocks``, a copy; no other state is kept."""
    (last,) = deque(run_blocks(problem, grid, scheme, tol), maxlen=1)  # the last block alone
    return last[-1, 1 : problem.space.dim + 1].copy()


def run_rothe(
    problem: RotheProblem, grid: TimeGrid, scheme: str = BDF2, tol: float = 1e-10
) -> RotheTrajectory:
    """The run of ``run_blocks``, its rows recorded in one table whose
    columns the trajectory views.  The table is allocated before the
    forcing table is built; a table that cannot be allocated raises
    TrajectoryMemoryError before any forcing is evaluated.  A failing step
    raises StepFailureError with copies of the completed prefix."""
    dim, width = problem.space.dim, problem.space.dim + problem.space.dim_u + 2
    try:
        table = np.empty((grid.N + 1, width))
    except MemoryError:
        nbytes = 8 * (grid.N + 1) * width + 8 * grid.N * dim  # the table, then the forcing
        raise TrajectoryMemoryError(grid.N, grid.tau, nbytes) from None
    done = 0  # rows recorded
    try:
        for rows in run_blocks(problem, grid, scheme, tol):
            table[done : done + len(rows)] = rows
            done += len(rows)
    except StepFailureError as exc:
        exc.partial_u, exc.partial_xi, exc.partial_residuals = _columns(table[:done].copy(), dim)
        raise
    return RotheTrajectory(grid, *_columns(table, dim))


def _columns(rows: np.ndarray, dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """u, xi and the step residuals of the rows u^0.. of a run."""
    return rows[:, 1 : dim + 1], rows[1:, dim + 1 : -1], rows[1:, -1]


class _FitLine(NamedTuple):
    c1: float
    c2: float
    flagged: bool


@dataclass(frozen=True)
class CoercivityReport:
    """Empirical coercivity certificate for the per-step operators.

    For each stencil factor c the pairing <T v, v> is evaluated with the
    worst-case flux selection (the interval endpoint minimizing the
    pairing) and fitted against tau ||v||_V^2 as c1 * x - c2; a fitted
    slope c1 that is not a finite positive number is flagged, and so is a
    sample set whose pairings or norms overflow or are NaN (c1 = c2 = NaN).
    """

    tau: float
    t1: _FitLine
    t2: _FitLine

    @property
    def flags(self) -> list[str]:
        out = []
        if self.t1.flagged:
            out.append("one-step operator: fitted coercivity slope not a finite positive number")
        if self.t2.flagged:
            out.append("two-step operator: fitted coercivity slope not a finite positive number")
        return out

    @property
    def passed(self) -> bool:
        return not self.flags


def _fit_lower_line(xs: np.ndarray, ys: np.ndarray) -> _FitLine:
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        return _FitLine(math.nan, math.nan, True)  # no line fits what overflowed
    a = np.vstack([xs, -np.ones_like(xs)]).T
    sol, *_ = np.linalg.lstsq(a, ys, rcond=None)
    c1, c2 = float(sol[0]), float(sol[1])
    # lift c2 so the fitted line is a valid lower bound on the samples
    c2 = max(c2, float(np.max(c1 * xs - ys, initial=c2)))
    return _FitLine(c1, c2, not 0.0 < c1 < math.inf)


def check_step_coercivity(
    space: GalerkinSpace,
    operator: LinearOperatorA,
    boundary: BoundaryFunctional,
    tau: float,
    samples: Sequence[np.ndarray],
) -> CoercivityReport:
    samples = [np.asarray(v, dtype=float) for v in samples]
    if not samples:
        raise ValueError("sample list must be non-empty")
    fits = []
    # a flux law of huge constants overflows the pairing: an inf or NaN
    # sample, which the fit flags, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for c in (1.0, 2.0 / 3.0):
            xs = np.empty(len(samples))
            ys = np.empty(len(samples))
            for k, v in enumerate(samples):
                s = space.trace @ v
                lo, hi = boundary.potential.interval_arrays(s)
                worst = np.minimum(lo * s, hi * s)  # endpoint minimizing the pairing
                pair = (
                    space.h_norm(v) ** 2
                    + c * tau * float(v @ operator.stiffness @ v)
                    + c * tau * float(boundary.weights @ worst)
                )
                xs[k] = tau * space.v_norm(v) ** 2
                ys[k] = pair
            fits.append(_fit_lower_line(xs, ys))
    return CoercivityReport(tau, fits[0], fits[1])
