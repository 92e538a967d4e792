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
l_j, assembled once, enter the table through one product.

A one-step (backward Euler) baseline is provided for scheme comparisons;
it consumes the same averaged forcing sequence and differs only in the
time-derivative stencil, so comparisons isolate the stencil's contribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .galerkin import GalerkinSpace, LinearOperatorA
from .inclusion_solver import (
    NonConvergenceError,
    NumericalFailureError,
    SolveReport,
    StepProblem,
    solve_step_inclusion,
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
    "run_rothe",
    "CoercivityReport",
    "check_step_coercivity",
]

BDF2 = "bdf2"
BACKWARD_EULER = "backward_euler"

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(5)  # the 5-point Gauss rule on [-1, 1]
_EPS = float(np.finfo(float).eps)


class StepFailureError(RuntimeError):
    """A time step failed; carries the step index, the reason, the solver
    report (None for non-finite data or solutions) and the completed
    prefix of the trajectory."""

    def __init__(
        self,
        step: int,
        reason: str,
        report: Optional[SolveReport],
        partial_u: np.ndarray,
        partial_xi: np.ndarray,
        partial_residuals: np.ndarray,
    ):
        super().__init__(f"time step {step} failed: {reason}")
        self.step = step
        self.reason = reason
        self.report = report
        self.partial_u = partial_u
        self.partial_xi = partial_xi
        self.partial_residuals = partial_residuals


class TrajectoryMemoryError(MemoryError):
    """The arrays that hold a run's trajectory cannot be allocated; carries
    the step count, the step size and the bytes they ask for."""

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
    times = (np.arange(grid.N)[:, None] + 0.5 * (1.0 + _NODES)) * tau  # (N, 5)
    gauss = 0.5 * tau * _WEIGHTS  # the Gauss weights of every window
    with np.errstate(over="ignore", invalid="ignore"):
        w = gauss @ load.factors(times.ravel()).reshape(grid.N, len(_NODES), -1)  # (N, k)
        w[1:] = 1.5 * w[1:] - 0.5 * w[:-1]
        return (w / tau) @ load.loads


def _check_stencil(step: StepProblem, c: float, name: str) -> None:
    if not abs(step.c_coef - c) < 1e-12:
        raise ValueError(f"{name} needs the operator with c_coef = {c:.4g}, got {step.c_coef:.4g}")


def _mass_product(step: StepProblem, v: np.ndarray) -> np.ndarray:
    """M v by the operator's bound kernel; a v of another shape goes through
    the public ``matvec``, which checks it."""
    return step.mass_product(v) if v.shape == step.shape else step.space.gram_h.matvec(v)


def initial_step(
    step: StepProblem, u_prev: np.ndarray, f1: np.ndarray, tol: float = 1e-10
) -> tuple[np.ndarray, np.ndarray, SolveReport]:
    """One-step implicit solve with the one-step operator ``step`` (c_coef 1,
    from ``RotheProblem.step_problem``), warm-started from u_prev:
    M u + tau K u + tau trace^T W xi = tau f1 + M u_prev.  ValueError when
    ``step`` is the two-step operator."""
    _check_stencil(step, 1.0, "initial_step")
    u_prev = np.asarray(u_prev, dtype=float)
    rhs = step.flux_coef * f1 + _mass_product(step, u_prev)
    return solve_step_inclusion(step, rhs, u_prev, tol)


def bdf2_step(
    step: StepProblem,
    u_nm1: np.ndarray,
    u_nm2: np.ndarray,
    f_n: np.ndarray,
    tol: float = 1e-10,
) -> tuple[np.ndarray, np.ndarray, SolveReport]:
    """Two-step stencil solve with the two-step operator ``step`` (c_coef
    2/3, from ``RotheProblem.step_problem``), warm-started from the
    extrapolant 2u^{n-1} - u^{n-2}: with c = 2/3,
    M u + c tau K u + c tau trace^T W xi = c tau f_n + M (4/3 u^{n-1} - 1/3 u^{n-2}).
    ValueError when ``step`` is the one-step operator."""
    _check_stencil(step, 2.0 / 3.0, "bdf2_step")
    u_nm1 = np.asarray(u_nm1, dtype=float)
    u_nm2 = np.asarray(u_nm2, dtype=float)
    hist = (4.0 / 3.0) * u_nm1 - (1.0 / 3.0) * u_nm2
    rhs = step.flux_coef * f_n + _mass_product(step, hist)
    return solve_step_inclusion(step, rhs, 2.0 * u_nm1 - u_nm2, tol)


def run_rothe(
    problem: RotheProblem,
    grid: TimeGrid,
    scheme: str = BDF2,
    tol: float = 1e-10,
) -> RotheTrajectory:
    """Run the full scheme on the grid, each step solved to ``tol``.
    Deterministic: fixed iteration order, no randomness anywhere, so
    identical inputs give bit-identical trajectories.  The forcing table is
    built once, after the trajectory arrays; arrays that cannot be allocated
    raise TrajectoryMemoryError before any forcing is evaluated.  A failing
    step, or the first step whose forcing average is not finite, raises
    StepFailureError with the completed prefix."""
    if scheme not in (BDF2, BACKWARD_EULER):
        raise ValueError(f"unknown scheme {scheme!r}")
    if scheme == BDF2 and grid.N < 2:
        raise ValueError("the two-step scheme needs N >= 2")
    tau = grid.tau
    sp = problem.space
    try:
        u = np.zeros((grid.N + 1, sp.dim))
        xi = np.zeros((grid.N, sp.dim_u))
        residuals = np.zeros(grid.N)
        f_avg = average_forcing(problem.forcing, grid)
    except MemoryError:
        nbytes = 8 * ((grid.N + 1) * sp.dim + grid.N * (sp.dim_u + sp.dim + 1))
        raise TrajectoryMemoryError(grid.N, tau, nbytes) from None
    u[0] = problem.u0
    finite = np.isfinite(f_avg).all(axis=1)
    stop = grid.N + 1 if finite.all() else int(np.argmin(finite)) + 1  # the first bad row
    # every non-finite value of a step is caught by the solver's own scans
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, grid.N + 1):
            if n == 1 or (n == 2 and scheme == BDF2):
                # one operator per stencil, at most one alive at a time;
                # from step 2 on the operator and c tau stay as they are
                two_step = n == 2
                step = None
                step = problem.step_problem(2.0 / 3.0 if two_step else 1.0, tau)
                ctau = step.flux_coef
            try:
                if n == stop:
                    raise NumericalFailureError("non-finite forcing average")
                if two_step:
                    u_n, xi_n, report = bdf2_step(step, u[n - 1], u[n - 2], f_avg[n - 1], tol)
                else:
                    u_n, xi_n, report = initial_step(step, u[n - 1], f_avg[n - 1], tol)
            except (NonConvergenceError, NumericalFailureError) as exc:
                prefix = (u[:n].copy(), xi[: n - 1].copy(), residuals[: n - 1].copy())
                report = getattr(exc, "report", None)
                raise StepFailureError(n, str(exc), report, *prefix) from exc
            u[n] = u_n
            xi[n - 1, 0] = xi_n[0]  # one boundary row: StepProblem checks dim_u = 1
            # the step equation is the unscaled one multiplied by c tau
            residuals[n - 1] = report.residual / ctau
    return RotheTrajectory(grid, u, xi, residuals)


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
    slope c1 <= 0 is flagged.
    """

    tau: float
    t1: _FitLine
    t2: _FitLine

    @property
    def flags(self) -> list[str]:
        out = []
        if self.t1.flagged:
            out.append("one-step operator: fitted coercivity slope <= 0")
        if self.t2.flagged:
            out.append("two-step operator: fitted coercivity slope <= 0")
        return out

    @property
    def passed(self) -> bool:
        return not self.flags


def _fit_lower_line(xs: np.ndarray, ys: np.ndarray) -> _FitLine:
    a = np.vstack([xs, -np.ones_like(xs)]).T
    sol, *_ = np.linalg.lstsq(a, ys, rcond=None)
    c1, c2 = float(sol[0]), float(sol[1])
    # lift c2 so the fitted line is a valid lower bound on the samples
    c2 = max(c2, float(np.max(c1 * xs - ys, initial=c2)))
    return _FitLine(c1, c2, c1 <= 0.0)


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
