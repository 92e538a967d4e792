"""Two-step implicit time stepping (Rothe scheme) with averaged forcing.

The first step uses the one-step implicit stencil, later steps the two-step
backward differentiation stencil (3/2, -2, 1/2)/tau.  The forcing sequence
combines window integrals with weights matched to the stencils:

    F_1 = (1/tau) * int_0^tau f,
    F_n = (3/(2 tau)) * int_{(n-1)tau}^{n tau} f
        - (1/(2 tau)) * int_{(n-2)tau}^{(n-1)tau} f,   n >= 2.

A one-step (backward Euler) baseline is provided for scheme comparisons;
it consumes the same averaged forcing sequence and differs only in the
time-derivative stencil, so comparisons isolate the stencil's contribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .galerkin import GalerkinSpace, LinearOperatorA
from .inclusion_solver import (
    NonConvergenceError,
    NumericalFailureError,
    SolveReport,
    StepFactorization,
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
    "average_forcing",
    "initial_step",
    "bdf2_step",
    "run_rothe",
    "CoercivityReport",
    "check_step_coercivity",
]

BDF2 = "bdf2"
BACKWARD_EULER = "backward_euler"

_GAUSS5 = np.polynomial.legendre.leggauss(5)


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

    @property
    def tau(self) -> float:
        return self.T_final / self.N

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.T_final, self.N + 1)


@dataclass(frozen=True)
class RotheProblem:
    """Problem instance: space, elliptic operator, boundary flux law,
    time-dependent load f(t) (returned as an assembled action vector) and
    the initial coefficient vector."""

    space: GalerkinSpace
    operator: LinearOperatorA
    boundary: BoundaryFunctional
    forcing: Callable[[float], np.ndarray]
    u0: np.ndarray

    def __post_init__(self) -> None:
        u0 = np.asarray(self.u0, dtype=float)
        if u0.shape != (self.space.dim,):
            raise ValueError("u0 has wrong length")
        if self.boundary.dim_u != self.space.dim_u:
            raise ValueError("boundary weights do not match the trace rows")
        object.__setattr__(self, "u0", u0)


@dataclass(frozen=True)
class RotheTrajectory:
    grid: TimeGrid
    u: np.ndarray          # (N+1, dim) including the initial vector
    xi: np.ndarray         # (N, dim_u) multipliers for steps 1..N
    f_avg: np.ndarray      # (N, dim) averaged forcing actions
    scheme: str
    per_step_residuals: np.ndarray  # (N,) V*-norms of the unscaled step residual


def _window_integral(forcing: Callable[[float], np.ndarray], a: float, b: float) -> np.ndarray:
    """int_a^b f by the 5-point Gauss rule: one weighted sum of the loads."""
    pts, wts = _GAUSS5
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return (half * wts) @ np.array([forcing(mid + half * x) for x in pts], dtype=float)


def average_forcing(
    forcing: Callable[[float], np.ndarray], n: int, grid: TimeGrid
) -> np.ndarray:
    """Stencil-weighted forcing average for step n (5-point Gauss per
    window, exact for polynomial-in-t loads up to degree 9)."""
    if not 1 <= n <= grid.N:
        raise ValueError(f"step index {n} out of range 1..{grid.N}")
    tau = grid.tau
    if n == 1:
        return _window_integral(forcing, 0.0, tau) / tau
    cur = _window_integral(forcing, (n - 1) * tau, n * tau)
    prev = _window_integral(forcing, (n - 2) * tau, (n - 1) * tau)
    return (1.5 * cur - 0.5 * prev) / tau


def _factorization(problem: RotheProblem, c: float, tau: float) -> StepFactorization:
    """The stencil's S = M + c tau K, band-factored, with its band c tau K."""
    sp = problem.space
    return StepFactorization(sp.gram_h, c * tau * problem.operator.stiffness, sp.trace[0])


def _solve_step(
    problem: RotheProblem, c: float, hist: np.ndarray, f_n: np.ndarray, tau: float,
    warm: np.ndarray, tol: float, factorization: Optional[StepFactorization],
) -> tuple[np.ndarray, np.ndarray, SolveReport]:
    """Build and solve the step with stencil factor c and history vector hist,
    M u + c tau K u + c tau trace^T W xi = c tau f_n + M hist; c tau K and
    the factor of S come from ``factorization``, built here when None."""
    sp = problem.space
    fac = factorization or _factorization(problem, c, tau)
    p = StepProblem(
        space=sp,
        mass=sp.gram_h,
        stiff_scaled=fac.stiff_scaled,
        trace=sp.trace,
        weights=problem.boundary.weights,
        potential=problem.boundary.potential,
        rhs=c * tau * f_n + sp.gram_h @ hist,
        c_coef=c,
        tau=tau,
    )
    return solve_step_inclusion(p, warm, tol, fac)


def initial_step(
    problem: RotheProblem,
    u0_vec: np.ndarray,
    f1: np.ndarray,
    tau: float,
    tol: float = 1e-10,
    factorization: Optional[StepFactorization] = None,
) -> tuple[np.ndarray, np.ndarray, SolveReport]:
    """One-step implicit solve: M u + tau K u + tau trace^T W xi = tau f1 + M u0."""
    u0_vec = np.asarray(u0_vec, dtype=float)
    return _solve_step(problem, 1.0, u0_vec, f1, tau, u0_vec, tol, factorization)


def bdf2_step(
    problem: RotheProblem,
    u_nm1: np.ndarray,
    u_nm2: np.ndarray,
    f_n: np.ndarray,
    tau: float,
    tol: float = 1e-10,
    factorization: Optional[StepFactorization] = None,
) -> tuple[np.ndarray, np.ndarray, SolveReport]:
    """Two-step stencil solve, warm-started from the extrapolant 2u^{n-1} - u^{n-2}."""
    u_nm1 = np.asarray(u_nm1, dtype=float)
    u_nm2 = np.asarray(u_nm2, dtype=float)
    hist = (4.0 / 3.0) * u_nm1 - (1.0 / 3.0) * u_nm2
    return _solve_step(
        problem, 2.0 / 3.0, hist, f_n, tau, 2.0 * u_nm1 - u_nm2, tol, factorization
    )


def run_rothe(
    problem: RotheProblem,
    grid: TimeGrid,
    scheme: str = BDF2,
    tol: float = 1e-10,
) -> RotheTrajectory:
    """Run the full scheme on the grid, each step solved to ``tol``.
    Deterministic: fixed iteration order, no randomness anywhere, so
    identical inputs give bit-identical trajectories.  A failing step
    raises StepFailureError with the completed prefix; trajectory arrays
    that cannot be allocated raise TrajectoryMemoryError."""
    if scheme not in (BDF2, BACKWARD_EULER):
        raise ValueError(f"unknown scheme {scheme!r}")
    if scheme == BDF2 and grid.N < 2:
        raise ValueError("the two-step scheme needs N >= 2")
    tau = grid.tau
    sp = problem.space
    try:
        u = np.zeros((grid.N + 1, sp.dim))
        xi = np.zeros((grid.N, sp.dim_u))
        f_avg = np.zeros((grid.N, sp.dim))
        residuals = np.zeros(grid.N)
    except MemoryError:
        nbytes = 8 * ((grid.N + 1) * sp.dim + grid.N * (sp.dim_u + sp.dim + 1))
        raise TrajectoryMemoryError(grid.N, tau, nbytes) from None
    u[0] = problem.u0
    for n in range(1, grid.N + 1):
        f_avg[n - 1] = average_forcing(problem.forcing, n, grid)
    factorization = None
    for n in range(1, grid.N + 1):
        f_n = f_avg[n - 1]
        two_step = scheme == BDF2 and n >= 2
        c = 2.0 / 3.0 if two_step else 1.0
        if n == 1 or (two_step and n == 2):
            # one factorization per stencil, at most one alive at a time
            factorization = None
            factorization = _factorization(problem, c, tau)
        try:
            if two_step:
                u_n, xi_n, report = bdf2_step(
                    problem, u[n - 1], u[n - 2], f_n, tau, tol, factorization
                )
            else:
                u_n, xi_n, report = initial_step(problem, u[n - 1], f_n, tau, tol, factorization)
        except (NonConvergenceError, NumericalFailureError) as exc:
            raise StepFailureError(
                n,
                str(exc),
                getattr(exc, "report", None),
                u[:n].copy(),
                xi[: n - 1].copy(),
                residuals[: n - 1].copy(),
            ) from exc
        u[n] = u_n
        xi[n - 1] = xi_n
        # the step equation is the unscaled one multiplied by c tau
        residuals[n - 1] = report.residual / (c * tau)
    return RotheTrajectory(grid, u, xi, f_avg, scheme, residuals)


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
