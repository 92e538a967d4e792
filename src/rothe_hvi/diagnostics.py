"""Numerical diagnostics for the two-step scheme: discrete-energy
identities, a-priori estimate quantities (with the exact gap of the time
interpolants), ladder studies across a family of step sizes and the
fitted order of their errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np

from .galerkin import GalerkinSpace
from .stepper import BDF2, RotheProblem, RotheTrajectory, TimeGrid, run_rothe

__all__ = [
    "EstimateReport",
    "LadderRow",
    "LadderStudy",
    "bdf2_identity_gap",
    "bdf2_inequality_slack",
    "estimate_report",
    "fitted_order",
    "tau_ladder_study",
]

QUANTITY_FIELDS = ("q3", "q4", "q5", "q6", "q7", "q75")


@dataclass(frozen=True)
class EstimateReport:
    """The six a-priori estimate quantities of one trajectory plus the
    interpolant-gap measures.

    q3  : tau * sum_n ||u^n||_V^2            (n = 0..N)
    q4  : max_n |u^n|_H
    q5  : tau * sum_n ||xi^n||_{U*}^2        (n = 1..N)
    q6  : tau * ||(u^1 - u^0)/tau||_{V*}^2
    q7  : tau * sum_n ||(1.5 u^n - 2 u^{n-1} + 0.5 u^{n-2})/tau||_{V*}^2
    q75 : sum_n |u^n - 2 u^{n-1} + u^{n-2}|_H^2
    gap_closed_form : the squared L2(0,T;V*) distance between the
        piecewise-linear and piecewise-constant reconstructions, exactly,
    u1_u0_gap       : |u^1 - u^0|_H,
    bv_bound        : tau * sum_i ||(u^i - u^{i-1})/tau||_{V*}^2 (upper
        bound for the squared BV^2 seminorm of the piecewise-constant
        reconstruction, up to the factor T).

    V*-norms of H-elements are taken through their H-embedding.
    """

    q3: float
    q4: float
    q5: float
    q6: float
    q7: float
    q75: float
    gap_closed_form: float
    u1_u0_gap: float
    bv_bound: float

    def __post_init__(self) -> None:
        for f in fields(self):
            val = getattr(self, f.name)
            if not (math.isfinite(val) and val >= 0.0):
                raise ValueError(f"{f.name} must be finite and >= 0, got {val}")


def _h_inner(space: GalerkinSpace, a: np.ndarray, b: np.ndarray) -> float:
    return float(a @ space.gram_h @ b)


def bdf2_identity_gap(a, b, c, space: GalerkinSpace) -> float:
    """|(1.5a - 2b + 0.5c, a)_H - 0.25(|a|^2 + |2a-b|^2 - |b|^2 - |2b-c|^2
    + |a-2b+c|^2)|; zero up to roundoff for every triple."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    if not a.shape == b.shape == c.shape == (space.dim,):
        raise ValueError("triple must share the space dimension")
    lhs = _h_inner(space, 1.5 * a - 2.0 * b + 0.5 * c, a)
    rhs = 0.25 * (
        _h_inner(space, a, a)
        + _h_inner(space, 2.0 * a - b, 2.0 * a - b)
        - _h_inner(space, b, b)
        - _h_inner(space, 2.0 * b - c, 2.0 * b - c)
        + _h_inner(space, a - 2.0 * b + c, a - 2.0 * b + c)
    )
    return abs(lhs - rhs)


def bdf2_inequality_slack(a, b, c, space: GalerkinSpace) -> float:
    """(1.5a - 2b + 0.5c, a-2b+c)_H - (0.5|a-b|^2 - 0.5|b-c|^2); equals
    |a-2b+c|_H^2, so it is nonnegative and vanishes exactly when the second
    difference does."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    if not a.shape == b.shape == c.shape == (space.dim,):
        raise ValueError("triple must share the space dimension")
    lhs = _h_inner(space, 1.5 * a - 2.0 * b + 0.5 * c, a - 2.0 * b + c)
    rhs = 0.5 * _h_inner(space, a - b, a - b) - 0.5 * _h_inner(space, b - c, b - c)
    return lhs - rhs


def _quad_rows(rows: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """r^T gram r for each row r, clipped at zero against roundoff."""
    return np.maximum(np.einsum("ij,ij->i", rows @ gram, rows), 0.0)


def _dual_sq_rows(space: GalerkinSpace, rows: np.ndarray) -> np.ndarray:
    """Squared V*-norms of the H-embeddings of the rows, from one
    multi-right-hand-side Riesz solve."""
    w = rows @ space.gram_h
    return np.maximum(np.einsum("ij,ji->i", w, space.solve_v(w.T)), 0.0)


def _dual_u_sq_rows(space: GalerkinSpace, actions: np.ndarray) -> np.ndarray:
    """Squared U*-norms of the boundary functionals given by the rows'
    action vectors, from one multi-right-hand-side gram_u solve."""
    return np.maximum(np.einsum("ij,ji->i", actions, space.gram_u.solve(actions.T)), 0.0)


def estimate_report(
    traj: RotheTrajectory,
    space: GalerkinSpace,
    weights: Optional[np.ndarray] = None,
) -> EstimateReport:
    """Compute every estimate quantity of the trajectory by direct
    summation over the stacked first differences d_n = u^n - u^{n-1},
    stencils s_n = 1.5u^n - 2u^{n-1} + 0.5u^{n-2} and second differences
    e_n = u^n - 2u^{n-1} + u^{n-2}.  ``weights`` are the boundary quadrature
    weights used to lift nodal multipliers to boundary functionals (all
    ones by default).

    On window 1 the interpolant gap is d_1 theta, on window n >= 2 it is
    s_n theta - e_n/4, with theta = (t - midpoint)/tau odd about the window
    midpoint; the cross term integrates to zero, so the squared gap norm is
    tau/12 ||d_1||_*^2 + sum_{n>=2} (tau/12 ||s_n||_*^2 + tau/16 ||e_n||_*^2).
    """
    u = traj.u
    tau = traj.grid.tau
    if weights is None:
        weights = np.ones(space.dim_u)
    w = np.asarray(weights, dtype=float)

    diffs = u[1:] - u[:-1]
    stencils = 1.5 * u[2:] - 2.0 * u[1:-1] + 0.5 * u[:-2]
    seconds = u[2:] - 2.0 * u[1:-1] + u[:-2]
    diff_sq = _dual_sq_rows(space, diffs)
    stencil_sq = _dual_sq_rows(space, stencils)
    second_sq = _dual_sq_rows(space, seconds)

    q5 = tau * float(_dual_u_sq_rows(space, traj.xi * w).sum())
    gap = tau / 12.0 * (diff_sq[0] + stencil_sq.sum()) + tau / 16.0 * second_sq.sum()
    return EstimateReport(
        q3=tau * float(_quad_rows(u, space.gram_v).sum()),
        q4=float(np.sqrt(_quad_rows(u, space.gram_h).max())),
        q5=q5,
        q6=float(diff_sq[0]) / tau,
        q7=float(stencil_sq.sum()) / tau,
        q75=float(_quad_rows(seconds, space.gram_h).sum()),
        gap_closed_form=float(gap),
        u1_u0_gap=space.h_norm(diffs[0]),
        bv_bound=float(diff_sq.sum()) / tau,
    )


@dataclass(frozen=True)
class LadderRow:
    tau: float
    report: EstimateReport
    error_at_T: float  # H-norm error vs the reference at t = T (nan if none)
    trajectory: RotheTrajectory


@dataclass(frozen=True)
class LadderStudy:
    scheme: str
    rows: tuple[LadderRow, ...]

    def taus(self) -> np.ndarray:
        return np.array([r.tau for r in self.rows])

    def series(self, name: str) -> np.ndarray:
        if name == "error_at_T":
            return np.array([r.error_at_T for r in self.rows])
        return np.array([getattr(r.report, name) for r in self.rows])


def fitted_order(taus, errors) -> float:
    """Least-squares slope of log(error) vs log(tau) over the finite,
    positive errors; nan when fewer than two remain."""
    taus = np.asarray(taus, dtype=float)
    errs = np.asarray(errors, dtype=float)
    mask = np.isfinite(errs) & (errs > 0)
    if mask.sum() < 2:
        return float("nan")
    return float(np.polyfit(np.log(taus[mask]), np.log(errs[mask]), 1)[0])


def tau_ladder_study(
    problem: RotheProblem,
    t_final: float,
    taus: Sequence[float],
    scheme: str = BDF2,
    tol: float = 1e-10,
    reference: Optional[RotheTrajectory] = None,
) -> LadderStudy:
    """Run the scheme once per step size (decreasing, each dividing the
    horizon) and collect per-run estimate reports, plus the terminal-time
    error against a reference trajectory when one is supplied."""
    taus = [float(t) for t in taus]
    if not taus:
        raise ValueError("tau ladder must be non-empty")
    if any(b >= a for a, b in zip(taus, taus[1:])):
        raise ValueError("tau ladder must be strictly decreasing")
    rows = []
    weights = problem.boundary.weights
    for tau in taus:
        traj = run_rothe(problem, TimeGrid.of_step(t_final, tau), scheme, tol)
        rep = estimate_report(traj, problem.space, weights)
        err = float("nan")
        if reference is not None:
            err = problem.space.h_norm(traj.u[-1] - reference.u[-1])
        rows.append(LadderRow(tau, rep, err, traj))
    return LadderStudy(scheme, tuple(rows))
