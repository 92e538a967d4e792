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


# cells of a trajectory row block in ``estimate_report``: a block's stacked
# rows and their products stay small next to the trajectory
BLOCK_CELLS = 8192
# fewest rows of u in a block.  einsum sums a lone row of more than 8192
# entries (its buffer) in another order than a row of a stack, so each
# family's rows in a block must be a stack of two or more, as in the whole
# family, unless the family has one row; four rows of u give the first
# block two rows of each
_MIN_BLOCK_ROWS = 4


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
    summation over the first differences d_n = u^n - u^{n-1}, stencils
    s_n = 1.5u^n - 2u^{n-1} + 0.5u^{n-2} and second differences
    e_n = u^n - 2u^{n-1} + u^{n-2}.  ``weights`` are the boundary quadrature
    weights used to lift nodal multipliers to boundary functionals (all
    ones by default).

    The trajectory is read a row block of at most ``BLOCK_CELLS`` cells at a
    time, so no stack of trajectory size is built.  A block of rows u^n
    stacks its d_n, s_n, e_n and u^n and takes one product with gram_h: the
    H-embeddings of d_n, s_n and e_n go through one multi-right-hand-side
    Riesz solve for their squared V*-norms, and the products of e_n and
    u^n give their squared H-norms; one product with gram_v gives the
    squared V-norms of the u^n.  Each family's row values are reduced by
    one einsum per block, over a stack of two or more rows unless the
    family has a single row, which is how the whole family reduces, so a
    row's value does not depend on the block it lies in; the sums run over
    the full per-row arrays.  V*-norms of H-elements are taken through
    their H-embedding.

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

    k, dim = u.shape
    v_sq, h_sq = np.empty(k), np.empty(k)  # ||u^n||_V^2 and |u^n|_H^2, n = 0..N
    diff_sq = np.empty(k - 1)  # ||d_n||_*^2, n = 1..N
    # ||s_n||_*^2, ||e_n||_*^2 and |e_n|_H^2, n = 2..N
    stencil_sq, second_sq, second_h = (np.empty(max(k - 2, 0)) for _ in range(3))
    rows = max(_MIN_BLOCK_ROWS, BLOCK_CELLS // dim)
    a = 0
    while a < k:
        b = min(a + rows, k)
        if k - b == 1:  # the last row joins this block: no block of one row
            b = k
        # the first n of the block with d_n, and with s_n and e_n (b when none)
        a1, a2 = min(max(a, 1), b), min(max(a, 2), b)
        nd, ns = b - a1, b - a2
        stack = np.empty((nd + 2 * ns + b - a, dim))  # d_n, s_n, e_n, then u^n
        d, s, e = stack[:nd], stack[nd : nd + ns], stack[nd + ns : nd + 2 * ns]
        # each row by the operations, in the order, of its formula
        np.subtract(u[a1:b], u[a1 - 1 : b - 1], out=d)
        twice = 2.0 * u[a2 - 1 : b - 1]
        np.multiply(u[a2:b], 1.5, out=s)
        s -= twice
        s += 0.5 * u[a2 - 2 : b - 2]
        np.subtract(u[a2:b], twice, out=e)
        e += u[a2 - 2 : b - 2]
        stack[nd + 2 * ns :] = u[a:b]
        hw = stack @ space.gram_h
        x = space.solve_v(hw[: nd + 2 * ns].T)
        # one einsum per family, each a stack of its rows as the family's own
        for rows_of, sums in (
            (slice(0, nd), diff_sq[a1 - 1 : b - 1]),
            (slice(nd, nd + ns), stencil_sq[a2 - 2 : b - 2]),
            (slice(nd + ns, nd + 2 * ns), second_sq[a2 - 2 : b - 2]),
        ):
            np.einsum("ij,ji->i", hw[rows_of], x[:, rows_of], out=sums)
        np.einsum("ij,ij->i", hw[nd + ns : nd + 2 * ns], e, out=second_h[a2 - 2 : b - 2])
        np.einsum("ij,ij->i", hw[nd + 2 * ns :], u[a:b], out=h_sq[a:b])
        np.einsum("ij,ij->i", u[a:b] @ space.gram_v, u[a:b], out=v_sq[a:b])
        a = b
    for sums in (v_sq, h_sq, diff_sq, stencil_sq, second_sq, second_h):
        np.maximum(sums, 0.0, out=sums)  # clipped at zero against roundoff

    q5 = tau * float(_dual_u_sq_rows(space, traj.xi * w).sum())
    gap = tau / 12.0 * (diff_sq[0] + stencil_sq.sum()) + tau / 16.0 * second_sq.sum()
    return EstimateReport(
        q3=tau * float(v_sq.sum()),
        q4=float(np.sqrt(h_sq.max())),
        q5=q5,
        q6=float(diff_sq[0]) / tau,
        q7=float(stencil_sq.sum()) / tau,
        q75=float(second_h.sum()),
        gap_closed_form=float(gap),
        u1_u0_gap=space.h_norm(u[1] - u[0]),
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
