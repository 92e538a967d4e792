"""Numerical diagnostics for the two-step scheme: discrete-energy
identities, a-priori estimate quantities (with the exact gap of the time
interpolants), ladder studies across a family of step sizes and the
fitted order of their errors.

The estimates are sums and maxima over the steps, and a step's terms read
only the two states before it, so one reducer, `EstimateSums`, takes them
from a run's row blocks as the run yields them: a block's stencils and
second differences follow from its first differences by linearity, so it
makes one product with gram_h and one Riesz solve for all three families;
`estimate_report` feeds it the blocks of a held trajectory, and a ladder
run is reduced as it steps.  No diagnostic holds a trajectory it does not
already have.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np

from .galerkin import GalerkinSpace, _diagonal_product, _row_dots
from .stepper import BDF2, RotheProblem, RotheTrajectory, TimeGrid, block_rows, run_blocks

__all__ = [
    "EstimateReport",
    "EstimateSums",
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


def _dual_u_sq_rows(space: GalerkinSpace, actions: np.ndarray) -> np.ndarray:
    """Squared U*-norms of the boundary functionals given by the rows'
    action vectors, from one multi-right-hand-side gram_u solve."""
    return np.maximum(np.einsum("ij,ji->i", actions, space.gram_u.solve(actions.T)), 0.0)


def _quad_rows(left: np.ndarray, right: np.ndarray, total: int) -> np.ndarray:
    """The row-wise inner products of the rows of a family of ``total`` rows
    in the run, by ``galerkin._row_dots``: a lone row is summed as a row of
    a stack unless it is the whole family."""
    return np.maximum(_row_dots(left, right, total == 1), 0.0)


class EstimateSums:
    """The reducer of a run to its EstimateReport: fed the run's row
    blocks in order, in the row layout of ``stepper.run_blocks`` (``add``),
    it keeps each row's terms, a few floats a step, the last two states
    and the largest step residual, never the trajectory; ``report`` sums
    the terms once every row is in.

    The estimates are direct sums over the first differences
    d_n = u^n - u^{n-1}, stencils s_n = 1.5u^n - 2u^{n-1} + 0.5u^{n-2} and
    second differences e_n = u^n - 2u^{n-1} + u^{n-2}, and all three
    families come from the first: e_n = d_n - d_{n-1} and s_n = d_n + e_n/2.
    In a block, one product with gram_h embeds the d_n and the e_n (one
    stack), and one multi-right-hand-side Riesz solve takes the d_n's
    representers; those of e_n and s_n, and the H-embeddings of s_n, follow
    by linearity.  The e_n are embedded by the product, not as the
    difference of the d_n's embeddings, which would lose |d_n| / |e_n| in
    relative accuracy when the steps are fine; their representers enter
    only the gap's tau/16 term.  The u^n take one product with gram_h and
    one with gram_v for their squared norms.  Each family's row values are
    reduced by one einsum per block, over a stack of two or more rows
    unless the family has a single row, which is how the whole family
    reduces, so a row's value does not depend on the block it lies in; the
    sums run over the full per-row arrays, and the report has the same
    bits for every partition of the run into blocks.  The products and
    solves are the bands' unchecked kernels: a run's rows are finite, each
    step certified, and ``estimate_report`` checks a held trajectory once.
    ``weights`` are the boundary quadrature weights used to lift nodal
    multipliers to boundary functionals (all ones by default).  V*-norms
    of H-elements are taken through their H-embedding.
    """

    def __init__(
        self, space: GalerkinSpace, grid: TimeGrid, weights: Optional[np.ndarray] = None
    ) -> None:
        self.space, self.grid = space, grid
        self._w = np.ones(space.dim_u) if weights is None else np.asarray(weights, dtype=float)
        self._held: Optional[np.ndarray] = None  # the last block added, not yet reduced
        self.worst_residual = 0.0  # of the steps reduced
        self._last = np.empty((0, space.dim))  # the last two states reduced (fewer at first)
        self._d1: Optional[np.ndarray] = None  # u^1 - u^0
        self._terms: list[tuple[np.ndarray, ...]] = []  # the row terms of each reduced block

    def add(self, rows: np.ndarray) -> np.ndarray:
        """Add the next row block: t_n, u^n, xi^n and the step residual per
        row, as ``stepper.run_blocks`` yields it; returns it, so that a run
        passes through.  A block is reduced when the next one is added, or
        by ``report``: a run that fails yields the completed rows of its
        last block before it raises, and those rows, never reported, are
        never reduced."""
        self._reduce_held()
        self._held = rows
        return rows

    def _reduce_held(self) -> None:
        if self._held is not None:
            rows, self._held = self._held, None
            dim, first = self.space.dim, 0 if self._terms else 1  # u^0 has no step
            self._add_states(rows[:, 1 : dim + 1], rows[first:, dim + 1 : -1])
            self.worst_residual = max(self.worst_residual, float(rows[:, -1].max()))

    def _add_states(self, u: np.ndarray, xi: np.ndarray) -> None:
        """Reduce the next states u^n and the multipliers of their steps."""
        space, n = self.space, self.grid.N
        # the state norms come first, before the differences' scratch is
        # made, and s_n is formed in e_n's rows: a wide run peaks at its
        # forcing table plus one block's scratch
        terms = [
            _quad_rows(_diagonal_product(space.gram_v.ab, u), u, n + 1),  # ||u^n||_V^2
            _quad_rows(_diagonal_product(space.gram_h.ab, u), u, n + 1),  # |u^n|_H^2
            xi * self._w,  # the boundary functionals of xi^n
        ]
        win = np.concatenate([self._last, u])
        # the first differences of the window and, below them in one stack for
        # one product with gram_h, the second differences e_n = d_n - d_{n-1};
        # the difference before the block (when two states are carried over)
        # is there for the block's first e_n, and is no d_n of it
        m = len(win) - 1
        stack = np.empty((max(2 * m - 1, 0), space.dim))
        d, e = stack[:m], stack[m:]
        np.subtract(win[1:], win[:-1], out=d)
        np.subtract(d[1:], d[:-1], out=e)
        hd, he = np.split(_diagonal_product(space.gram_h.ab, stack), [m])
        # one Riesz solve, of the d_n; the representers of e_n follow by
        # linearity, and so do both rows of s_n = d_n + e_n / 2, which replace
        # those of e_n once these are reduced
        zd = space.gram_v.back_solve(hd.T)[0].T
        ze = zd[1:] - zd[:-1]
        first = max(len(self._last) - 1, 0)
        terms += (
            _quad_rows(hd[first:], zd[first:], n),  # ||d_n||_*^2
            _quad_rows(he, ze, n - 1),  # ||e_n||_*^2
            _quad_rows(he, e, n - 1),  # |e_n|_H^2
        )
        for rows, d_rows in ((he, hd), (ze, zd)):
            rows *= 0.5
            rows += d_rows[1:]
        terms.append(_quad_rows(he, ze, n - 1))  # ||s_n||_*^2
        self._terms.append(tuple(terms))
        if self._d1 is None and len(d):
            self._d1 = d[0].copy()
        self._last = win[-2:].copy()

    def report(self) -> EstimateReport:
        """The estimates of the run; ValueError until every row is added."""
        tau, n = self.grid.tau, self.grid.N
        self._reduce_held()
        terms = [np.concatenate(values) for values in zip(*self._terms)]
        if not terms or len(terms[0]) != n + 1:
            raise ValueError(f"the {n + 1} rows of the run were not all added")
        v_sq, h_sq, actions, diff_sq, second_sq, second_h, stencil_sq = terms
        gap = tau / 12.0 * (diff_sq[0] + stencil_sq.sum()) + tau / 16.0 * second_sq.sum()
        return EstimateReport(
            q3=tau * float(v_sq.sum()),
            q4=float(np.sqrt(h_sq.max())),
            q5=tau * float(_dual_u_sq_rows(self.space, actions).sum()),
            q6=float(diff_sq[0]) / tau,
            q7=float(stencil_sq.sum()) / tau,
            q75=float(second_h.sum()),
            gap_closed_form=float(gap),
            u1_u0_gap=self.space.h_norm(self._d1),
            bv_bound=float(diff_sq.sum()) / tau,
        )


def estimate_report(
    traj: RotheTrajectory,
    space: GalerkinSpace,
    weights: Optional[np.ndarray] = None,
) -> EstimateReport:
    """Every estimate quantity of a held trajectory, from ``EstimateSums``
    fed its rows a block of ``stepper.block_rows`` at a time, so no stack
    of trajectory size is built.

    On window 1 the interpolant gap is d_1 theta, on window n >= 2 it is
    s_n theta - e_n/4, with theta = (t - midpoint)/tau odd about the window
    midpoint; the cross term integrates to zero, so the squared gap norm is
    tau/12 ||d_1||_*^2 + sum_{n>=2} (tau/12 ||s_n||_*^2 + tau/16 ||e_n||_*^2).
    ValueError unless the trajectory is finite and its states have the
    space's dimension: the reducer's kernels check neither.
    """
    u, xi = traj.u, traj.xi
    if u.shape[1:] != (space.dim,) or not (np.isfinite(u).all() and np.isfinite(xi).all()):
        raise ValueError(f"the trajectory must be finite, with states of {space.dim} entries")
    sums = EstimateSums(space, traj.grid, weights)
    rows = block_rows(space.dim + space.dim_u + 2)
    for a in range(0, len(traj.u), rows):
        sums._add_states(traj.u[a : a + rows], traj.xi[max(a, 1) - 1 : a + rows - 1])
    return sums.report()


@dataclass(frozen=True)
class LadderRow:
    tau: float
    report: EstimateReport
    error_at_T: float  # H-norm error vs the reference at t = T (nan if none)
    u_final: np.ndarray  # u^N


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
    reference: Optional[np.ndarray] = None,
) -> LadderStudy:
    """Run the scheme once per step size (decreasing, each dividing the
    horizon) and collect per-run estimate reports and last states, plus the
    terminal-time error against a reference's state at t = T when one is
    supplied.  Each run is reduced as it steps; none is held."""
    taus = [float(t) for t in taus]
    if not taus:
        raise ValueError("tau ladder must be non-empty")
    if any(b >= a for a, b in zip(taus, taus[1:])):
        raise ValueError("tau ladder must be strictly decreasing")
    rows = []
    weights = problem.boundary.weights
    for tau in taus:
        grid = TimeGrid.of_step(t_final, tau)
        sums = EstimateSums(problem.space, grid, weights)
        (last,) = deque(map(sums.add, run_blocks(problem, grid, scheme, tol)), maxlen=1)
        u_final = last[-1, 1 : problem.space.dim + 1].copy()
        err = float("nan")
        if reference is not None:
            err = problem.space.h_norm(u_final - reference)
        rows.append(LadderRow(tau, sums.report(), err, u_final))
    return LadderStudy(scheme, tuple(rows))
