from __future__ import annotations

import collections
import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import fem_problem, make_space, one, random_spd, zero
from rothe_hvi import (
    BACKWARD_EULER,
    BDF2,
    GalerkinSpace,
    LinearRobin,
    Mesh1D,
    NonconvexPiecewise,
    PaperExponential,
    RotheTrajectory,
    TimeGrid,
    ZeroPotential,
    assemble_space,
    bdf2_identity_gap,
    bdf2_inequality_slack,
    estimate_report,
    run_rothe,
    tau_ladder_study,
)
from rothe_hvi import diagnostics, stepper


class Interpolants:
    """Piecewise-constant and piecewise-linear time reconstructions of a
    trajectory, plus the derivative of the linear one.

    The constant reconstruction takes the new value on each window
    ((n-1)tau, n tau] (right-continuous there, with the initial vector at
    t = 0).  The linear reconstruction interpolates so that its slope on
    each window is the scheme's difference stencil.
    """

    def __init__(self, traj: RotheTrajectory):
        self._u = traj.u
        self._grid = traj.grid
        self._N = traj.grid.N

    def _check_t(self, t: float) -> float:
        T = self._grid.T_final
        if t < -1e-12 * T or t > T * (1.0 + 1e-12):
            raise ValueError(f"t={t} outside the time domain [0, {T}]")
        return min(max(t, 0.0), T)

    def _window(self, t: float) -> int:
        # index n with t in ((n-1) tau, n tau]; n = 0 only at t = 0
        n = int(np.ceil(t / self._grid.tau - 1e-12))
        return min(max(n, 0), self._N)

    def piecewise_constant(self, t: float) -> np.ndarray:
        t = self._check_t(t)
        return self._u[self._window(t)].copy()

    def piecewise_linear(self, t: float) -> np.ndarray:
        t = self._check_t(t)
        u = self._u
        tau = self._grid.tau
        if t <= tau:
            return 1.5 * u[1] - 0.5 * u[0] + (u[1] - u[0]) * ((t - tau) / tau)
        n = self._window(t)
        stencil = 1.5 * u[n] - 2.0 * u[n - 1] + 0.5 * u[n - 2]
        return 1.5 * u[n] - 0.5 * u[n - 1] + stencil * ((t - n * tau) / tau)

    def derivative(self, t: float) -> np.ndarray:
        t = self._check_t(t)
        u = self._u
        tau = self._grid.tau
        if t <= tau:
            return (u[1] - u[0]) / tau
        n = self._window(t)
        return (1.5 * u[n] - 2.0 * u[n - 1] + 0.5 * u[n - 2]) / tau

    def gap(self, t: float) -> np.ndarray:
        """Difference (linear - constant), in its explicit branch form."""
        t = self._check_t(t)
        u = self._u
        tau = self._grid.tau
        if t <= tau:
            return (u[1] - u[0]) * ((t - 0.5 * tau) / tau)
        n = self._window(t)
        stencil = 1.5 * u[n] - 2.0 * u[n - 1] + 0.5 * u[n - 2]
        second = u[n] - 2.0 * u[n - 1] + u[n - 2]
        return stencil * ((t - (n - 0.5) * tau) / tau) - 0.25 * second


def hand_traj(u, T=1.0):
    """Hand-made trajectory with the rows of ``u`` as u^0..u^N."""
    u = np.asarray(u, dtype=float)
    N = u.shape[0] - 1
    return RotheTrajectory(
        grid=TimeGrid(T, N),
        u=u,
        xi=np.zeros((N, 1)),
        per_step_residuals=np.zeros(N),
    )


def scalar_traj(u_values, T=1.0):
    """Hand-made trajectory on the 1-d space with unit Grams."""
    space = GalerkinSpace(gram_h=[[1.0]], gram_v=[[1.0]], trace=[[1.0]], gram_u=[[1.0]])
    return space, hand_traj(np.reshape(u_values, (-1, 1)), T)


def gap_quadrature(space, traj):
    """5-point Gauss quadrature of the squared V*-norm of the interpolant
    gap on each window; exact, since the gap is linear in t there."""
    interp = Interpolants(traj)
    tau = traj.grid.tau
    total = 0.0
    for n in range(1, traj.grid.N + 1):
        for x, w in zip(*np.polynomial.legendre.leggauss(5)):
            gap = interp.gap((n - 0.5 + 0.5 * x) * tau)
            total += 0.5 * tau * w * space.dual_norm(space.gram_h @ gap) ** 2
    return total


def test_identity_scalar_examples(scalar_space):
    a, b, c = np.array([1.0]), np.array([0.0]), np.array([0.0])
    assert bdf2_identity_gap(a, b, c, scalar_space) == pytest.approx(0.0, abs=1e-15)
    v = np.array([2.7])
    assert bdf2_identity_gap(v, v, v, scalar_space) == pytest.approx(0.0, abs=1e-14)


def test_identity_fuzz_r5():
    rng = np.random.default_rng(21)
    for _ in range(1000):
        space = make_space(random_spd(rng, 5))
        a, b, c = rng.normal(size=(3, 5))
        scale = 1.0 + sum(space.h_norm(v) ** 2 for v in (a, b, c))
        assert bdf2_identity_gap(a, b, c, space) <= 1e-12 * scale


def test_slack_tight_case(scalar_space):
    # a - 2b + c = 0 makes the inequality an equality
    slack = bdf2_inequality_slack(np.array([2.0]), np.array([1.0]), np.array([0.0]), scalar_space)
    assert slack == pytest.approx(0.0, abs=1e-14)


def test_slack_direct_arithmetic(scalar_space):
    slack = bdf2_inequality_slack(np.array([1.0]), np.array([0.0]), np.array([0.0]), scalar_space)
    assert slack == pytest.approx(1.0)
    v = np.array([3.3])
    assert bdf2_inequality_slack(v, v, v, scalar_space) == pytest.approx(0.0, abs=1e-14)


def test_slack_equals_second_difference_norm():
    rng = np.random.default_rng(22)
    for _ in range(300):
        dim = int(rng.integers(1, 7))
        space = make_space(random_spd(rng, dim))
        a, b, c = rng.normal(size=(3, dim))
        slack = bdf2_inequality_slack(a, b, c, space)
        expected = space.h_norm(a - 2.0 * b + c) ** 2
        assert slack == pytest.approx(expected, rel=1e-9, abs=1e-11)
        assert slack >= -1e-12 * (1.0 + expected)


def test_identity_dimension_mismatch(scalar_space):
    with pytest.raises(ValueError):
        bdf2_identity_gap(np.ones(2), np.ones(1), np.ones(1), scalar_space)


def test_interpolant_values_at_knots():
    space, traj = scalar_traj([0.0, 1.0, 3.0, 4.0], T=3.0)
    interp = Interpolants(traj)
    u = traj.u
    for n in (2, 3):
        expected = 1.5 * u[n] - 0.5 * u[n - 1]
        assert interp.piecewise_linear(n * 1.0) == pytest.approx(expected)
    assert interp.piecewise_linear(1.0) == pytest.approx(1.5 * u[1] - 0.5 * u[0])


def test_interpolant_continuity_at_interior_knots():
    rng = np.random.default_rng(8)
    space, traj = scalar_traj(rng.normal(size=6), T=1.0)
    interp = Interpolants(traj)
    tau = traj.grid.tau
    for n in range(1, 5):
        left = interp.piecewise_linear(n * tau - 1e-12)
        right = interp.piecewise_linear(n * tau + 1e-12)
        assert left == pytest.approx(right, abs=1e-9)


def test_interpolant_constant_trajectory():
    space, traj = scalar_traj([2.0] * 5)
    interp = Interpolants(traj)
    for t in (0.0, 0.3, 0.77, 1.0):
        assert interp.piecewise_constant(t) == pytest.approx([2.0])
        assert interp.piecewise_linear(t) == pytest.approx([2.0])
        assert interp.derivative(t) == pytest.approx([0.0])


def test_interpolant_right_continuity_of_constant_branch():
    space, traj = scalar_traj([0.0, 1.0, 2.0])
    interp = Interpolants(traj)
    assert interp.piecewise_constant(0.0) == pytest.approx([0.0])
    assert interp.piecewise_constant(1e-9) == pytest.approx([1.0])
    assert interp.piecewise_constant(0.5) == pytest.approx([1.0])
    assert interp.piecewise_constant(0.5 + 1e-9) == pytest.approx([2.0])


def test_interpolant_domain_error():
    space, traj = scalar_traj([0.0, 1.0, 2.0])
    interp = Interpolants(traj)
    with pytest.raises(ValueError):
        interp.piecewise_linear(-0.1)
    with pytest.raises(ValueError):
        interp.piecewise_constant(1.1)


def test_interpolant_gap_matches_difference():
    rng = np.random.default_rng(12)
    space, traj = scalar_traj(rng.normal(size=7))
    interp = Interpolants(traj)
    for t in rng.uniform(1e-6, 1.0, 40):
        direct = interp.piecewise_linear(t) - interp.piecewise_constant(t)
        assert interp.gap(t) == pytest.approx(direct, abs=1e-12)


def test_estimate_report_hand_computed_scalar_case():
    space, traj = scalar_traj([0.0, 1.0, 2.0], T=1.0)  # tau = 0.5
    rep = estimate_report(traj, space)
    assert rep.q3 == pytest.approx(0.5 * (0 + 1 + 4))
    assert rep.q4 == pytest.approx(2.0)
    assert rep.q5 == pytest.approx(0.0)
    assert rep.q6 == pytest.approx(0.5 * (1.0 / 0.5) ** 2)
    assert rep.q7 == pytest.approx(0.5 * ((1.5 * 2 - 2 + 0) / 0.5) ** 2)
    assert rep.q75 == pytest.approx(0.0)
    assert rep.u1_u0_gap == pytest.approx(1.0)
    assert rep.bv_bound == pytest.approx(0.5 * ((1 / 0.5) ** 2 + (1 / 0.5) ** 2))
    # both windows contribute ||diff||^2 integrals of tau/12 each
    assert rep.gap_closed_form == pytest.approx(1.0 / 12.0, rel=1e-12)


def test_estimate_report_zero_trajectory():
    space, traj = scalar_traj([0.0, 0.0, 0.0, 0.0])
    rep = estimate_report(traj, space)
    for name in ("q3", "q4", "q5", "q6", "q7", "q75", "gap_closed_form",
                 "u1_u0_gap", "bv_bound"):
        assert getattr(rep, name) == 0.0


def test_estimate_report_linear_in_time_second_differences_vanish():
    taus = np.linspace(0.0, 1.0, 9)
    space, traj = scalar_traj(3.0 * taus)
    rep = estimate_report(traj, space)
    assert rep.q75 == pytest.approx(0.0, abs=1e-26)


def test_gap_closed_form_matches_quadrature_on_real_run():
    problem = fem_problem(16, PaperExponential(1.0), one, one, zero, zero)
    traj = run_rothe(problem, TimeGrid(1.0, 16), "bdf2", 1e-12)
    rep = estimate_report(traj, problem.space, problem.boundary.weights)
    assert rep.gap_closed_form == pytest.approx(gap_quadrature(problem.space, traj), rel=1e-12)


def _q5_step_by_step(space, traj, weights):
    """tau * sum_n ||w xi^n||_{U*}^2, one dual norm per step."""
    def boundary_dual_norm(a):
        return float(np.sqrt(max(a @ space.gram_u.solve(a), 0.0)))

    return traj.grid.tau * sum(boundary_dual_norm(weights * xi_n) ** 2 for xi_n in traj.xi)


def test_q5_equals_the_sum_of_its_steps_on_a_real_run():
    problem = fem_problem(16, NonconvexPiecewise(), one, lambda x: np.full(x.shape, 3.0),
                          zero, zero)
    traj = run_rothe(problem, TimeGrid(1.0, 32), "bdf2")
    weights = problem.boundary.weights
    rep = estimate_report(traj, problem.space, weights)
    assert np.abs(traj.xi).max() > 0.1  # the flux term is active
    assert rep.q5 == pytest.approx(_q5_step_by_step(problem.space, traj, weights), rel=1e-14)


@pytest.mark.parametrize("seed", range(5))
def test_q5_equals_the_sum_of_its_steps_with_two_boundary_rows(seed):
    rng = np.random.default_rng(seed)
    dim, n_steps = 6, 7
    gram_h = random_spd(rng, dim)
    space = GalerkinSpace(gram_h=gram_h, gram_v=gram_h + np.eye(dim),
                          trace=rng.normal(size=(2, dim)), gram_u=random_spd(rng, 2))
    traj = RotheTrajectory(
        grid=TimeGrid(1.0, n_steps),
        u=rng.normal(size=(n_steps + 1, dim)),
        xi=rng.normal(size=(n_steps, 2)),
        per_step_residuals=np.zeros(n_steps),
    )
    weights = rng.uniform(0.5, 2.0, size=2)
    rep = estimate_report(traj, space, weights)
    assert rep.q5 == pytest.approx(_q5_step_by_step(space, traj, weights), rel=1e-14)


def test_gap_with_small_trace_norm_and_zero_stencil():
    # the gap is then pure second difference, which no trace-norm-scaled
    # bound may stand in for
    space = GalerkinSpace(gram_h=np.eye(2), gram_v=np.eye(2), trace=[[1e-3, 0.0]],
                          gram_u=[[1.0]])
    traj = hand_traj([[0.0, 0.0], [1.0, 0.0], [4.0 / 3.0, 0.0]])
    rep = estimate_report(traj, space)
    assert rep.q7 == pytest.approx(0.0, abs=1e-30)
    assert rep.gap_closed_form == pytest.approx(0.5 / 12.0 + 0.5 / 16.0 * 4.0 / 9.0, rel=1e-14)
    assert rep.gap_closed_form == pytest.approx(gap_quadrature(space, traj), rel=1e-12)


@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 6),
    n_steps=st.integers(1, 8),
    log_trace=st.floats(-3.0, 0.0),
    log_t=st.floats(-1.0, 1.0),
)
def test_gap_closed_form_is_the_exact_gap_integral(seed, dim, n_steps, log_trace, log_t):
    rng = np.random.default_rng(seed)
    space = GalerkinSpace(
        gram_h=random_spd(rng, dim),
        gram_v=random_spd(rng, dim),
        trace=10.0**log_trace * rng.normal(size=(1, dim)),
        gram_u=np.eye(1),
    )
    u = rng.normal(size=(n_steps + 1, dim)) * rng.choice([0.1, 1.0, 10.0])
    traj = hand_traj(u, 10.0**log_t)
    rep = estimate_report(traj, space)  # never raises on a finite trajectory
    assert rep.gap_closed_form == pytest.approx(gap_quadrature(space, traj), rel=1e-12)


def test_ladder_study_smooth_problem_gaps_shrink():
    problem = fem_problem(8, LinearRobin(1.0), lambda t: np.sin(np.pi * t), one, zero, zero)
    taus = [1.0 / n for n in (8, 16, 32, 64)]
    study = tau_ladder_study(problem, 1.0, taus, "bdf2", 1e-12)
    u1 = study.series("u1_u0_gap")
    ratios = u1[1:] / u1[:-1]
    assert np.all(ratios <= 0.75)
    gq = study.series("gap_closed_form")
    assert np.all(gq[1:] / gq[:-1] <= 0.75)


def test_ladder_study_zero_data_all_rows_zero():
    problem = fem_problem(4, ZeroPotential(), zero, zero, zero, zero)
    study = tau_ladder_study(problem, 1.0, [0.25, 0.125], "bdf2")
    for row in study.rows:
        assert row.report.q3 == 0.0
        assert row.report.gap_closed_form == 0.0


def test_ladder_study_validation():
    problem = fem_problem(4, ZeroPotential(), zero, zero, zero, zero)
    with pytest.raises(ValueError):
        tau_ladder_study(problem, 1.0, [0.125, 0.25], "bdf2")
    with pytest.raises(ValueError):
        tau_ladder_study(problem, 1.0, [0.3], "bdf2")
    with pytest.raises(ValueError):
        tau_ladder_study(problem, 1.0, [], "bdf2")
    # a step that splits [0, 1] into no whole number of steps is named
    for tau in (0.0, -0.25, math.nan, math.inf, 5e-324):
        with pytest.raises(ValueError, match=f"tau={re.escape(str(tau))} "):
            tau_ladder_study(problem, 1.0, [tau], "bdf2")


def test_peak_h_norm_stable_across_ladder():
    problem = fem_problem(16, PaperExponential(1.0), one, one, zero, zero)
    taus = [1.0 / n for n in (8, 16, 32)]
    study = tau_ladder_study(problem, 1.0, taus, "bdf2", 1e-12)
    q4 = study.series("q4")
    assert q4.max() / q4.min() < 1.001


# --- the row-block estimate layer ---------------------------------------


def _three_stack_report(traj, space, weights):
    """The estimate quantities by the textbook formulas: the three
    full-trajectory stacks of first differences, stencils and second
    differences, each through its own H-product, Riesz solve and einsum.
    The reducer keeps the bits of six of its fields and agrees on q7, q75
    and gap_closed_form to rounding."""

    def quad_rows(rows, gram):
        return np.maximum(np.einsum("ij,ij->i", rows @ gram, rows), 0.0)

    def dual_sq_rows(rows):
        w = rows @ space.gram_h
        return np.maximum(np.einsum("ij,ji->i", w, space.gram_v.solve(w.T)), 0.0)

    u, tau = traj.u, traj.grid.tau
    actions = traj.xi * np.asarray(weights, dtype=float)
    diffs = u[1:] - u[:-1]
    stencils = 1.5 * u[2:] - 2.0 * u[1:-1] + 0.5 * u[:-2]
    seconds = u[2:] - 2.0 * u[1:-1] + u[:-2]
    diff_sq, stencil_sq, second_sq = (dual_sq_rows(r) for r in (diffs, stencils, seconds))
    q5_rows = np.maximum(np.einsum("ij,ji->i", actions, space.gram_u.solve(actions.T)), 0.0)
    gap = tau / 12.0 * (diff_sq[0] + stencil_sq.sum()) + tau / 16.0 * second_sq.sum()
    return (
        tau * float(quad_rows(u, space.gram_v).sum()),
        float(np.sqrt(quad_rows(u, space.gram_h).max())),
        tau * float(q5_rows.sum()),
        float(diff_sq[0]) / tau,
        float(stencil_sq.sum()) / tau,
        float(quad_rows(seconds, space.gram_h).sum()),
        float(gap),
        space.h_norm(diffs[0]),
        float(diff_sq.sum()) / tau,
    )


def _first_difference_report(traj, space, weights):
    """The estimate quantities by the reducer's formulas over the whole
    trajectory: the first differences d_n and the second differences
    e_n = d_n - d_{n-1} through one H-product, the d_n through one Riesz
    solve, and s_n = d_n + e_n / 2 by linearity: the formulas the row-block
    layer must reproduce bit for bit."""

    def rows_dot(left, right):
        return np.maximum(np.einsum("ij,ij->i", left, right), 0.0)

    u, tau = traj.u, traj.grid.tau
    actions = traj.xi * np.asarray(weights, dtype=float)
    d = u[1:] - u[:-1]
    e = d[1:] - d[:-1]
    hd, he = d @ space.gram_h, e @ space.gram_h
    zd = space.gram_v.solve(hd.T).T
    ze = zd[1:] - zd[:-1]
    diff_sq, second_sq = rows_dot(hd, zd), rows_dot(he, ze)
    stencil_sq = rows_dot(hd[1:] + 0.5 * he, zd[1:] + 0.5 * ze)
    q5_rows = np.maximum(np.einsum("ij,ji->i", actions, space.gram_u.solve(actions.T)), 0.0)
    gap = tau / 12.0 * (diff_sq[0] + stencil_sq.sum()) + tau / 16.0 * second_sq.sum()
    return (
        tau * float(rows_dot(u @ space.gram_v, u).sum()),
        float(np.sqrt(rows_dot(u @ space.gram_h, u).max())),
        tau * float(q5_rows.sum()),
        float(diff_sq[0]) / tau,
        float(stencil_sq.sum()) / tau,
        float(rows_dot(he, e).sum()),
        float(gap),
        space.h_norm(d[0]),
        float(diff_sq.sum()) / tau,
    )


FIELDS = tuple(f.name for f in dataclasses.fields(diagnostics.EstimateReport))
# the fields the first-difference formulas compute in the textbook's order
# of operations, and those whose rounding they change
KEPT_FIELDS = ("q3", "q4", "q5", "q6", "u1_u0_gap", "bv_bound")
MOVED_FIELDS = ("q7", "q75", "gap_closed_form")


def _bits(values) -> bytes:
    return np.array(values, dtype=np.float64).tobytes()


def _report_bits(report) -> bytes:
    return _bits([getattr(report, name) for name in FIELDS])


def _assert_the_report_of(report, traj, space, weights):
    """Every bit of the first-difference formulas; the textbook's bits for
    the six fields whose rounding they keep, and its values within 1e-12
    relative for the other three."""
    assert _report_bits(report) == _bits(_first_difference_report(traj, space, weights))
    textbook = dict(zip(FIELDS, _three_stack_report(traj, space, weights)))
    for name in KEPT_FIELDS:
        assert _bits([getattr(report, name)]) == _bits([textbook[name]]), name
    for name in MOVED_FIELDS:
        assert getattr(report, name) == pytest.approx(textbook[name], rel=1e-12, abs=0.0), name


def _ncvx_problem(n_el):
    # the benchmark's sweep law and forcing: constant f0 = 3 on the
    # default nonconvex law, several roots per step
    return fem_problem(n_el, NonconvexPiecewise(), lambda t: 3.0 + 0.0 * t, one, zero, zero)


@pytest.mark.parametrize("n_el", [8, 64])
@pytest.mark.parametrize("scheme, n_steps", [
    (BACKWARD_EULER, 1), (BACKWARD_EULER, 2), (BACKWARD_EULER, 4), (BACKWARD_EULER, 64),
    (BDF2, 2), (BDF2, 4), (BDF2, 64),
])
def test_row_blocks_reproduce_the_first_difference_report_bit_for_bit(n_el, scheme, n_steps):
    problem = _ncvx_problem(n_el)
    traj = run_rothe(problem, TimeGrid(1.0, n_steps), scheme)
    report = estimate_report(traj, problem.space, problem.boundary.weights)
    _assert_the_report_of(report, traj, problem.space, problem.boundary.weights)


@pytest.mark.parametrize("block_cells", [None, 1, 5 * 68, 6 * 68 + 7])
def test_a_report_over_several_row_blocks_keeps_its_bits(monkeypatch, block_cells):
    # 513 rows of 65 states (68 cells a row of the run): three blocks at the
    # stepper's BLOCK_CELLS, and blocks of two, five and six rows (513 =
    # 2 * 256 + 1: the last block is one row), so block edges split d_n
    # from s_n and e_n everywhere
    if block_cells is not None:
        monkeypatch.setattr(stepper, "BLOCK_CELLS", block_cells)
    problem = fem_problem(64, PaperExponential(1.0), lambda t: 1.0 - np.cos(np.pi * t),
                          lambda x: 0.5 * (1.0 + x), lambda t: 0.5 * t * t * np.exp(-t), zero)
    traj = run_rothe(problem, TimeGrid(1.0, 512), BDF2)
    assert len(traj.u) > 2 * stepper.block_rows(68)
    report = estimate_report(traj, problem.space, problem.boundary.weights)
    _assert_the_report_of(report, traj, problem.space, problem.boundary.weights)


@pytest.mark.parametrize("scheme, n_steps", [
    (BACKWARD_EULER, 1), (BACKWARD_EULER, 2), (BDF2, 2), (BDF2, 3), (BDF2, 4), (BDF2, 5),
    (BACKWARD_EULER, 9),
])
def test_rows_longer_than_the_einsum_buffer_keep_their_bits(scheme, n_steps):
    # 16385 entries a row: einsum reduces a lone row of more than 8192
    # entries in another order than a row of a stack, so each family is
    # reduced as a stack in every block of four or more rows (N = 4 folds
    # its last row into the block before; N = 9 has three blocks), and alone
    # where the family has one row (d_1 at N = 1, s_2 and e_2 at N = 2).
    # At this size the absolute step tolerance 1e-10 lies below the
    # rounding of the step residual, so the steps are accepted at 1e-6
    problem = _ncvx_problem(16384)
    traj = run_rothe(problem, TimeGrid(1.0, n_steps), scheme, tol=1e-6)
    report = estimate_report(traj, problem.space, problem.boundary.weights)
    _assert_the_report_of(report, traj, problem.space, problem.boundary.weights)


def _run_rows(traj) -> np.ndarray:
    """The rows of a run as ``run_blocks`` yields them: t, u, xi, residual."""
    n, dim = traj.u.shape
    rows = np.zeros((n, dim + traj.xi.shape[1] + 2))
    rows[:, 0] = traj.grid.times()
    rows[:, 1 : dim + 1] = traj.u
    rows[1:, dim + 1 : -1] = traj.xi
    rows[1:, -1] = traj.per_step_residuals
    return rows


@pytest.mark.parametrize("n_el, n_steps, sizes", [
    (64, 64, [1, 2, 3, 4, 5, 7, 16, 32, 63, 64, 65]),
    (1024, 32, [1, 2, 8, 15, 16, 32, 33]),
    (16384, 9, range(1, 11)),
])
def test_the_reducer_gives_the_same_bits_for_every_partition_of_a_run(n_el, n_steps, sizes):
    # blocks of one row up to the whole run, a last block of one row among
    # them (64 steps in blocks of 3 or 7; 9 steps in blocks of 3 or 9); at
    # n_el = 1024 and 32 steps, wide-smooth's shape, a run block holds 15
    # rows of 1,028 entries; at n_el = 16384 a row is longer than einsum's
    # buffer, and the steps are accepted at 1e-6 (see above)
    problem = _ncvx_problem(n_el)
    space, weights = problem.space, problem.boundary.weights
    traj = run_rothe(problem, TimeGrid(1.0, n_steps), BDF2, tol=1e-6)
    rows = _run_rows(traj)
    reports = []
    for size in sizes:
        sums = diagnostics.EstimateSums(space, traj.grid, weights)
        for start in range(0, len(rows), size):
            sums.add(rows[start : start + size])
        reports.append(sums.report())
    _assert_the_report_of(reports[0], traj, space, weights)
    assert {_report_bits(report) for report in reports} == {_report_bits(reports[0])}


LD = np.longdouble
TRAJECTORY_KINDS = ("smooth", "rough", "tiny tau")


def _p1_trajectory(kind, n_el, n_steps, seed):
    """The P1 space on Mesh1D(n_el) and a trajectory of n_steps on it, with
    random multipliers: smooth in x and t at tau = 1/n_steps ("smooth") or at
    a tau between 1e-6 and 1e-4 ("tiny tau"), or states of independent
    normal entries on a scale between 1e-3 and 1e3 ("rough")."""
    rng = np.random.default_rng(seed)
    space, _ = assemble_space(Mesh1D(n_el))
    x = np.linspace(0.0, 1.0, n_el + 1)
    tau = 10.0 ** rng.uniform(-6.0, -4.0) if kind == "tiny tau" else 1.0 / n_steps
    if kind == "rough":
        u = rng.normal(size=(n_steps + 1, n_el + 1)) * 10.0 ** rng.uniform(-3.0, 3.0)
    else:
        t = tau * np.arange(n_steps + 1)[:, None]
        c, w = rng.normal(size=4), rng.uniform(0.5, 3.0, size=2)
        u = (c[0] * np.cos(w[0] * t + c[1]) * np.cos(np.pi * w[1] * x)
             + c[2] * np.exp(-t) * (1.0 + c[3] * x * x))
    traj = RotheTrajectory(grid=TimeGrid(tau * n_steps, n_steps), u=u,
                           xi=rng.normal(size=(n_steps, 1)), per_step_residuals=np.zeros(n_steps))
    return space, traj


def _longdouble_solve(band, rhs):
    """band^{-1} rhs for the columns of rhs in long double, by Gaussian
    elimination without pivoting (every Gram is positive definite)."""
    a, x = band.toarray().astype(LD), rhs.astype(LD)
    for k in range(len(a) - 1):
        f = a[k + 1 :, k] / a[k, k]
        a[k + 1 :] -= np.outer(f, a[k])
        x[k + 1 :] -= np.outer(f, x[k])
    for k in range(len(a) - 1, -1, -1):
        x[k] = (x[k] - a[k, k + 1 :] @ x[k + 1 :]) / a[k, k]
    return x


def _longdouble_report(traj, space, weights):
    """The textbook formulas in long double on the trajectory's doubles:
    64-bit significands form the stencils and second differences of close
    states exactly, so the reference is far below double rounding."""
    u, tau = traj.u.astype(LD), LD(traj.grid.tau)
    gram_h, gram_v = (band.toarray().astype(LD) for band in (space.gram_h, space.gram_v))

    def quad_rows(rows, gram):
        return np.einsum("ij,ij->i", rows @ gram, rows)

    def dual_sq_rows(rows):
        w = rows @ gram_h
        return np.einsum("ij,ji->i", w, _longdouble_solve(space.gram_v, w.T))

    actions = traj.xi.astype(LD) * np.asarray(weights, dtype=LD)
    diffs = u[1:] - u[:-1]
    stencils = LD(1.5) * u[2:] - LD(2.0) * u[1:-1] + LD(0.5) * u[:-2]
    seconds = u[2:] - LD(2.0) * u[1:-1] + u[:-2]
    diff_sq, stencil_sq, second_sq = (dual_sq_rows(r) for r in (diffs, stencils, seconds))
    q5_rows = np.einsum("ij,ji->i", actions, _longdouble_solve(space.gram_u, actions.T))
    return dict(zip(FIELDS, (
        tau * quad_rows(u, gram_v).sum(),
        np.sqrt(quad_rows(u, gram_h).max()),
        tau * q5_rows.sum(),
        diff_sq[0] / tau,
        stencil_sq.sum() / tau,
        quad_rows(seconds, gram_h).sum(),
        tau / 12 * (diff_sq[0] + stencil_sq.sum()) + tau / 16 * second_sq.sum(),
        np.sqrt(quad_rows(diffs[:1], gram_h)[0]),
        diff_sq.sum() / tau,
    )))


def _relative_errors(values, reference, names) -> np.ndarray:
    """|value - reference| / |reference| per field (0 where both are 0)."""
    errors = [abs(LD(values[name]) - reference[name]) for name in names]
    return np.array([float(err / abs(reference[name])) if err else 0.0
                     for err, name in zip(errors, names)])


@given(
    kind=st.sampled_from(TRAJECTORY_KINDS),
    n_el=st.sampled_from([1, 2, 3, 4, 8, 16, 32]),
    n_steps=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_every_field_lies_within_1e_12_of_a_long_double_evaluation(kind, n_el, n_steps, seed):
    # with e_n = d_n - d_{n-1} and its own H-product, q75 keeps its accuracy
    # at tiny tau; the row difference of the d_n's H-embeddings would lose
    # |d_n| / |e_n|, some 1e-11 relative at tau = 1e-5
    space, traj = _p1_trajectory(kind, n_el, n_steps, seed)
    weights = np.ones(1)
    report = dataclasses.asdict(estimate_report(traj, space, weights))
    errors = _relative_errors(report, _longdouble_report(traj, space, weights), FIELDS)
    assert errors.max() <= 1e-12, dict(zip(FIELDS, errors))


@pytest.mark.parametrize("kind", TRAJECTORY_KINDS)
def test_the_moved_fields_are_no_less_accurate_than_the_textbook(kind):
    # on one trajectory either evaluation may lie the closer to the long
    # double reference by a few ulps (both round the V*-norms through the
    # same factor of gram_v, and the textbook's stencils round at the scale
    # of |u| wherever a state changes sign), so the medians over 100
    # trajectories are compared, to within one ulp
    rng = np.random.default_rng(30)
    ours, textbook = [], []
    for _ in range(100):
        n_el, n_steps = int(rng.choice([1, 2, 4, 8, 16, 32])), int(rng.integers(2, 13))
        space, traj = _p1_trajectory(kind, n_el, n_steps, int(rng.integers(2**32)))
        reference = _longdouble_report(traj, space, np.ones(1))
        report = dataclasses.asdict(estimate_report(traj, space, np.ones(1)))
        three = dict(zip(FIELDS, _three_stack_report(traj, space, np.ones(1))))
        ours.append(_relative_errors(report, reference, MOVED_FIELDS))
        textbook.append(_relative_errors(three, reference, MOVED_FIELDS))
    ours, textbook = np.median(ours, axis=0), np.median(textbook, axis=0)
    assert np.all(ours <= textbook + 2.3e-16), (ours, textbook)


@pytest.mark.parametrize("carried", [0, 2])
def test_a_block_makes_three_band_products_and_one_riesz_solve(monkeypatch, carried):
    # ||u^n||_V, |u^n|_H and one stack of the d_n and e_n: a block with no
    # state before it and one with two carried over
    problem = _ncvx_problem(8)
    space = problem.space
    traj = run_rothe(problem, TimeGrid(1.0, 8), BDF2)
    sums = diagnostics.EstimateSums(space, traj.grid, problem.boundary.weights)
    if carried:
        sums._add_states(traj.u[:3], traj.xi[:2])
    calls = collections.Counter()
    product = diagnostics._diagonal_product

    def counted_product(ab, x):
        calls["product"] += 1
        return product(ab, x)

    monkeypatch.setattr(diagnostics, "_diagonal_product", counted_product)
    for name in ("gram_h", "gram_v", "gram_u"):
        band = getattr(space, name)

        def counted_solve(b, name=name, solve=band.back_solve):
            calls[name] += 1
            return solve(b)

        monkeypatch.setitem(band.__dict__, "back_solve", counted_solve)
    first = 3 if carried else 0
    sums._add_states(traj.u[first : first + 4], traj.xi[max(first, 1) - 1 : first + 3])
    assert calls == {"product": 3, "gram_v": 1}


def test_a_run_streamed_through_the_reducer_reports_as_its_trajectory():
    problem = _ncvx_problem(64)
    grid = TimeGrid(1.0, 64)
    sums = diagnostics.EstimateSums(problem.space, grid, problem.boundary.weights)
    for block in stepper.run_blocks(problem, grid):
        sums.add(block)
    traj = run_rothe(problem, grid)
    assert sums.report() == estimate_report(traj, problem.space, problem.boundary.weights)
    with pytest.raises(ValueError, match="the 65 rows of the run were not all added"):
        diagnostics.EstimateSums(problem.space, grid).report()


def test_the_report_holds_no_stack_of_trajectory_size():
    # BDF2 on the smooth problem at n_el = 1024, tau = 1/256: u is 2.1 MB;
    # three full-size stacks and their products peaked at about 5 times that
    problem = fem_problem(1024, PaperExponential(1.0), lambda t: 1.0 - np.cos(np.pi * t),
                          lambda x: 0.5 * (1.0 + x), lambda t: 0.5 * t * t * np.exp(-t), zero)
    traj = run_rothe(problem, TimeGrid(1.0, 256), BDF2)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        estimate_report(traj, problem.space, problem.boundary.weights)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert traj.u.nbytes > 2e6
    assert peak <= 1.5 * traj.u.nbytes


@pytest.mark.parametrize("where", ["u", "xi"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_a_non_finite_held_trajectory_raises_before_it_is_reduced(where, value):
    # the reducer multiplies and solves by the bands' unchecked kernels, so
    # a held trajectory is checked once, where it enters
    problem = _ncvx_problem(8)
    traj = run_rothe(problem, TimeGrid(1.0, 8), BDF2)
    getattr(traj, where)[3, 0] = value
    with pytest.raises(ValueError, match="the trajectory must be finite"):
        estimate_report(traj, problem.space, problem.boundary.weights)


def test_a_held_trajectory_of_another_dimension_raises():
    problem = _ncvx_problem(8)
    traj = run_rothe(problem, TimeGrid(1.0, 8), BDF2)
    short = dataclasses.replace(traj, u=traj.u[:, :-1])
    with pytest.raises(ValueError, match=f"with states of {problem.space.dim} entries"):
        estimate_report(short, problem.space, problem.boundary.weights)
