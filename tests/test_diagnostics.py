from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import make_space, random_spd
from rothe_hvi import (
    BoundaryFunctional,
    ForcingSpec,
    GalerkinSpace,
    LinearRobin,
    Mesh1D,
    NonconvexPiecewise,
    PaperExponential,
    RotheProblem,
    RotheTrajectory,
    TimeGrid,
    ZeroPotential,
    assemble_forcing,
    assemble_space,
    bdf2_identity_gap,
    bdf2_inequality_slack,
    estimate_report,
    make_initial,
    run_rothe,
    tau_ladder_study,
)


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


def fem_problem(n_el, potential, f0, f_N, u0_fun):
    mesh = Mesh1D(n_el)
    space, op = assemble_space(mesh)
    spec = ForcingSpec(f0, f_N)
    u0 = make_initial(mesh, space, u0_fun)
    return RotheProblem(space, op, BoundaryFunctional(potential, np.ones(1)),
                        lambda t: assemble_forcing(mesh, spec, t), u0)


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
    problem = fem_problem(16, PaperExponential(1.0),
                          lambda t, x: np.ones_like(x), lambda t: 0.0,
                          lambda x: np.zeros_like(x))
    traj = run_rothe(problem, TimeGrid(1.0, 16), "bdf2", 1e-12)
    rep = estimate_report(traj, problem.space, problem.boundary.weights)
    assert rep.gap_closed_form == pytest.approx(gap_quadrature(problem.space, traj), rel=1e-12)


def _q5_step_by_step(space, traj, weights):
    """tau * sum_n ||w xi^n||_{U*}^2, one dual norm per step."""
    return traj.grid.tau * sum(space.dual_u_norm(weights * xi_n) ** 2 for xi_n in traj.xi)


def test_q5_equals_the_sum_of_its_steps_on_a_real_run():
    problem = fem_problem(16, NonconvexPiecewise(), lambda t, x: np.full(x.shape, 3.0),
                          lambda t: 0.0, lambda x: np.zeros_like(x))
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
    problem = fem_problem(8, LinearRobin(1.0),
                          lambda t, x: np.ones_like(x) * np.sin(np.pi * t),
                          lambda t: 0.0, lambda x: np.zeros_like(x))
    taus = [1.0 / n for n in (8, 16, 32, 64)]
    study = tau_ladder_study(problem, 1.0, taus, "bdf2", 1e-12)
    u1 = study.series("u1_u0_gap")
    ratios = u1[1:] / u1[:-1]
    assert np.all(ratios <= 0.75)
    gq = study.series("gap_closed_form")
    assert np.all(gq[1:] / gq[:-1] <= 0.75)


def test_ladder_study_zero_data_all_rows_zero():
    problem = fem_problem(4, ZeroPotential(),
                          lambda t, x: np.zeros_like(x), lambda t: 0.0,
                          lambda x: np.zeros_like(x))
    study = tau_ladder_study(problem, 1.0, [0.25, 0.125], "bdf2")
    for row in study.rows:
        assert row.report.q3 == 0.0
        assert row.report.gap_closed_form == 0.0


def test_ladder_study_validation():
    problem = fem_problem(4, ZeroPotential(),
                          lambda t, x: np.zeros_like(x), lambda t: 0.0,
                          lambda x: np.zeros_like(x))
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
    problem = fem_problem(16, PaperExponential(1.0),
                          lambda t, x: np.ones_like(x), lambda t: 0.0,
                          lambda x: np.zeros_like(x))
    taus = [1.0 / n for n in (8, 16, 32)]
    study = tau_ladder_study(problem, 1.0, taus, "bdf2", 1e-12)
    q4 = study.series("q4")
    assert q4.max() / q4.min() < 1.001
