from __future__ import annotations

import math

import numpy as np
import pytest

from rothe_hvi import (
    BoundaryFunctional,
    ForcingSpec,
    GalerkinSpace,
    LinearOperatorA,
    LinearRobin,
    Mesh1D,
    NonconvexPiecewise,
    PaperExponential,
    RotheProblem,
    StepFailureError,
    TimeGrid,
    ZeroPotential,
    assemble_forcing,
    assemble_space,
    average_forcing,
    bdf2_step,
    check_step_coercivity,
    initial_step,
    make_initial,
    run_rothe,
)


def scalar_problem(potential, forcing, u0=0.0, stiffness=0.0):
    space = GalerkinSpace(gram_h=[[1.0]], gram_v=[[1.0 + stiffness]],
                          trace=[[1.0]], gram_u=[[1.0]])
    op = LinearOperatorA([[stiffness]], alpha=1.0, beta=1.0, a_growth=0.0, b_growth=1.0)
    bnd = BoundaryFunctional(potential, np.ones(1))
    return RotheProblem(space, op, bnd, forcing, np.array([float(u0)]))


def fem_problem(n_el, potential, f0, f_N, u0_fun, tau_hint=0.1):
    mesh = Mesh1D(n_el)
    space, op = assemble_space(mesh)
    spec = ForcingSpec(f0, f_N)
    u0 = make_initial(mesh, space, u0_fun, tau_hint).coeffs
    bnd = BoundaryFunctional(potential, np.ones(1))
    return RotheProblem(space, op, bnd, lambda t: assemble_forcing(mesh, spec, t), u0)


def test_average_forcing_constant_reproduced():
    grid = TimeGrid(1.0, 10)
    f = lambda t: np.array([4.0])
    for n in (1, 2, 7, 10):
        assert average_forcing(f, n, grid) == pytest.approx([4.0])


def test_average_forcing_linear_in_time():
    grid = TimeGrid(1.0, 10)  # tau = 0.1
    f = lambda t: np.array([t])
    assert average_forcing(f, 1, grid) == pytest.approx([0.05])
    assert average_forcing(f, 3, grid) == pytest.approx([0.3])


def test_average_forcing_quadratic_window_values():
    grid = TimeGrid(2.0, 2)  # tau = 1
    f = lambda t: np.array([t * t])
    # 1.5 * int_1^2 t^2 - 0.5 * int_0^1 t^2 = 1.5 * 7/3 - 0.5 * 1/3 = 10/3
    assert average_forcing(f, 2, grid) == pytest.approx([10.0 / 3.0])


def test_average_forcing_index_range():
    grid = TimeGrid(1.0, 4)
    with pytest.raises(ValueError):
        average_forcing(lambda t: np.array([1.0]), 0, grid)
    with pytest.raises(ValueError):
        average_forcing(lambda t: np.array([1.0]), 5, grid)


def test_initial_step_linear_matches_direct_solve():
    problem = fem_problem(8, ZeroPotential(),
                          lambda t, x: np.sin(np.pi * x), lambda t: 0.25,
                          lambda x: x * (1 - x))
    tau = 0.125
    f1 = average_forcing(problem.forcing, 1, TimeGrid(1.0, 8))
    u1, xi1, _ = initial_step(problem, problem.u0, f1, tau)
    M = problem.space.gram_h
    K = problem.operator.stiffness
    direct = np.linalg.solve(M + tau * K, tau * f1 + M @ problem.u0)
    assert u1 == pytest.approx(direct, rel=1e-12)
    assert xi1 == pytest.approx([0.0], abs=1e-12)


def test_initial_step_scalar_toy_stays_at_kink():
    problem = scalar_problem(PaperExponential(1.0), lambda t: np.zeros(1), stiffness=1.0)
    u1, xi1, _ = initial_step(problem, np.zeros(1), np.zeros(1), 0.5)
    assert u1 == pytest.approx([0.0], abs=1e-12)
    assert 0.0 <= xi1[0] <= 1.0


def test_initial_step_scalar_toy_constructed_unit_root():
    tau = 0.5
    f1 = (1.0 + tau) / tau + (math.exp(-1.0) + 1.0)
    problem = scalar_problem(PaperExponential(1.0), lambda t: np.array([f1]), stiffness=1.0)
    u1, xi1, _ = initial_step(problem, np.zeros(1), np.array([f1]), tau)
    assert u1[0] == pytest.approx(1.0, abs=1e-8)
    assert xi1[0] == pytest.approx(math.exp(-1.0) + 1.0, abs=1e-8)


def test_two_step_scheme_exact_on_linear_sequences():
    problem = scalar_problem(ZeroPotential(), lambda t: np.array([2.0]))
    traj = run_rothe(problem, TimeGrid(1.0, 10), "bdf2")
    assert traj.u.ravel() == pytest.approx(2.0 * traj.grid.times(), abs=1e-13)


def test_two_step_scheme_exact_on_quadratic_sequences():
    problem = scalar_problem(ZeroPotential(), lambda t: np.array([t]))
    traj = run_rothe(problem, TimeGrid(1.0, 8), "bdf2")
    t = traj.grid.times()
    assert traj.u.ravel() == pytest.approx(0.5 * t * t, abs=1e-13)


def test_bdf2_step_fixed_point_at_steady_state():
    # steady state of the linear flux problem: K u + w k (trace u) e = F
    problem = fem_problem(6, LinearRobin(2.0),
                          lambda t, x: np.ones_like(x), lambda t: 0.0,
                          lambda x: np.zeros_like(x))
    K = problem.operator.stiffness
    e = problem.space.trace
    G = K + 2.0 * e.T @ e
    F = problem.forcing(0.0)
    u_star = np.linalg.solve(G, F)
    u_next, _, _ = bdf2_step(problem, u_star, u_star, F, 0.25)
    assert u_next == pytest.approx(u_star, abs=1e-10)


def test_run_rothe_two_steps_constant_forcing():
    problem = scalar_problem(ZeroPotential(), lambda t: np.array([1.0]))
    traj = run_rothe(problem, TimeGrid(1.0, 2), "bdf2")
    assert traj.u.ravel() == pytest.approx([0.0, 0.5, 1.0], abs=1e-14)


def test_run_rothe_zero_data_gives_zero():
    problem = fem_problem(4, ZeroPotential(),
                          lambda t, x: np.zeros_like(x), lambda t: 0.0,
                          lambda x: np.zeros_like(x))
    for scheme in ("bdf2", "backward_euler"):
        traj = run_rothe(problem, TimeGrid(1.0, 4), scheme)
        assert np.all(traj.u == 0.0)
        assert np.all(traj.xi == 0.0)


def test_run_rothe_deterministic_bit_identical():
    problem = fem_problem(8, PaperExponential(1.0),
                          lambda t, x: np.ones_like(x), lambda t: 0.0,
                          lambda x: np.zeros_like(x))
    a = run_rothe(problem, TimeGrid(1.0, 8), "bdf2")
    b = run_rothe(problem, TimeGrid(1.0, 8), "bdf2")
    assert np.array_equal(a.u, b.u)
    assert np.array_equal(a.xi, b.xi)
    assert np.array_equal(a.per_step_residuals, b.per_step_residuals)


@pytest.mark.parametrize("potential", [PaperExponential(1.0), NonconvexPiecewise()])
def test_steps_without_a_factorization_repeat_the_run_bit_for_bit(potential):
    # run_rothe shares one factorization per stencil; a step called without
    # one builds its own and must give the same bits
    problem = fem_problem(16, potential, lambda t, x: np.full_like(x, 3.0),
                          lambda t: 0.0, lambda x: np.zeros_like(x))
    grid = TimeGrid(1.0, 8)
    for scheme in ("bdf2", "backward_euler"):
        traj = run_rothe(problem, grid, scheme)
        for n in range(1, grid.N + 1):
            if scheme == "bdf2" and n >= 2:
                u, xi, _ = bdf2_step(problem, traj.u[n - 1], traj.u[n - 2],
                                     traj.f_avg[n - 1], grid.tau)
            else:
                u, xi, _ = initial_step(problem, traj.u[n - 1], traj.f_avg[n - 1], grid.tau)
            assert np.array_equal(u, traj.u[n])
            assert np.array_equal(xi, traj.xi[n - 1])


def test_run_rothe_validation():
    problem = scalar_problem(ZeroPotential(), lambda t: np.zeros(1))
    with pytest.raises(ValueError):
        run_rothe(problem, TimeGrid(1.0, 1), "bdf2")
    with pytest.raises(ValueError):
        run_rothe(problem, TimeGrid(1.0, 4), "crank_nicolson")


def test_step_residual_identity_and_membership():
    problem = fem_problem(16, PaperExponential(1.0),
                          lambda t, x: np.ones_like(x), lambda t: 0.0,
                          lambda x: np.zeros_like(x))
    for scheme in ("bdf2", "backward_euler"):
        traj = run_rothe(problem, TimeGrid(1.0, 16), scheme, 1e-12)
        assert traj.per_step_residuals.max() <= 1e-9
        pot = problem.boundary.potential
        for n in range(1, traj.grid.N + 1):
            s = float((problem.space.trace @ traj.u[n])[0])
            lo, hi = pot.membership_interval(s, 1e-12 * (1 + abs(s)))
            assert lo - 1e-9 <= traj.xi[n - 1][0] <= hi + 1e-9


@pytest.mark.parametrize("potential", [PaperExponential(1.0), NonconvexPiecewise()])
def test_recorded_residual_bounds_the_unscaled_step_residual(potential):
    # the paper's step equation: D u^n + A u^n + trace^T W xi^n = F_n, with D
    # the one-step or two-step difference quotient
    problem = fem_problem(16, potential, lambda t, x: np.full_like(x, 3.0),
                          lambda t: 0.0, lambda x: np.zeros_like(x))
    sp, tol, grid = problem.space, 1e-10, TimeGrid(1.0, 16)
    for scheme in ("bdf2", "backward_euler"):
        traj = run_rothe(problem, grid, scheme, tol)
        u = traj.u
        for n in range(1, grid.N + 1):
            if scheme == "bdf2" and n >= 2:
                quotient = (1.5 * u[n] - 2.0 * u[n - 1] + 0.5 * u[n - 2]) / grid.tau
            else:
                quotient = (u[n] - u[n - 1]) / grid.tau
            r = (sp.gram_h @ quotient + problem.operator.stiffness @ u[n]
                 + sp.trace.T @ (problem.boundary.weights * traj.xi[n - 1]) - traj.f_avg[n - 1])
            assert sp.dual_norm(r) <= 1.5 * tol / grid.tau
            assert traj.per_step_residuals[n - 1] <= 1.5 * tol / grid.tau


def test_fem_run_approaches_fine_reference():
    problem = fem_problem(8, PaperExponential(1.0),
                          lambda t, x: np.ones_like(x), lambda t: 0.0,
                          lambda x: np.zeros_like(x))
    fine = run_rothe(problem, TimeGrid(1.0, 512), "bdf2", 1e-12)
    errs = []
    for n in (16, 32):
        traj = run_rothe(problem, TimeGrid(1.0, n), "bdf2", 1e-12)
        errs.append(problem.space.h_norm(traj.u[-1] - fine.u[-1]))
    assert errs[1] < 0.5 * errs[0]


def test_coercivity_certificate_smooth_case():
    rng = np.random.default_rng(3)
    problem = fem_problem(8, ZeroPotential(),
                          lambda t, x: np.zeros_like(x), lambda t: 0.0,
                          lambda x: np.zeros_like(x))
    samples = [rng.normal(size=9) * s for s in 10.0 ** rng.uniform(-1, 1.5, 100)]
    samples.append(np.zeros(9))
    for tau in (1.0, 0.1, 0.01):
        rep = check_step_coercivity(problem.space, problem.operator,
                                    problem.boundary, tau, samples)
        assert rep.passed
        assert rep.t1.c1 > 0.0 and rep.t2.c1 > 0.0


def test_coercivity_certificate_nonsmooth_case():
    rng = np.random.default_rng(4)
    problem = fem_problem(8, PaperExponential(1.0),
                          lambda t, x: np.zeros_like(x), lambda t: 0.0,
                          lambda x: np.zeros_like(x))
    samples = [rng.normal(size=9) * s for s in 10.0 ** rng.uniform(-1, 1.5, 100)]
    rep = check_step_coercivity(problem.space, problem.operator,
                                problem.boundary, 0.01, samples)
    assert rep.flags == []


def test_coercivity_empty_samples_rejected():
    problem = scalar_problem(ZeroPotential(), lambda t: np.zeros(1))
    with pytest.raises(ValueError):
        check_step_coercivity(problem.space, problem.operator, problem.boundary, 0.1, [])


def test_step_failure_carries_index_and_partial_data():
    # the load turns infinite after t = 0.5, so the averaged forcing of
    # step 3 (window [0.5, 0.75]) is the first non-finite one
    mesh = Mesh1D(4)
    space, op = assemble_space(mesh)
    spec = ForcingSpec(lambda t, x: np.ones_like(x), lambda t: 0.0)

    def forcing(t):
        f = assemble_forcing(mesh, spec, t)
        return f if t <= 0.5 else f * np.inf

    problem = RotheProblem(space, op, BoundaryFunctional(LinearRobin(1.0), np.ones(1)),
                           forcing, np.zeros(5))
    with pytest.raises(StepFailureError) as info, np.errstate(invalid="ignore"):
        run_rothe(problem, TimeGrid(1.0, 4), "bdf2")
    assert info.value.step == 3
    assert info.value.partial_u.shape == (3, 5)
    assert info.value.partial_xi.shape == (2, 1)
    assert np.all(np.isfinite(info.value.partial_u))
    assert "non-finite right-hand side" in info.value.reason
    assert info.value.report is None
