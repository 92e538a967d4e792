from __future__ import annotations

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg import blas, lapack

from conftest import fem_problem, one, random_spd, zero
from rothe_hvi import (
    BDF2,
    BoundaryFunctional,
    GalerkinSpace,
    LinearOperatorA,
    LinearRobin,
    Mesh1D,
    NonconvexPiecewise,
    PaperExponential,
    RotheProblem,
    SeparableLoad,
    StepFailureError,
    StepProblem,
    TimeGrid,
    ZeroPotential,
    assemble_forcing,
    assemble_space,
    average_forcing,
    bdf2_step,
    check_step_coercivity,
    estimate_report,
    initial_step,
    run_rothe,
)
from rothe_hvi import galerkin
from rothe_hvi.cli import build_problem, parse_config
from rothe_hvi.stepper import TrajectoryMemoryError


def scalar_load(a):
    """The load a(t) of a one-unknown space, for a vectorized a."""
    return SeparableLoad(lambda t: a(t)[:, None], np.ones((1, 1)))


def scalar_problem(potential, a, u0=0.0, stiffness=0.0):
    space = GalerkinSpace(gram_h=[[1.0]], gram_v=[[1.0 + stiffness]],
                          trace=[[1.0]], gram_u=[[1.0]])
    op = LinearOperatorA([[stiffness]], alpha=1.0, beta=1.0, a_growth=0.0, b_growth=1.0)
    bnd = BoundaryFunctional(potential, np.ones(1))
    return RotheProblem(space, op, bnd, scalar_load(a), np.array([float(u0)]))


def test_average_forcing_constant_reproduced():
    grid = TimeGrid(1.0, 10)
    table = average_forcing(scalar_load(lambda t: np.full_like(t, 4.0)), grid)
    for n in (1, 2, 7, 10):
        assert table[n - 1] == pytest.approx([4.0])


def test_average_forcing_linear_in_time():
    grid = TimeGrid(1.0, 10)  # tau = 0.1
    table = average_forcing(scalar_load(lambda t: t), grid)
    assert table[0] == pytest.approx([0.05])
    assert table[2] == pytest.approx([0.3])


def test_average_forcing_quadratic_window_values():
    grid = TimeGrid(2.0, 2)  # tau = 1
    table = average_forcing(scalar_load(lambda t: t * t), grid)
    # 1.5 * int_1^2 t^2 - 0.5 * int_0^1 t^2 = 1.5 * 7/3 - 0.5 * 1/3 = 10/3
    assert table[1] == pytest.approx([10.0 / 3.0])


def test_average_forcing_table_has_one_row_per_step():
    grid = TimeGrid(1.0, 4)
    for k in (1, 2):
        load = SeparableLoad(lambda t: np.ones((len(t), k)), np.ones((k, 3)))
        assert average_forcing(load, grid).shape == (4, 3)


# each preset's load written out pointwise, as (f0(t, x), f_N(t)), for the
# config text below; the CLI builds the same load as a SeparableLoad
PRESETS = {
    "zero": ("", lambda t, x: np.zeros_like(x), lambda t: 0.0),
    "constant": ("f0_value = 3.0\nfn_value = -0.5\n",
                 lambda t, x: np.full_like(x, 3.0), lambda t: -0.5),
    "smooth": ("", lambda t, x: (1.0 - np.cos(np.pi * t)) * 0.5 * (1.0 + x),
               lambda t: 0.5 * t * t * np.exp(-t)),
    "poly": ("f0_t_coeffs = 1,2,-1\nf0_x_coeffs = 0.5,-1,2\nfn_t_coeffs = 0,1\n",
             lambda t, x: (1.0 + 2.0 * t - t * t) * (0.5 - x + 2.0 * x * x),
             lambda t: t),
}


@pytest.mark.parametrize("preset", sorted(PRESETS))
@pytest.mark.parametrize("n_el", [1, 8, 64])
def test_preset_window_table_matches_the_pointwise_load(preset, n_el):
    extra, f0, f_N = PRESETS[preset]
    problem = build_problem(parse_config(f"[problem]\nn_el = {n_el}\nforcing = {preset}\n{extra}"))
    assert isinstance(problem.forcing, SeparableLoad)
    mesh = Mesh1D(n_el)
    e0 = np.eye(1, n_el + 1)[0]
    nodes, weights = np.polynomial.legendre.leggauss(5)
    for n_steps in (2, 8, 1024):
        grid = TimeGrid(1.0, n_steps)
        tau = grid.tau
        # each window's 5-point Gauss sum of the pointwise load, then the
        # stencil weights (1.5, -0.5) / tau of the current and previous window
        windows = np.array([
            sum(0.5 * tau * w * (assemble_forcing(mesh, lambda x: f0(t, x)) + f_N(t) * e0)
                for w, t in zip(weights, (n + 0.5 * (1.0 + nodes)) * tau))
            for n in range(n_steps)
        ])
        reference = np.vstack([windows[:1], 1.5 * windows[1:] - 0.5 * windows[:-1]]) / tau
        table = average_forcing(problem.forcing, grid)
        assert table.shape == reference.shape == (n_steps, n_el + 1)
        assert np.max(np.abs(table - reference)) <= 1e-13 * np.max(np.abs(reference))


def test_window_averages_are_exact_for_degree_nine_loads():
    # int_a^b t^k = (b^(k+1) - a^(k+1)) / (k + 1) for the factors t^9 and
    # 1 - 2t + t^4, each weighting one of two load vectors
    loads = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, -1.0]])
    factors = lambda t: np.column_stack([t**9, 1.0 - 2.0 * t + t**4])
    antiderivative = lambda t: np.array([t**10 / 10.0, t - t * t + t**5 / 5.0])
    grid = TimeGrid(1.5, 6)
    tau, edges = grid.tau, grid.times()
    w = np.array([antiderivative(b) - antiderivative(a) for a, b in zip(edges, edges[1:])])
    exact = np.vstack([w[:1], 1.5 * w[1:] - 0.5 * w[:-1]]) / tau @ loads
    table = average_forcing(SeparableLoad(factors, loads), grid)
    assert np.max(np.abs(table - exact)) <= 1e-13 * np.max(np.abs(exact))


@pytest.mark.parametrize(
    "loads", [np.ones((2, 4)), np.ones(5), np.ones((2, 5, 1)), np.array([[1.0] * 4 + [np.nan]])]
)
def test_separable_loads_must_be_finite_with_one_column_per_unknown(loads):
    mesh = Mesh1D(4)
    space, op = assemble_space(mesh)
    bnd = BoundaryFunctional(ZeroPotential(), np.ones(1))
    factors = lambda t: np.ones((len(t), 1))
    with pytest.raises(ValueError, match="forcing loads"):
        RotheProblem(space, op, bnd, SeparableLoad(factors, loads), np.zeros(5))
    RotheProblem(space, op, bnd, SeparableLoad(factors, np.ones((1, 5))), np.zeros(5))


def test_a_forcing_that_is_not_a_separable_load_is_rejected():
    # a pointwise load f(t) has no load vectors to check or to weight
    mesh = Mesh1D(4)
    space, op = assemble_space(mesh)
    bnd = BoundaryFunctional(ZeroPotential(), np.ones(1))
    with pytest.raises(ValueError, match="forcing loads"):
        RotheProblem(space, op, bnd, lambda t: np.zeros(5), np.zeros(5))


def test_initial_step_linear_matches_direct_solve():
    problem = fem_problem(8, ZeroPotential(), one, lambda x: np.sin(np.pi * x),
                          lambda t: np.full_like(t, 0.25), lambda x: x * (1 - x))
    tau = 0.125
    f1 = average_forcing(problem.forcing, TimeGrid(1.0, 8))[0]
    u1, xi1, _ = initial_step(problem.step_problem(1.0, tau), problem.u0, f1)
    M = problem.space.gram_h.toarray()
    K = problem.operator.stiffness.toarray()
    direct = np.linalg.solve(M + tau * K, tau * f1 + M @ problem.u0)
    assert u1 == pytest.approx(direct, rel=1e-12)
    assert xi1 == pytest.approx([0.0], abs=1e-12)


def test_initial_step_scalar_toy_stays_at_kink():
    problem = scalar_problem(PaperExponential(1.0), zero, stiffness=1.0)
    u1, xi1, _ = initial_step(problem.step_problem(1.0, 0.5), np.zeros(1), np.zeros(1))
    assert u1 == pytest.approx([0.0], abs=1e-12)
    assert 0.0 <= xi1[0] <= 1.0


def test_initial_step_scalar_toy_constructed_unit_root():
    tau = 0.5
    f1 = (1.0 + tau) / tau + (math.exp(-1.0) + 1.0)
    problem = scalar_problem(PaperExponential(1.0), lambda t: np.full_like(t, f1), stiffness=1.0)
    u1, xi1, _ = initial_step(problem.step_problem(1.0, tau), np.zeros(1), np.array([f1]))
    assert u1[0] == pytest.approx(1.0, abs=1e-8)
    assert xi1[0] == pytest.approx(math.exp(-1.0) + 1.0, abs=1e-8)


def test_two_step_scheme_exact_on_linear_sequences():
    problem = scalar_problem(ZeroPotential(), lambda t: np.full_like(t, 2.0))
    traj = run_rothe(problem, TimeGrid(1.0, 10), "bdf2")
    assert traj.u.ravel() == pytest.approx(2.0 * traj.grid.times(), abs=1e-13)


def test_two_step_scheme_exact_on_quadratic_sequences():
    problem = scalar_problem(ZeroPotential(), lambda t: t)
    traj = run_rothe(problem, TimeGrid(1.0, 8), "bdf2")
    t = traj.grid.times()
    assert traj.u.ravel() == pytest.approx(0.5 * t * t, abs=1e-13)


def test_bdf2_step_fixed_point_at_steady_state():
    # steady state of the linear flux problem: K u + w k (trace u) e = F
    problem = fem_problem(6, LinearRobin(2.0), one, one, zero, zero)
    K = problem.operator.stiffness.toarray()
    e = problem.space.trace
    G = K + 2.0 * e.T @ e
    F = problem.forcing.factors(np.array([0.0]))[0] @ problem.forcing.loads
    u_star = np.linalg.solve(G, F)
    u_next, _, _ = bdf2_step(problem.step_problem(2.0 / 3.0, 0.25), u_star, u_star, F)
    assert u_next == pytest.approx(u_star, abs=1e-10)


def test_run_rothe_two_steps_constant_forcing():
    problem = scalar_problem(ZeroPotential(), one)
    traj = run_rothe(problem, TimeGrid(1.0, 2), "bdf2")
    assert traj.u.ravel() == pytest.approx([0.0, 0.5, 1.0], abs=1e-14)


def test_run_rothe_zero_data_gives_zero():
    problem = fem_problem(4, ZeroPotential(), zero, zero, zero, zero)
    for scheme in ("bdf2", "backward_euler"):
        traj = run_rothe(problem, TimeGrid(1.0, 4), scheme)
        assert np.all(traj.u == 0.0)
        assert np.all(traj.xi == 0.0)


def test_run_rothe_deterministic_bit_identical():
    problem = fem_problem(8, PaperExponential(1.0), one, one, zero, zero)
    a = run_rothe(problem, TimeGrid(1.0, 8), "bdf2")
    b = run_rothe(problem, TimeGrid(1.0, 8), "bdf2")
    assert np.array_equal(a.u, b.u)
    assert np.array_equal(a.xi, b.xi)
    assert np.array_equal(a.per_step_residuals, b.per_step_residuals)


@pytest.mark.parametrize("potential", [PaperExponential(1.0), NonconvexPiecewise()])
def test_steps_given_fresh_operators_repeat_the_run_bit_for_bit(potential):
    # run_rothe shares one operator per stencil; a step given an operator
    # built for it alone must give the same bits
    problem = fem_problem(16, potential, one, lambda x: np.full_like(x, 3.0), zero, zero)
    grid = TimeGrid(1.0, 8)
    for scheme in ("bdf2", "backward_euler"):
        traj = run_rothe(problem, grid, scheme)
        f_avg = average_forcing(problem.forcing, grid)
        for n in range(1, grid.N + 1):
            if scheme == "bdf2" and n >= 2:
                u, xi, _ = bdf2_step(problem.step_problem(2.0 / 3.0, grid.tau), traj.u[n - 1],
                                     traj.u[n - 2], f_avg[n - 1])
            else:
                u, xi, _ = initial_step(problem.step_problem(1.0, grid.tau), traj.u[n - 1],
                                        f_avg[n - 1])
            assert np.array_equal(u, traj.u[n])
            assert np.array_equal(xi, traj.xi[n - 1])


def test_run_rothe_validation():
    problem = scalar_problem(ZeroPotential(), zero)
    with pytest.raises(ValueError):
        run_rothe(problem, TimeGrid(1.0, 1), "bdf2")
    with pytest.raises(ValueError):
        run_rothe(problem, TimeGrid(1.0, 4), "crank_nicolson")


def test_step_residual_identity_and_membership():
    problem = fem_problem(16, PaperExponential(1.0), one, one, zero, zero)
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
    problem = fem_problem(16, potential, one, lambda x: np.full_like(x, 3.0), zero, zero)
    sp, tol, grid = problem.space, 1e-10, TimeGrid(1.0, 16)
    for scheme in ("bdf2", "backward_euler"):
        traj = run_rothe(problem, grid, scheme, tol)
        u, f_avg = traj.u, average_forcing(problem.forcing, grid)
        for n in range(1, grid.N + 1):
            if scheme == "bdf2" and n >= 2:
                quotient = (1.5 * u[n] - 2.0 * u[n - 1] + 0.5 * u[n - 2]) / grid.tau
            else:
                quotient = (u[n] - u[n - 1]) / grid.tau
            r = (sp.gram_h @ quotient + problem.operator.stiffness @ u[n]
                 + sp.trace.T @ (problem.boundary.weights * traj.xi[n - 1]) - f_avg[n - 1])
            assert sp.dual_norm(r) <= 1.5 * tol / grid.tau
            assert traj.per_step_residuals[n - 1] <= 1.5 * tol / grid.tau


def test_fem_run_approaches_fine_reference():
    problem = fem_problem(8, PaperExponential(1.0), one, one, zero, zero)
    fine = run_rothe(problem, TimeGrid(1.0, 512), "bdf2", 1e-12)
    errs = []
    for n in (16, 32):
        traj = run_rothe(problem, TimeGrid(1.0, n), "bdf2", 1e-12)
        errs.append(problem.space.h_norm(traj.u[-1] - fine.u[-1]))
    assert errs[1] < 0.5 * errs[0]


def test_coercivity_certificate_smooth_case():
    rng = np.random.default_rng(3)
    problem = fem_problem(8, ZeroPotential(), zero, zero, zero, zero)
    samples = [rng.normal(size=9) * s for s in 10.0 ** rng.uniform(-1, 1.5, 100)]
    samples.append(np.zeros(9))
    for tau in (1.0, 0.1, 0.01):
        rep = check_step_coercivity(problem.space, problem.operator,
                                    problem.boundary, tau, samples)
        assert rep.passed
        assert rep.t1.c1 > 0.0 and rep.t2.c1 > 0.0


def test_coercivity_certificate_nonsmooth_case():
    rng = np.random.default_rng(4)
    problem = fem_problem(8, PaperExponential(1.0), zero, zero, zero, zero)
    samples = [rng.normal(size=9) * s for s in 10.0 ** rng.uniform(-1, 1.5, 100)]
    rep = check_step_coercivity(problem.space, problem.operator,
                                problem.boundary, 0.01, samples)
    assert rep.flags == []


def test_coercivity_empty_samples_rejected():
    problem = scalar_problem(ZeroPotential(), zero)
    with pytest.raises(ValueError):
        check_step_coercivity(problem.space, problem.operator, problem.boundary, 0.1, [])


def test_step_failure_carries_index_and_partial_data():
    # the load turns infinite after t = 0.5, so the averaged forcing of
    # step 3 (window [0.5, 0.75]) is the first non-finite one
    problem = fem_problem(4, LinearRobin(1.0), lambda t: np.where(t <= 0.5, 1.0, np.inf),
                          one, zero, zero)
    with pytest.raises(StepFailureError) as info, warnings.catch_warnings():
        warnings.simplefilter("error")
        run_rothe(problem, TimeGrid(1.0, 4), "bdf2")
    assert info.value.step == 3
    assert info.value.partial_u.shape == (3, 5)
    assert info.value.partial_xi.shape == (2, 1)
    assert np.all(np.isfinite(info.value.partial_u))
    assert info.value.reason == "non-finite forcing average"
    assert info.value.report is None


@pytest.mark.parametrize("scheme", ["bdf2", "backward_euler"])
def test_the_first_non_finite_forcing_average_stops_the_run_there(scheme):
    # windows of tau = 1/8: the fifth, [0.5, 0.625], is the first whose Gauss
    # times all lie past t = 0.5; the steps before it run
    problem = scalar_problem(LinearRobin(1.0), lambda t: np.where(t < 0.5, 1.0, np.inf))
    with pytest.raises(StepFailureError) as info, warnings.catch_warnings():
        warnings.simplefilter("error")
        run_rothe(problem, TimeGrid(1.0, 8), scheme)
    assert (info.value.step, info.value.reason) == (5, "non-finite forcing average")
    assert info.value.partial_u.shape == (5, 1)
    assert info.value.partial_xi.shape == (4, 1)
    assert info.value.partial_residuals.shape == (4,)
    assert np.all(np.isfinite(info.value.partial_u))


def test_a_run_too_long_to_allocate_evaluates_no_forcing():
    # (10^13 + 1) x 9 float64 values are over 700 TB, more than a plain mmap
    # can return on 64-bit Linux; never test a size that could be granted
    mesh = Mesh1D(8)
    space, op = assemble_space(mesh)
    bnd = BoundaryFunctional(ZeroPotential(), np.ones(1))
    calls = []

    def factors(t):
        calls.append(t)
        return np.zeros((len(t), 1))

    problem = RotheProblem(space, op, bnd, SeparableLoad(factors, np.ones((1, 9))), np.zeros(9))
    with pytest.raises(TrajectoryMemoryError):
        run_rothe(problem, TimeGrid(1.0, 10**13))
    assert calls == []


def test_matrices_stay_linear_in_n_el_at_scale():
    # the ROADMAP smooth configuration at n_el = 16384: one dense matrix
    # would be 2.1 GB, the banded run needs a few tens of MB
    n_el = 16384
    tracemalloc.start()
    try:
        problem = fem_problem(n_el, PaperExponential(1.0),
                              lambda t: 1.0 - np.cos(np.pi * t), lambda x: 0.5 * (1.0 + x),
                              lambda t: 0.5 * t * t * np.exp(-t), zero)
        traj = run_rothe(problem, TimeGrid(1.0, 32), BDF2, 1e-10)
        report = estimate_report(traj, problem.space, problem.boundary.weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100e6
    assert np.all(np.isfinite(traj.u)) and report.q4 > 0.0
    sp, op = problem.space, problem.operator
    tau = traj.grid.tau
    step = problem.step_problem(2.0 / 3.0, tau)
    held = [sp.gram_h.ab, sp.gram_v.ab, sp.gram_u.ab, sp.trace, op.stiffness.ab,
            step.system.ab, step.system.factor, step.stiff_scaled.ab, step.y]
    assert max(a.size for a in held) <= 2 * (n_el + 1)


def _operators_of_layout(layout: str) -> list[StepProblem]:
    """The one-step and two-step operators on a space whose bands have the
    given layout."""
    if layout == "dense":
        rng = np.random.default_rng(11)
        gram_h, stiffness = random_spd(rng, 12), random_spd(rng, 12)
        space = GalerkinSpace(gram_h=gram_h, gram_v=gram_h + stiffness,
                              trace=np.eye(1, 12), gram_u=np.eye(1))
    else:
        space, op = assemble_space(Mesh1D(int(layout.removeprefix("p1-"))))
        stiffness = op.stiffness
    tau = 0.05
    return [StepProblem(space, c * tau * stiffness, np.ones(1), LinearRobin(1.5), c, tau)
            for c in (1.0, 2.0 / 3.0)]


def _step_through_the_public_api(p: StepProblem, rhs: np.ndarray, warm: np.ndarray):
    """u, xi and the residual of a step, each band operation spelled through
    SymBand.solve, SymBand.matvec and GalerkinSpace.dual_norm."""
    t = p.space.trace[0]
    nodes = np.flatnonzero(t)

    def boundary_value(v):
        s = 0.0
        for k in nodes:
            s += t[k] * v[k]
        return float(s)

    x = p.system.solve(rhs)
    s_warm, target = boundary_value(warm), boundary_value(x)
    roots, _ = p.inclusion.roots(target, s_warm)
    s = min(roots, key=lambda r: (abs(r - s_warm), r))
    xi = (target - s) / p.inclusion.factor
    u = x - p.lift * xi * p.y
    r = p.system.matvec(u) - rhs
    r[nodes] += p.lift * xi * t[nodes]
    return u, xi, p.space.dual_norm(r)


@pytest.mark.parametrize("layout", ["p1-64", "p1-1024", "dense"])
def test_a_step_through_the_bound_kernels_equals_the_public_band_api(layout):
    # P1 at 64 elements multiplies by dsbmv, at 1024 one diagonal at a time;
    # the dense band is factored by dpbtrf and solved by dpbtrs
    one_step, two_step = _operators_of_layout(layout)
    product = galerkin._diagonal_product if layout == "p1-1024" else blas.dsbmv
    solve = lapack.dpbtrs if layout == "dense" else lapack.dpttrs
    for p in (one_step, two_step):
        assert p.product.func is product and p.mass_product.func is product
        assert p.back_solve.func is solve
    mass = one_step.space.gram_h
    u0, f1, f2 = np.random.default_rng(5).normal(size=(3, one_step.dim))
    u1, xi1, report1 = initial_step(one_step, u0, f1)
    rhs1 = one_step.c_coef * one_step.tau * f1 + mass.matvec(u0)
    u, xi, residual = _step_through_the_public_api(one_step, rhs1, u0)
    assert (u1.tobytes(), xi1.tolist(), report1.residual) == (u.tobytes(), [xi], residual)
    assert xi != 0.0  # the flux term is part of the step
    u2, xi2, report2 = bdf2_step(two_step, u1, u0, f2)
    hist = (4.0 / 3.0) * u1 - (1.0 / 3.0) * u0
    rhs2 = two_step.c_coef * two_step.tau * f2 + mass.matvec(hist)
    u, xi, residual = _step_through_the_public_api(two_step, rhs2, 2.0 * u1 - u0)
    assert (u2.tobytes(), xi2.tolist(), report2.residual) == (u.tobytes(), [xi], residual)
