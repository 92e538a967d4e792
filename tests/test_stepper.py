from __future__ import annotations

import math
import struct
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
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
from rothe_hvi import galerkin, inclusion_solver, stepper
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


def test_a_coercivity_pairing_that_overflows_is_flagged():
    # k s^2 past the float range: no slope can be fitted, and the NaN that
    # stands for it fails the certificate, without a warning
    rng = np.random.default_rng(4)
    problem = fem_problem(8, LinearRobin(1e308), zero, zero, zero, zero)
    samples = [rng.normal(size=9) * s for s in 10.0 ** rng.uniform(-1, 1.5, 100)]
    rep = check_step_coercivity(problem.space, problem.operator,
                                problem.boundary, 0.01, samples)
    assert math.isnan(rep.t1.c1) and math.isnan(rep.t2.c1)
    assert len(rep.flags) == 2 and not rep.passed


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


# a trace row with several nonzero entries, and zeros between them, so that
# the order in which a boundary value is summed shows in its bits
DENSE_TRACE = [1.0, 1.0, 1.0, 0.0, 0.3, 0.0, 2.0, 0.25, 0.0, 1.7, 0.75, 0.1]


def _operators_of_layout(layout: str) -> list[StepProblem]:
    """The one-step and two-step operators on a space whose bands have the
    given layout."""
    if layout == "dense":
        rng = np.random.default_rng(11)
        gram_h, stiffness = random_spd(rng, 12), random_spd(rng, 12)
        space = GalerkinSpace(gram_h=gram_h, gram_v=gram_h + stiffness,
                              trace=[DENSE_TRACE], gram_u=np.eye(1))
    else:
        space, op = assemble_space(Mesh1D(int(layout.removeprefix("p1-"))))
        stiffness = op.stiffness
    tau = 0.05
    return [StepProblem(space, c * tau * stiffness, np.ones(1), LinearRobin(1.5), c, tau)
            for c in (1.0, 2.0 / 3.0)]


def _history_through_scipy(p: StepProblem, rhs: np.ndarray, u_nm1: np.ndarray, u_nm2=None):
    """The right-hand side c tau F + M (history), spelled in the segment
    kernel's order: each state's product with M, by scipy's dsbmv up to
    galerkin._DSBMV_MAX_N columns and past it by SymBand.matvec, the
    diagonal loop, is added to c tau F by scipy's daxpy with its weight,
    4/3 M u^{n-1} and then -1/3 M u^{n-2}.  The one-step stencil adds
    M u^{n-1} with weight 1."""
    mass = p.space.gram_h
    b = rhs.copy()
    terms = [(1.0, u_nm1)] if u_nm2 is None else [(4.0 / 3.0, u_nm1), (-1.0 / 3.0, u_nm2)]
    for alpha, v in terms:
        if p.dim <= galerkin._DSBMV_MAX_N:
            product = blas.dsbmv(mass.bandwidth, 1.0, mass.ab, v)
        else:
            product = mass.matvec(v)
        b = blas.daxpy(product, b, a=alpha)
    return b


def _step_through_the_public_api(p: StepProblem, rhs: np.ndarray, s_warm: float):
    """u, xi and the residual of a step from the warm start's boundary value
    ``s_warm``, each band operation spelled through SymBand.solve and
    scipy's daxpy.  The residual's product is that of a one-row stack, and
    its square the einsum of a stack of two copies, as every step's
    certificate takes them."""
    t = p.space.trace[0]
    nodes = np.flatnonzero(t)

    def boundary_value(v):
        s = 0.0
        for k in nodes:
            s += t[k] * v[k]
        return float(s)

    x = p.system.solve(rhs)
    target = boundary_value(x)
    roots, _ = p.inclusion.roots(target, s_warm)
    s = min(roots, key=lambda r: (abs(r - s_warm), r))
    xi = (target - s) / p.inclusion.factor
    u = blas.daxpy(p.y, x.copy(), a=-(p.lift * xi))
    r = p.system.matvec(u[None])[0] - rhs
    r[nodes] += p.lift * xi * t[nodes]
    pair = np.stack([r, r])
    square = np.einsum("ij,ij->i", pair, p.space.solve_v(pair.T).T)[0]
    return u, xi, math.sqrt(max(square, 0.0))


@pytest.mark.parametrize("layout", ["p1-64", "p1-256", "p1-1024", "dense"])
def test_a_step_through_the_bound_kernels_equals_the_public_band_api(layout):
    # P1 at 64 and 256 elements multiplies each state of a right-hand
    # side's history by dsbmv, at 1024 one diagonal at a time; the dense
    # band multiplies by dsbmv, is factored by dpbtrf and solved by dpbtrs,
    # and its trace row has several nonzero entries.  The reference takes
    # the warm start's boundary value of the whole state, or of the whole
    # extrapolant
    one_step, two_step = _operators_of_layout(layout)
    product = galerkin._diagonal_product if layout == "p1-1024" else blas.dsbmv
    solve = lapack.dpbtrs if layout == "dense" else lapack.dpttrs
    for p in (one_step, two_step):
        assert p.mass_product.func is product
        assert p.solve_in_place.func is solve
        assert p.solve_in_place.keywords == {"overwrite_b": 1}
    u0, f1, f2 = np.random.default_rng(5).normal(size=(3, one_step.dim))
    u1, xi1, report1 = initial_step(one_step, u0, f1)
    rhs1 = _history_through_scipy(one_step, one_step.c_coef * one_step.tau * f1, u0)
    u, xi, residual = _step_through_the_public_api(one_step, rhs1, one_step.boundary_value(u0))
    assert (u1.tobytes(), xi1.tolist(), report1.residual) == (u.tobytes(), [xi], residual)
    assert xi != 0.0  # the flux term is part of the step
    u2, xi2, report2 = bdf2_step(two_step, u1, u0, f2)
    rhs2 = _history_through_scipy(two_step, two_step.c_coef * two_step.tau * f2, u1, u0)
    extrapolant = 2.0 * u1 - u0
    u, xi, residual = _step_through_the_public_api(two_step, rhs2, two_step.boundary_value(extrapolant))
    assert (u2.tobytes(), xi2.tolist(), report2.residual) == (u.tobytes(), [xi], residual)


def _layout_problem(layout: str) -> RotheProblem:
    """A run's problem on the space of ``_operators_of_layout(layout)``,
    with the flux law LinearRobin(1.5), a load that varies in space and
    time and a nonzero initial state."""
    one_step = _operators_of_layout(layout)[0]
    space, dim = one_step.space, one_step.dim
    stiffness = one_step.stiff_scaled * (1.0 / one_step.tau)
    profile = np.linspace(1.0, 2.0, dim)[None]
    load = SeparableLoad(lambda t: np.cos(3.0 * t)[:, None], profile)
    return RotheProblem(space, LinearOperatorA(stiffness), BoundaryFunctional(LinearRobin(1.5), np.ones(1)),
                        load, np.sin(np.arange(dim)))


def _guard_in_place_kernels(monkeypatch, p: StepProblem, calls: list) -> StepProblem:
    """p with its overwriting solve wrapped: each call appends its name and
    whether the array it returns is the one it was passed to overwrite."""
    solve = p.solve_in_place

    def solve_in_place(b):
        x, info = solve(b)
        calls.append(("solve", np.shares_memory(x, b)))
        return x, info

    monkeypatch.setitem(vars(p), "solve_in_place", solve_in_place)
    return p


def _guard_daxpy(monkeypatch, calls: list) -> None:
    """The step kernel's daxpy wrapped: each call appends its name and
    whether the array it returns is the y it was passed to overwrite."""

    def daxpy(x, y, *args):
        out = galerkin.blas.daxpy(x, y, *args)
        calls.append(("daxpy", np.shares_memory(out, y)))
        return out

    monkeypatch.setattr(inclusion_solver, "blas", SimpleNamespace(ddot=galerkin.blas.ddot, daxpy=daxpy))


@pytest.mark.parametrize("layout", ["p1-64", "p1-256", "p1-1024", "dense"])
def test_every_in_place_kernel_call_of_a_step_writes_into_its_operand(layout, monkeypatch):
    # f2py copies an operand it cannot overwrite, a strided or read-only
    # one, and returns the copy: the step would then leave b, not u, in the
    # state's row, or leave the history out of b.  Every overwriting call
    # of the run's loop and of the single-step API must return the very
    # array it was passed
    calls = []
    _guard_daxpy(monkeypatch, calls)
    operator = stepper._step_operator
    monkeypatch.setattr(stepper, "_step_operator",
                        lambda *args: _guard_in_place_kernels(monkeypatch, operator(*args), calls))
    grid = TimeGrid(0.25, 5)
    list(stepper.run_blocks(_layout_problem(layout), grid, BDF2, 1e-8))
    # the first step adds one product to b, a two-step one two; each forms u
    adds = 1 + 2 * (grid.N - 1)
    assert sorted(name for name, _ in calls) == ["daxpy"] * (adds + grid.N) + ["solve"] * grid.N
    assert all(shared for _, shared in calls), calls
    calls.clear()
    one_step, two_step = (_guard_in_place_kernels(monkeypatch, p, calls) for p in _operators_of_layout(layout))
    u0, f1, f2 = np.random.default_rng(7).normal(size=(3, one_step.dim))
    u1 = initial_step(one_step, u0, f1)[0]
    bdf2_step(two_step, u1, u0, f2)
    inclusion_solver.solve_step_inclusion(two_step, f2, 0.0)
    assert [name for name, _ in calls].count("solve") == 3
    assert all(shared for _, shared in calls), calls


@pytest.mark.parametrize("scheme", ["bdf2", "backward_euler"])
def test_each_step_makes_one_mass_product_and_adds_the_products_it_keeps(monkeypatch, scheme):
    # 8 rows a block: the one-step segment of step 1 and the two-step
    # segments of steps 2-7, 8-15 and 16-20 of BDF2; the one-step segments
    # of steps 1-7, 8-15 and 16-20 of backward Euler.  Each step multiplies
    # its newest earlier state by M, and a two-step segment multiplies its
    # u^{n-2} once more, at its start.  b takes the history as those
    # products themselves, added by daxpy with the stencil's weights, and
    # a two-step step adds as M u^{n-2} the product the step before made:
    # no buffer holds a formed history
    monkeypatch.setattr(stepper, "BLOCK_CELLS", SMALL_BLOCK_CELLS)
    products, adds = [], []
    operator = stepper._step_operator

    def counting(*args):
        p = operator(*args)
        product = p.mass_product

        def mass_product(v):
            products.append((v.tobytes(), product(v)))
            return products[-1][1]

        monkeypatch.setitem(vars(p), "mass_product", mass_product)
        return p

    def daxpy(x, y, n, a):
        adds.append((x, a))
        return galerkin.blas.daxpy(x, y, n, a)

    monkeypatch.setattr(stepper, "_step_operator", counting)
    monkeypatch.setattr(inclusion_solver, "blas", SimpleNamespace(ddot=galerkin.blas.ddot, daxpy=daxpy))
    u = np.concatenate(list(stepper.run_blocks(_spiked_problem(3), SPIKED_GRID, scheme)))[:, 1:-2]
    starts = [0, 6, 14] if scheme == "bdf2" else []  # u^{n-2} of each two-step segment
    assert sorted(v for v, _ in products) == sorted(v.tobytes() for v in np.concatenate([u[:-1], u[starts]]))
    made = {id(out) for _, out in products}
    history = [(id(x), a) for x, a in adds if id(x) in made]
    assert len(adds) - len(history) == SPIKED_GRID.N  # the daxpy that forms u
    if scheme == "backward_euler":
        assert [a for _, a in history] == [1.0] * 20
        return
    assert [a for _, a in history] == [1.0] + [4.0 / 3.0, -1.0 / 3.0] * 19
    newest, oldest = history[1::2], history[2::2]
    assert len({x for x, _ in newest}) == 19
    # within a segment, M u^{n-2} is the product of the step before
    assert [i for i in range(1, 19) if oldest[i][0] != newest[i - 1][0]] == [6, 14]


# the special values of a state's entries: signed zeros, the smallest and
# largest subnormals, and magnitudes whose sums lose the small terms
SPECIAL_ENTRIES = (0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
                   -2.225073858507201e-308, 1.0, -1.0, 1e300, -1e300)
STATE = arrays(np.float64, 12, elements=st.one_of(
    st.sampled_from(SPECIAL_ENTRIES), st.floats(-1e300, 1e300)), fill=st.nothing())
TWO_STEP_OPERATORS = {layout: _operators_of_layout(layout)[1] for layout in ("p1-11", "dense")}


@given(layout=st.sampled_from(sorted(TWO_STEP_OPERATORS)), u_nm1=STATE, u_nm2=STATE)
# in the order of the trace's nodes the sum is 2e300 - 2e300 + 2 = 2; in
# reverse order it is 2 - 2e300 + 2e300 = 0
@example(layout="dense", u_nm1=np.array([1e300, -1e300, 1.0] + [0.0] * 9), u_nm2=np.zeros(12))
# generic states, where sum t (2a - b) and sum (2 t a - t b) round apart
@example(layout="dense", u_nm1=np.random.default_rng(3).normal(size=(2, 12))[0],
         u_nm2=np.random.default_rng(3).normal(size=(2, 12))[1])
def test_bdf2_step_passes_the_extrapolants_boundary_value_bit_for_bit(layout, u_nm1, u_nm2):
    # bdf2_step sums the warm start's boundary value at the trace's nodes
    # without forming the extrapolant; it must equal, bit for bit, the
    # boundary value of the whole extrapolant
    p = TWO_STEP_OPERATORS[layout]
    passed = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stepper, "solve_step_inclusion",
                   lambda step, rhs, s_warm, tol: passed.append(s_warm))
        bdf2_step(p, u_nm1, u_nm2, np.zeros(p.dim))
    expected = p.boundary_value(2.0 * u_nm1 - u_nm2)
    assert [struct.pack("<d", s) for s in passed] == [struct.pack("<d", expected)]


def _random_p1_operator(rng: np.random.Generator, n_el: int, two_step: bool) -> StepProblem:
    """The step operator of a P1 space on n_el random elements of (0, 1),
    with its flux law LinearRobin(1.5) at the last node, at a random tau."""
    h = rng.uniform(0.2, 1.0, n_el)
    h /= h.sum()
    mass, stiff = np.zeros((2, n_el + 1)), np.zeros((2, n_el + 1))
    mass[1, :-1] += h / 3.0
    mass[1, 1:] += h / 3.0
    mass[0, 1:] = h / 6.0
    stiff[1, :-1] += 1.0 / h
    stiff[1, 1:] += 1.0 / h
    stiff[0, 1:] = -1.0 / h
    m, k = galerkin.SymBand(mass), galerkin.SymBand(stiff)
    space = GalerkinSpace(gram_h=m, gram_v=m + k, trace=np.eye(1, n_el + 1, n_el), gram_u=[[1.0]])
    c, tau = (2.0 / 3.0 if two_step else 1.0), 10.0 ** rng.uniform(-6.0, 0.0)
    return StepProblem(space, (c * tau) * k, np.ones(1), LinearRobin(1.5), c, tau)


@given(n_el=st.integers(1, 2 * galerkin._DSBMV_MAX_N), two_step=st.booleans(),
       kind=st.sampled_from(("smooth", "rough", "nearly equal")), seed=st.integers(0, 2**32 - 1))
# the largest band that dsbmv multiplies by, and the smallest that the
# diagonal loop does
@example(n_el=galerkin._DSBMV_MAX_N - 1, two_step=True, kind="rough", seed=1)
@example(n_el=galerkin._DSBMV_MAX_N, two_step=True, kind="rough", seed=1)
def test_a_steps_right_hand_side_and_u_lie_within_their_rounding_bounds(n_el, two_step, kind, seed):
    # b = c tau F + sum_j alpha_j M u^{n-j}, each M u^{n-j} formed by M's
    # product and added to c tau F by daxpy in the segment kernel, within
    # k eps (|c tau F| + sum_j |alpha_j| |M| |u^{n-j}|) of a long double
    # evaluation, entry by entry (Higham 2002, 3.1): every term reaches b
    # through at most 7 roundings, the weight, the product with an entry of
    # M, two additions within the tridiagonal product, the weight's product
    # and two additions into b, and gamma_7 < 4 eps.  Given x = S^{-1} b,
    # u = x - (c tau w xi) y is within 2 eps (|x| + |c tau w xi| |y|) of
    # one: three roundings, fewer where daxpy fuses.  The draws cross the
    # dimension past which M's product is the diagonal loop, not dsbmv
    rng = np.random.default_rng(seed)
    p = _random_p1_operator(rng, n_el, two_step)
    eps, ld, nodes = np.finfo(float).eps, np.longdouble, np.linspace(0.0, 1.0, p.dim)
    scale = 10.0 ** rng.uniform(-3.0, 3.0)
    if kind == "rough":
        u_nm1, u_nm2 = scale * rng.normal(size=(2, p.dim))
    else:
        u_nm1, u_nm2 = scale * np.sin(rng.uniform(1.0, 9.0, (2, 1)) * nodes + rng.uniform(0.0, 6.0, (2, 1)))
        if kind == "nearly equal":
            u_nm2 = u_nm1 * (1.0 + 1e-9 * rng.normal(size=p.dim))
    history = [(ld(4) / ld(3), u_nm1), (-ld(1) / ld(3), u_nm2)] if two_step else [(ld(1), u_nm1)]
    rhs = p.flux_coef * (scale * rng.normal(size=p.dim))
    b = rhs.copy()
    s_warm = inclusion_solver.segment_kernel(p, b[None], None, None, [], u_nm1, u_nm2 if two_step else None)
    m = p.space.gram_h.toarray()
    exact = rhs.astype(ld) + sum(alpha * (m.astype(ld) @ v.astype(ld)) for alpha, v in history)
    bound = 4.0 * eps * (np.abs(rhs) + sum(float(abs(alpha)) * (np.abs(m) @ np.abs(v)) for alpha, v in history))
    assert np.all(np.abs((b - exact).astype(float)) <= bound)
    x = p.system.solve(b)
    u, xi, _ = inclusion_solver.solve_boundary(p, b, s_warm)
    exact = x.astype(ld) - ld(p.lift) * ld(xi) * p.y.astype(ld)
    bound = 2.0 * eps * (np.abs(x) + abs(p.lift * xi) * np.abs(p.y))
    assert np.all(np.abs((u - exact).astype(float)) <= bound)


# -- the deferred certificate: a step solves, its segment certifies ---------

# 8 rows a block at n_el = 4 (8 cells a row): block 0 is u^0 and steps 1-7,
# block 1 steps 8-15, block 2 steps 16-20
SMALL_BLOCK_CELLS = 64
SPIKED_GRID = TimeGrid(1.0, 20)


def _spiked_problem(spike: int, bad: int | None = None) -> RotheProblem:
    """A P1 problem on 4 elements whose load is 10^4 times larger in the
    window of step ``spike``, so that step's residual stands above every
    earlier one, and infinite in the window of step ``bad``, if given."""
    tau = SPIKED_GRID.tau

    def a(t):
        out = np.where(((spike - 1) * tau < t) & (t < spike * tau), 1e4, 1.0)
        if bad is not None:
            out[((bad - 1) * tau < t) & (t < bad * tau)] = np.inf
        return out

    return fem_problem(4, LinearRobin(1.5), a, one, zero, zero)


def _reports_through_the_single_step_api(problem: RotheProblem, traj) -> list:
    """The solver report of each step of the passing run ``traj``, stepped
    again from its states through initial_step and bdf2_step."""
    grid = traj.grid
    f_avg = average_forcing(problem.forcing, grid)
    one_step = problem.step_problem(1.0, grid.tau)
    two_step = problem.step_problem(2.0 / 3.0, grid.tau)
    reports = [initial_step(one_step, traj.u[0], f_avg[0])[2]]
    for n in range(2, grid.N + 1):
        reports.append(bdf2_step(two_step, traj.u[n - 1], traj.u[n - 2], f_avg[n - 1])[2])
    return reports


def _blocks_until_failure(problem: RotheProblem, tol: float):
    """The rows run_blocks yields, stacked, and the StepFailureError after them."""
    blocks = []
    with pytest.raises(StepFailureError) as info:
        for rows in stepper.run_blocks(problem, SPIKED_GRID, BDF2, tol):
            blocks.append(rows.copy())
    return np.concatenate(blocks) if blocks else np.empty((0, 8)), info.value


# step 1 is block 0's first step and step 2 the switch to the two-step
# operator; 5 is mid-block, 7 a block's last row, 8 and 16 a block's first
# row, 18 mid-block in a later block
@pytest.mark.parametrize("spike", [1, 2, 5, 7, 8, 16, 18])
def test_the_first_step_above_tol_fails_with_the_passing_runs_prefix(monkeypatch, spike):
    monkeypatch.setattr(stepper, "BLOCK_CELLS", SMALL_BLOCK_CELLS)
    problem = _spiked_problem(spike)
    passing = run_rothe(problem, SPIKED_GRID)
    reports = _reports_through_the_single_step_api(problem, passing)
    raw = [report.residual for report in reports]
    before = max(raw[: spike - 1], default=raw[spike - 1] / 100.0)
    assert raw[spike - 1] > 4.0 * before  # the spike's step stands above the others
    tol = math.sqrt(before * raw[spike - 1])
    table = np.concatenate(list(stepper.run_blocks(problem, SPIKED_GRID)))

    with pytest.raises(StepFailureError) as info:
        run_rothe(problem, SPIKED_GRID, BDF2, tol)
    exc = info.value
    assert exc.step == spike
    assert exc.report == reports[spike - 1]
    assert exc.reason == f"step residual {raw[spike - 1]:.3e} above tol {tol:g}"
    assert exc.partial_u.tobytes() == passing.u[:spike].tobytes()
    assert exc.partial_xi.tobytes() == passing.xi[: spike - 1].tobytes()
    assert exc.partial_residuals.tobytes() == passing.per_step_residuals[: spike - 1].tobytes()
    rows, exc = _blocks_until_failure(problem, tol)
    assert (exc.step, exc.report) == (spike, reports[spike - 1])
    assert rows.tobytes() == table[:spike].tobytes()


@pytest.mark.parametrize("spike, bad", [(3, 6), (9, 13)])
def test_a_residual_failure_is_reported_before_a_later_bad_forcing_row(monkeypatch, spike, bad):
    # the non-finite forcing row comes later in the same block: the step
    # loop meets it before the block is certified, and still reports the
    # earlier step whose residual fails
    monkeypatch.setattr(stepper, "BLOCK_CELLS", SMALL_BLOCK_CELLS)
    problem = _spiked_problem(spike, bad)
    rows, exc = _blocks_until_failure(problem, 1e-10)
    assert (exc.step, exc.reason, exc.report) == (bad, "non-finite forcing average", None)
    clean = _spiked_problem(spike)  # the same steps before the bad row
    raw = [r.residual for r in _reports_through_the_single_step_api(
        clean, run_rothe(clean, SPIKED_GRID))]
    tol = math.sqrt(max(raw[: spike - 1]) * raw[spike - 1])
    failed_rows, exc = _blocks_until_failure(problem, tol)
    assert exc.step == spike
    assert exc.reason.startswith("step residual ")
    assert failed_rows.tobytes() == rows[:spike].tobytes()


def test_an_error_of_a_later_step_is_raised_once_the_earlier_steps_are_certified(monkeypatch):
    # an error the step loop does not turn into a StepFailureError passes
    # through, with no rows of its block, unless an earlier step of the
    # block fails its residual: then that step is reported
    monkeypatch.setattr(stepper, "BLOCK_CELLS", SMALL_BLOCK_CELLS)
    solve, calls = stepper.segment_kernel, []

    def failing_at_step_6(p, rhs, u, xi, iterations, *args):
        # the segment that holds step 6 solves the steps before it, then raises
        before = 5 - len(calls)
        if before < len(rhs):
            solve(p, rhs[:before], u[:before], xi[:before], iterations, *args)
            raise ZeroDivisionError("step 6")
        solve(p, rhs, u, xi, iterations, *args)
        calls.extend(iterations)

    problem = _spiked_problem(3)
    raw = [r.residual for r in _reports_through_the_single_step_api(
        problem, run_rothe(problem, SPIKED_GRID))]
    monkeypatch.setattr(stepper, "segment_kernel", failing_at_step_6)
    blocks = stepper.run_blocks(problem, SPIKED_GRID)
    with pytest.raises(ZeroDivisionError):
        next(blocks)
    calls.clear()
    rows, exc = _blocks_until_failure(problem, math.sqrt(max(raw[:2]) * raw[2]))
    assert (exc.step, len(rows)) == (3, 3)
    assert isinstance(exc.__cause__, stepper.NonConvergenceError)


@pytest.mark.parametrize("scheme", ["bdf2", "backward_euler"])
def test_a_consumer_writing_into_a_block_leaves_every_later_block_as_it_was(monkeypatch, scheme):
    # the loop reads the last two states of a block after it is yielded
    # only through its own copies: NaN written into every block a run
    # yields changes no byte of the blocks after it
    monkeypatch.setattr(stepper, "BLOCK_CELLS", SMALL_BLOCK_CELLS)
    problem = _spiked_problem(3)
    clean = [rows.copy() for rows in stepper.run_blocks(problem, SPIKED_GRID, scheme)]
    assert len(clean) >= 3
    seen = []
    for rows in stepper.run_blocks(problem, SPIKED_GRID, scheme):
        seen.append(rows.copy())
        rows.fill(np.nan)
    assert [rows.tobytes() for rows in seen] == [rows.tobytes() for rows in clean]


@pytest.mark.parametrize("scheme", ["bdf2", "backward_euler"])
def test_a_run_whose_new_arrays_start_as_nan_gives_the_same_bytes(monkeypatch, scheme):
    # the loop's right-hand sides are a reused np.empty array: a run that
    # read one before writing it would depend on what the allocator hands
    # back, so every np.empty of the run starts NaN-filled
    monkeypatch.setattr(stepper, "BLOCK_CELLS", SMALL_BLOCK_CELLS)
    problem = _spiked_problem(3)
    clean = np.concatenate(list(stepper.run_blocks(problem, SPIKED_GRID, scheme)))
    empty = np.empty

    def nan_filled(*args, **kwargs):
        out = empty(*args, **kwargs)
        out.fill(np.nan)
        return out

    monkeypatch.setattr(np, "empty", nan_filled)
    blocks = list(stepper.run_blocks(problem, SPIKED_GRID, scheme))
    monkeypatch.undo()
    assert len(blocks) >= 3
    assert np.concatenate(blocks).tobytes() == clean.tobytes()


def _problem_of_layout(layout: str) -> RotheProblem:
    """A problem on a space whose bands have the given layout, with a load
    of two time factors."""
    rng = np.random.default_rng(17)
    if layout == "dense":
        gram_h, stiffness = random_spd(rng, 12), random_spd(rng, 12)
        space = GalerkinSpace(gram_h=gram_h, gram_v=gram_h + stiffness,
                              trace=[DENSE_TRACE], gram_u=np.eye(1))
        op = LinearOperatorA(stiffness)
    else:
        space, op = assemble_space(Mesh1D(int(layout.removeprefix("p1-"))))
    load = SeparableLoad(lambda t: np.column_stack([np.ones_like(t), np.sin(3.0 * t)]),
                         rng.normal(size=(2, space.dim)))
    return RotheProblem(space, op, BoundaryFunctional(LinearRobin(1.5), np.ones(1)),
                        load, rng.normal(size=space.dim))


@pytest.mark.parametrize("layout", ["p1-11", "p1-1024", "dense"])
@pytest.mark.parametrize("scheme", ["bdf2", "backward_euler"])
def test_a_single_step_reports_the_residual_the_run_records(layout, scheme):
    # at p1-1024 a block holds 15 rows, so the 20 steps span two blocks
    problem = _problem_of_layout(layout)
    grid = TimeGrid(1.0, 20)
    traj = run_rothe(problem, grid, scheme)
    f_avg = average_forcing(problem.forcing, grid)
    one_step = problem.step_problem(1.0, grid.tau)
    two_step = problem.step_problem(2.0 / 3.0, grid.tau)
    for n in range(1, grid.N + 1):
        if scheme == "bdf2" and n >= 2:
            u, xi, report = bdf2_step(two_step, traj.u[n - 1], traj.u[n - 2], f_avg[n - 1])
            step = two_step
        else:
            u, xi, report = initial_step(one_step, traj.u[n - 1], f_avg[n - 1])
            step = one_step
        assert (u.tobytes(), xi.tobytes()) == (traj.u[n].tobytes(), traj.xi[n - 1].tobytes())
        assert report.residual / step.flux_coef == traj.per_step_residuals[n - 1]
