from __future__ import annotations

import math
import re

import numpy as np
import pytest
import scipy.linalg as sla

from conftest import random_spd
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
    StepProblem,
    TimeGrid,
    ZeroPotential,
    assemble_forcing,
    assemble_space,
    make_initial,
    minimize_energy_convex,
    reference_solution,
    run_rothe,
    scan_roots_reduced,
    step_energy,
)


def scalar_problem(potential, b, tau=1.0, c=1.0, m=1.0, k=1.0, w=1.0):
    """A one-dimensional step operator and the right-hand side [b]."""
    space = GalerkinSpace(gram_h=[[m]], gram_v=[[m + k]], trace=[[1.0]], gram_u=[[1.0]])
    p = StepProblem(
        space=space, stiff_scaled=np.array([[c * tau * k]]), weights=np.array([w]),
        potential=potential, c_coef=c, tau=tau,
    )
    return p, np.array([float(b)])


def scan_scalar(p, rhs, lo, hi, **kwargs):
    """The roots u of a one-dimensional step inclusion; its trace is 1, so
    the reduced scan's boundary values s are the roots themselves."""
    return [float(u[0]) for u in scan_roots_reduced(p, rhs, lo, hi, **kwargs)]


def test_scan_linear_flux_single_root():
    k = 2.0
    tau, c, m, kk, w, b = 0.5, 1.0, 1.0, 1.0, 1.0, 3.0
    p, rhs = scalar_problem(LinearRobin(k), b, tau=tau, c=c, m=m, k=kk, w=w)
    roots = scan_scalar(p, rhs, -10.0, 10.0)
    expected = b / (m + c * tau * kk + c * tau * w * k)
    assert len(roots) == 1
    assert roots[0] == pytest.approx(expected, abs=1e-9)


def test_scan_flux_at_kink_zero_rhs():
    p, rhs = scalar_problem(PaperExponential(1.0), 0.0, tau=0.5)
    assert scan_scalar(p, rhs, -5.0, 5.0) == pytest.approx([0.0], abs=1e-9)


def test_scan_nonconvex_multiple_roots():
    # total map 2u + z(u) descends on (0, 1): three roots at b = 0.5
    p, rhs = scalar_problem(NonconvexPiecewise(), 0.5)
    roots = scan_scalar(p, rhs, -5.0, 5.0)
    assert len(roots) == 3
    assert roots == pytest.approx([0.0, 0.25, 1.5], abs=1e-9)


def test_scan_empty_when_range_misses_root():
    p, rhs = scalar_problem(LinearRobin(1.0), 100.0)
    assert scan_scalar(p, rhs, -1.0, 1.0) == []


def test_scan_validation():
    p, rhs = scalar_problem(LinearRobin(1.0), 1.0)
    with pytest.raises(ValueError):
        scan_scalar(p, rhs, -1.0, 1.0, grid_n=100)


def test_scan_reduced_matches_full_solution_dim2():
    rng = np.random.default_rng(42)
    for _ in range(20):
        mass = random_spd(rng, 2, shift=0.5)
        stiff = random_spd(rng, 2, shift=0.0)
        tau = 0.3
        trace = rng.uniform(0.5, 1.5, size=(1, 2))
        space = GalerkinSpace(gram_h=mass, gram_v=mass + stiff, trace=trace, gram_u=np.eye(1))
        p = StepProblem(space=space, stiff_scaled=tau * stiff, weights=np.array([1.3]),
                        potential=PaperExponential(1.0), c_coef=1.0, tau=tau)
        rhs = rng.normal(size=2) * 2.0
        flux_matrix = tau * (trace.T * 1.3)  # maps the multiplier to its load
        roots = scan_roots_reduced(p, rhs, -20.0, 20.0, 4000)
        assert roots
        for u in roots:
            # the implied flux must close the equation and be admissible
            r = rhs - p.system @ u
            xi = float(np.linalg.lstsq(flux_matrix, r, rcond=None)[0][0])
            s = float((trace @ u)[0])
            lo, hi = p.potential.membership_interval(s, 1e-9 * (1 + abs(s)))
            assert lo - 1e-7 <= xi <= hi + 1e-7
            closed = p.system @ u + flux_matrix @ np.array([xi]) - rhs
            assert np.max(np.abs(closed)) < 1e-7


def test_minimize_energy_smooth_case_equals_linear_solve():
    rng = np.random.default_rng(17)
    mass = random_spd(rng, 2, shift=1.0)
    stiff = random_spd(rng, 2, shift=0.1)
    trace = np.array([[1.0, 0.0]])
    space = GalerkinSpace(gram_h=mass, gram_v=mass + stiff, trace=trace, gram_u=np.eye(1))
    p = StepProblem(space=space, stiff_scaled=0.2 * stiff, weights=np.ones(1),
                    potential=ZeroPotential(), c_coef=1.0, tau=0.2)
    rhs = np.array([1.0, -0.5])
    u = minimize_energy_convex(p, rhs, tol=1e-10)
    direct = np.linalg.solve(p.system.toarray(), rhs)
    assert u == pytest.approx(direct, abs=1e-7)


def test_minimize_energy_scalar_toy():
    p, rhs = scalar_problem(PaperExponential(1.0), 3.0 + math.exp(-1.0))
    u = minimize_energy_convex(p, rhs)
    assert u[0] == pytest.approx(1.0, abs=1e-7)


def test_minimize_energy_zero_rhs():
    p, rhs = scalar_problem(PaperExponential(1.0), 0.0)
    u = minimize_energy_convex(p, rhs)
    assert u[0] == pytest.approx(0.0, abs=1e-7)


def test_minimize_energy_rejects_nonmonotone():
    p, rhs = scalar_problem(NonconvexPiecewise(), 0.5)
    with pytest.raises(ValueError):
        minimize_energy_convex(p, rhs)


def test_step_energy_definition():
    p, rhs = scalar_problem(LinearRobin(2.0), 1.0, tau=0.5)
    u = np.array([0.7])
    expected = 0.5 * 0.7**2 * (1 + 0.5) + 0.5 * (0.5 * 2.0 * 0.7**2) - 0.7
    assert step_energy(p, rhs, u) == pytest.approx(expected)


def fem_problem(n_el, potential, f0, f_N, u0_fun):
    mesh = Mesh1D(n_el)
    space, op = assemble_space(mesh)
    spec = ForcingSpec(f0, f_N)
    u0 = make_initial(mesh, space, u0_fun)
    return RotheProblem(space, op, BoundaryFunctional(potential, np.ones(1)),
                        lambda t: assemble_forcing(mesh, spec, t), u0)


def test_reference_matches_scalar_closed_form():
    # m u' + g u = f with constant f: u(t) = f/g + (u0 - f/g) e^{-g t / m}
    g_coef = 1.0
    space = GalerkinSpace(gram_h=[[1.0]], gram_v=[[2.0]], trace=[[1.0]], gram_u=[[1.0]])
    op = LinearOperatorA([[g_coef]], alpha=0.5, beta=1.0, a_growth=0.0, b_growth=1.0)
    problem = RotheProblem(space, op, BoundaryFunctional(ZeroPotential(), np.ones(1)),
                           lambda t: np.array([1.0]), np.array([1.2]))
    ref = reference_solution(problem, 1.0, 1.0 / 4096)
    exact = 1.0 + (1.2 - 1.0) * math.exp(-1.0)
    assert abs(ref.u[-1, 0] - exact) < 1e-8


def test_reference_matches_fem_closed_form():
    # linear flux problem: M u' + (K + k e e^T) u = F, propagated exactly
    # through the matrix exponential
    problem = fem_problem(4, LinearRobin(1.0),
                          lambda t, x: np.ones_like(x), lambda t: 0.0,
                          lambda x: 0.1 * np.cos(np.pi * x))
    M = problem.space.gram_h.toarray()
    G = problem.operator.stiffness.toarray() + problem.space.trace.T @ problem.space.trace
    F = problem.forcing(0.0)
    u_inf = np.linalg.solve(G, F)
    propagator = sla.expm(-np.linalg.solve(M, G))
    exact = u_inf + propagator @ (problem.u0 - u_inf)
    ref = reference_solution(problem, 1.0, 1.0 / 8192)
    assert problem.space.h_norm(ref.u[-1] - exact) < 1e-8


def test_reference_zero_data():
    problem = fem_problem(4, ZeroPotential(),
                          lambda t, x: np.zeros_like(x), lambda t: 0.0,
                          lambda x: np.zeros_like(x))
    ref = reference_solution(problem, 1.0, 1.0 / 64)
    assert np.all(ref.u == 0.0)


def test_reference_self_consistency_under_halving():
    problem = fem_problem(16, PaperExponential(1.0),
                          lambda t, x: np.ones_like(x), lambda t: 0.0,
                          lambda x: np.zeros_like(x))
    a = reference_solution(problem, 1.0, 1.0 / 1024)
    b = reference_solution(problem, 1.0, 1.0 / 2048)
    assert problem.space.h_norm(a.u[-1] - b.u[-1]) < 1e-6


@pytest.mark.parametrize("tau", [0.3, 0.0, -0.25, math.nan, math.inf, 5e-324])
def test_reference_validates_step(tau):
    problem = fem_problem(2, ZeroPotential(),
                          lambda t, x: np.zeros_like(x), lambda t: 0.0,
                          lambda x: np.zeros_like(x))
    with pytest.raises(ValueError, match=f"tau={re.escape(str(tau))} "):
        reference_solution(problem, 1.0, tau)


def test_reference_completes_on_smooth_problem_near_unit_flux_scale():
    # the ROADMAP "smooth" configuration (n_el = 64, its forcing preset, zero
    # start) with potential_d = 0.9926; an earlier solver stalled at step 904
    tau_fine = 1.0 / 1024
    problem = fem_problem(64, PaperExponential(0.9926),
                          lambda t, x: (1.0 - np.cos(np.pi * t)) * 0.5 * (1.0 + x),
                          lambda t: 0.5 * t * t * np.exp(-t),
                          lambda x: np.zeros_like(x))
    tol = 1e-12
    ref = reference_solution(problem, 1.0, tau_fine, tol)
    assert ref.grid.N == 1024
    # a certified step leaves an unscaled residual of at most tol / (c tau)
    assert np.all(ref.per_step_residuals <= 1.5 * tol / tau_fine)
