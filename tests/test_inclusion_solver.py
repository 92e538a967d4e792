from __future__ import annotations

import copy
import math
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.linalg import blas

from conftest import random_spd
from rothe_hvi import (
    BDF2,
    GalerkinSpace,
    LinearRobin,
    Mesh1D,
    NonConvergenceError,
    NonconvexPiecewise,
    NumericalFailureError,
    PaperExponential,
    StepProblem,
    TimeGrid,
    ZeroPotential,
    assemble_forcing,
    assemble_space,
    bdf2_step,
    initial_step,
    minimize_energy_convex,
    run_rothe,
    scan_roots_reduced,
    solve_step_inclusion,
    step_energy,
    verify_inclusion,
)
from rothe_hvi import inclusion_solver
from rothe_hvi.cli import build_problem, parse_config
from rothe_hvi.inclusion_solver import _MAX_SCALAR_ITER, _BoundaryInclusion

POTENTIAL_FACTORIES = {
    "paper": lambda: PaperExponential(1.0),
    "robin": lambda: LinearRobin(1.5),
    "nonconvex": lambda: NonconvexPiecewise(),
    "zero": lambda: ZeroPotential(),
}


def scalar_problem(potential, b, tau=1.0, c=1.0, m=1.0, k=1.0, w=1.0):
    """A one-dimensional step operator and the right-hand side [b]."""
    space = GalerkinSpace(
        gram_h=[[m]], gram_v=[[m + k]], trace=[[1.0]], gram_u=[[1.0]]
    )
    p = StepProblem(
        space=space,
        stiff_scaled=np.array([[c * tau * k]]),
        weights=np.array([w]),
        potential=potential,
        c_coef=c,
        tau=tau,
    )
    return p, np.array([float(b)])


def random_problem(rng, dim, potential, scale=1.0):
    mass = random_spd(rng, dim, shift=0.5)
    stiff = random_spd(rng, dim, shift=0.0) * rng.uniform(0.1, 1.0)
    tau = 10.0 ** rng.uniform(-2, 0)
    c = float(rng.choice([1.0, 2.0 / 3.0]))
    trace = (rng.uniform(0.3, 1.5, size=(1, dim)) * rng.choice([-1.0, 1.0])).reshape(1, dim)
    space = GalerkinSpace(gram_h=mass, gram_v=mass + stiff + 0.1 * np.eye(dim),
                          trace=trace, gram_u=np.eye(1))
    p = StepProblem(
        space=space,
        stiff_scaled=c * tau * stiff,
        weights=rng.uniform(0.5, 2.0, size=1),
        potential=potential,
        c_coef=c,
        tau=tau,
    )
    return p, rng.normal(size=dim) * scale


def oracle_roots(p, rhs, widen_from=8.0):
    radius = widen_from
    for _ in range(8):
        roots = scan_roots_reduced(p, rhs, -radius, radius, 4000)
        if roots:
            return roots
        radius *= 4.0
    raise AssertionError("oracle found no roots")


def test_zero_potential_single_linear_solve():
    p, rhs = scalar_problem(ZeroPotential(), b=3.0)
    u, xi, report = solve_step_inclusion(p, rhs, np.array([10.0]))
    assert u == pytest.approx([1.5])
    assert xi == pytest.approx([0.0])
    assert report.iterations == 1
    assert verify_inclusion(p, rhs, u, xi, 1e-12).residual <= 1e-12


def test_scalar_toy_constructed_root():
    # 2u + (e^{-1} + 1) = b at u = 1
    b = 3.0 + math.exp(-1.0)
    p, rhs = scalar_problem(PaperExponential(1.0), b=b)
    u, xi, _ = solve_step_inclusion(p, rhs, np.zeros(1))
    assert u[0] == pytest.approx(1.0, abs=1e-9)
    assert xi[0] == pytest.approx(math.exp(-1.0) + 1.0, abs=1e-9)
    roots = scan_roots_reduced(p, rhs, -5.0, 5.0)
    assert min(abs(u[0] - r[0]) for r in roots) < 1e-9


def test_scalar_toy_zero_rhs_from_far_start():
    p, rhs = scalar_problem(PaperExponential(1.0), b=0.0, tau=0.5)
    u, xi, _ = solve_step_inclusion(p, rhs, np.array([-5.0]))
    assert u[0] == pytest.approx(0.0, abs=1e-10)
    assert 0.0 <= xi[0] <= 1.0


@pytest.mark.parametrize("name", ["paper", "nonconvex"])
def test_root_one_ulp_left_of_the_kink_is_found(name):
    # t S^-1 b is the subnormal just below the kink at 0, so the root s = b
    # is the very point where the solver reads the left limit of z
    b = math.nextafter(0.0, -math.inf)
    p, rhs = scalar_problem(POTENTIAL_FACTORIES[name](), b=b, k=0.0)
    u, xi, _ = solve_step_inclusion(p, rhs, np.zeros(1))
    assert u[0] == b and xi[0] == 0.0


def test_verify_round_trip_and_negative_control():
    p, rhs = scalar_problem(PaperExponential(1.0), b=3.0 + math.exp(-1.0))
    u, xi, _ = solve_step_inclusion(p, rhs, np.zeros(1), tol=1e-11)
    res = verify_inclusion(p, rhs, u, xi, 1e-10)
    assert res.residual <= 1e-10
    assert res.membership_ok
    bad = verify_inclusion(p, rhs, u, xi + 2e-10 + (xi * 0.1 + 1e-3), 1e-10)
    assert not bad.membership_ok


def test_hand_solution_exact_residual():
    p, rhs = scalar_problem(PaperExponential(1.0), b=3.0 + math.exp(-1.0))
    res = verify_inclusion(p, rhs, np.array([1.0]), np.array([math.exp(-1.0) + 1.0]), 1e-12)
    assert res.residual <= 1e-12
    assert res.membership_ok


@pytest.mark.parametrize("name", sorted(POTENTIAL_FACTORIES))
def test_oracle_equivalence_small(name):
    rng = np.random.default_rng(hash(name) % 2**32)
    for trial in range(40):
        dim = int(rng.integers(1, 3))
        p, rhs = random_problem(rng, dim, POTENTIAL_FACTORIES[name](), scale=rng.uniform(0.5, 3.0))
        u, xi, _ = solve_step_inclusion(p, rhs, np.zeros(dim), tol=1e-11)
        roots = oracle_roots(p, rhs)
        dist = min(np.max(np.abs(u - r)) for r in roots)
        assert dist < 1e-7, f"{name} trial {trial}: dist={dist}"


ORACLE_POTENTIALS = {
    **POTENTIAL_FACTORIES,
    # nonmonotone positive branch: g' < 0 at the kink once c tau w gamma > 1
    "paper_literal_d2": lambda: PaperExponential(2.0, literal_branch=True),
}


@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 6),
    log_tau=st.floats(-3.0, 0.5),
    c=st.sampled_from([1.0, 2.0 / 3.0]),
    weight=st.floats(0.1, 4.0),
    rhs_scale=st.floats(0.0, 5.0),
    log_warm=st.floats(-300.0, 300.0),
    name=st.sampled_from(sorted(ORACLE_POTENTIALS)),
)
def test_solver_picks_the_oracle_root_nearest_the_warm_start(
    seed, dim, log_tau, c, weight, rhs_scale, log_warm, name
):
    rng = np.random.default_rng(seed)
    mass = random_spd(rng, dim, shift=0.5)
    stiff = random_spd(rng, dim, shift=0.0) * rng.uniform(0.1, 1.0)
    tau = 10.0 ** log_tau
    trace = rng.uniform(0.3, 1.5, size=(1, dim)) * rng.choice([-1.0, 1.0], size=(1, dim))
    space = GalerkinSpace(gram_h=mass, gram_v=mass + stiff + 0.1 * np.eye(dim),
                          trace=trace, gram_u=np.eye(1))
    pot = ORACLE_POTENTIALS[name]()
    p = StepProblem(space=space, stiff_scaled=c * tau * stiff, weights=np.array([weight]),
                    potential=pot, c_coef=c, tau=tau)
    rhs = rng.normal(size=dim) * rhs_scale
    warm = rng.normal(size=dim) * 10.0 ** log_warm
    tol = 1e-10
    u, xi, _ = solve_step_inclusion(p, rhs, warm, tol=tol)
    check = verify_inclusion(p, rhs, u, xi, tol)
    assert check.residual <= tol and check.membership_ok

    # every root lies within |s| <= |t S^-1 b| + F d_j (F = c tau w t S^-1 t^T)
    s_inv = np.linalg.inv(p.system.toarray())
    factor = c * tau * weight * float(trace[0] @ s_inv @ trace[0])
    radius = abs(float(trace[0] @ s_inv @ rhs)) + factor * pot.d_j + 1.0
    roots = scan_roots_reduced(p, rhs, -radius, radius, 20000)
    assert min(np.max(np.abs(u - r)) for r in roots) < 1e-7
    s, s_warm = float(trace[0] @ u), float(trace[0] @ warm)
    nearest = min(abs(float(trace[0] @ r) - s_warm) for r in roots)
    assert abs(s - s_warm) <= nearest + 1e-7


def test_convex_energy_optimality():
    rng = np.random.default_rng(99)
    for _ in range(25):
        dim = int(rng.integers(1, 3))
        pot = PaperExponential(rng.uniform(0.5, 2.0)) if rng.uniform() < 0.5 else LinearRobin(rng.uniform(0.2, 2.0))
        p, rhs = random_problem(rng, dim, pot)
        u, xi, _ = solve_step_inclusion(p, rhs, np.zeros(dim), tol=1e-11)
        e0 = step_energy(p, rhs, u)
        for k in range(dim):
            for delta in (1e-4, -1e-4):
                probe = u.copy()
                probe[k] += delta
                assert step_energy(p, rhs, probe) >= e0 - 1e-12
        s = p.space.trace @ u
        if all(min(abs(float(si) - kk) for kk in pot.kinks) > 1e-5 for si in np.atleast_1d(s)) if pot.kinks else True:
            grad = np.empty(dim)
            for k in range(dim):
                ep = u.copy(); ep[k] += 1e-7
                em = u.copy(); em[k] -= 1e-7
                grad[k] = (step_energy(p, rhs, ep) - step_energy(p, rhs, em)) / 2e-7
            assert np.linalg.norm(grad) <= 1e-6


def test_scaling_covariance():
    base, rhs = scalar_problem(PaperExponential(1.0), b=2.0, tau=0.7)
    u_ref, _, _ = solve_step_inclusion(base, rhs, np.zeros(1), tol=1e-13)
    for s in (0.5, 2.0, 10.0):
        scaled = StepProblem(
            space=replace(base.space, gram_h=s * base.space.gram_h),
            stiff_scaled=s * base.stiff_scaled,
            weights=s * base.weights,
            potential=base.potential,
            c_coef=base.c_coef,
            tau=base.tau,
        )
        u, _, _ = solve_step_inclusion(scaled, s * rhs, np.zeros(1), tol=1e-13)
        assert np.max(np.abs(u - u_ref)) < 1e-10


def test_invalid_inputs():
    p, rhs = scalar_problem(ZeroPotential(), b=1.0)
    with pytest.raises(ValueError):
        solve_step_inclusion(p, rhs, np.zeros(1), tol=0.0)
    with pytest.raises(ValueError):
        solve_step_inclusion(p, rhs, np.zeros(2))
    with pytest.raises(ValueError, match="right-hand side"):
        solve_step_inclusion(p, np.ones(2), np.zeros(1))
    with pytest.raises(ValueError):
        replace(p, c_coef=0.5)
    # what holds for every step is checked when the operator is built
    two_rows = GalerkinSpace(gram_h=np.eye(2), gram_v=2.0 * np.eye(2), trace=np.eye(2),
                             gram_u=np.eye(2))
    with pytest.raises(ValueError, match="dim_u = 2"):
        StepProblem(space=two_rows, stiff_scaled=np.eye(2), weights=np.ones(2),
                    potential=ZeroPotential(), c_coef=1.0, tau=1.0)
    zero_row = GalerkinSpace(gram_h=[[1.0]], gram_v=[[2.0]], trace=[[0.0]], gram_u=[[1.0]])
    with pytest.raises(ValueError, match="gamma > 0"):
        replace(p, space=zero_row)
    # each step function takes the operator of its own stencil only
    two_step, _ = scalar_problem(ZeroPotential(), b=1.0, c=2.0 / 3.0)
    with pytest.raises(ValueError, match="initial_step"):
        initial_step(two_step, np.zeros(1), np.zeros(1))
    with pytest.raises(ValueError, match="bdf2_step"):
        bdf2_step(p, np.zeros(1), np.zeros(1), np.zeros(1))


def test_non_finite_rhs_raises():
    p, rhs = scalar_problem(LinearRobin(1.0), b=np.inf)
    with pytest.raises((NumericalFailureError, NonConvergenceError)):
        solve_step_inclusion(p, rhs, np.zeros(1))


def test_minimizer_matches_solver_on_toy():
    p, rhs = scalar_problem(PaperExponential(1.0), b=3.0 + math.exp(-1.0))
    u = minimize_energy_convex(p, rhs, tol=1e-9)
    assert u[0] == pytest.approx(1.0, abs=1e-7)


def fem_step(n_el: int, potential) -> tuple[StepProblem, np.ndarray, np.ndarray]:
    """A two-step-stencil operator of the P1 problem, a right-hand side and
    a warm start."""
    mesh = Mesh1D(n_el)
    space, op = assemble_space(mesh)
    c, tau = 2.0 / 3.0, 0.1
    u_prev = np.linspace(0.0, 1.0, n_el + 1)
    load = assemble_forcing(mesh, lambda x: 1.0 + x)
    load[0] += 0.5  # a Neumann datum at x = 0
    p = StepProblem(
        space=space, stiff_scaled=c * tau * op.stiffness, weights=np.ones(1),
        potential=potential, c_coef=c, tau=tau,
    )
    return p, c * tau * load + space.gram_h @ u_prev, u_prev


@pytest.mark.parametrize("n_el", [4, 64])
@pytest.mark.parametrize(
    "case, reason",
    [
        ("nan in the rhs at an interior node", "non-finite right-hand side or warm start"),
        ("inf in the rhs at the boundary node", "non-finite right-hand side or warm start"),
        ("nan in the warm start at an interior node", "non-finite right-hand side or warm start"),
    ],
)
def test_each_vector_scanned_once_still_rejects_bad_data(n_el, case, reason):
    # the rhs is scanned only through x = S^-1 b and the residual only
    # through its own squared norm; both must still catch what the data holds
    p, rhs, warm = fem_step(n_el, PaperExponential(1.0))
    u, _, report = solve_step_inclusion(p, rhs, warm)
    assert np.all(np.isfinite(u)) and report.residual <= 1e-10
    rhs, warm = rhs.copy(), warm.copy()
    if case.startswith("nan in the rhs"):
        rhs[n_el // 2] = np.nan
    elif case.startswith("inf in the rhs"):
        rhs[n_el] = np.inf
    else:
        warm[n_el // 2] = np.nan
    with np.errstate(all="ignore"), pytest.raises(NumericalFailureError) as info:
        solve_step_inclusion(p, rhs, warm)
    assert str(info.value) == reason


@pytest.mark.parametrize("n_el", [4, 64])
def test_a_finite_residual_whose_square_overflows_is_rejected_by_size(n_el):
    # x = S^-1 b stays finite, and so does r, at rounding level of b; only
    # r^T G_v^-1 r, about 1e368, overflows, and the norm must not
    p, rhs, warm = fem_step(n_el, ZeroPotential())
    rhs *= 1e200
    with pytest.raises(NonConvergenceError) as info:
        solve_step_inclusion(p, rhs, warm)
    residual = info.value.report.residual
    assert 0.0 < residual <= 1e-12 * p.space.dual_norm(rhs)
    assert str(info.value) == f"step residual {residual:.3e} above tol 1e-10"


@pytest.mark.parametrize("n_el", [4, 64])
def test_a_finite_warm_start_whose_sum_of_squares_overflows_is_not_rejected(n_el):
    # the warm start is checked by one ddot; only a sum that is not finite
    # sends it to the entry-by-entry scan, which passes finite entries.  The
    # solve reads the warm start at the boundary node only, so entries of
    # 1e200 elsewhere leave the step as it was
    p, rhs, warm = fem_step(n_el, PaperExponential(1.0))
    reference = _outcome(p, rhs, warm)
    assert len(reference) == 4
    huge = np.full(p.dim, 1e200)
    nodes = [k for k, _ in p.trace_pairs]
    huge[nodes] = warm[nodes]
    assert math.isinf(blas.ddot(huge, huge))
    assert _outcome(p, rhs, huge) == reference
    for bad in (np.nan, np.inf, -np.inf):
        warm_bad = huge.copy()
        warm_bad[n_el // 2] = bad
        with np.errstate(all="ignore"), pytest.raises(NumericalFailureError) as info:
            solve_step_inclusion(p, rhs, warm_bad)
        assert str(info.value) == "non-finite right-hand side or warm start"


@pytest.mark.parametrize("n_el", [4, 1024])
def test_an_operator_copied_or_pickled_solves_as_the_original(n_el):
    # bands and operators hold bound BLAS/LAPACK kernels, which cannot be
    # pickled; a copy is built anew from the band data and fields
    p, rhs, warm = fem_step(n_el, PaperExponential(1.0))
    for copied in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p)):
        assert copied is not p and copied.system is not p.system
        assert np.array_equal(copied.system.ab, p.system.ab)
        assert _outcome(copied, rhs, warm) == _outcome(p, rhs, warm)
        assert copied.space.dual_norm(rhs) == p.space.dual_norm(rhs)


def _outcome(p, rhs, warm):
    """What a solve returns, byte for byte, or the failure it raises."""
    try:
        u, xi, report = solve_step_inclusion(p, rhs, warm)
    except (NonConvergenceError, NumericalFailureError) as exc:
        return type(exc).__name__, str(exc)
    return u.tobytes(), xi.tobytes(), report.iterations, report.residual


@pytest.mark.parametrize("factor", [0.1, 2.0], ids=["F_slope_below_1", "F_slope_above_1"])
@pytest.mark.parametrize("name", sorted(ORACLE_POTENTIALS))
def test_one_operator_solves_many_right_hand_sides_as_fresh_operators_do(name, factor):
    # the boundary table is built once per operator; no solve may leave in
    # it anything that changes the next.  F = c tau w gamma is set through
    # w: the drop slopes are 4 (nonconvex) and 1 (paper_literal_d2 at 0+),
    # so F = 2 makes g' < 0 beside the kink and F = 0.1 does not
    base, _, _ = fem_step(8, ORACLE_POTENTIALS[name]())
    p = replace(base, weights=np.array([factor / (base.c_coef * base.tau * base.gamma)]))
    assert p.inclusion.factor == pytest.approx(factor)
    rng = np.random.default_rng(sorted(ORACLE_POTENTIALS).index(name))
    solved = 0
    for _ in range(50):
        rhs = rng.normal(size=p.dim) * 10.0 ** rng.uniform(-2.0, 1.0)
        warm = rng.normal(size=p.dim) * 2.0
        reused = _outcome(p, rhs, warm)
        assert reused == _outcome(replace(p), rhs, warm)
        solved += len(reused) == 4
    assert solved >= 45


def test_the_minimiser_search_runs_once_per_operator(monkeypatch):
    # F * drop_slope > 1 for both stencils at N = 8 and at N = 64, so g is
    # split at its minimiser on the drop window; that search belongs to the
    # operator, not to the step, and a longer run makes no more of them
    problem = build_problem(parse_config(
        "[problem]\nn_el = 8\nforcing = constant\nf0_value = 1.0\n"
        "potential = nonconvex_piecewise\nncvx_drop_slope = 16.0\n"
    ))
    for n in (8, 64):
        for c in (1.0, 2.0 / 3.0):
            assert problem.step_problem(c, 1.0 / n).inclusion.factor * 16.0 > 1.0
    calls = []
    original = inclusion_solver._BoundaryInclusion.minimiser

    def counting(self, a, b):
        calls.append(n)
        return original(self, a, b)

    monkeypatch.setattr(inclusion_solver._BoundaryInclusion, "minimiser", counting)
    for n in (8, 64):
        run_rothe(problem, TimeGrid(1.0, n), BDF2)
    assert calls.count(8) == calls.count(64) > 0


@pytest.mark.parametrize("warm", [1e100, -1e100, 1e200, -1e200, 1e300, -1e300])
@pytest.mark.parametrize("name", ["paper", "nonconvex"])
@pytest.mark.parametrize("n_el", [4, 64])
def test_a_far_warm_start_still_finds_the_root_nearest_it(n_el, name, warm):
    # a finite warm start of any size lies inside the unbounded bracket;
    # Newton steps from it that leave the bracket are key bisections, which
    # cross the float range in a few halvings instead of one per octave
    p, rhs, _ = fem_step(n_el, POTENTIAL_FACTORIES[name]())
    u, xi, report = solve_step_inclusion(p, rhs, np.full(p.dim, warm))
    assert report.iterations <= 2 * len(p.inclusion.pieces) * (_MAX_SCALAR_ITER - 1)
    assert verify_inclusion(p, rhs, u, xi, 1e-10).membership_ok
    row = p.space.trace[0]
    ends = sorted(float(row @ r) for r in oracle_roots(p, rhs))
    assert float(row @ u) == pytest.approx(ends[-1] if warm > 0 else ends[0], abs=1e-7)


def _positive_power(lo: float, hi: float):
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


FLUX_LAWS = st.one_of(
    st.builds(PaperExponential, _positive_power(-2.0, 2.0)),
    # d > 1: the literal positive branch dips, so g needs its minimiser
    st.builds(lambda d: PaperExponential(d, literal_branch=True), _positive_power(0.0, 2.0)),
    st.builds(LinearRobin, st.one_of(st.just(0.0), _positive_power(-3.0, 3.0))),
    st.just(ZeroPotential()),
    st.builds(NonconvexPiecewise, _positive_power(-2.0, 2.0), _positive_power(-2.0, 2.0),
              _positive_power(-2.0, 2.0), st.one_of(st.just(0.0), _positive_power(-2.0, 2.0))),
)
# integer exponents, so the ends of the range (warm 1e300 against target
# 1e-300) are drawn often
SIGNED_MAGNITUDES = st.builds(lambda sign, m, e: sign * m * 10.0 ** e,
                              st.sampled_from([-1.0, 1.0]), st.floats(1.0, 9.99),
                              st.integers(-300, 300))
_EPS = float(np.finfo(float).eps)


def _is_root(pot, factor: float, target: float, r: float) -> bool:
    """Whether 0 is in g(r) = r - target + F z(r) to rounding: a kink whose
    interval holds 0, a zero of g to the rounding of its terms, or a point
    within reach of Newton's stopping test, 4 eps max(1, |r|) (twice that
    here), of a sign change of g."""
    if r in pot.kinks:
        lo, hi = pot.clarke_interval(r)
        if r - target + factor * lo <= 0.0 <= r - target + factor * hi:
            return True
    z = pot.branch_value(r)
    if abs(r - target + factor * z) <= 8.0 * _EPS * (abs(r) + abs(target) + abs(factor * z)):
        return True
    delta = 8.0 * _EPS * max(1.0, abs(r))
    g_left, g_right = (s - target + factor * pot.branch_value(s) for s in (r - delta, r + delta))
    return min(g_left, g_right) <= 0.0 <= max(g_left, g_right)


@given(pot=FLUX_LAWS, log_factor=st.floats(-4.0, 3.0), target=SIGNED_MAGNITUDES,
       warm=SIGNED_MAGNITUDES)
@example(pot=PaperExponential(2.65), log_factor=math.log10(2.12), target=-5.5e-17, warm=-1.6e214)
def test_the_boundary_inclusion_finds_its_roots_within_the_stated_bound(
    pot, log_factor, target, warm
):
    # every law meets g -> -inf at -inf and +inf at +inf, so each draw has a
    # root; each bracket takes at most _MAX_SCALAR_ITER - 1 steps, and a
    # piece has at most two brackets
    factor = 10.0 ** log_factor
    inclusion = _BoundaryInclusion(pot, factor)
    roots, iterations = inclusion.roots(target, warm)
    assert roots
    assert iterations <= 2 * len(inclusion.pieces) * (_MAX_SCALAR_ITER - 1)
    for r in roots:
        assert _is_root(pot, factor, target, r), r


@pytest.mark.parametrize("target", [-1e300, -1e-300, 0.0, 1.0, 1e300])
@pytest.mark.parametrize("name", sorted(ORACLE_POTENTIALS))
def test_key_bisection_alone_closes_each_bracket_within_64_steps(monkeypatch, name, target):
    # with no Newton steps refine is the second half of the bound alone,
    # the path a far warm start or a stalling Newton iteration falls back to
    monkeypatch.setattr(inclusion_solver, "_NEWTON_STEPS", 0)
    pot = ORACLE_POTENTIALS[name]()
    for factor in (0.1, 2.0):
        inclusion = _BoundaryInclusion(pot, factor)
        for warm in (-1e300, 1e300):
            roots, iterations = inclusion.roots(target, warm)
            assert roots and iterations <= 2 * len(inclusion.pieces) * 64
            assert all(_is_root(pot, factor, target, r) for r in roots)
