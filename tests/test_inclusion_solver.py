from __future__ import annotations

import copy
import math
import pickle
import re
import struct
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import DescendingPiece, random_spd
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
)
from rothe_hvi import inclusion_solver, stepper
from rothe_hvi.cli import build_problem, parse_config
from rothe_hvi.inclusion_solver import (
    _MAX_SCALAR_ITER,
    _BoundaryInclusion,
    _float,
    _key,
    _key_midpoint,
    step_residuals,
)

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


def step_residual(p, rhs, u, xi):
    """The V*-norm of the step residual of (u, xi), NaN when not finite."""
    return step_residuals(p, u[None], np.asarray(rhs, dtype=float)[None], xi).item(0)


def membership_gap(p, u, xi):
    """The distance of xi to its admissible interval at s = t u, closed by a
    roundoff-sized margin in s."""
    s = p.boundary_value(u)
    lo, hi = p.potential.membership_interval(s, 1e-12 * (1.0 + abs(s)))
    return max(lo - float(xi[0]), float(xi[0]) - hi, 0.0)


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
    u, xi, report = solve_step_inclusion(p, rhs, p.boundary_value(np.array([10.0])))
    assert u == pytest.approx([1.5])
    assert xi == pytest.approx([0.0])
    assert report.iterations == 1
    assert step_residual(p, rhs, u, xi) <= 1e-12


def test_scalar_toy_constructed_root():
    # 2u + (e^{-1} + 1) = b at u = 1
    b = 3.0 + math.exp(-1.0)
    p, rhs = scalar_problem(PaperExponential(1.0), b=b)
    u, xi, _ = solve_step_inclusion(p, rhs, p.boundary_value(np.zeros(1)))
    assert u[0] == pytest.approx(1.0, abs=1e-9)
    assert xi[0] == pytest.approx(math.exp(-1.0) + 1.0, abs=1e-9)
    roots = scan_roots_reduced(p, rhs, -5.0, 5.0)
    assert min(abs(u[0] - r[0]) for r in roots) < 1e-9


def test_scalar_toy_zero_rhs_from_far_start():
    p, rhs = scalar_problem(PaperExponential(1.0), b=0.0, tau=0.5)
    u, xi, _ = solve_step_inclusion(p, rhs, p.boundary_value(np.array([-5.0])))
    assert u[0] == pytest.approx(0.0, abs=1e-10)
    assert 0.0 <= xi[0] <= 1.0


@pytest.mark.parametrize("name", ["paper", "nonconvex"])
def test_root_one_ulp_left_of_the_kink_is_found(name):
    # t S^-1 b is the subnormal just below the kink at 0, so the root s = b
    # is the very point where the solver reads the left limit of z
    b = math.nextafter(0.0, -math.inf)
    p, rhs = scalar_problem(POTENTIAL_FACTORIES[name](), b=b, k=0.0)
    u, xi, _ = solve_step_inclusion(p, rhs, p.boundary_value(np.zeros(1)))
    assert u[0] == b and xi[0] == 0.0


def test_verify_round_trip_and_negative_control():
    p, rhs = scalar_problem(PaperExponential(1.0), b=3.0 + math.exp(-1.0))
    u, xi, _ = solve_step_inclusion(p, rhs, p.boundary_value(np.zeros(1)), tol=1e-11)
    assert step_residual(p, rhs, u, xi) <= 1e-10
    assert membership_gap(p, u, xi) <= 1e-10
    assert not membership_gap(p, u, xi + 2e-10 + (xi * 0.1 + 1e-3)) <= 1e-10


def test_hand_solution_exact_residual():
    p, rhs = scalar_problem(PaperExponential(1.0), b=3.0 + math.exp(-1.0))
    u, xi = np.array([1.0]), np.array([math.exp(-1.0) + 1.0])
    assert step_residual(p, rhs, u, xi) <= 1e-12
    assert membership_gap(p, u, xi) <= 1e-12


@pytest.mark.parametrize("name", sorted(POTENTIAL_FACTORIES))
def test_oracle_equivalence_small(name):
    rng = np.random.default_rng(hash(name) % 2**32)
    for trial in range(40):
        dim = int(rng.integers(1, 3))
        p, rhs = random_problem(rng, dim, POTENTIAL_FACTORIES[name](), scale=rng.uniform(0.5, 3.0))
        u, xi, _ = solve_step_inclusion(p, rhs, p.boundary_value(np.zeros(dim)), tol=1e-11)
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
    u, xi, _ = solve_step_inclusion(p, rhs, p.boundary_value(warm), tol=tol)
    assert step_residual(p, rhs, u, xi) <= tol and membership_gap(p, u, xi) <= tol

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
        u, xi, _ = solve_step_inclusion(p, rhs, p.boundary_value(np.zeros(dim)), tol=1e-11)
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
    u_ref, _, _ = solve_step_inclusion(base, rhs, base.boundary_value(np.zeros(1)), tol=1e-13)
    for s in (0.5, 2.0, 10.0):
        scaled = StepProblem(
            space=replace(base.space, gram_h=s * base.space.gram_h),
            stiff_scaled=s * base.stiff_scaled,
            weights=s * base.weights,
            potential=base.potential,
            c_coef=base.c_coef,
            tau=base.tau,
        )
        u, _, _ = solve_step_inclusion(scaled, s * rhs, scaled.boundary_value(np.zeros(1)), tol=1e-13)
        assert np.max(np.abs(u - u_ref)) < 1e-10


def test_invalid_inputs():
    p, rhs = scalar_problem(ZeroPotential(), b=1.0)
    with pytest.raises(ValueError):
        solve_step_inclusion(p, rhs, p.boundary_value(np.zeros(1)), tol=0.0)
    # the warm start enters as its boundary value, a float; a state of the
    # wrong shape is rejected by the step function that reads it
    with pytest.raises(TypeError):
        solve_step_inclusion(p, rhs, np.zeros(2))
    with pytest.raises(ValueError):
        initial_step(p, np.zeros(2), np.zeros(1))
    with pytest.raises(ValueError, match="right-hand side"):
        solve_step_inclusion(p, np.ones(2), p.boundary_value(np.zeros(1)))
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
        solve_step_inclusion(p, rhs, p.boundary_value(np.zeros(1)))


def test_minimizer_matches_solver_on_toy():
    p, rhs = scalar_problem(PaperExponential(1.0), b=3.0 + math.exp(-1.0))
    u = minimize_energy_convex(p, rhs, tol=1e-9)
    assert u[0] == pytest.approx(1.0, abs=1e-7)


def fem_step(n_el: int, potential, c: float = 2.0 / 3.0) -> tuple[StepProblem, np.ndarray, np.ndarray]:
    """An operator of the P1 problem (the two-step stencil's unless c = 1),
    a right-hand side and a warm start."""
    mesh = Mesh1D(n_el)
    space, op = assemble_space(mesh)
    tau = 0.1
    u_prev = np.linspace(0.0, 1.0, n_el + 1)
    load = assemble_forcing(mesh, lambda x: 1.0 + x)
    load[0] += 0.5  # a Neumann datum at x = 0
    p = StepProblem(
        space=space, stiff_scaled=c * tau * op.stiffness, weights=np.ones(1),
        potential=potential, c_coef=c, tau=tau,
    )
    return p, c * tau * load + space.gram_h @ u_prev, u_prev


@pytest.mark.parametrize(
    "n_el, vector",
    [
        (4, np.arange(50.0)),  # longer: its trace entry used to be read as t v
        (4, np.zeros(3)),  # shorter than the trace node: was an IndexError
        (4, np.zeros((1, 5))),  # the right size, not the right shape
        (None, np.zeros(5)),  # a one-node operator and a longer vector
    ],
)
def test_the_boundary_value_of_a_vector_of_another_shape_is_a_value_error(n_el, vector):
    if n_el is None:
        p, _ = scalar_problem(PaperExponential(1.0), 1.0)
    else:
        p, _, u_prev = fem_step(n_el, PaperExponential(1.0))
        assert p.boundary_value(u_prev) == 1.0
    message = f"vector has shape {vector.shape}, expected ({p.dim},)"
    with pytest.raises(ValueError, match=re.escape(message)):
        p.boundary_value(vector)


@pytest.mark.parametrize("n_el", [4, 64])
@pytest.mark.parametrize(
    "case, reason",
    [
        ("nan in the rhs at an interior node", "non-finite right-hand side or warm start"),
        ("inf in the rhs at the boundary node", "non-finite right-hand side or warm start"),
    ],
)
def test_each_vector_scanned_once_still_rejects_bad_data(n_el, case, reason):
    # the rhs is scanned only through x = S^-1 b and the residual only
    # through its own squared norm; both must still catch what the data holds
    p, rhs, warm = fem_step(n_el, PaperExponential(1.0))
    u, _, report = solve_step_inclusion(p, rhs, p.boundary_value(warm))
    assert np.all(np.isfinite(u)) and report.residual <= 1e-10
    rhs = rhs.copy()
    if case.startswith("nan in the rhs"):
        rhs[n_el // 2] = np.nan
    else:
        rhs[n_el] = np.inf
    with np.errstate(all="ignore"), pytest.raises(NumericalFailureError) as info:
        solve_step_inclusion(p, rhs, p.boundary_value(warm))
    assert str(info.value) == reason


@pytest.mark.parametrize("n_el", [4, 64])
def test_a_finite_residual_whose_square_overflows_is_rejected_by_size(n_el):
    # x = S^-1 b stays finite, and so does r, at rounding level of b; only
    # r^T G_v^-1 r, about 1e368, overflows, and the norm must not
    p, rhs, warm = fem_step(n_el, ZeroPotential())
    rhs *= 1e200
    with pytest.raises(NonConvergenceError) as info:
        solve_step_inclusion(p, rhs, p.boundary_value(warm))
    residual = info.value.report.residual
    assert 0.0 < residual <= 1e-12 * p.space.dual_norm(rhs)
    assert str(info.value) == f"step residual {residual:.3e} above tol 1e-10"


@pytest.mark.parametrize("n_el", [64, 1024, 16384])
def test_a_steps_residual_has_the_same_bits_alone_in_a_pair_and_in_a_full_block(n_el):
    # a segment holds one step up to a full row block of them, and the
    # single-step API certifies one; at n_el = 16384 a row is longer than
    # einsum's 8192-entry buffer, over which it sums a lone row in another
    # order than a row of a stack
    p, rhs, warm = fem_step(n_el, PaperExponential(1.0))
    k = max(3, stepper.block_rows(p.dim + 3))
    rng = np.random.default_rng(n_el)
    u = warm + 1e-3 * rng.normal(size=(k, p.dim))
    b = rhs + 1e-3 * rng.normal(size=(k, p.dim))
    xi = rng.normal(size=k)
    block = inclusion_solver.step_residuals(p, u, b, xi)
    for i in range(k):
        alone = inclusion_solver.step_residuals(p, u[i : i + 1], b[i : i + 1], xi[i : i + 1])
        assert alone.tobytes() == block[i : i + 1].tobytes(), i
    for i in range(k - 1):
        pair = inclusion_solver.step_residuals(p, u[i : i + 2], b[i : i + 2], xi[i : i + 2])
        assert pair.tobytes() == block[i : i + 2].tobytes(), i


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("node", ["interior", "boundary"])
@pytest.mark.parametrize("state", ["u_nm1", "u_nm2", "u_prev"])
@pytest.mark.parametrize("n_el", [4, 64])
def test_a_non_finite_state_fails_the_step_with_its_reason(n_el, state, node, bad):
    # the solver reads the warm start as its boundary value only: a bad
    # entry of a state at the boundary node is caught there, one elsewhere
    # through the right-hand side the state enters
    one_step = state == "u_prev"
    p, _, warm = fem_step(n_el, PaperExponential(1.0), 1.0 if one_step else 2.0 / 3.0)
    states = {"u_nm1": warm.copy(), "u_nm2": 0.5 * warm, "u_prev": warm.copy()}
    f = np.ones(p.dim)

    def step():
        if one_step:
            return initial_step(p, states["u_prev"], f)
        return bdf2_step(p, states["u_nm1"], states["u_nm2"], f)

    assert len(_outcome_of(step)) == 4
    states[state][n_el // 2 if node == "interior" else p.trace_pairs[0][0]] = bad
    with np.errstate(all="ignore"), pytest.raises(NumericalFailureError) as info:
        step()
    assert str(info.value) == "non-finite right-hand side or warm start"


@pytest.mark.parametrize("s_warm", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("n_el", [4, 64])
def test_a_non_finite_warm_boundary_value_fails_the_solve_with_its_reason(n_el, s_warm):
    p, rhs, warm = fem_step(n_el, PaperExponential(1.0))
    assert len(_outcome(p, rhs, warm)) == 4
    with pytest.raises(NumericalFailureError) as info:
        solve_step_inclusion(p, rhs, s_warm)
    assert str(info.value) == "non-finite right-hand side or warm start"


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("n_el", [4, 64])
def test_finite_states_whose_extrapolant_overflows_off_the_boundary_are_not_bad_data(n_el, sign):
    # 2 u^{n-1} - u^{n-2} overflows at an interior node, which the solver
    # never reads: bdf2_step forms the extrapolant at the trace's nodes only,
    # so the step raises no overflow warning (every warning fails a test) and
    # is not rejected as non-finite data.  Its right-hand side is finite, and
    # it fails on its own residual
    p, _, warm = fem_step(n_el, PaperExponential(1.0))
    u_nm1 = warm.copy()
    u_nm1[n_el // 2] = sign * 1e308
    assert math.isinf(2.0 * float(u_nm1[n_el // 2]))
    with pytest.raises(NonConvergenceError) as info:
        bdf2_step(p, u_nm1, warm, np.ones(p.dim))
    residual = info.value.report.residual
    assert 1e200 < residual < math.inf
    assert str(info.value) == f"step residual {residual:.3e} above tol 1e-10"


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
    return _outcome_of(lambda: solve_step_inclusion(p, rhs, p.boundary_value(warm)))


def _outcome_of(step):
    """What ``step()`` returns, byte for byte, or the failure it raises."""
    try:
        u, xi, report = step()
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
    u, xi, report = solve_step_inclusion(p, rhs, p.boundary_value(np.full(p.dim, warm)))
    assert report.iterations <= 2 * len(p.inclusion.pieces) * (_MAX_SCALAR_ITER - 1)
    assert membership_gap(p, u, xi) <= 1e-10
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


@pytest.mark.parametrize("tail_slope, target, want", [
    (1e18, 3.0, [1.0]), (1e18, 10.0, [1.0]), (1e18, 0.3, [0.0, 0.2, 1.0]),
    (2.0**52 - 2, 0.0, [0.0, 0.5, 1.0 + 2.0**-52]),
])
def test_a_root_where_the_slope_of_z_jumps_is_found(tail_slope, target, want):
    # z's slope jumps from -4 to the tail slope at s = 1, so g' changes sign
    # between 1.0 and the next float m, and g jumps there from below zero
    # (g(1) = -3.5 for target 3) to 107.5 at m, or to exactly 0 for the
    # slope 2^52 - 2 and target 0: the first float where g' >= 0 is not
    # where g is least.  At targets 0.3 and 0, g > 0 at the piece's left end
    # too, and a root lies between it and the minimum
    pot = NonconvexPiecewise(1.0, 4.0, 1.0, tail_slope)
    roots, _ = _BoundaryInclusion(pot, 0.5).roots(target, 0.0)
    assert sorted(roots) == pytest.approx(want, rel=0.0, abs=1e-15)
    assert all(_is_root(pot, 0.5, target, r) for r in roots)


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


_SIGN_BIT = 1 << 63
_DBL_MAX = sys.float_info.max
CODEC_POINTS = [0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, _DBL_MAX, -_DBL_MAX]


def _pattern(x: float) -> int:
    """The bit pattern of x as an unsigned integer."""
    return int.from_bytes(struct.pack("<d", x), "little")


@pytest.mark.parametrize("x", CODEC_POINTS)
def test_the_struct_key_codec_is_the_reflected_bit_pattern(x):
    # the key is the bit pattern, reflected through zero for a negative
    # float; decoding gives the float back, +0 for the key both zeros share
    bits = _pattern(x)
    key = bits if bits < _SIGN_BIT else _SIGN_BIT - bits
    assert _key(x) == key
    assert _pattern(_float(key)) == (0 if x == 0.0 else bits)


def test_the_codec_keeps_the_order_of_the_floats_at_its_ends():
    keys = [_key(x) for x in sorted(CODEC_POINTS)]
    assert keys == sorted(keys)
    assert _key(0.0) == _key(-0.0) == 0
    assert _key(5e-324) == 1 and _key(-5e-324) == -1
    assert _key(math.inf) == _key(_DBL_MAX) + 1 and _key(-math.inf) == _key(-_DBL_MAX) - 1


def _minimiser_by_float_midpoints(inclusion: _BoundaryInclusion, a: float, b: float) -> float:
    """The minimiser search as bisection in floats, one ``_key_midpoint``
    per halving: the reference the key-space search must match."""
    while True:
        mid = _key_midpoint(a, b)
        if mid == a:
            return b
        if inclusion.dg(mid) < 0.0:
            a = mid
        else:
            b = mid


@given(pot=FLUX_LAWS, log_factor=st.floats(-4.0, 3.0),
       ends=st.lists(st.floats(allow_nan=False), min_size=2, max_size=2))
@example(pot=PaperExponential(4.0, literal_branch=True), log_factor=0.0, ends=[-1.0, 2.0])
@example(pot=NonconvexPiecewise(), log_factor=0.5, ends=[0.0, math.inf])
@example(pot=ZeroPotential(), log_factor=0.0, ends=[-5e-324, -0.0])  # b itself, its sign kept
def test_the_key_space_minimiser_returns_the_float_midpoint_bisections_float(
    pot, log_factor, ends
):
    # every search of the operator's table, then one between arbitrary ends
    inclusion = _BoundaryInclusion(pot, 10.0 ** log_factor)
    for a_in, b_in, _, _, s_min, _ in inclusion.pieces:
        if s_min is not None:
            assert _pattern(s_min) == _pattern(_minimiser_by_float_midpoints(inclusion, a_in, b_in))
    a, b = sorted(ends)
    found = inclusion.minimiser(a, b)
    assert _pattern(found) == _pattern(_minimiser_by_float_midpoints(inclusion, a, b))


@pytest.mark.parametrize("pot, factor", [
    (PaperExponential(4.0, literal_branch=True), 1.0), (NonconvexPiecewise(), 10.0 ** 0.5),
])
def test_the_minimiser_examples_search_the_table(pot, factor):
    # the explicit examples above split a piece at its minimiser
    assert any(piece[4] is not None for piece in _BoundaryInclusion(pot, factor).pieces)


# -- the early exit of a boundary inclusion that increases everywhere -------

EARLY_EXIT_POTENTIALS = {
    "zero": ZeroPotential,
    "robin": lambda: LinearRobin(1.5),
    "paper_d_le_1": lambda: PaperExponential(0.5),
    "paper_d_gt_1": lambda: PaperExponential(3.0),
    "paper_literal_d_le_1": lambda: PaperExponential(0.5, literal_branch=True),
    "paper_literal_d_gt_1": lambda: PaperExponential(3.0, literal_branch=True),
    "nonconvex": NonconvexPiecewise,
}


def _full_scan(inclusion: _BoundaryInclusion, target: float, warm: float):
    """``roots`` of the same table without the early exit."""
    scan = copy.copy(inclusion)
    scan.increasing = False
    return scan.roots(target, warm)


@st.composite
def _targets_near_kink_edges(draw, inclusion: _BoundaryInclusion) -> float:
    """A target within a few floats of one where g is exactly zero at an end
    of a kink's interval, or at +-1e300, or any finite float."""
    edges = [x + fz for x, fz_lo, fz_hi in inclusion.kinks for fz in (fz_lo, fz_hi)]
    kind = draw(st.sampled_from(["edge", "huge", "any"] if edges else ["huge", "any"]))
    if kind == "huge":
        return draw(st.sampled_from([-1e300, 1e300]))
    if kind == "any":
        return draw(st.floats(-1e6, 1e6, allow_nan=False))
    target = draw(st.sampled_from(edges))
    for _ in range(draw(st.integers(0, 3))):
        target = math.nextafter(target, draw(st.sampled_from([-math.inf, math.inf])))
    return target


@pytest.mark.parametrize("name", sorted(EARLY_EXIT_POTENTIALS))
@given(data=st.data())
def test_the_early_exit_returns_exactly_the_full_scans_roots(name, data):
    factor = data.draw(st.sampled_from([0.1, 0.5, 1.0, 2.0, 13.56]), label="factor")
    inclusion = _BoundaryInclusion(EARLY_EXIT_POTENTIALS[name](), factor)
    target = data.draw(_targets_near_kink_edges(inclusion), label="target")
    warm = data.draw(st.floats(-10.0, 10.0), label="warm")
    assert inclusion.roots(target, warm) == _full_scan(inclusion, target, warm)


@pytest.mark.parametrize("name", sorted(EARLY_EXIT_POTENTIALS))
def test_the_early_exit_is_taken_exactly_where_g_increases(name):
    # z nondecreasing gives g' >= 1 everywhere; the literal branch with
    # d > 1 dips below its value at the kink, and so does the nonconvex law
    pot = EARLY_EXIT_POTENTIALS[name]()
    dips = name in ("paper_literal_d_gt_1", "nonconvex")
    assert _BoundaryInclusion(pot, 2.0).increasing is not dips


def test_a_descending_piece_gets_the_full_scan():
    pot = DescendingPiece()
    inclusion = _BoundaryInclusion(pot, 1.0)
    assert not inclusion.increasing
    # g = s - 0.5 + z(s): a root at the kink, at 1/6 on the descending piece
    # and at 2.25 on the last
    roots, _ = inclusion.roots(0.5, 0.0)
    assert roots == _full_scan(inclusion, 0.5, 0.0)[0]
    assert sorted(roots) == pytest.approx([0.0, 1.0 / 6.0, 2.25], rel=0.0, abs=1e-15)
