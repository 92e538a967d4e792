from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given
from hypothesis import strategies as st

from conftest import make_space, random_spd
from rothe_hvi import (
    GalerkinSpace,
    LinearOperatorA,
    Mesh1D,
    apply_A,
    assemble_space,
    check_hypotheses_A,
    norms,
)


def test_norms_1x1_gram():
    space = GalerkinSpace(gram_h=[[1.0]], gram_v=[[2.0]], trace=[[1.0]], gram_u=[[1.0]])
    n = norms(space, [1.0])
    assert n.h_norm == pytest.approx(1.0)
    assert n.v_norm == pytest.approx(np.sqrt(2.0))


def test_norms_zero_vector():
    space, _ = assemble_space(Mesh1D(4))
    n = norms(space, np.zeros(space.dim))
    assert n == (0.0, 0.0, 0.0)


def test_norms_p1_constant_one_element():
    # hand integration on [0,1]: |1|_H = 1 and the gradient term vanishes
    space, _ = assemble_space(Mesh1D(1))
    n = norms(space, [1.0, 1.0])
    assert n.h_norm == pytest.approx(1.0, abs=1e-14)
    assert n.v_norm == pytest.approx(1.0, abs=1e-14)
    assert n.u_norm_of_trace == pytest.approx(1.0, abs=1e-14)


def test_norms_dimension_mismatch():
    space, _ = assemble_space(Mesh1D(2))
    with pytest.raises(ValueError):
        norms(space, [1.0, 2.0])


def test_dual_norm_identity_gram():
    space = GalerkinSpace(gram_h=[[1.0]], gram_v=[[1.0]], trace=[[1.0]], gram_u=[[1.0]])
    assert space.dual_norm([3.0]) == pytest.approx(3.0)


def test_dual_norm_closed_form():
    # w^T K^{-1} w = 2 * (1/4) * 2 = 1
    space = GalerkinSpace(gram_h=[[1.0]], gram_v=[[4.0]], trace=[[1.0]], gram_u=[[1.0]])
    assert space.dual_norm([2.0]) == pytest.approx(1.0)


def test_non_finite_arguments_raise():
    space, _ = assemble_space(Mesh1D(4))
    w = np.ones(space.dim)
    w[2] = np.nan
    with pytest.raises(ValueError):
        space.dual_norm(w)
    w[2] = np.inf
    with pytest.raises(ValueError):
        space.solve_h(w)


@given(st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_riesz_roundtrip(dim, seed):
    rng = np.random.default_rng(seed)
    space = make_space(random_spd(rng, dim), random_spd(rng, dim, shift=0.5))
    v = rng.normal(size=dim)
    assert space.dual_norm(space.gram_v @ v) == pytest.approx(
        space.v_norm(v), rel=1e-10
    )


@given(st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_cauchy_schwarz_discrete(dim, seed):
    rng = np.random.default_rng(seed)
    space = make_space(random_spd(rng, dim), random_spd(rng, dim, shift=0.5))
    v = rng.normal(size=dim)
    w = rng.normal(size=dim)
    assert abs(w @ v) <= space.dual_norm(w) * space.v_norm(v) * (1.0 + 1e-10)


def test_apply_A_one_element():
    _, op = assemble_space(Mesh1D(1))
    assert apply_A(op, [1.0, 0.0]) == pytest.approx([1.0, -1.0])


def test_apply_A_annihilates_constants():
    _, op = assemble_space(Mesh1D(7))
    assert np.max(np.abs(apply_A(op, np.ones(8)))) < 1e-14
    assert np.max(np.abs(apply_A(op, np.zeros(8)))) == 0.0


@pytest.mark.parametrize("n_el", [1, 3, 16])
def test_v_norm_splits_into_mass_and_stiffness(n_el):
    rng = np.random.default_rng(5)
    space, op = assemble_space(Mesh1D(n_el))
    for _ in range(10):
        v = rng.normal(size=space.dim)
        lhs = space.v_norm(v) ** 2
        rhs = space.h_norm(v) ** 2 + float(v @ op.stiffness @ v)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_trace_constant_bounded_and_stabilizing():
    consts = []
    for n_el in (4, 8, 16, 32, 64):
        space, _ = assemble_space(Mesh1D(n_el))
        consts.append(space.trace_operator_norm)
    consts = np.array(consts)
    assert np.all(consts < 2.0)
    assert consts.max() / consts.min() < 1.05
    diffs = np.abs(np.diff(consts))
    assert np.all(np.diff(diffs) <= 1e-12)  # successive changes shrink


@given(st.integers(1, 8), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_trace_operator_norm_matches_full_generalized_eigensolve(dim, dim_u, seed):
    rng = np.random.default_rng(seed)
    gram_v = random_spd(rng, dim, shift=0.5)
    gram_u = random_spd(rng, dim_u, shift=0.5)
    trace = rng.normal(size=(dim_u, dim))
    space = GalerkinSpace(gram_h=random_spd(rng, dim), gram_v=gram_v, trace=trace, gram_u=gram_u)
    lam = sla.eigh(trace.T @ gram_u @ trace, gram_v, eigvals_only=True)
    assert space.trace_operator_norm == pytest.approx(np.sqrt(lam[-1]), rel=1e-12)


def _p1_stiffness(n_el: int) -> np.ndarray:
    k = np.zeros((n_el + 1, n_el + 1))
    i = np.arange(n_el + 1)
    k[i, i] = 2.0 * n_el
    k[0, 0] = k[n_el, n_el] = n_el
    k[i[:-1], i[1:]] = k[i[1:], i[:-1]] = -n_el
    return k


def test_operator_psd_certificate_threshold():
    # the singular P1 stiffness (constants in its kernel) is accepted at a
    # size where a dense eigensolve would be slow
    LinearOperatorA(_p1_stiffness(4096))
    # least eigenvalue -rel * scale: accepted at 1e-12, rejected at 1e-8
    k = _p1_stiffness(8)
    scale = np.abs(k).max()
    LinearOperatorA(k - 1e-12 * scale * np.eye(9))
    with pytest.raises(ValueError, match="positive semi-definite"):
        LinearOperatorA(k - 1e-8 * scale * np.eye(9))


def test_hypotheses_hold_for_builtin_operator():
    rng = np.random.default_rng(11)
    space, op = assemble_space(Mesh1D(16))
    samples = [rng.normal(size=space.dim) * s for s in 10.0 ** rng.uniform(-1, 2, 300)]
    rep = check_hypotheses_A(space, op, samples)
    assert rep.passed
    assert rep.growth_worst_slack >= 0.0
    # the lower bound holds with equality for this operator, so the slack is
    # pure roundoff at the scale of the largest sample
    assert abs(rep.coercivity_worst_slack) < 1e-6


def test_hypotheses_zero_vector_is_equality():
    space, op = assemble_space(Mesh1D(4))
    rep = check_hypotheses_A(space, op, [np.zeros(space.dim)])
    assert rep.passed
    assert rep.growth_worst_slack == pytest.approx(0.0, abs=1e-14)
    assert rep.coercivity_worst_slack == pytest.approx(0.0, abs=1e-14)


def test_hypotheses_flag_inflated_alpha():
    # a constant vector is annihilated by the stiffness, so the lower bound
    # with alpha = 10 cannot hold
    space, op = assemble_space(Mesh1D(1))
    bad = LinearOperatorA(op.stiffness, alpha=10.0, beta=1.0, a_growth=0.0, b_growth=1.0)
    rep = check_hypotheses_A(space, bad, [np.ones(2)])
    assert not rep.passed
    assert rep.coercivity_violations == 1


def test_hypotheses_empty_samples_rejected():
    space, op = assemble_space(Mesh1D(2))
    with pytest.raises(ValueError):
        check_hypotheses_A(space, op, [])


def test_space_validation():
    with pytest.raises(ValueError):
        GalerkinSpace(gram_h=[[1.0, 0.5], [0.0, 1.0]], gram_v=np.eye(2),
                      trace=np.eye(1, 2), gram_u=np.eye(1))
    with pytest.raises(np.linalg.LinAlgError):
        GalerkinSpace(gram_h=[[0.0]], gram_v=[[1.0]], trace=[[1.0]], gram_u=[[1.0]])
    with pytest.raises(ValueError):
        LinearOperatorA(stiffness=np.eye(2), alpha=0.0)
    with pytest.raises(ValueError):
        LinearOperatorA(stiffness=-np.eye(2))
