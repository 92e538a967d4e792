from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import make_space, random_spd
from rothe_hvi import (
    GalerkinSpace,
    LinearOperatorA,
    Mesh1D,
    SymBand,
    assemble_space,
    check_hypotheses_A,
)
from rothe_hvi import galerkin
from rothe_hvi.galerkin import _DSBMV_MAX_N


def test_norms_1x1_gram():
    space = GalerkinSpace(gram_h=[[1.0]], gram_v=[[2.0]], trace=[[1.0]], gram_u=[[1.0]])
    assert space.h_norm([1.0]) == pytest.approx(1.0)
    assert space.v_norm([1.0]) == pytest.approx(np.sqrt(2.0))


def test_norms_zero_vector():
    space, _ = assemble_space(Mesh1D(4))
    zero = np.zeros(space.dim)
    assert (space.h_norm(zero), space.v_norm(zero)) == (0.0, 0.0)


def test_norms_p1_constant_one_element():
    # hand integration on [0,1]: |1|_H = 1 and the gradient term vanishes
    space, _ = assemble_space(Mesh1D(1))
    assert space.h_norm([1.0, 1.0]) == pytest.approx(1.0, abs=1e-14)
    assert space.v_norm([1.0, 1.0]) == pytest.approx(1.0, abs=1e-14)


def test_norms_dimension_mismatch():
    space, _ = assemble_space(Mesh1D(2))
    with pytest.raises(ValueError):
        space.h_norm([1.0, 2.0])
    with pytest.raises(ValueError):
        space.v_norm([1.0, 2.0])


def test_dual_norm_identity_gram():
    space = GalerkinSpace(gram_h=[[1.0]], gram_v=[[1.0]], trace=[[1.0]], gram_u=[[1.0]])
    assert space.dual_norm([3.0]) == pytest.approx(3.0)


def test_dual_norm_closed_form():
    # w^T K^{-1} w = 2 * (1/4) * 2 = 1
    space = GalerkinSpace(gram_h=[[1.0]], gram_v=[[4.0]], trace=[[1.0]], gram_u=[[1.0]])
    assert space.dual_norm([2.0]) == pytest.approx(1.0)


@pytest.mark.parametrize("scale", [1e100, 1e200, 1e300])
def test_dual_norm_of_a_large_finite_vector_is_finite(scale):
    # w^T gram_v^{-1} w overflows from about 1e154 on; the norm does not
    space = GalerkinSpace(
        gram_h=np.eye(3), gram_v=2.0 * np.eye(3), trace=[[1.0, 0.0, 0.0]], gram_u=[[1.0]]
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        norm = space.dual_norm(scale * np.ones(3))
    assert norm == pytest.approx(scale * math.sqrt(1.5), rel=1e-15)
    for bad in (np.nan, np.inf):
        w = scale * np.ones(3)
        w[1] = bad
        with pytest.raises(ValueError):
            space.dual_norm(w)


def test_non_finite_arguments_raise():
    space, _ = assemble_space(Mesh1D(4))
    w = np.ones(space.dim)
    w[2] = np.nan
    with pytest.raises(ValueError):
        space.dual_norm(w)
    w[2] = np.inf
    with pytest.raises(ValueError):
        space.gram_h.solve(w)


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
    assert op.stiffness @ np.array([1.0, 0.0]) == pytest.approx([1.0, -1.0])


def test_apply_A_annihilates_constants():
    _, op = assemble_space(Mesh1D(7))
    assert np.max(np.abs(op.stiffness @ np.ones(8))) < 1e-14
    assert np.max(np.abs(op.stiffness @ np.zeros(8))) == 0.0


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


def _random_banded_spd(rng, dim: int, u: int) -> np.ndarray:
    """L L^T for a lower band L of width u with a dominant diagonal: SPD,
    bandwidth u, exactly symmetric."""
    low = np.tril(np.triu(rng.uniform(-1.0, 1.0, size=(dim, dim)), -u))
    low[np.diag_indices(dim)] = rng.uniform(1.0, 2.0, size=dim) * (u + 1)
    a = low @ low.T
    return 0.5 * (a + a.T)


def _rel_err(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.abs(got - want).max() / max(np.abs(want).max(), 1e-300))


@given(st.integers(1, 12), st.sampled_from(["0", "1", "2", "full"]), st.integers(0, 2**32 - 1))
@example(1, "0", 0)
@example(1, "full", 1)
def test_band_kernel_matches_dense_linear_algebra(dim, width, seed):
    rng = np.random.default_rng(seed)
    u = dim - 1 if width == "full" else min(int(width), dim - 1)
    a = _random_banded_spd(rng, dim, u)
    space = GalerkinSpace(gram_h=a, gram_v=a, trace=np.eye(1, dim), gram_u=np.eye(1))
    band = space.gram_h
    assert isinstance(band, SymBand) and band.ab.shape == (u + 1, dim)
    assert np.array_equal(band.toarray(), a)
    x = rng.normal(size=dim)
    stack = rng.normal(size=(3, dim))
    assert _rel_err(band @ x, a @ x) <= 1e-12
    assert _rel_err(x @ band, x @ a) <= 1e-12
    assert _rel_err(band.matvec(stack), stack @ a) <= 1e-12
    assert _rel_err(stack @ band, stack @ a) <= 1e-12
    # the product with a vector is one BLAS call; it reads strided views and
    # integers through a copy, and leaves every operand as it was
    for operand in (x, x[::-1], stack[1], rng.integers(-5, 6, size=dim)):
        before = operand.copy()
        assert _rel_err(band @ operand, a @ operand) <= 1e-12
        assert _rel_err(operand @ band, operand @ a) <= 1e-12
        assert np.array_equal(operand, before) and operand.dtype == before.dtype
    with pytest.raises(ValueError):
        band @ np.ones(dim + 1)  # BLAS alone would read the first dim entries
    with pytest.raises(ValueError):
        band.solve(np.ones(dim + 1))  # LAPACK alone would solve for the first dim
    assert _rel_err(space.gram_h.solve(x), np.linalg.solve(a, x)) <= 1e-12
    assert _rel_err(space.gram_v.solve(stack.T), sla.cho_solve(sla.cho_factor(a), stack.T)) <= 1e-12
    assert _rel_err((band + 2.0 * band).toarray(), 3.0 * a) <= 1e-15
    # shifted below its least eigenvalue the matrix is indefinite
    shift = np.linalg.eigvalsh(a)[0] + 1.0
    with pytest.raises(np.linalg.LinAlgError):
        GalerkinSpace(gram_h=a - shift * np.eye(dim), gram_v=a, trace=np.eye(1, dim),
                      gram_u=np.eye(1))
    with pytest.raises(np.linalg.LinAlgError):
        (band + SymBand(np.full((1, dim), -shift))).factor
    if u == 1:  # tridiagonal: factored as L D L^T
        factor = band.factor
        assert factor.shape == (2, dim) and not factor.flags.writeable
        with pytest.raises(ValueError):
            factor[1, 0] = 1.0
        assert _rel_err(band.solve(stack.T), np.linalg.solve(a, stack.T)) <= 1e-12
        indefinite = SymBand(band.ab - np.array([[0.0], [shift]]))
        with pytest.raises(np.linalg.LinAlgError):
            indefinite.solve(x)
    i, j = rng.integers(0, dim, size=2)
    bad = a.copy()
    bad[i, j] = bad[j, i] = np.nan
    with pytest.raises(ValueError, match="finite"):
        GalerkinSpace(gram_h=a, gram_v=bad, trace=np.eye(1, dim), gram_u=np.eye(1))
    bad_band = np.array(band.ab)
    bad_band[-1, j] = np.inf
    with pytest.raises(ValueError, match="finite"):
        GalerkinSpace(gram_h=a, gram_v=SymBand(bad_band), trace=np.eye(1, dim),
                      gram_u=np.eye(1))


@pytest.mark.parametrize("offset", [0, 1, 1000])
def test_vector_product_agrees_on_both_sides_of_the_blas_size_limit(offset):
    # vectors up to _DSBMV_MAX_N entries go through BLAS, longer ones through
    # the diagonal loop that stacks use
    n = _DSBMV_MAX_N + offset
    rng = np.random.default_rng(n)
    ab = np.vstack([rng.uniform(-1.0, 1.0, n), rng.uniform(3.0, 4.0, n)])
    band = SymBand(ab)
    x = rng.normal(size=n)
    want = band.toarray() @ x
    assert _rel_err(band @ x, want) <= 1e-12
    assert _rel_err(band.matvec(x[None, :])[0], want) <= 1e-12


def _same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    """Every bit of every number, and NaN where want has NaN: IEEE 754 leaves
    the sign and payload of a NaN result open, and numpy's loops differ in
    them (the diagonal loop on a stack of rows of 2 against the row formula
    row by row, for one)."""
    nan = np.isnan(want)
    return bool(np.array_equal(np.isnan(got), nan)
                and np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64)))


def _row_formula(ab: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The tridiagonal product of one row, as the band product states it."""
    d = ab[0, 1:]
    y = ab[1] * x
    y[:-1] += d * x[1:]
    y[1:] += d * x[:-1]
    return y


def _laid_out(x: np.ndarray, layout: str) -> np.ndarray:
    """The values of x in a C-ordered copy, a Fortran-ordered copy, or a view
    whose rows and columns both run backwards in memory."""
    if layout == "C":
        return np.ascontiguousarray(x)
    if layout == "F":
        return np.asfortranarray(x)
    return np.ascontiguousarray(x[::-1, ::-1])[::-1, ::-1]


@pytest.mark.parametrize("layout", ["C", "F", "reversed"])
@pytest.mark.parametrize("n", [2, 9, 65, 1025])
@pytest.mark.parametrize("rows", [1, 2, 27])
def test_a_stack_product_is_the_row_formula_bit_for_bit(rows, n, layout):
    # a product that reached across row ends would show a neighbour's +-0,
    # +-inf or NaN in a sign bit or a NaN at the ends of a row; the stack's
    # memory layout changes neither the bits nor the operand
    rng = np.random.default_rng(rows * n)
    ab = np.vstack([rng.uniform(-1.0, 1.0, n), rng.uniform(3.0, 4.0, n)])
    ab[0, rng.integers(1, n)] = 0.0  # a zero off the diagonal meets the inf too
    band = SymBand(ab)
    specials = np.array([-0.0, 0.0, np.inf, -np.inf, np.nan])
    for trial in range(4):
        x = rng.normal(size=(rows, n))
        x[:, 0] = rng.choice(specials, rows)
        x[:, -1] = rng.choice(specials, rows)
        if trial == 0:
            x[rng.random((rows, n)) < 0.3] = -0.0
        x = _laid_out(x, layout)
        x0 = x.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # 0 * inf, inf - inf
            want = np.array([_row_formula(ab, row) for row in x])
            got = {
                "matvec": band.matvec(x),
                "x @ band": x @ band,
                "band @ x.T": (band @ x.T).T,
            }
        for how, y in got.items():
            assert y.shape == x.shape, how
            assert _same_bits(y, want), how
        assert _same_bits(x, x0)


def test_a_stack_taller_than_the_tile_is_multiplied_block_by_block():
    # a tall, 3-d and non-contiguous stack of some 24,000 entries: each row
    # keeps the row formula
    n = 65
    pairs = 3 * (8000 // n) + 5
    rng = np.random.default_rng(7)
    ab = np.vstack([rng.uniform(-1.0, 1.0, n), rng.uniform(3.0, 4.0, n)])
    x = rng.normal(size=(pairs, 2, n))[:, ::-1]  # a 3-d stack, not contiguous
    x[..., -1] = -0.0
    y = SymBand(ab).matvec(x)
    want = np.array([_row_formula(ab, row) for row in x.reshape(-1, n)]).reshape(x.shape)
    assert _same_bits(y, want)


@pytest.mark.parametrize("width", [2, 3])
def test_a_wide_band_stack_product_redoes_each_row_end_by_its_diagonals(width):
    # the entries near a row's ends sum their terms in the loop's order
    n, rows = 40, 41
    rng = np.random.default_rng(width)
    ab = np.vstack([rng.uniform(-1.0, 1.0, (width, n)), rng.uniform(6.0, 7.0, n)])
    x = rng.normal(size=(rows, n))
    x[::4, :width] = -0.0
    x[1::4, -1] = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        want = np.array([galerkin._diagonal_product(ab, row) for row in x])
        got = SymBand(ab).matvec(x)
    assert _same_bits(got, want)


def test_a_stack_warns_only_where_its_rows_would():
    # rows ending in -inf next to rows starting with +inf: each row alone is
    # free of invalid operations, so the stack's product must not warn either
    n, rows = 65, 2 * 8000 // 65 + 3
    rng = np.random.default_rng(3)
    ab = np.vstack([rng.uniform(0.5, 1.0, n), rng.uniform(3.0, 4.0, n)])
    x = rng.normal(size=(rows, n))
    x[:, 0], x[:, -1] = np.inf, -np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        want = np.array([_row_formula(ab, row) for row in x])
        got = SymBand(ab).matvec(x)
    assert _same_bits(got, want)
