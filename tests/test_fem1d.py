from __future__ import annotations

import numpy as np
import pytest

from rothe_hvi import (
    BoundaryFunctional,
    ForcingSpec,
    Mesh1D,
    RotheProblem,
    TimeGrid,
    ZeroPotential,
    assemble_forcing,
    assemble_space,
    make_initial,
    run_rothe,
)


def test_one_element_matrices():
    space, op = assemble_space(Mesh1D(1))
    assert space.gram_h == pytest.approx(np.array([[1, 0.5], [0.5, 1]]) / 3.0)
    assert op.stiffness == pytest.approx(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    assert space.trace == pytest.approx(np.array([[0.0, 1.0]]))
    assert space.gram_u == pytest.approx(np.eye(1))


def test_interior_mass_row():
    space, _ = assemble_space(Mesh1D(4))
    h = 0.25
    assert space.gram_h[2, 1:4] == pytest.approx(np.array([1.0, 4.0, 1.0]) * h / 6.0)


@pytest.mark.parametrize("n_el", [1, 2, 5, 32])
def test_mass_sums_to_domain_length(n_el):
    space, _ = assemble_space(Mesh1D(n_el))
    assert space.gram_h.sum() == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize("n_el", [1, 2, 5, 32])
def test_matrices_match_the_element_loop_bit_for_bit(n_el):
    h = 1.0 / n_el
    mass = np.zeros((n_el + 1, n_el + 1))
    stiff = np.zeros((n_el + 1, n_el + 1))
    for e in range(n_el):
        sl = slice(e, e + 2)
        mass[sl, sl] += (h / 6.0) * np.array([[2.0, 1.0], [1.0, 2.0]])
        stiff[sl, sl] += (1.0 / h) * np.array([[1.0, -1.0], [-1.0, 1.0]])
    space, op = assemble_space(Mesh1D(n_el))
    assert np.array_equal(space.gram_h, mass)
    assert np.array_equal(op.stiffness, stiff)
    assert np.array_equal(space.gram_v, mass + stiff)


@pytest.mark.parametrize("n_el", [1, 5, 64])
def test_loads_match_the_per_element_sum(n_el):
    # reference: element by element, each quadrature point in turn; the
    # assembler sums the same products in another order, so a few ulps apart
    mesh = Mesh1D(n_el)
    space, _ = assemble_space(mesh)
    f0 = lambda t, x: np.sin(3.0 * x + t) * np.exp(x)
    for nq, got in (
        (3, assemble_forcing(mesh, ForcingSpec(f0, lambda t: 0.0), 0.7)),
        (5, space.gram_h @ make_initial(mesh, space, lambda x: f0(0.7, x), 1.0).coeffs),
    ):
        pts, wts = np.polynomial.legendre.leggauss(nq)
        ref = np.zeros(n_el + 1)
        for e in range(n_el):
            for p, w in zip(pts, wts):
                xi = 0.5 * (p + 1.0)
                val = f0(0.7, (e + xi) / n_el) * 0.5 * w / n_el
                ref[e] += val * (1.0 - xi)
                ref[e + 1] += val * xi
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("n_el", [1, 3, 8])
def test_vgram_is_mass_plus_stiffness(n_el):
    space, op = assemble_space(Mesh1D(n_el))
    assert space.gram_v == pytest.approx(space.gram_h + op.stiffness, rel=1e-15)


def test_stiffness_annihilates_constants():
    _, op = assemble_space(Mesh1D(9))
    assert np.abs(op.stiffness @ np.ones(10)).max() < 1e-13


def test_invalid_mesh():
    with pytest.raises(ValueError):
        Mesh1D(0)


def test_forcing_constant_one_element():
    mesh = Mesh1D(1)
    spec = ForcingSpec(lambda t, x: np.ones_like(x), lambda t: 0.0)
    assert assemble_forcing(mesh, spec, 0.3) == pytest.approx([0.5, 0.5])


def test_forcing_point_load_at_left_end():
    mesh = Mesh1D(4)
    spec = ForcingSpec(lambda t, x: np.zeros_like(x), lambda t: 2.5)
    load = assemble_forcing(mesh, spec, 0.0)
    assert load == pytest.approx([2.5, 0, 0, 0, 0])


def test_forcing_zero():
    mesh = Mesh1D(3)
    spec = ForcingSpec(lambda t, x: np.zeros_like(x), lambda t: 0.0)
    assert np.all(assemble_forcing(mesh, spec, 1.0) == 0.0)


def test_forcing_quadratic_exact():
    # int_0^1 x^2 (1-x) dx = 1/12 and int_0^1 x^3 dx = 1/4
    mesh = Mesh1D(1)
    spec = ForcingSpec(lambda t, x: x**2, lambda t: 0.0)
    assert assemble_forcing(mesh, spec, 0.0) == pytest.approx([1.0 / 12.0, 0.25], rel=1e-14)


def test_initial_vector_passthrough():
    mesh = Mesh1D(3)
    space, _ = assemble_space(mesh)
    vec = np.array([0.0, 1.0, -1.0, 2.0])
    out = make_initial(mesh, space, vec, 0.5)
    assert out.coeffs == pytest.approx(vec)
    assert out.vnorm_sqrt_tau == pytest.approx(space.v_norm(vec) * np.sqrt(0.5))


def test_initial_constant_function():
    mesh = Mesh1D(6)
    space, _ = assemble_space(mesh)
    out = make_initial(mesh, space, lambda x: np.ones_like(x), 0.1)
    assert out.coeffs == pytest.approx(np.ones(7), rel=1e-12)


def test_initial_linear_function_is_interpolated():
    mesh = Mesh1D(2)
    space, _ = assemble_space(mesh)
    out = make_initial(mesh, space, lambda x: x, 1.0)
    assert out.coeffs == pytest.approx([0.0, 0.5, 1.0], rel=1e-12)


def test_initial_invalid_tau():
    mesh = Mesh1D(2)
    space, _ = assemble_space(mesh)
    with pytest.raises(ValueError):
        make_initial(mesh, space, lambda x: x, 0.0)


def test_discrete_poincare_stable_for_tied_end():
    # interpolants of (1-x) and (1-x)^2 vanish at x = 1; the ratio
    # |v|_H / sqrt(v^T K v) stays in a tight band under refinement
    for profile in (lambda x: 1.0 - x, lambda x: (1.0 - x) ** 2):
        consts = []
        for n_el in (4, 8, 16, 32):
            mesh = Mesh1D(n_el)
            space, op = assemble_space(mesh)
            v = profile(mesh.nodes)
            consts.append(space.h_norm(v) / np.sqrt(v @ op.stiffness @ v))
        consts = np.array(consts)
        assert consts.max() / consts.min() < 1.05


@pytest.mark.parametrize("scheme", ["bdf2", "backward_euler"])
def test_steady_state_preserved_without_forcing(scheme):
    mesh = Mesh1D(8)
    space, op = assemble_space(mesh)
    spec = ForcingSpec(lambda t, x: np.zeros_like(x), lambda t: 0.0)
    u0 = make_initial(mesh, space, lambda x: np.full_like(x, 3.0), 0.125).coeffs
    problem = RotheProblem(
        space, op, BoundaryFunctional(ZeroPotential(), np.ones(1)),
        lambda t: assemble_forcing(mesh, spec, t), u0,
    )
    traj = run_rothe(problem, TimeGrid(1.0, 8), scheme)
    assert np.abs(traj.u - 3.0).max() < 1e-10
