from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from rothe_hvi import (
    BoundaryFunctional,
    GalerkinSpace,
    Mesh1D,
    RotheProblem,
    assemble_space,
    make_initial,
    separable_load,
)
from rothe_hvi.potentials import ScalarPotential

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=60,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
# every output byte of every command rests on the float writer's exactness
# property; CI draws it hard with --hypothesis-profile=exhaustive
settings.register_profile("exhaustive", parent=settings.get_profile("suite"), max_examples=5000)
settings.load_profile("suite")


def random_spd(rng: np.random.Generator, dim: int, shift: float = 0.1) -> np.ndarray:
    b = rng.normal(size=(dim, dim))
    return b @ b.T + shift * np.eye(dim)


def make_space(gram_h: np.ndarray, gram_v: np.ndarray | None = None) -> GalerkinSpace:
    dim = gram_h.shape[0]
    if gram_v is None:
        gram_v = gram_h + np.eye(dim)
    return GalerkinSpace(
        gram_h=gram_h, gram_v=gram_v, trace=np.eye(1, dim), gram_u=np.eye(1)
    )


@pytest.fixture
def scalar_space() -> GalerkinSpace:
    return GalerkinSpace(gram_h=[[1.0]], gram_v=[[1.0]], trace=[[1.0]], gram_u=[[1.0]])


class DescendingPiece(ScalarPotential):
    """z = 0 left of the kink at 0, 1 - 4s on (0, 1], then s - 4: a law
    with a descending piece that states only what the step solver reads."""

    kinks = (0.0,)

    def branch_value(self, s: float) -> float:
        return 0.0 if s <= 0.0 else (1.0 - 4.0 * s if s <= 1.0 else s - 4.0)

    def branch_slope(self, s: float) -> float:
        return 0.0 if s < 0.0 else (-4.0 if s <= 1.0 else 1.0)


def zero(s: np.ndarray) -> np.ndarray:
    return np.zeros_like(s)


def one(s: np.ndarray) -> np.ndarray:
    return np.ones_like(s)


def fem_problem(n_el, potential, a, b, f_N, u0) -> RotheProblem:
    """The P1 problem on Mesh1D(n_el): flux law ``potential`` at x = 1, load
    a(t) b(x) with Neumann datum f_N(t) at x = 0, and initial datum u0(x);
    each function is vectorized."""
    mesh = Mesh1D(n_el)
    space, op = assemble_space(mesh)
    return RotheProblem(space, op, BoundaryFunctional(potential, np.ones(1)),
                        separable_load(mesh, a, b, f_N), make_initial(mesh, space, u0))
