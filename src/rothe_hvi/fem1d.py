"""1-D P1 finite elements on the unit interval.

The domain is (0, 1) with the flux boundary part at x = 1 (a single node,
so boundary integrals degenerate to point evaluation with unit weight) and
the Neumann part at x = 0.  Mass and stiffness matrices are assembled
exactly; the V-Gram is mass + stiffness, matching the norm
||u||_V^2 = |u|_H^2 + integral of |u'|^2.
Load vectors use Gauss quadrature per element, from tables of points and
weight-times-hat values that are built once per mesh and are read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple, Union

import numpy as np

from .galerkin import GalerkinSpace, LinearOperatorA

__all__ = [
    "Mesh1D",
    "ForcingSpec",
    "InitialProjection",
    "assemble_space",
    "assemble_forcing",
    "make_initial",
]


@dataclass(frozen=True)
class Mesh1D:
    """Uniform mesh of (0, 1) with n_el elements, nodes x_i = i / n_el."""

    n_el: int

    def __post_init__(self) -> None:
        if self.n_el < 1:
            raise ValueError("n_el must be >= 1")

    @property
    def h(self) -> float:
        return 1.0 / self.n_el

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.n_el + 1)

    @cached_property
    def _quadrature(self) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """nq -> (points (n_el, nq), weight * local hat values (nq, 2)) of
        the nq-point Gauss rule on every element, nq in {3, 5}; read-only."""
        out = {}
        for nq in (3, 5):
            pts, wts = np.polynomial.legendre.leggauss(nq)
            xi = 0.5 * (pts + 1.0)  # reference element [0, 1]
            x = self.nodes[:-1, None] + self.h * xi[None, :]
            w_phi = (0.5 * self.h * wts)[:, None] * np.column_stack([1.0 - xi, xi])
            x.setflags(write=False)
            w_phi.setflags(write=False)
            out[nq] = (x, w_phi)
        return out


@dataclass(frozen=True)
class ForcingSpec:
    """Volume source f0(t, x) (vectorized in x) and Neumann datum f_N(t)
    acting at x = 0."""

    f0: Callable[[float, np.ndarray], np.ndarray]
    f_N: Callable[[float], float]


def assemble_space(mesh: Mesh1D) -> tuple[GalerkinSpace, LinearOperatorA]:
    """Mass, stiffness, V-Gram, boundary trace and the elliptic operator.

    The operator carries the exact constants of this bilinear form:
    <Av,v> = ||v||_V^2 - |v|_H^2 and ||Av||_* <= ||v||_V.
    """
    n = mesh.n_el
    h = mesh.h
    dim = n + 1
    mass = np.zeros((dim, dim))
    stiff = np.zeros((dim, dim))
    i = np.arange(dim)
    # element e adds [[d, o], [o, d]] on nodes e, e+1: an interior diagonal
    # entry is the sum d + d of its two elements, an end node has one
    for mat, d, o in ((mass, (h / 6.0) * 2.0, h / 6.0), (stiff, 1.0 / h, -1.0 / h)):
        mat[i, i] = 2.0 * d
        mat[0, 0] = mat[n, n] = d
        mat[i[:-1], i[1:]] = mat[i[1:], i[:-1]] = o
    trace = np.zeros((1, dim))
    trace[0, n] = 1.0
    space = GalerkinSpace(gram_h=mass, gram_v=mass + stiff, trace=trace, gram_u=np.eye(1))
    op = LinearOperatorA(stiffness=stiff, alpha=1.0, beta=1.0, a_growth=0.0, b_growth=1.0)
    return space, op


def _load(mesh: Mesh1D, nq: int, integrand: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """l_i = sum over elements and nq-point Gauss points of integrand * w * phi_i."""
    x, w_phi = mesh._quadrature[nq]
    vals = np.asarray(integrand(x), dtype=float)
    if vals.shape != x.shape:  # broadcast_to is slow next to the rest; skip it when the shape fits
        vals = np.broadcast_to(vals, x.shape)
    contrib = vals @ w_phi
    load = np.zeros(mesh.n_el + 1)
    load[:-1] += contrib[:, 0]
    load[1:] += contrib[:, 1]
    return load


def assemble_forcing(mesh: Mesh1D, spec: ForcingSpec, t: float) -> np.ndarray:
    """Load vector l_i = int f0(t,x) phi_i dx + f_N(t) phi_i(0).

    The volume term uses 3-point Gauss per element, exact for the
    polynomial forcings used in the tests.
    """
    load = _load(mesh, 3, lambda x: spec.f0(t, x))
    load[0] += float(spec.f_N(t))
    return load


class InitialProjection(NamedTuple):
    coeffs: np.ndarray
    vnorm_sqrt_tau: float  # ||u0_h||_V * sqrt(tau), observable across a tau ladder


def make_initial(
    mesh: Mesh1D,
    space: GalerkinSpace,
    u0: Union[Callable[[np.ndarray], np.ndarray], np.ndarray],
    tau: float,
) -> InitialProjection:
    """H-orthogonal projection of the initial datum onto the P1 space.

    A coefficient vector is returned unchanged (the projection is the
    identity on the space); a callable is projected by solving the mass
    system against its load vector (5-point Gauss per element).
    """
    if not tau > 0:
        raise ValueError("tau must be > 0")
    if callable(u0):
        coeffs = space.solve_h(_load(mesh, 5, u0))
    else:
        coeffs = np.array(u0, dtype=float)
        if coeffs.shape != (space.dim,):
            raise ValueError(f"u0 vector has shape {coeffs.shape}, expected ({space.dim},)")
    return InitialProjection(coeffs, space.v_norm(coeffs) * float(np.sqrt(tau)))
