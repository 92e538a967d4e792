"""1-D P1 finite elements on the unit interval.

The domain is (0, 1) with the flux boundary part at x = 1 (a single node,
so boundary integrals degenerate to point evaluation with unit weight) and
the Neumann part at x = 0.  Mass and stiffness matrices are assembled
exactly, straight into their tridiagonal bands; the V-Gram is
mass + stiffness, matching the norm
||u||_V^2 = |u|_H^2 + integral of |u'|^2.
Load vectors use Gauss quadrature per element: the 3- and 5-point rules on
the reference element are built once per process, the tables of points and
weight-times-hat values once per mesh; all are read-only.  A load vector is
one product of the integrand's values with that table, written straight
into a buffer, padded with a zero at each end, that interleaves each
element's shares of its two nodes, then one sum of the buffer's even and
odd entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Union

import numpy as np

from .galerkin import GalerkinSpace, LinearOperatorA, SymBand

__all__ = [
    "Mesh1D",
    "ForcingSpec",
    "assemble_space",
    "assemble_forcing",
    "make_initial",
]


def _reference_rule(nq: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """nq-point Gauss rule on [0, 1]: points, the weights on [-1, 1] and the
    two local hat functions at the points, (nq, 2)."""
    pts, wts = np.polynomial.legendre.leggauss(nq)
    xi = 0.5 * (pts + 1.0)
    return xi, wts, np.column_stack([1.0 - xi, xi])


_RULES = {nq: _reference_rule(nq) for nq in (3, 5)}


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
        for nq, (xi, wts, hats) in _RULES.items():
            x = self.nodes[:-1, None] + self.h * xi[None, :]
            w_phi = (0.5 * self.h * wts)[:, None] * hats
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
    """Mass, stiffness, V-Gram (tridiagonal bands), boundary trace and the
    elliptic operator.

    The operator carries the exact constants of this bilinear form:
    <Av,v> = ||v||_V^2 - |v|_H^2 and ||Av||_* <= ||v||_V.
    """
    n = mesh.n_el
    h = mesh.h
    bands = []
    # element e adds [[d, o], [o, d]] on nodes e, e+1: an interior diagonal
    # entry is the sum d + d of its two elements, an end node has one
    for d, o in (((h / 6.0) * 2.0, h / 6.0), (1.0 / h, -1.0 / h)):
        ab = np.empty((2, n + 1))
        ab[0, 0] = 0.0  # unused corner of the superdiagonal row
        ab[0, 1:] = o
        ab[1] = 2.0 * d
        ab[1, 0] = ab[1, n] = d
        bands.append(SymBand(ab))
    mass, stiff = bands
    trace = np.zeros((1, n + 1))
    trace[0, n] = 1.0
    space = GalerkinSpace(gram_h=mass, gram_v=mass + stiff, trace=trace, gram_u=np.eye(1))
    op = LinearOperatorA(stiffness=stiff, alpha=1.0, beta=1.0, a_growth=0.0, b_growth=1.0)
    return space, op


def _load(vals, x: np.ndarray, w_phi: np.ndarray) -> np.ndarray:
    """l_i = sum over elements and Gauss points x of vals * w * phi_i, for
    the integrand's values ``vals`` at the points ``x`` (or broadcastable)."""
    vals = np.asarray(vals, dtype=float)
    if vals.shape != x.shape:  # broadcast_to is slow next to the rest; skip it when the shape fits
        vals = np.broadcast_to(vals, x.shape)
    # element e's shares of its nodes e and e + 1 land at 2e + 1 and 2e + 2,
    # so node i sums the pair (2i, 2i + 1); each end node pairs with a zero
    n_el = len(x)
    shares = np.empty(2 * n_el + 2)
    shares[0] = shares[-1] = 0.0
    np.dot(vals, w_phi, out=shares[1:-1].reshape(n_el, 2))
    return np.add(shares[0::2], shares[1::2])


def assemble_forcing(mesh: Mesh1D, spec: ForcingSpec, t: float) -> np.ndarray:
    """Load vector l_i = int f0(t,x) phi_i dx + f_N(t) phi_i(0).

    The volume term uses 3-point Gauss per element, exact for the
    polynomial forcings used in the tests.
    """
    x, w_phi = mesh._quadrature[3]
    load = _load(spec.f0(t, x), x, w_phi)
    load[0] += float(spec.f_N(t))
    return load


def make_initial(
    mesh: Mesh1D,
    space: GalerkinSpace,
    u0: Union[Callable[[np.ndarray], np.ndarray], np.ndarray],
) -> np.ndarray:
    """H-orthogonal projection of the initial datum onto the P1 space.

    A coefficient vector is returned unchanged (the projection is the
    identity on the space); a callable is projected by solving the mass
    system against its load vector (5-point Gauss per element).
    """
    if callable(u0):
        x, w_phi = mesh._quadrature[5]
        return space.solve_h(_load(u0(x), x, w_phi))
    coeffs = np.array(u0, dtype=float)
    if coeffs.shape != (space.dim,):
        raise ValueError(f"u0 vector has shape {coeffs.shape}, expected ({space.dim},)")
    return coeffs
