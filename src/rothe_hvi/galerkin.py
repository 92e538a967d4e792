"""Finite-dimensional realization of an evolution triple V ⊂ H ⊂ V*.

A Galerkin space is described by its H- and V-Gram matrices on coefficient
vectors, a boundary restriction matrix mapping into a boundary space U, and
the U-Gram matrix.  Functionals in V* are stored as plain arrays holding
their action on the basis (the assembled load-vector convention), so the
discrete dual norm is ``sqrt(w^T gram_v^{-1} w)``, evaluated through a
Cholesky solve and never through an explicit inverse.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np
import scipy.linalg as sla

__all__ = [
    "DualVector",
    "GalerkinSpace",
    "LinearOperatorA",
    "Norms",
    "HypothesesAReport",
    "norms",
    "apply_A",
    "check_hypotheses_A",
]

# Functionals are plain coefficient arrays: entry i is the action on basis
# function i.
DualVector = np.ndarray

_SYM_RTOL = 1e-12


def _as_matrix(m, name: str) -> np.ndarray:
    a = np.array(m, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"{name} must be a 2-d matrix, got ndim={a.ndim}")
    return a


def _require_symmetric(m: np.ndarray, name: str) -> None:
    scale = max(1.0, float(np.abs(m).max(initial=0.0)))
    if np.abs(m - m.T).max(initial=0.0) > _SYM_RTOL * scale:
        raise ValueError(f"{name} is not symmetric to {_SYM_RTOL:g} relative")


def _cho_solve(cho, b) -> np.ndarray:
    """Back-solve that scans only b for NaN/Inf (ValueError); factors are checked when built."""
    return sla.cho_solve(cho, np.asarray_chkfinite(b, dtype=float), check_finite=False)


def _require_vector(v, dim: int, name: str = "v") -> np.ndarray:
    a = np.asarray(v, dtype=float)
    if a.shape != (dim,):
        raise ValueError(f"{name} has shape {a.shape}, expected ({dim},)")
    return a


@dataclass(frozen=True)
class GalerkinSpace:
    """Gram matrices and boundary restriction of one Galerkin space.

    gram_h, gram_v : SPD matrices realizing the H and V inner products.
    trace          : (dim_u, dim) matrix restricting a coefficient vector to
                     its boundary values.
    gram_u         : SPD matrix realizing the boundary-space inner product.

    All arrays are copied, validated and frozen on construction; instances
    are immutable and safe to share across threads.
    """

    gram_h: np.ndarray
    gram_v: np.ndarray
    trace: np.ndarray
    gram_u: np.ndarray

    def __post_init__(self) -> None:
        gh = _as_matrix(self.gram_h, "gram_h")
        gv = _as_matrix(self.gram_v, "gram_v")
        tr = _as_matrix(self.trace, "trace")
        gu = _as_matrix(self.gram_u, "gram_u")
        n = gh.shape[0]
        if gh.shape != (n, n) or gv.shape != (n, n):
            raise ValueError("gram_h and gram_v must be square with equal size")
        if tr.shape[1] != n:
            raise ValueError("trace must have one column per degree of freedom")
        du = tr.shape[0]
        if gu.shape != (du, du):
            raise ValueError("gram_u size must match the number of trace rows")
        for mat, name in ((gh, "gram_h"), (gv, "gram_v"), (gu, "gram_u")):
            _require_symmetric(mat, name)
            # positive definiteness is certified by the factorization succeeding
            sla.cho_factor(mat)
        for arr in (gh, gv, tr, gu):
            arr.setflags(write=False)
        object.__setattr__(self, "gram_h", gh)
        object.__setattr__(self, "gram_v", gv)
        object.__setattr__(self, "trace", tr)
        object.__setattr__(self, "gram_u", gu)

    @property
    def dim(self) -> int:
        return self.gram_h.shape[0]

    @property
    def dim_u(self) -> int:
        return self.trace.shape[0]

    @cached_property
    def _cho_h(self):
        return sla.cho_factor(self.gram_h)

    @cached_property
    def _cho_v(self):
        return sla.cho_factor(self.gram_v)

    @cached_property
    def _cho_u(self):
        return sla.cho_factor(self.gram_u)

    def solve_v(self, w: np.ndarray) -> np.ndarray:
        """Solve gram_v x = w (Riesz map V* -> V)."""
        return _cho_solve(self._cho_v, w)

    def solve_h(self, w: np.ndarray) -> np.ndarray:
        return _cho_solve(self._cho_h, w)

    def h_norm(self, v) -> float:
        v = _require_vector(v, self.dim)
        return float(np.sqrt(max(v @ self.gram_h @ v, 0.0)))

    def v_norm(self, v) -> float:
        v = _require_vector(v, self.dim)
        return float(np.sqrt(max(v @ self.gram_v @ v, 0.0)))

    def u_norm(self, boundary_values) -> float:
        b = _require_vector(boundary_values, self.dim_u, "boundary values")
        return float(np.sqrt(max(b @ self.gram_u @ b, 0.0)))

    def dual_norm(self, w) -> float:
        """Discrete V*-norm sup_{v != 0} (w^T v) / ||v||_V."""
        w = _require_vector(w, self.dim, "w")
        return float(np.sqrt(max(w @ self.solve_v(w), 0.0)))

    def dual_u_norm(self, action) -> float:
        """U*-norm of a boundary functional given by its action vector."""
        a = _require_vector(action, self.dim_u, "action")
        return float(np.sqrt(max(a @ _cho_solve(self._cho_u, a), 0.0)))

    @cached_property
    def trace_operator_norm(self) -> float:
        """sup ||trace v||_U / ||v||_V, the largest generalized singular value:
        the root of the top eigenvalue of the dim_u x dim_u pencil
        (trace gram_v^{-1} trace^T, gram_u^{-1})."""
        b = self.trace @ self.solve_v(self.trace.T)
        g_u_inv = _cho_solve(self._cho_u, np.eye(self.dim_u))
        return float(np.sqrt(sla.eigvalsh(b, g_u_inv).max(initial=0.0)))


class Norms(NamedTuple):
    h_norm: float
    v_norm: float
    u_norm_of_trace: float


@dataclass(frozen=True)
class LinearOperatorA:
    """Linear elliptic part: <A u, v> = u^T stiffness v, with the constants
    of its growth bound ||Av||_* <= a_growth + b_growth ||v||_V and of its
    Garding-type lower bound <Av,v> >= alpha ||v||_V^2 - beta |v|_H^2."""

    stiffness: np.ndarray
    alpha: float = 1.0
    beta: float = 1.0
    a_growth: float = 0.0
    b_growth: float = 1.0

    def __post_init__(self) -> None:
        k = _as_matrix(self.stiffness, "stiffness")
        _require_symmetric(k, "stiffness")
        scale = max(1.0, float(np.abs(k).max(initial=0.0)))
        # least eigenvalue > -1e-10 scale iff K + 1e-10 scale I has a Cholesky factor
        shifted = np.array(k, order="F")
        shifted[np.diag_indices_from(shifted)] += 1e-10 * scale
        try:
            sla.cholesky(shifted, overwrite_a=True)
        except sla.LinAlgError:
            raise ValueError("stiffness must be positive semi-definite") from None
        if not self.alpha > 0:
            raise ValueError("alpha must be > 0")
        if self.beta < 0 or self.a_growth < 0:
            raise ValueError("beta and a_growth must be >= 0")
        if not self.b_growth > 0:
            raise ValueError("b_growth must be > 0")
        k.setflags(write=False)
        object.__setattr__(self, "stiffness", k)

    @property
    def dim(self) -> int:
        return self.stiffness.shape[0]


def norms(space: GalerkinSpace, v) -> Norms:
    """H-, V- and boundary-trace norms of a coefficient vector."""
    v = _require_vector(v, space.dim)
    return Norms(space.h_norm(v), space.v_norm(v), space.u_norm(space.trace @ v))


def apply_A(A: LinearOperatorA, v) -> DualVector:
    v = _require_vector(v, A.dim)
    return A.stiffness @ v


@dataclass(frozen=True)
class HypothesesAReport:
    """Sampling certificate for the growth and lower bounds of A.

    Slacks are bound minus observed value, so nonnegative means satisfied;
    worst_* is the minimum over the sample set.
    """

    n_samples: int
    growth_worst_slack: float
    coercivity_worst_slack: float
    growth_violations: int
    coercivity_violations: int

    @property
    def passed(self) -> bool:
        return self.growth_violations == 0 and self.coercivity_violations == 0


def check_hypotheses_A(
    space: GalerkinSpace,
    A: LinearOperatorA,
    samples: Sequence[np.ndarray],
    rel_tol: float = 1e-10,
) -> HypothesesAReport:
    """Check ||Av||_* <= a + b||v|| and <Av,v> >= alpha||v||^2 - beta|v|^2
    on every sample vector.  Roundoff-sized negative slack (relative to the
    sample's size) is not counted as a violation."""
    samples = list(samples)
    if not samples:
        raise ValueError("sample list must be non-empty")
    g_worst = np.inf
    c_worst = np.inf
    g_bad = 0
    c_bad = 0
    for v in samples:
        v = _require_vector(v, space.dim, "sample")
        av = apply_A(A, v)
        nv = space.v_norm(v)
        nh = space.h_norm(v)
        scale = 1.0 + nv * nv
        g_slack = A.a_growth + A.b_growth * nv - space.dual_norm(av)
        c_slack = float(v @ av) - (A.alpha * nv * nv - A.beta * nh * nh)
        g_worst = min(g_worst, g_slack)
        c_worst = min(c_worst, c_slack)
        if g_slack < -rel_tol * scale:
            g_bad += 1
        if c_slack < -rel_tol * scale:
            c_bad += 1
    return HypothesesAReport(len(samples), float(g_worst), float(c_worst), g_bad, c_bad)
