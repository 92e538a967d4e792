"""Finite-dimensional realization of an evolution triple V ⊂ H ⊂ V*.

A Galerkin space is described by its H- and V-Gram matrices on coefficient
vectors, a boundary restriction matrix mapping into a boundary space U, and
the U-Gram matrix.  Functionals in V* are stored as plain arrays holding
their action on the basis (the assembled load-vector convention), so the
discrete dual norm is ``sqrt(w^T gram_v^{-1} w)``, evaluated through a
back-solve with the factor of gram_v and never through an explicit
inverse.

Every symmetric matrix is held as a ``SymBand``, its LAPACK upper band, and
factored once, on first use.  A tridiagonal band (bandwidth 1) is factored
as L D L^T (dpttrf, then dpttrs per solve); any other band by the band
Cholesky (dpbtrf, then dpbtrs).  The product with a vector of up to 512
entries is one BLAS dsbmv call on the band; a longer vector, where dsbmv's
cost per column outweighs its low fixed cost, and a stack of vectors are
multiplied one diagonal at a time.  For 1-D P1 elements every band is
tridiagonal, so storage, matrix-vector products and solves all cost O(n); a
dense matrix is the band of full width.

Each band decides its layout once: it binds the kernel of its product with
one vector when it is built and that of its solve when it is factored.  The
public ``matvec`` and ``solve`` check their operand and call the bound
kernel, and so does ``GalerkinSpace.dual_norm``; a caller that has checked
its shapes already, such as the step solver, calls the kernels directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Sequence

import numpy as np
import scipy.linalg as sla
from scipy.linalg import blas, lapack

__all__ = [
    "GalerkinSpace",
    "LinearOperatorA",
    "SymBand",
    "as_band",
    "HypothesesAReport",
    "check_hypotheses_A",
]

_SYM_RTOL = 1e-12
# largest n whose band-vector product goes through BLAS dsbmv: its fixed cost
# is about 1 us against about 6 us for the diagonal loop, but it spends about
# 14 ns a column of a tridiagonal band against about 4 ns, so past some 600
# columns the loop is faster (OpenBLAS, one core)
_DSBMV_MAX_N = 512


def _as_matrix(m, name: str) -> np.ndarray:
    a = np.array(m, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"{name} must be a 2-d matrix, got ndim={a.ndim}")
    return a


def _check_info(routine: str, info: int) -> None:
    """LinAlgError, a ValueError, when a factorization found the matrix not
    positive definite; ValueError for an illegal argument."""
    if info > 0:
        raise np.linalg.LinAlgError(
            f"{info}-th leading minor of the matrix is not positive definite"
        )
    if info < 0:
        raise ValueError(f"{routine}: illegal value in argument {-info}")


def _tridiagonal(ab: np.ndarray) -> bool:
    """Whether the band ``ab`` is factored as L D L^T (dpttrf needs n >= 2)."""
    return ab.shape[0] == 2 and ab.shape[1] > 1


def _factor(ab: np.ndarray) -> np.ndarray:
    """Factor of the band ``ab``, in its band layout: L D L^T (dpttrf) for a
    tridiagonal band, D on the diagonal row and the subdiagonal of L on the
    superdiagonal row; otherwise the upper Cholesky factor (dpbtrf).
    LinAlgError unless positive definite."""
    if _tridiagonal(ab):
        d, e, info = lapack.dpttrf(ab[1], ab[0, 1:])
        _check_info("dpttrf", info)
        return np.vstack([np.concatenate([[0.0], e]), d])
    c, info = lapack.dpbtrf(ab)
    _check_info("dpbtrf", info)
    return c


class SymBand:
    """Symmetric n x n matrix held as its LAPACK upper band.

    ``ab`` has shape (u + 1, n) with ab[u + i - j, j] = A[i, j] for
    max(0, j - u) <= i <= j: row u is the diagonal and row u - k the k-th
    superdiagonal, whose first k entries are unused.  A dense matrix is the
    band with u = n - 1.  ``ab`` is copied, checked finite and frozen on
    construction, in Fortran order up to _DSBMV_MAX_N columns.  The factor
    (``factor``) is computed once, on first use, and serves every solve.

    The kernels are bound once, so a call pays only for its arithmetic:
    ``product`` (A x for one vector of n entries) when the band is built,
    and ``back_solve`` (A^{-1} b and LAPACK's info, for b of n rows) when
    it is factored.  Neither checks its operand; ``matvec`` and ``solve``
    check theirs and then call them.
    """

    __array_ufunc__ = None  # ndarray @ band defers to __rmatmul__

    def __init__(self, ab) -> None:
        ab = np.asarray(ab, dtype=float)
        if ab.ndim != 2 or ab.shape[0] < 1:
            raise ValueError(f"band storage must be 2-d with at least one row, not {ab.shape}")
        # the one copy: in Fortran order when dsbmv multiplies by it, which
        # it then reads as it is, else in C order, whose contiguous rows
        # the diagonal loop reads
        by_dsbmv = ab.shape[1] <= _DSBMV_MAX_N
        ab = np.array(ab, order="F" if by_dsbmv else "C")
        if not np.isfinite(ab).all():
            raise ValueError("band has a non-finite entry")
        ab.setflags(write=False)
        self.ab = ab
        self.bandwidth, self.n = ab.shape[0] - 1, ab.shape[1]
        if by_dsbmv:
            self.product = partial(blas.dsbmv, self.bandwidth, 1.0, ab)
        else:
            self.product = partial(_diagonal_product, ab)

    def __reduce__(self):
        return SymBand, (self.ab,)  # the kernels are bound anew, not pickled

    def toarray(self) -> np.ndarray:
        u, n = self.bandwidth, self.n
        a = np.zeros((n, n))
        for k in range(u + 1):
            d = self.ab[u - k, k:]
            i = np.arange(n - k)
            a[i, i + k] = a[i + k, i] = d
        return a

    def matvec(self, x) -> np.ndarray:
        """A x along the last axis of x: a vector by ``product``, a stack
        one diagonal at a time, all rows at once.  x is not modified."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (self.n,):  # dsbmv would read the first n entries of a longer x
            raise ValueError(f"operand has shape {x.shape}, expected last axis {self.n}")
        return self.product(x) if x.ndim == 1 else _diagonal_product(self.ab, x)

    def __matmul__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return self.matvec(x) if x.ndim == 1 else self.matvec(x.T).T

    def __rmatmul__(self, x) -> np.ndarray:
        return self.matvec(x)  # x A = (A x^T)^T, row by row, as A is symmetric

    def __add__(self, other: "SymBand") -> "SymBand":
        if not isinstance(other, SymBand):
            return NotImplemented
        if other.n != self.n:
            raise ValueError(f"cannot add bands of sizes {self.n} and {other.n}")
        u = max(self.bandwidth, other.bandwidth)
        ab = np.zeros((u + 1, self.n))
        for band in (self, other):
            ab[u - band.bandwidth:] += band.ab  # aligned at the diagonal row
        return SymBand(ab)

    def __mul__(self, scalar: float) -> "SymBand":
        return SymBand(float(scalar) * self.ab)

    __rmul__ = __mul__

    @cached_property
    def factor(self) -> np.ndarray:
        """Read-only factor in band layout, L D L^T when tridiagonal and the
        upper Cholesky factor otherwise; raises LinAlgError unless positive
        definite."""
        c = _factor(self.ab)
        c.setflags(write=False)
        return c

    @cached_property
    def back_solve(self):
        """The kernel b -> (A^{-1} b, LAPACK info) of the factor, for a vector
        or an (n, k) array b of n rows, unchecked: dpttrs on the diagonal D
        and the subdiagonal of L (views of ``factor``) when tridiagonal,
        dpbtrs on the Cholesky factor otherwise.  The factor is positive
        definite, so info flags only an argument error (info < 0), which a
        b of n rows rules out."""
        c = self.factor
        if _tridiagonal(c):
            return partial(lapack.dpttrs, c[1], c[0, 1:])
        return partial(lapack.dpbtrs, c)

    def solve(self, b) -> np.ndarray:
        """A^{-1} b for a vector or the columns of an (n, k) array; scans only
        b for NaN/Inf (ValueError), the matrix was checked when built."""
        b = np.asarray_chkfinite(b, dtype=float)
        if b.ndim not in (1, 2) or b.shape[0] != self.n:  # LAPACK would solve a prefix
            raise ValueError(f"right-hand side has shape {b.shape}, expected ({self.n}, ...)")
        x, info = self.back_solve(b)
        if info < 0:
            raise ValueError(f"band solve: illegal value in argument {-info}")
        return x


def _diagonal_product(ab: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A x along the last axis of x for the band ``ab``, one diagonal at a
    time: past _DSBMV_MAX_N entries faster than dsbmv, and it serves
    stacks."""
    u = ab.shape[0] - 1
    y = ab[u] * x
    for k in range(1, u + 1):
        d = ab[u - k, k:]
        y[..., :-k] += d * x[..., k:]
        y[..., k:] += d * x[..., :-k]
    return y


def as_band(m, name: str) -> SymBand:
    """m itself when it is a SymBand; otherwise the band of the dense matrix m.

    Symmetry (to 1e-12 relative to the largest entry) and finiteness are
    checked and the bandwidth is read from the nonzeros of the upper
    diagonals, one diagonal pair at a time, so no n x n temporary is built."""
    if isinstance(m, SymBand):
        return m
    a = np.asarray(m, dtype=float)  # read only, so not copied
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {a.shape}")
    n = a.shape[0]
    tol = _SYM_RTOL * max(1.0, float(a.max(initial=0.0)), -float(a.min(initial=0.0)))
    u = 0
    for k in range(n):
        up = np.diagonal(a, k)
        worst = np.abs(up - np.diagonal(a, -k)).max()  # NaN for a NaN or inf entry
        if not worst <= tol:
            what = f"symmetric to {_SYM_RTOL:g} relative" if np.isfinite(worst) else "finite"
            raise ValueError(f"{name} is not {what}")
        if k and up.any():
            u = k
    ab = np.zeros((u + 1, n))
    for k in range(u + 1):
        ab[u - k, k:] = np.diagonal(a, k)
    return SymBand(ab)


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

    The Grams may be given as SymBand or as dense symmetric arrays, which
    are converted to bands; each is factored once, here, and that factor
    both certifies positive definiteness and serves every solve.  The trace
    is copied and frozen; instances are immutable and safe to share across
    threads.
    """

    gram_h: SymBand
    gram_v: SymBand
    trace: np.ndarray
    gram_u: SymBand

    def __post_init__(self) -> None:
        gh = as_band(self.gram_h, "gram_h")
        gv = as_band(self.gram_v, "gram_v")
        tr = _as_matrix(self.trace, "trace")
        gu = as_band(self.gram_u, "gram_u")
        n = gh.n
        if gv.n != n:
            raise ValueError("gram_h and gram_v must have equal size")
        if tr.shape[1] != n:
            raise ValueError("trace must have one column per degree of freedom")
        if gu.n != tr.shape[0]:
            raise ValueError("gram_u size must match the number of trace rows")
        for band in (gh, gv, gu):
            band.factor  # raises LinAlgError unless positive definite
        tr.setflags(write=False)
        object.__setattr__(self, "gram_h", gh)
        object.__setattr__(self, "gram_v", gv)
        object.__setattr__(self, "trace", tr)
        object.__setattr__(self, "gram_u", gu)

    @property
    def dim(self) -> int:
        return self.gram_h.n

    @property
    def dim_u(self) -> int:
        return self.trace.shape[0]

    def solve_v(self, w: np.ndarray) -> np.ndarray:
        """Solve gram_v x = w (Riesz map V* -> V)."""
        return self.gram_v.solve(w)

    def solve_h(self, w: np.ndarray) -> np.ndarray:
        return self.gram_h.solve(w)

    def h_norm(self, v) -> float:
        v = _require_vector(v, self.dim)
        return float(np.sqrt(max(v @ self.gram_h @ v, 0.0)))

    def v_norm(self, v) -> float:
        v = _require_vector(v, self.dim)
        return float(np.sqrt(max(v @ self.gram_v @ v, 0.0)))

    def dual_norm(self, w) -> float:
        """Discrete V*-norm sup_{v != 0} (w^T v) / ||v||_V, from w^T gram_v^{-1} w.

        A NaN or Inf in w makes that square non-finite, as the solve carries
        it along, so w is scanned (ValueError) only when the square is not
        finite; a finite square is the whole evaluation.  A finite w whose
        square overflows is scaled by 1 / max|w| first.  The product is BLAS
        ddot, which raises no floating-point warning on overflow."""
        w = _require_vector(w, self.dim, "w")
        sq = blas.ddot(w, self.gram_v.back_solve(w)[0])
        if math.isfinite(sq):
            return math.sqrt(max(sq, 0.0))
        if not np.isfinite(w).all():
            raise ValueError("w must not contain infs or NaNs")
        scale = float(np.abs(w).max())
        w = w / scale
        return scale * math.sqrt(max(blas.ddot(w, self.gram_v.back_solve(w)[0]), 0.0))

    def dual_u_norm(self, action) -> float:
        """U*-norm of a boundary functional given by its action vector."""
        a = _require_vector(action, self.dim_u, "action")
        return float(np.sqrt(max(a @ self.gram_u.solve(a), 0.0)))

    @cached_property
    def trace_operator_norm(self) -> float:
        """sup ||trace v||_U / ||v||_V, the largest generalized singular value:
        the root of the top eigenvalue of the dim_u x dim_u pencil
        (trace gram_v^{-1} trace^T, gram_u^{-1})."""
        b = self.trace @ self.solve_v(self.trace.T)
        g_u_inv = self.gram_u.solve(np.eye(self.dim_u))
        return float(np.sqrt(sla.eigvalsh(b, g_u_inv).max(initial=0.0)))


@dataclass(frozen=True)
class LinearOperatorA:
    """Linear elliptic part: <A u, v> = u^T stiffness v, with the constants
    of its growth bound ||Av||_* <= a_growth + b_growth ||v||_V and of its
    Garding-type lower bound <Av,v> >= alpha ||v||_V^2 - beta |v|_H^2."""

    stiffness: SymBand
    alpha: float = 1.0
    beta: float = 1.0
    a_growth: float = 0.0
    b_growth: float = 1.0

    def __post_init__(self) -> None:
        k = as_band(self.stiffness, "stiffness")
        scale = max(1.0, float(np.abs(k.ab).max()))
        # least eigenvalue > -1e-10 scale iff K + 1e-10 scale I has a Cholesky factor
        shifted = np.array(k.ab)
        shifted[-1] += 1e-10 * scale
        try:
            _factor(shifted)
        except np.linalg.LinAlgError:
            raise ValueError("stiffness must be positive semi-definite") from None
        if not self.alpha > 0:
            raise ValueError("alpha must be > 0")
        if self.beta < 0 or self.a_growth < 0:
            raise ValueError("beta and a_growth must be >= 0")
        if not self.b_growth > 0:
            raise ValueError("b_growth must be > 0")
        object.__setattr__(self, "stiffness", k)


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
        av = A.stiffness @ v
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
