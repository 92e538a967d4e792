"""Per-step solver for the finite-dimensional inclusion

    M u + c tau K u + c tau trace^T W xi = b,   xi in z(trace u),

where z is the generalized-derivative interval of a scalar potential.

The step is linear in u and set-valued only at the boundary.  With a single
boundary row t, S = M + c tau K, y = S^{-1} t^T and gamma = t y, every
solution is u = x - c tau w xi y with x = S^{-1} b, and its boundary value
s = t u solves the scalar inclusion

    0 in g(s) = s - t x + F z(s),    F = c tau w gamma > 0.

S depends on the stencil and tau only, so a ``StepProblem`` is the step
operator of one stencil and step size, built once per run: its constructor
checks the data and factors S (its band factor, L D L^T for the tridiagonal
P1 matrices) together with y and gamma.  A step passes only its right-hand
side b, and is one band back-solve for x plus this scalar problem, O(n).

The scalar inclusion is solved exactly, in plain floats.  z is convex
between consecutive kinks (the ``ScalarPotential`` contract), so g is
convex on each piece and has at most two roots there.  Everything about g
that does not depend on b is tabulated once per operator, in
``StepProblem``'s constructor: F z at the points of the potential's
``kink_table`` (the one-sided limits of z beside each kink and its interval
at the kink), each piece's ends just inside the kinks with F z there, and
whether g' >= 0 at a piece's left end, which makes g nondecreasing there.
A piece where it does not is split at the minimiser m of g, the exact
float where g' changes sign, and the table keeps m and F z(m).  A step
reads the table: a kink is a root when its interval contains zero, and
each sign-change bracket of a piece gets a safeguarded Newton iteration,
with g evaluated through ``branch_value`` and g' through ``branch_slope``.

The one search primitive is bisection in the order of the floats: the
midpoint of two floats is the float whose key, the bit pattern read as an
integer and reflected through zero for negative floats, is the mean of
theirs (as Roots.jl's ``Bisection`` does for Float64).  An infinite end is
an ordinary key, any two floats are less than 2^64 keys apart, and each
bisection halves the floats left in the bracket, so 64 of them close any
bracket.  The minimiser search is this bisection on the sign of g'.  Newton
falls back to it whenever a step leaves the bracket, and after
``_NEWTON_STEPS`` steps a bracket is only bisected, so a bracket takes at
most _NEWTON_STEPS + 64 steps whatever its ends and the warm start, and
every bracket yields its root.  Where there are several roots the solver
takes the one nearest the warm start's boundary value t u_warm, the smaller
one on a tie, so a trajectory stays on its branch.  From the root,
xi = (t x - s) / F and u = x - c tau w xi y.  ``SolveReport.iterations``
counts the Newton and bisection steps of the step's brackets; the minimiser
search belongs to the operator and is not counted there.

The residual r = S u + c tau trace^T W xi - b is recomputed from the
solution as one band product with S plus the flux term, which is nonzero
only at the nodes where the trace is (one node for P1).  A step is accepted
only when the V*-norm of r is at most tol (a NaN residual fails); otherwise
NonConvergenceError is raised.  Only a single boundary row (dim_u = 1) is
supported; a StepProblem on any other space raises ValueError.

Each vector of a step is checked for NaN/Inf at most once, and a non-finite
one raises NumericalFailureError: the warm start directly; the right-hand
side b through x = S^{-1} b, which the back-substitution makes non-finite
whenever b is (b itself is checked only then, to name the culprit); u
through r; and r through its own squared norm r^T gram_v^{-1} r in
GalerkinSpace.dual_norm, which is not finite when r is not (a finite r
whose square overflows is rescaled there).  The warm start and x are
checked by their sum of squares, one BLAS ddot, and scanned entry by entry
only when that sum is not finite: a NaN or Inf makes it so, and so does a
finite vector large enough to overflow it, which the scan then passes.  The
boundary values t x and t u_warm are read at the trace's nonzero nodes
only.

So a step, ``solve_step_inclusion``, checks in this order: tol > 0, the
shapes of the warm start and of b against the operator's ``shape``, the
warm start's ddot, x's ddot, r's square in ``GalerkinSpace.dual_norm`` and
the residual against tol.  Between these checks it does only arithmetic,
through the kernels the operator bound when it was built (``back_solve``
for x, ``product`` for S u), with no layout or shape decided again.  Its
calls are one ``back_solve``, two reads of the boundary table, one
``product`` and one ``GalerkinSpace.dual_norm``, whose solve is gram_v's
bound kernel.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np
from scipy.linalg import blas

from .galerkin import GalerkinSpace, SymBand, as_band
from .potentials import ScalarPotential

__all__ = [
    "StepProblem",
    "SolveReport",
    "VerifyResult",
    "NonConvergenceError",
    "NumericalFailureError",
    "solve_step_inclusion",
    "verify_inclusion",
]

# Newton steps per bracket before ``refine`` only bisects.  A bracket spans
# fewer than 2^64 keys, so 64 key bisections then close it, and one more
# evaluation of g finds it closed: a bound by construction, not a cap
_NEWTON_STEPS = 64
_MAX_SCALAR_ITER = _NEWTON_STEPS + 64 + 1  # evaluations of g per bracket
_EPS = float(np.finfo(float).eps)
_SIGN = 1 << 63  # the sign bit of a float's bit pattern
_NON_FINITE_DATA = "non-finite right-hand side or warm start"


class NonConvergenceError(RuntimeError):
    """The step inclusion could not be solved to tolerance; carries the report."""

    def __init__(self, message: str, report: "SolveReport"):
        super().__init__(message)
        self.report = report


class NumericalFailureError(RuntimeError):
    """NaN or Inf in the data or the solution of a step."""


@dataclass(frozen=True)
class StepProblem:
    """The step operator of one stencil and step size, for any right-hand
    side b of

        M u + c tau K u + c tau trace^T W xi = b,   xi in z(trace u),

    with M = space.gram_h and the single boundary row t = space.trace[0];
    the space also provides the metric of the dual-norm residual.
    ``stiff_scaled`` is c_coef * tau * K, a SymBand or a dense symmetric
    array, converted to a band; the flux term carries the same factor.

    Construction checks once what holds for every step and factors
    S = M + c tau K: it holds ``system`` (S, factored), ``y`` = S^{-1} t^T,
    ``gamma`` = t y, the (node, entry) pairs of t where it is nonzero
    (``trace_pairs``) as plain ints and floats, the step's vector ``shape``,
    ``flux_coef`` c tau, the ``lift`` c tau w and the ``inclusion``, the
    boundary inclusion's table for F = c tau w gamma.  It also holds the
    band kernels a step calls on vectors of that shape: S's ``product`` and
    ``back_solve``, and M's ``mass_product`` for the right-hand sides.
    ValueError unless c_coef is 1 (first step) or 2/3 (two-step stencil),
    tau > 0, dim_u = 1 and c tau w gamma > 0; LinAlgError unless S is
    positive definite.
    """

    space: GalerkinSpace
    stiff_scaled: SymBand
    weights: np.ndarray
    potential: ScalarPotential
    c_coef: float
    tau: float

    def __post_init__(self) -> None:
        if not (abs(self.c_coef - 1.0) < 1e-12 or abs(self.c_coef - 2.0 / 3.0) < 1e-12):
            raise ValueError("c_coef must be 1 (first step) or 2/3 (two-step stencil)")
        if not self.tau > 0:
            raise ValueError("tau must be > 0")
        sp = self.space
        if sp.dim_u != 1:
            raise ValueError(
                f"the step solver supports a single boundary row (dim_u = 1), got dim_u = {sp.dim_u}"
            )
        stiff_scaled = as_band(self.stiff_scaled, "stiff_scaled")
        system = sp.gram_h + stiff_scaled
        row = sp.trace[0]
        y = system.solve(row)  # factors S; LinAlgError unless positive definite
        nodes = np.flatnonzero(row)
        flux_coef = self.c_coef * self.tau
        # the instance is frozen, so the derived attributes go to its dict
        vars(self).update(
            stiff_scaled=stiff_scaled, system=system, y=y, gamma=float(row @ y),
            trace_pairs=tuple(zip(nodes.tolist(), row[nodes].tolist())),
            dim=system.n, shape=(system.n,), flux_coef=flux_coef,
            lift=flux_coef * float(self.weights[0]),
            # the kernels a step calls once it has checked its shapes
            product=system.product, back_solve=system.back_solve,
            mass_product=sp.gram_h.product,
        )
        if not self.lift * self.gamma > 0:
            raise ValueError("the boundary weight and trace row must give c tau w gamma > 0")
        vars(self)["inclusion"] = _BoundaryInclusion(self.potential, self.lift * self.gamma)

    def __reduce__(self):
        # built anew from the fields: the bound kernels cannot be pickled
        return type(self), tuple(getattr(self, f.name) for f in fields(self))

    def boundary_value(self, v: np.ndarray) -> float:
        """t v of an array v, summed over the nodes where t is nonzero only."""
        s = 0.0
        for k, t in self.trace_pairs:
            s += t * v.item(k)
        return s


@dataclass
class SolveReport:
    iterations: int = 0  # scalar iterations of the boundary solve
    residual: float = math.nan  # V*-norm of the accepted step residual


class VerifyResult(NamedTuple):
    residual: float
    membership_ok: bool
    membership_gap: float


def _residual(p: StepProblem, u: np.ndarray, rhs: np.ndarray, lift_xi: float) -> np.ndarray:
    """S u + c tau trace^T W xi - b for u and b of shape ``p.shape``, with
    lift_xi = c tau w xi: one band product with S, then the flux term, which
    is nonzero only at the trace's nodes."""
    r = p.product(u)
    r -= rhs
    for k, t in p.trace_pairs:
        r[k] += lift_xi * t
    return r


def _key(x: float) -> int:
    """x's rank in the order of the floats: its bit pattern as an unsigned
    integer, reflected through zero for a negative x (both zeros get 0), so
    +-inf are ordinary keys and any two floats are less than 2^64 apart."""
    k = int.from_bytes(struct.pack("<d", x), "little")
    return k if k < _SIGN else _SIGN - k


def _key_midpoint(lo: float, hi: float) -> float:
    """The float halfway between lo <= hi in key order; lo when no float
    lies strictly between them (as Roots.jl's ``Bisection`` for Float64)."""
    k = (_key(lo) + _key(hi)) >> 1
    return struct.unpack("<d", (k if k >= 0 else _SIGN - k).to_bytes(8, "little"))[0]


def _finite(v: np.ndarray) -> bool:
    """Whether v holds no NaN or Inf: true when its sum of squares, one BLAS
    ddot, is finite; otherwise (a NaN, an Inf, or a finite v large enough to
    overflow the sum) v is scanned entry by entry."""
    return math.isfinite(blas.ddot(v, v)) or bool(np.isfinite(v).all())


class _BoundaryInclusion:
    """0 in g(s) = s - target + factor z(s) for one factor F and any target.

    The constructor tabulates what does not depend on the target: F z at
    the points of the potential's ``kink_table``, and per piece between
    consecutive kinks its ends just inside the kinks with F z there (stored
    as 0 at an infinite end, where g is then -inf or +inf by plain
    arithmetic) and, where g' < 0 at the left end, the minimiser m of g with
    F z(m) (None, None where g is nondecreasing)."""

    def __init__(self, pot: ScalarPotential, factor: float):
        self.pot = pot
        self.factor = factor
        pts, lo, hi = pot.kink_table
        self.pts = pts
        self.fz_lo = tuple(factor * z for z in lo)
        self.fz_hi = tuple(factor * z for z in hi)
        m = len(pts) // 3
        # a piece runs from one float right of a kink (or -inf) to one float
        # left of the next kink (or +inf); z there is its one-sided limit
        lefts = [(-math.inf, 0.0), *zip(pts[2 * m:], self.fz_lo[2 * m:])]
        rights = [*zip(pts[:m], self.fz_lo[:m]), (math.inf, 0.0)]
        pieces = []
        for (a_in, fz_a), (b_in, fz_b) in zip(lefts, rights):
            if math.isinf(a_in) or self.dg(a_in) >= 0.0:
                # convex with g' >= 0 at the left end (or g -> -inf there): nondecreasing
                pieces.append((a_in, b_in, fz_a, fz_b, None, None))
            else:
                s_min = self.minimiser(a_in, b_in)
                pieces.append((a_in, b_in, fz_a, fz_b, s_min, factor * pot.branch_value(s_min)))
        self.pieces = tuple(pieces)

    def dg(self, s: float) -> float:
        return 1.0 + self.factor * self.pot.branch_slope(s)

    def minimiser(self, a: float, b: float) -> float:
        """The first float of (a, b) where g' >= 0, or b if there is none,
        given g'(a) < 0; b may be +inf.  g is convex on the piece, so g'
        changes sign once and this float is the exact minimiser of g in
        floats; key bisection on the sign of g' finds it in at most 64
        halvings."""
        while True:
            mid = _key_midpoint(a, b)
            if mid == a:  # a and b are neighbouring floats
                return b
            if self.dg(mid) < 0.0:
                a = mid
            else:
                b = mid

    def refine(self, target: float, warm: float, neg: float, pos: float) -> tuple[list[float], int]:
        """The root between ``neg`` (g < 0) and ``pos`` (g > 0), either of
        which may be infinite, and the iterations spent.  Newton runs from
        the warm start when it lies between them (else from the finite end
        where g > 0); a step that leaves the bracket, and every step after
        the first ``_NEWTON_STEPS``, is a key bisection.  It stops at a zero
        of g to the rounding of its terms, at a Newton step below rounding,
        or when no float lies strictly inside the bracket, where g changes
        sign beside the last point evaluated.  A key span is below 2^64, so
        this takes at most _NEWTON_STEPS + 64 steps and always finds the
        root."""
        value, slope, factor = self.pot.branch_value, self.pot.branch_slope, self.factor
        x = warm if min(neg, pos) < warm < max(neg, pos) else pos
        x = x if math.isfinite(x) else neg
        for k in range(_MAX_SCALAR_ITER):
            gx = x - target + factor * value(x)
            # zero up to the rounding of its own terms
            if abs(gx) <= 4.0 * _EPS * (abs(x) + abs(target) + abs(gx - x + target)):
                return [x], k
            if gx < 0.0:
                neg = x
            else:
                pos = x
            lo, hi = min(neg, pos), max(neg, pos)
            if k < _NEWTON_STEPS:
                dgx = 1.0 + factor * slope(x)
                x_new = x - gx / dgx if dgx != 0.0 else math.nan
                if abs(x_new - x) <= 4.0 * _EPS * max(1.0, abs(x)):
                    return [x_new], k + 1
                if lo < x_new < hi:  # false for a NaN step
                    x = x_new
                    continue
            mid = _key_midpoint(lo, hi)
            if mid == lo:  # lo and hi are neighbouring floats, and x is one of them
                return [x], k
            x = mid
        raise AssertionError("unreachable: key bisection closes every bracket within the bound")

    def roots(self, target: float, warm: float) -> tuple[list[float], int]:
        """Every root for ``target`` and the iterations spent on them: the
        kinks whose interval contains zero, the points beside them where g
        vanishes and the roots of each piece between, each piece read from
        the table."""
        # beside a kink z is single-valued: a root there has g exactly 0
        out = [x for x, fz_lo, fz_hi in zip(self.pts, self.fz_lo, self.fz_hi)
               if x - target + fz_lo <= 0.0 <= x - target + fz_hi]
        iterations = 0
        for a_in, b_in, fz_a, fz_b, s_min, fz_min in self.pieces:
            ga, gb = a_in - target + fz_a, b_in - target + fz_b
            if s_min is None:
                brackets = [(a_in, b_in)] if ga < 0.0 < gb else []
            else:
                gm = s_min - target + fz_min
                if gm >= 0.0:
                    out += [s_min] if gm == 0.0 else []
                    continue
                brackets = [(s_min, end) for end, g_end in ((a_in, ga), (b_in, gb)) if g_end > 0.0]
            for neg, pos in brackets:
                found, k = self.refine(target, warm, neg, pos)
                out += found
                iterations += k
        return out, iterations


def solve_step_inclusion(
    p: StepProblem, rhs: np.ndarray, warm_start: np.ndarray, tol: float = 1e-10
) -> tuple[np.ndarray, np.ndarray, SolveReport]:
    """Solve the step inclusion with right-hand side ``rhs`` exactly on the
    boundary and certify the V*-norm residual against ``tol``.

    Raises NonConvergenceError with its report when no root is found or the
    residual exceeds tol, and NumericalFailureError on non-finite data or
    solutions."""
    if not tol > 0:
        raise ValueError("tol must be > 0")
    warm = np.asarray(warm_start, dtype=float)
    if warm.shape != p.shape:
        raise ValueError(f"warm start has shape {warm.shape}, expected {p.shape}")
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != p.shape:
        raise ValueError(f"right-hand side has shape {rhs.shape}, expected {p.shape}")
    if not _finite(warm):
        raise NumericalFailureError(_NON_FINITE_DATA)
    x = p.back_solve(rhs)[0]  # non-finite when rhs is
    if not _finite(x):
        raise NumericalFailureError(
            "non-finite interior solve" if _finite(rhs) else _NON_FINITE_DATA
        )
    s_warm = p.boundary_value(warm)
    target = p.boundary_value(x)
    roots, iterations = p.inclusion.roots(target, s_warm)
    report = SolveReport(iterations=iterations)
    if not roots:
        raise NonConvergenceError("no root of the boundary inclusion found", report)
    s = roots[0] if len(roots) == 1 else min(roots, key=lambda r: (abs(r - s_warm), r))
    xi = (target - s) / p.inclusion.factor
    lift_xi = p.lift * xi
    u = x - lift_xi * p.y
    r = _residual(p, u, rhs, lift_xi)
    try:  # dual_norm scans r only when its square is not finite
        report.residual = p.space.dual_norm(r)
    except ValueError:  # a NaN or Inf in r
        report.residual = math.nan
    if not math.isfinite(report.residual):
        raise NumericalFailureError("non-finite step residual")
    if not report.residual <= tol:
        raise NonConvergenceError(
            f"step residual {report.residual:.3e} above tol {tol:g}", report
        )
    return u, np.array([xi]), report


def verify_inclusion(
    p: StepProblem, rhs: np.ndarray, u: np.ndarray, xi: np.ndarray, tol: float
) -> VerifyResult:
    """Residual of the step equation with right-hand side ``rhs`` for a
    given pair, plus the distance of xi to its admissible interval, closed
    by a roundoff-sized margin in the boundary value."""
    rhs = np.asarray(rhs, dtype=float)
    u = np.asarray(u, dtype=float)
    xi = np.asarray(xi, dtype=float)
    if rhs.shape != p.shape or u.shape != p.shape or xi.shape != (1,):
        raise ValueError("rhs, u or xi has inconsistent dimensions")
    resid = p.space.dual_norm(_residual(p, u, rhs, p.lift * float(xi[0])))
    s = p.boundary_value(u)
    lo, hi = p.potential.membership_interval(s, 1e-12 * (1.0 + abs(s)))
    gap = max(lo - float(xi[0]), float(xi[0]) - hi, 0.0)
    return VerifyResult(resid, gap <= tol, gap)
