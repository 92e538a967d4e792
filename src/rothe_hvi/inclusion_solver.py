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
A piece where it does not is split at m, the first float where g' >= 0,
and the table keeps m and F z(m).  g is least in floats at m or at its
left neighbour: a jump in z's slope between the two can leave g negative
at the neighbour and positive at m, so a step evaluates g at the
neighbour whenever g(m) >= 0.  A step reads the table: a kink is a root
when its interval contains zero, and each sign-change bracket of a piece
gets a safeguarded Newton iteration, with g evaluated through
``branch_value`` and g' through ``branch_slope``.

The one search primitive is bisection in the order of the floats: the
midpoint of two floats is the float whose key, the bit pattern read as an
integer and reflected through zero for negative floats, is the mean of
theirs (as Roots.jl's ``Bisection`` does for Float64).  An infinite end is
an ordinary key, any two floats are less than 2^64 keys apart, and each
bisection halves the floats left in the bracket, so 64 of them close any
bracket.  The minimiser search is this bisection on the sign of g', run on
the ends' integer keys: a halving averages two keys and converts only the
midpoint to a float (one ``struct`` pack and unpack), which gives the float
``_key_midpoint`` gives, and it stops when the keys are neighbours.  Newton
falls back to it whenever a step leaves the bracket, and after
``_NEWTON_STEPS`` steps a bracket is only bisected, so a bracket takes at
most _NEWTON_STEPS + 64 steps whatever its ends and the warm start, and
every bracket yields its root.  Where there are several roots the solver
takes the one nearest the warm start's boundary value t u_warm, the smaller
one on a tie, so a trajectory stays on its branch.  From the root,
xi = (t x - s) / F and u = x - c tau w xi y.  ``SolveReport.iterations``
counts the Newton and bisection steps of the step's brackets; the minimiser
search belongs to the operator and is not counted there.

A step is solved, then certified.  ``segment_kernel`` holds a step's float
operations, unchecked and in one place, and solves the k steps of a
segment, steps of one operator, in one call: for each row it adds M times
the stencil's history to the right-hand side in place, solves the boundary
inclusion, writes u and xi into arrays its caller owns and appends the
step's iterations.  It reads the operator's bound kernels, trace pairs,
root table, lift and y once a call.  The step loop calls it once a segment
with the rows of its block; ``solve_step_inclusion`` runs it on one row,
entered at its boundary half with a given warm start's boundary value, and
the single-step API forms that row by the kernel's history half.
``step_residuals`` certifies a stack of k solved steps of
one operator: it recomputes each residual r = S u + c tau trace^T W xi - b
from the solution, by one stack product with S for all k, then the flux
term, which is nonzero only at the nodes where the trace is (one node for
P1), and returns the V*-norm of each.  Those norms take one back-solve of
the k residuals by gram_v and one einsum for the k squares, and each row
goes through the operations, in their order, that it takes in any stack
(einsum sums a lone row as a row of a stack of two), so a step's residual
has the same bits whatever the stack it is certified in.  A
step is accepted only when its residual is at most tol;
``residual_failure`` gives the error of one that is not:
NumericalFailureError for a non-finite residual, NonConvergenceError for
one above tol.  ``solve_step_inclusion`` checks its operands and makes the
three calls on one step; the step loop of ``stepper.run_blocks`` solves a
segment of steps and certifies them at once.  Only a single boundary row (dim_u = 1) is
supported; a StepProblem on any other space raises ValueError.

Each value of a step is checked for NaN/Inf at most once, and a non-finite
one raises NumericalFailureError: the warm start's boundary value s_warm
directly; the right-hand side b through x = S^{-1} b, which the
back-substitution makes non-finite whenever b is (b itself is checked only
then, to name the culprit); u through r; and r through its own squared norm
r^T gram_v^{-1} r, which is not finite when r is not.  A residual whose
square is not finite goes through GalerkinSpace.dual_norm, which scans it
and rescales a finite one whose square overflows.  x is checked by its sum
of squares, one BLAS ddot, and scanned entry by entry only when that sum is
not finite: a NaN or Inf makes it so, and so does a finite vector large
enough to overflow it, which the scan then passes.  The boundary value t x
is read at the trace's nonzero nodes only.  The warm start enters as its
boundary value alone, so a step forms no warm-start vector: the kernel's
history half, or the caller of ``solve_step_inclusion``, sums t u_warm
over those nodes.

So a step checks in this order: tol > 0, then the shape of b against the
operator's ``shape``, in ``solve_step_inclusion`` (the step loop's shapes
are its own); then s_warm finite and x's ddot in ``segment_kernel``; then
the square of its residual in ``step_residuals`` and the residual against
tol in ``residual_failure``.
Between these checks it does only arithmetic, through the kernels the
operator bound when it was built (``solve_in_place`` for x), with no layout
or shape decided again.  A step of a segment makes the array calls its
arithmetic needs and no more, and no Python function but the root scan.
Each state is multiplied by M once: a step makes M u^{n-1} (BLAS dsbmv, or
the diagonal loop past ``galerkin._DSBMV_MAX_N`` unknowns) and keeps it as
the next step's M u^{n-2}, so a two-step step makes seven calls: that
product, two BLAS daxpy that add 4/3 M u^{n-1} and -1/3 M u^{n-2} to b,
the copy of b into the state's row, S's solve overwriting that row with x,
x's ddot and one daxpy that turns x into u in the row.  A one-step step
makes six, one daxpy adding M u^{n-1}, and a two-step segment makes
M u^{n-2} once more at its start.  b stays in its row of the right-hand
sides, which the certificate reads.  When g increases everywhere, which
the table shows when g' > 0 at every piece's finite left end and z's
one-sided limits do not fall at any kink, the boundary inclusion has at
most one root and its scan stops at the first.
``step_residuals`` makes, for its whole stack, one stack product with S
(``galerkin._diagonal_product``), one solve by gram_v's bound kernel and
one einsum (``galerkin._row_dots``).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, fields
from functools import partial

import numpy as np

from .galerkin import GalerkinSpace, SymBand, _diagonal_product, _row_dots, as_band, blas
from .potentials import ScalarPotential

__all__ = [
    "StepProblem",
    "SolveReport",
    "NonConvergenceError",
    "NumericalFailureError",
    "step_residuals",
    "residual_failure",
    "solve_step_inclusion",
]

# Newton steps per bracket before ``refine`` only bisects.  A bracket spans
# fewer than 2^64 keys, so 64 key bisections then close it, and one more
# evaluation of g finds it closed: a bound by construction, not a cap
_NEWTON_STEPS = 64
_MAX_SCALAR_ITER = _NEWTON_STEPS + 64 + 1  # evaluations of g per bracket
_EPS = float(np.finfo(float).eps)
_NEG_SIGN = -(1 << 63)  # minus the sign bit of a float's bit pattern
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
    band kernels a step calls on vectors of that shape, bound once here:
    ``solve_in_place``, S's solve (dpttrs, or dpbtrs for a wider band)
    with ``overwrite_b=1``, which writes x = S^{-1} b over the contiguous
    vector it is passed and returns it with LAPACK's info, and
    ``mass_product``, M's ``SymBand.product``, which returns M v as a new
    vector.
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
            solve_in_place=partial(system.back_solve, overwrite_b=1),
            mass_product=sp.gram_h.product,
        )
        if not self.lift * self.gamma > 0:
            raise ValueError("the boundary weight and trace row must give c tau w gamma > 0")
        vars(self)["inclusion"] = _BoundaryInclusion(self.potential, self.lift * self.gamma)

    def __reduce__(self):
        # built anew from the fields: the bound kernels cannot be pickled
        return type(self), tuple(getattr(self, f.name) for f in fields(self))

    def boundary_value(self, v: np.ndarray) -> float:
        """t v of an array v of the step's shape, summed over the nodes where
        t is nonzero only; ValueError, naming both shapes, for any other
        shape."""
        if v.shape != self.shape:
            raise ValueError(f"vector has shape {v.shape}, expected {self.shape}")
        s = 0.0
        for k, t in self.trace_pairs:
            s += t * v.item(k)
        return s


@dataclass
class SolveReport:
    iterations: int = 0  # scalar iterations of the boundary solve
    residual: float = math.nan  # V*-norm of the accepted step residual


# the float <-> key codec: a float's bit pattern read as a signed 64-bit
# integer is its key for x >= +0; for a negative x (pattern below zero) the
# key is -2^63 minus the pattern, so -0 maps to 0 and the order is kept
_F64 = struct.Struct("<d")
_I64 = struct.Struct("<q")


def _key(x: float) -> int:
    """x's rank in the order of the floats: its bit pattern as an unsigned
    integer, reflected through zero for a negative x (both zeros get 0), so
    +-inf are ordinary keys and any two floats are less than 2^64 apart."""
    (k,) = _I64.unpack(_F64.pack(x))
    return k if k >= 0 else _NEG_SIGN - k


def _float(k: int) -> float:
    """The float whose key is k; +0 for key 0."""
    return _F64.unpack(_I64.pack(k if k >= 0 else _NEG_SIGN - k))[0]


def _key_midpoint(lo: float, hi: float) -> float:
    """The float halfway between lo <= hi in key order; lo when no float
    lies strictly between them (as Roots.jl's ``Bisection`` for Float64)."""
    return _float((_key(lo) + _key(hi)) >> 1)


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
    arithmetic) and, where g' < 0 at the left end, the first float m where
    g' >= 0 with F z(m) (None, None where g is nondecreasing).  It also
    records whether g increases everywhere (``increasing``): g' > 0 at every
    finite left end, and z's one-sided limits do not fall at any kink."""

    def __init__(self, pot: ScalarPotential, factor: float):
        self.pot = pot
        self.factor = factor
        pts, lo, hi = pot.kink_table
        fz_lo = tuple(factor * z for z in lo)
        # (point, F z_lo, F z_hi) for each point of the kink table
        self.kinks = tuple(zip(pts, fz_lo, (factor * z for z in hi)))
        m = len(pts) // 3
        # a piece runs from one float right of a kink (or -inf) to one float
        # left of the next kink (or +inf); z there is its one-sided limit
        lefts = [(-math.inf, 0.0), *zip(pts[2 * m:], fz_lo[2 * m:])]
        rights = [*zip(pts[:m], fz_lo[:m]), (math.inf, 0.0)]
        pieces = []
        # g increases everywhere when it does on each piece and z's one-sided
        # limits do not fall at any kink: then it has at most one root
        self.increasing = all(a <= b for a, b in zip(fz_lo[:m], fz_lo[2 * m:]))
        for (a_in, fz_a), (b_in, fz_b) in zip(lefts, rights):
            dg_a = math.inf if math.isinf(a_in) else self.dg(a_in)
            self.increasing &= dg_a > 0.0
            if dg_a >= 0.0:
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
        changes sign once, between this float and its left neighbour, and g
        is least in floats at one of the two.  The bisection on the sign of
        g' runs on the ends' keys, so each of its at most 64 halvings
        converts one key, the midpoint's, to a float: the float
        ``_key_midpoint`` would give."""
        lo, hi = _key(a), _key(b)
        while True:
            mid = (lo + hi) >> 1
            if mid == lo:  # the ends are neighbouring floats
                return b
            s = _float(mid)
            if self.dg(s) < 0.0:
                lo = mid
            else:
                hi, b = mid, s

    def refine(self, target: float, warm: float, neg: float, pos: float) -> tuple[float, int]:
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
                return x, k
            if gx < 0.0:
                neg = x
            else:
                pos = x
            lo, hi = min(neg, pos), max(neg, pos)
            if k < _NEWTON_STEPS:
                dgx = 1.0 + factor * slope(x)
                x_new = x - gx / dgx if dgx != 0.0 else math.nan
                if abs(x_new - x) <= 4.0 * _EPS * max(1.0, abs(x)):
                    return x_new, k + 1
                if lo < x_new < hi:  # false for a NaN step
                    x = x_new
                    continue
            mid = _key_midpoint(lo, hi)
            if mid == lo:  # lo and hi are neighbouring floats, and x is one of them
                return x, k
            x = mid
        raise AssertionError("unreachable: key bisection closes every bracket within the bound")

    def roots(self, target: float, warm: float) -> tuple[list[float], int]:
        """Every root for ``target`` and the iterations spent on them: the
        kinks whose interval contains zero, the points beside them where g
        vanishes and the roots of each piece between, each piece read from
        the table."""
        # beside a kink z is single-valued: a root there has g exactly 0
        out = [x for x, fz_lo, fz_hi in self.kinks
               if x - target + fz_lo <= 0.0 <= x - target + fz_hi]
        if out and self.increasing:  # the only root
            return out, 0
        iterations = 0
        for a_in, b_in, fz_a, fz_b, s_min, fz_min in self.pieces:
            ga, gb = a_in - target + fz_a, b_in - target + fz_b
            if s_min is None:  # nondecreasing: a root only where g changes sign
                if ga < 0.0 < gb:
                    root, k = self.refine(target, warm, a_in, b_in)
                    if self.increasing:  # the only root
                        return [root], k
                    out.append(root)
                    iterations += k
                continue
            gm = s_min - target + fz_min
            if gm >= 0.0:
                out += [s_min] if gm == 0.0 else []
                # where z's slope jumps between m's left neighbour and m, g
                # may be negative there: then g changes sign between them
                neg = math.nextafter(s_min, -math.inf)
                if not neg - target + self.factor * self.pot.branch_value(neg) < 0.0:
                    continue
                ends = ((a_in, ga), (s_min, gm))
            else:
                neg, ends = s_min, ((a_in, ga), (b_in, gb))
            for end, g_end in ends:
                if g_end > 0.0:
                    root, k = self.refine(target, warm, neg, end)
                    out.append(root)
                    iterations += k
        return out, iterations


def segment_kernel(
    p: StepProblem, rhs: np.ndarray, u, xi, iterations: list, u_nm1, u_nm2=None,
    s_warm: float = math.nan,
) -> float | None:
    """The steps of the operator p whose right-hand sides c tau F_n are the
    rows of the (k, n) array ``rhs``, unchecked: for each row in turn, M
    times the stencil's history is added to the row in place, the boundary
    inclusion is solved and u is written into the row of ``u`` and xi into
    ``xi``, and the step's iterations are appended to ``iterations``; so
    the steps solved before an error are as many as the counts appended.
    The rows of ``u`` must be contiguous: the solve and daxpy overwrite
    them.

    Each step makes one product with M, M u^{n-1} by M's bound
    ``mass_product``, and keeps it for the next step, where it is
    M u^{n-2}; a two-step segment makes M u^{n-2} once more, at its start.
    The one-step stencil (``u_nm2`` None) adds M u^{n-1} to b by one BLAS
    daxpy and starts from t u^{n-1}.  The two-step stencil adds
    4/3 M u^{n-1} and then -1/3 M u^{n-2} by two, and starts from the
    extrapolant 2u^{n-1} - u^{n-2}, whose boundary value is summed at the
    trace's nonzero nodes as sum_k t_k (2 u^{n-1}_k - u^{n-2}_k): the float
    operations, in their order, of ``StepProblem.boundary_value`` of the
    whole extrapolant, which is never formed.  Each step's u is the history
    of the next.  The boundary half copies b into the step's row of ``u``
    and solves there, x = S^{-1} b by S's bound ``solve_in_place``; then it
    sums t x at the trace's nonzero nodes, takes the root nearest the warm
    start's boundary value (the smaller one on a tie) and makes the row
    u = x - (c tau w xi) y by one BLAS daxpy.  The operator's kernels and
    tables are read once a call.

    Two entries serve one step, on one row: with ``u_nm1`` None the row is
    the whole right-hand side and ``s_warm`` its warm start's boundary
    value (the boundary half alone, as ``solve_step_inclusion`` calls it),
    and with ``u`` None the history is added and the warm start's boundary
    value returned (the history half alone, as the single-step API calls
    it).  NumericalFailureError for a non-finite warm start or x,
    NonConvergenceError when no root is found."""
    solve, product, pairs, y, dim = p.solve_in_place, p.mass_product, p.trace_pairs, p.y, p.dim
    roots, factor, lift, isfinite = p.inclusion.roots, p.inclusion.factor, p.lift, math.isfinite
    ddot, daxpy = blas.ddot, blas.daxpy
    mu_nm2 = None if u_nm2 is None else product(u_nm2)
    for i, b in enumerate(rhs):
        if u_nm1 is not None:
            mu_nm1 = product(u_nm1)
            s_warm = 0.0
            if mu_nm2 is not None:  # b += 4/3 M u^{n-1}, then b += -1/3 M u^{n-2}
                daxpy(mu_nm2, daxpy(mu_nm1, b, dim, 4.0 / 3.0), dim, -1.0 / 3.0)
                for k, t in pairs:
                    s_warm += t * (2.0 * u_nm1.item(k) - u_nm2.item(k))
                u_nm2, mu_nm2 = u_nm1, mu_nm1
            else:
                daxpy(mu_nm1, b, dim, 1.0)
                for k, t in pairs:
                    s_warm += t * u_nm1.item(k)
        if u is None:
            return s_warm
        if not isfinite(s_warm):
            raise NumericalFailureError(_NON_FINITE_DATA)
        x = u[i]
        x[:] = b
        solve(x)  # x = S^{-1} b in the row, non-finite when b is
        if not (isfinite(ddot(x, x)) or _finite(x)):  # _finite, its ddot inline
            raise NumericalFailureError("non-finite interior solve" if _finite(b) else _NON_FINITE_DATA)
        target = 0.0
        for k, t in pairs:
            target += t * x.item(k)
        found, its = roots(target, s_warm)
        if not found:
            raise NonConvergenceError(
                "no root of the boundary inclusion found", SolveReport(iterations=its)
            )
        s = found[0] if len(found) == 1 else min(found, key=lambda r: (abs(r - s_warm), r))
        xi[i] = xi_n = (target - s) / factor
        daxpy(y, x, dim, -lift * xi_n)  # u = x - (c tau w xi) y, in the row
        iterations.append(its)
        u_nm1 = x
    return None  # the steps are in u, xi and iterations


def step_residuals(p: StepProblem, u: np.ndarray, rhs: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """The V*-norms of the residuals S u_i + c tau trace^T W xi_i - b_i of k
    steps of the operator p, for (k, n) stacks u and b = ``rhs`` and k
    multipliers xi, unchecked; NaN where a residual is not finite.

    One stack product with S, the flux term at the trace's nodes, one
    back-solve of the k residuals by gram_v's bound kernel and one einsum
    for the k squares (``galerkin._row_dots``, which stacks a lone row with
    a copy of itself): each row takes the operations, in their order, that
    it takes in any stack, so a step's residual has the same bits alone or
    in any segment.  A residual whose square is not finite goes through
    ``GalerkinSpace.dual_norm``, which scans it and rescales a finite one.
    Overflow and invalid operations raise no warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        r = _diagonal_product(p.system.ab, u)
        r -= rhs
        lift_xi = p.lift * xi
        for k, t in p.trace_pairs:
            r[:, k] += lift_xi * t
        z = p.space.gram_v.back_solve(r.T)[0]  # (n, k), a column a residual
        sq = _row_dots(r, z.T)
        out = np.sqrt(np.maximum(sq, 0.0))
    for i in np.flatnonzero(~np.isfinite(sq)).tolist():
        try:
            out[i] = p.space.dual_norm(r[i])
        except ValueError:  # a NaN or Inf in the residual
            out[i] = math.nan
    return out


def residual_failure(iterations: int, residual: float, tol: float) -> RuntimeError | None:
    """The error of a step whose residual fails tol, None for one at most
    tol: NumericalFailureError for a non-finite residual, NonConvergenceError
    with the step's report for one above tol."""
    if not math.isfinite(residual):
        return NumericalFailureError("non-finite step residual")
    if not residual <= tol:
        return NonConvergenceError(
            f"step residual {residual:.3e} above tol {tol:g}", SolveReport(iterations, residual)
        )
    return None


def solve_step_inclusion(
    p: StepProblem, rhs: np.ndarray, s_warm: float, tol: float = 1e-10
) -> tuple[np.ndarray, np.ndarray, SolveReport]:
    """Solve the step inclusion with right-hand side ``rhs`` exactly on the
    boundary and certify the V*-norm residual against ``tol``: a one-row
    ``segment_kernel`` entered at its boundary half, then ``step_residuals``
    of the one step and ``residual_failure``.  ``s_warm`` is the warm
    start's boundary value t u_warm: of several roots the one nearest it is
    taken.

    Raises ValueError for tol <= 0 or a right-hand side of another shape
    than the operator's, NonConvergenceError with its report when no root is
    found or the residual exceeds tol, and NumericalFailureError on
    non-finite data or solutions."""
    if not tol > 0:
        raise ValueError("tol must be > 0")
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != p.shape:
        raise ValueError(f"right-hand side has shape {rhs.shape}, expected {p.shape}")
    u, xi, iterations = np.empty(p.dim), np.empty(1), []
    segment_kernel(p, rhs[None], u[None], xi, iterations, None, s_warm=s_warm)
    residual = step_residuals(p, u[None], rhs[None], xi).item(0)
    failure = residual_failure(iterations[0], residual, tol)
    if failure is not None:
        raise failure
    return u, xi, SolveReport(iterations[0], residual)
