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
convex on each piece and has at most two roots there.  g is evaluated
through ``branch_value`` and g' through ``branch_slope``; the one-sided
limits of z beside each kink and its interval at the kink come from the
potential's ``kink_table``.  A piece on which g' >= 0 at its left end is
monotone; otherwise it is split at the minimiser of g, found by bisection on
the sign of g'.  Each sign-change bracket gets a safeguarded Newton
iteration, and a kink is a root when its interval contains zero.  Where
there are several roots the solver takes the one nearest the warm start's
boundary value t u_warm, the smaller one on a tie, so a trajectory stays on
its branch.  From the root, xi = (t x - s) / F and u = x - c tau w xi y.

The residual r = S u + c tau trace^T W xi - b is recomputed from the
solution as one band product with S plus the flux term, which is nonzero
only at the nodes where the trace is (one node for P1).  A step is accepted
only when the V*-norm of r is at most tol (a NaN residual fails); otherwise
NonConvergenceError is raised.  Only a single boundary row (dim_u = 1) is
supported; a StepProblem on any other space raises ValueError.

Each vector of a step is scanned for NaN/Inf at most once, and a non-finite
one raises NumericalFailureError: the warm start directly; the right-hand
side b through x = S^{-1} b, which the back-substitution makes non-finite
whenever b is (b itself is scanned only then, to name the culprit); u
through r; and r through its own squared norm r^T gram_v^{-1} r in
GalerkinSpace.dual_norm, which is not finite when r is not (a finite r
whose square overflows is rescaled there).  The boundary values t x
and t u_warm are read at the trace's nonzero nodes only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

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

# safety cap on each scalar loop; exact brackets converge in far fewer steps
_MAX_SCALAR_ITER = 400
_EPS = float(np.finfo(float).eps)
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
    ``gamma`` = t y, the ``nodes`` where t is nonzero with its entries there
    (``trace_at_nodes``) as plain ints and floats, and the ``lift`` c tau w.
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
        object.__setattr__(self, "stiff_scaled", stiff_scaled)
        object.__setattr__(self, "system", system)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "gamma", float(row @ y))
        object.__setattr__(self, "nodes", tuple(nodes.tolist()))
        object.__setattr__(self, "trace_at_nodes", tuple(row[nodes].tolist()))
        object.__setattr__(self, "lift", self.flux_coef * float(self.weights[0]))
        if not self.lift * self.gamma > 0:
            raise ValueError("the boundary weight and trace row must give c tau w gamma > 0")

    @property
    def dim(self) -> int:
        return self.system.n

    @property
    def flux_coef(self) -> float:
        return self.c_coef * self.tau

    def boundary_value(self, v: np.ndarray) -> float:
        """t v, summed over the nodes where t is nonzero only."""
        s = 0.0
        for k, t in zip(self.nodes, self.trace_at_nodes):
            s += t * v[k]
        return float(s)


@dataclass
class SolveReport:
    iterations: int = 0  # scalar iterations of the boundary solve
    residual: float = math.nan  # V*-norm of the accepted step residual


class VerifyResult(NamedTuple):
    residual: float
    membership_ok: bool
    membership_gap: float


def _residual(
    system: SymBand, u: np.ndarray, rhs: np.ndarray, nodes: Sequence[int], flux: Sequence[float]
) -> np.ndarray:
    """S u + c tau trace^T W xi - b: one band product with S, then the flux
    term, whose only nonzero entries ``flux`` sit at ``nodes``."""
    r = system @ u
    r -= rhs
    for k, f in zip(nodes, flux):
        r[k] += f
    return r


def _finite_dual_norm(space: GalerkinSpace, r: np.ndarray) -> float:
    """V*-norm of a residual; NumericalFailureError when it is not finite.
    ``dual_norm`` scans r only when its square is not finite."""
    try:
        norm = space.dual_norm(r)
    except ValueError:  # a NaN or Inf in r
        norm = math.nan
    if not math.isfinite(norm):
        raise NumericalFailureError("non-finite step residual")
    return norm


class _BoundaryInclusion:
    """0 in g(s) = s - target + factor z(s); counts the scalar iterations
    spent on it."""

    def __init__(self, pot: ScalarPotential, target: float, factor: float, warm: float):
        self.pot = pot
        self.target = target
        self.factor = factor
        self.warm = warm
        self.iterations = 0

    def g(self, s: float) -> float:
        return s - self.target + self.factor * self.pot.branch_value(s)

    def dg(self, s: float) -> float:
        return 1.0 + self.factor * self.pot.branch_slope(s)

    def refine(self, neg: float, pos: float) -> list[float]:
        """The root between ``neg`` (g < 0) and ``pos`` (g > 0), either of
        which may be infinite: Newton from the warm start when it lies
        between them (else from the finite end where g > 0), with bisection
        or doubling towards an infinite end whenever a step leaves the
        bracket.  Empty if the iteration cap is reached."""
        x = self.warm if min(neg, pos) < self.warm < max(neg, pos) else pos
        x = x if math.isfinite(x) else neg
        width = 1.0
        for _ in range(_MAX_SCALAR_ITER):
            gx = self.g(x)
            # zero up to the rounding of its own terms
            if abs(gx) <= 4.0 * _EPS * (abs(x) + abs(self.target) + abs(gx - x + self.target)):
                return [x]
            if gx < 0.0:
                neg = x
            else:
                pos = x
            lo, hi = min(neg, pos), max(neg, pos)
            self.iterations += 1
            dgx = self.dg(x)
            x_new = x - gx / dgx if dgx != 0.0 else math.nan
            if abs(x_new - x) <= 4.0 * _EPS * max(1.0, abs(x)):
                return [x_new]
            if not lo < x_new < hi:  # also catches a NaN step
                if math.isinf(lo) or math.isinf(hi):
                    width = max(2.0 * width, abs(x))
                    x_new = x + (width if math.isinf(hi) else -width)
                else:
                    x_new = 0.5 * (lo + hi)
            x = x_new
        return []

    def minimiser(self, a: float, b: float) -> float:
        """Where g' changes sign on (a, b), given g'(a) < 0; b may be +inf."""
        width = max(1.0, abs(a))
        while math.isinf(b) and math.isfinite(a):
            self.iterations += 1
            if self.dg(a + width) >= 0.0:
                b = a + width
            else:
                a, width = a + width, 2.0 * width
        while b - a > 4.0 * _EPS * max(1.0, abs(a), abs(b)):
            self.iterations += 1
            mid = 0.5 * (a + b)
            if self.dg(mid) < 0.0:
                a = mid
            else:
                b = mid
        return b

    def piece_roots(self, a: float, b: float, ga: float, gb: float) -> list[float]:
        """Roots on the open piece (a, b) between consecutive kinks, where g
        is convex; ga, gb are its one-sided limits at the ends (-inf / +inf
        at infinite ends)."""
        # just inside the finite ends, where z takes its one-sided limits
        a_in = math.nextafter(a, math.inf) if math.isfinite(a) else a
        b_in = math.nextafter(b, -math.inf) if math.isfinite(b) else b
        if math.isinf(a) or self.dg(a_in) >= 0.0:
            # convex with g' >= 0 at the left end (or g -> -inf there): nondecreasing
            return self.refine(a_in, b_in) if ga < 0.0 < gb else []
        m = self.minimiser(a_in, b_in)
        gm = self.g(m)
        if gm >= 0.0:
            return [m] if gm == 0.0 else []
        return (self.refine(m, a_in) if ga > 0.0 else []) + (
            self.refine(m, b_in) if gb > 0.0 else []
        )

    def roots(self) -> list[float]:
        """Every root: the kinks whose interval contains zero, the points
        beside them where g vanishes and the roots of each piece between."""
        # one-sided limits just outside each kink and the interval at it
        pts, lo, hi = self.pot.kink_table
        target, factor = self.target, self.factor
        g_lo = [x - target + factor * z for x, z in zip(pts, lo)]
        g_hi = [x - target + factor * z for x, z in zip(pts, hi)]
        m = len(pts) // 3
        # beside a kink z is single-valued: a root there has g exactly 0
        out = [x for x, gl, gh in zip(pts, g_lo, g_hi) if gl <= 0.0 <= gh]
        ends = [-math.inf, *pts[m:2 * m], math.inf]
        g_left = [-math.inf, *g_lo[2 * m:]]  # g just right of each piece's left end
        g_right = [*g_lo[:m], math.inf]  # g just left of each piece's right end
        for j in range(m + 1):
            out += self.piece_roots(ends[j], ends[j + 1], g_left[j], g_right[j])
        return out


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
    if warm.shape != (p.dim,):
        raise ValueError(f"warm start has shape {warm.shape}, expected ({p.dim},)")
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (p.dim,):
        raise ValueError(f"right-hand side has shape {rhs.shape}, expected ({p.dim},)")
    if not np.isfinite(warm).all():
        raise NumericalFailureError(_NON_FINITE_DATA)
    x = p.system._solve(rhs)  # non-finite when rhs is
    if not np.isfinite(x).all():
        bad_rhs = not np.isfinite(rhs).all()
        raise NumericalFailureError(_NON_FINITE_DATA if bad_rhs else "non-finite interior solve")
    s_warm = p.boundary_value(warm)
    factor = p.lift * p.gamma
    inclusion = _BoundaryInclusion(p.potential, p.boundary_value(x), factor, s_warm)
    roots = inclusion.roots()
    report = SolveReport(iterations=inclusion.iterations)
    if not roots:
        raise NonConvergenceError("no root of the boundary inclusion found", report)
    s = min(roots, key=lambda r: (abs(r - s_warm), r))
    xi = (inclusion.target - s) / factor
    u = x - (p.lift * xi) * p.y
    flux = [p.lift * xi * t for t in p.trace_at_nodes]
    report.residual = _finite_dual_norm(p.space, _residual(p.system, u, rhs, p.nodes, flux))
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
    if rhs.shape != (p.dim,) or u.shape != (p.dim,) or xi.shape != (1,):
        raise ValueError("rhs, u or xi has inconsistent dimensions")
    flux = [p.lift * float(xi[0]) * t for t in p.trace_at_nodes]
    resid = p.space.dual_norm(_residual(p.system, u, rhs, p.nodes, flux))
    s = p.boundary_value(u)
    lo, hi = p.potential.membership_interval(s, 1e-12 * (1.0 + abs(s)))
    gap = max(lo - float(xi[0]), float(xi[0]) - hi, 0.0)
    return VerifyResult(resid, gap <= tol, gap)
