"""Per-step solver for the finite-dimensional inclusion

    M u + c tau K u + c tau trace^T W xi = b,   xi in z(trace u),

where z is the generalized-derivative interval of a scalar potential.

The step is linear in u and set-valued only at the boundary.  With a single
boundary row t, S = M + c tau K, y = S^{-1} t^T and gamma = t y, every
solution is u = x - c tau w xi y with x = S^{-1} b, and its boundary value
s = t u solves the scalar inclusion

    0 in g(s) = s - t x + F z(s),    F = c tau w gamma > 0.

S depends on the stencil and tau only, so a ``StepFactorization`` of it
(its band factor, L D L^T for the tridiagonal P1 matrices, with y and
gamma) can be built once and shared by every step of a run; each step is
then one band back-solve plus this scalar problem, O(n).

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
supported; other spaces raise ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .galerkin import GalerkinSpace, SymBand, as_band
from .potentials import ScalarPotential

__all__ = [
    "StepProblem",
    "StepFactorization",
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


class NonConvergenceError(RuntimeError):
    """The step inclusion could not be solved to tolerance; carries the report."""

    def __init__(self, message: str, report: "SolveReport"):
        super().__init__(message)
        self.report = report


class NumericalFailureError(RuntimeError):
    """NaN or Inf in the data or the solution of a step."""


@dataclass(frozen=True)
class StepProblem:
    """One implicit step in assembled form.

    ``stiff_scaled`` already contains the factor c_coef * tau; the flux
    term carries the same factor.  ``mass`` and ``stiff_scaled`` are
    SymBand or dense symmetric arrays, converted to bands.  The Galerkin
    space provides the metric for the dual-norm residual.
    """

    space: GalerkinSpace
    mass: SymBand
    stiff_scaled: SymBand
    trace: np.ndarray
    weights: np.ndarray
    potential: ScalarPotential
    rhs: np.ndarray
    c_coef: float
    tau: float

    def __post_init__(self) -> None:
        if not (abs(self.c_coef - 1.0) < 1e-12 or abs(self.c_coef - 2.0 / 3.0) < 1e-12):
            raise ValueError("c_coef must be 1 (first step) or 2/3 (two-step stencil)")
        if not self.tau > 0:
            raise ValueError("tau must be > 0")
        object.__setattr__(self, "mass", as_band(self.mass, "mass"))
        object.__setattr__(self, "stiff_scaled", as_band(self.stiff_scaled, "stiff_scaled"))

    @property
    def dim(self) -> int:
        return self.mass.n

    @property
    def dim_u(self) -> int:
        return self.trace.shape[0]

    @property
    def system(self) -> SymBand:
        return self.mass + self.stiff_scaled

    @property
    def flux_coef(self) -> float:
        return self.c_coef * self.tau

    @property
    def flux_matrix(self) -> np.ndarray:
        """dim x dim_u matrix mapping nodal multipliers to their load."""
        return self.flux_coef * (self.trace.T * self.weights)


class StepFactorization:
    """Band factor of S = mass + stiff_scaled together with y = S^{-1} t^T
    and gamma = t y for the boundary row t, and the nodes where t is
    nonzero with its entries there.

    S is the same at every step of one stencil and step size, so one
    factorization, which also keeps the band stiff_scaled, serves all of them."""

    def __init__(self, mass: SymBand, stiff_scaled: SymBand, trace_row: np.ndarray):
        self.stiff_scaled = stiff_scaled
        self.system = mass + stiff_scaled
        self.y = self.system.solve(trace_row)  # factors S; LinAlgError unless positive definite
        self.gamma = float(trace_row @ self.y)
        self.nodes = np.flatnonzero(trace_row)
        self.trace_at_nodes = trace_row[self.nodes]


@dataclass
class SolveReport:
    iterations: int = 0  # scalar iterations of the boundary solve
    residual: float = math.nan  # V*-norm of the accepted step residual


class VerifyResult(NamedTuple):
    residual: float
    membership_ok: bool
    membership_gap: float


def _residual(
    system: SymBand, u: np.ndarray, rhs: np.ndarray, nodes: np.ndarray, flux: np.ndarray
) -> np.ndarray:
    """S u + c tau trace^T W xi - b: one band product with S, then the flux
    term, whose only nonzero entries ``flux`` sit at ``nodes``."""
    r = system @ u
    r -= rhs
    r[nodes] += flux
    return r


def _finite_dual_norm(space: GalerkinSpace, r: np.ndarray) -> float:
    """V*-norm of a residual; NumericalFailureError when it is not finite."""
    norm = space.dual_norm(r) if np.isfinite(r).all() else math.nan
    if not math.isfinite(norm):
        raise NumericalFailureError("non-finite step residual")
    return norm


def _membership_bounds(p: StepProblem, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodewise admissible intervals with a roundoff-sized closure in s."""
    lo = np.empty(s.shape)
    hi = np.empty(s.shape)
    for i, si in enumerate(s):
        atol = 1e-12 * (1.0 + abs(float(si)))
        lo[i], hi[i] = p.potential.membership_interval(float(si), atol)
    return lo, hi


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
    p: StepProblem,
    warm_start: np.ndarray,
    tol: float = 1e-10,
    factorization: Optional[StepFactorization] = None,
) -> tuple[np.ndarray, np.ndarray, SolveReport]:
    """Solve the step inclusion exactly on the boundary and certify the
    V*-norm residual against ``tol``.

    ``factorization`` is a StepFactorization of p.mass + p.stiff_scaled
    to reuse; without one it is computed here.  Raises NonConvergenceError
    with its report when no root is found or the residual exceeds tol, and
    NumericalFailureError on non-finite data or solutions."""
    if not tol > 0:
        raise ValueError("tol must be > 0")
    if p.dim_u != 1:
        raise ValueError(
            f"the step solver supports a single boundary row (dim_u = 1), got dim_u = {p.dim_u}"
        )
    warm = np.asarray(warm_start, dtype=float)
    if warm.shape != (p.dim,):
        raise ValueError(f"warm start has shape {warm.shape}, expected ({p.dim},)")
    if not (np.isfinite(p.rhs).all() and np.isfinite(warm).all()):
        raise NumericalFailureError("non-finite right-hand side or warm start")
    t_row = p.trace[0]
    fac = factorization or StepFactorization(p.mass, p.stiff_scaled, t_row)
    lift = p.flux_coef * float(p.weights[0])
    factor = lift * fac.gamma
    if not factor > 0:
        raise ValueError("the boundary weight and trace row must give c tau w gamma > 0")
    x = fac.system.solve(p.rhs)
    if not np.isfinite(x).all():
        raise NumericalFailureError("non-finite interior solve")
    s_warm = float(t_row @ warm)
    inclusion = _BoundaryInclusion(p.potential, float(t_row @ x), factor, s_warm)
    roots = inclusion.roots()
    report = SolveReport(iterations=inclusion.iterations)
    if not roots:
        raise NonConvergenceError("no root of the boundary inclusion found", report)
    s = min(roots, key=lambda r: (abs(r - s_warm), r))
    xi = (inclusion.target - s) / factor
    u = x - (lift * xi) * fac.y
    r = _residual(fac.system, u, p.rhs, fac.nodes, (lift * xi) * fac.trace_at_nodes)
    report.residual = _finite_dual_norm(p.space, r)
    if not report.residual <= tol:
        raise NonConvergenceError(
            f"step residual {report.residual:.3e} above tol {tol:g}", report
        )
    return u, np.array([xi]), report


def verify_inclusion(p: StepProblem, u: np.ndarray, xi: np.ndarray, tol: float) -> VerifyResult:
    """Residual of the assembled step equation for a given pair, plus the
    worst distance of xi to its admissible interval."""
    u = np.asarray(u, dtype=float)
    xi = np.asarray(xi, dtype=float)
    if u.shape != (p.dim,) or xi.shape != (p.dim_u,):
        raise ValueError("u or xi has inconsistent dimensions")
    nodes = np.flatnonzero(p.trace.any(axis=0))
    resid = p.space.dual_norm(_residual(p.system, u, p.rhs, nodes, p.flux_matrix[nodes] @ xi))
    lo, hi = _membership_bounds(p, p.trace @ u)
    gap = float(np.max(np.maximum(lo - xi, xi - hi), initial=0.0))
    gap = max(gap, 0.0)
    return VerifyResult(resid, gap <= tol, gap)
