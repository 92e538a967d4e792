"""Scalar locally Lipschitz boundary potentials and their generalized
derivatives.

Each potential exposes its value j(s), the generalized-derivative interval
[lo, hi] (a single point wherever j is differentiable), a single-valued
selection and the slope of its derivative between jump points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "ScalarPotential",
    "PaperExponential",
    "LinearRobin",
    "NonconvexPiecewise",
    "ZeroPotential",
    "BoundaryFunctional",
    "GrowthReport",
    "check_growth",
]


class ScalarPotential:
    """Base class; subclasses fill in the branch formulas.

    Contract relied on by the step solver: the derivative z is convex on
    each open interval between consecutive kinks (and on the unbounded
    intervals beyond the first and last kink), and ``branch_slope`` is its
    slope there.  Then s + F z(s) is convex on every such piece for F > 0,
    so each piece holds at most two roots of the step's boundary inclusion.
    The interval at a kink is the hull of the one-sided limits there.

    Attributes
    ----------
    d_j : growth constant, |z| <= d_j (1 + |s|) for every z in the interval.
    kinks : jump points of the derivative (finite, stored explicitly).
    is_monotone : whether the interval map is nondecreasing (equivalently,
        whether j is convex); used as the convexity certificate by oracles.
    """

    d_j: float = 1.0
    kinks: tuple[float, ...] = ()
    is_monotone: bool = True

    def value(self, s):
        raise NotImplementedError

    def interval_arrays(self, s) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized [lo, hi] endpoints of the derivative interval."""
        raise NotImplementedError

    def branch_slope(self, s: float) -> float:
        """a.e. derivative of the selection away from jump points (the
        right-hand slope at a jump point)."""
        raise NotImplementedError

    # --- derived conveniences -------------------------------------------

    def clarke_interval(self, s: float) -> tuple[float, float]:
        lo, hi = self.interval_arrays(np.asarray([float(s)]))
        return float(lo[0]), float(hi[0])

    def membership_interval(self, s: float, s_atol: float = 0.0) -> tuple[float, float]:
        """Closed-graph interval: hull of the derivative intervals over
        [s - s_atol, s + s_atol].  The interval map jumps at kinks, so
        membership checks on floating-point boundary values must allow a
        roundoff-sized uncertainty in s."""
        if s_atol <= 0.0:
            return self.clarke_interval(s)
        cands = [s - s_atol, s, s + s_atol]
        cands += [k for k in self.kinks if abs(k - s) <= s_atol]
        los, his = zip(*(self.clarke_interval(c) for c in cands))
        return min(los), max(his)

    def selection(self, s: float) -> float:
        """Single-valued selection: the unique element off the kink set,
        the interval midpoint at a kink."""
        lo, hi = self.clarke_interval(s)
        return 0.5 * (lo + hi)


class PaperExponential(ScalarPotential):
    """Exponential-plus-quadratic potential, zero on the negative axis:

        j(s) = 0                          for s < 0,
        j(s) = -d e^{-s} + d s^2 / 2 + d  for s >= 0,

    whose derivative jumps from 0 to d at s = 0 (interval [0, d] there).
    The smooth branch slope is d (e^{-s} + s); with ``literal_branch`` the
    positive branch is d e^{-s} + s instead, which agrees only for d = 1
    and is kept for side-by-side comparisons.
    """

    def __init__(self, d: float = 1.0, literal_branch: bool = False):
        if not d > 0:
            raise ValueError("d must be > 0")
        self.d = float(d)
        self.literal_branch = bool(literal_branch)
        self.kinks = (0.0,)
        self.d_j = max(self.d, 1.0) if literal_branch else self.d
        # the literal positive branch dips below its value at 0 when d > 1
        self.is_monotone = (not literal_branch) or self.d <= 1.0

    def _g(self, s):
        if self.literal_branch:
            return self.d * np.exp(-s) + s
        return self.d * (np.exp(-s) + s)

    def value(self, s):
        s = np.asarray(s, dtype=float)
        pos = -self.d * np.exp(-s) + 0.5 * self.d * s * s + self.d
        out = np.where(s < 0.0, 0.0, pos)
        return out if out.ndim else float(out)

    def interval_arrays(self, s):
        s = np.asarray(s, dtype=float)
        g = self._g(np.maximum(s, 0.0))
        lo = np.where(s < 0.0, 0.0, np.where(s == 0.0, 0.0, g))
        hi = np.where(s < 0.0, 0.0, np.where(s == 0.0, self.d, g))
        return lo, hi

    def branch_slope(self, s: float) -> float:
        if s < 0.0:
            return 0.0
        if self.literal_branch:
            return 1.0 - self.d * math.exp(-s)
        return self.d * (1.0 - math.exp(-s))


class LinearRobin(ScalarPotential):
    """Smooth quadratic potential j(s) = k s^2 / 2 (linear flux law)."""

    def __init__(self, k: float = 1.0):
        if k < 0:
            raise ValueError("k must be >= 0")
        self.k = float(k)
        self.d_j = self.k if self.k > 0 else 1.0

    def value(self, s):
        s = np.asarray(s, dtype=float)
        out = 0.5 * self.k * s * s
        return out if out.ndim else float(out)

    def interval_arrays(self, s):
        s = np.asarray(s, dtype=float)
        g = self.k * s
        return g, g.copy()

    def branch_slope(self, s: float) -> float:
        return self.k


class ZeroPotential(ScalarPotential):
    """j identically zero; the flux law contributes nothing."""

    def value(self, s):
        s = np.asarray(s, dtype=float)
        out = np.zeros_like(s)
        return out if out.ndim else 0.0

    def interval_arrays(self, s):
        s = np.asarray(s, dtype=float)
        z = np.zeros_like(s)
        return z, z.copy()

    def branch_slope(self, s: float) -> float:
        return 0.0


class NonconvexPiecewise(ScalarPotential):
    """C0 piecewise-quadratic potential with a descending derivative segment.

    The derivative is 0 for s <= 0, jumps up to ``jump`` at 0, decreases
    with rate ``drop_slope`` over a window of length ``drop_width`` and then
    rises again with ``tail_slope``:

        z(s) = 0                                   s < 0
        z(0) in [0, jump]
        z(s) = jump - drop_slope * s               0 < s <= drop_width
        z(s) = z(drop_width) + tail_slope*(s-w)    s > drop_width

    With a steep enough drop the per-step inclusion acquires multiple roots,
    which is exactly what this fixture is for.
    """

    is_monotone = False

    def __init__(
        self,
        jump: float = 1.0,
        drop_slope: float = 4.0,
        drop_width: float = 1.0,
        tail_slope: float = 1.0,
    ):
        if not (jump > 0 and drop_slope > 0 and drop_width > 0 and tail_slope >= 0):
            raise ValueError("need jump, drop_slope, drop_width > 0 and tail_slope >= 0")
        self.jump = float(jump)
        self.drop_slope = float(drop_slope)
        self.drop_width = float(drop_width)
        self.tail_slope = float(tail_slope)
        self.kinks = (0.0,)
        self._v1 = self.jump - self.drop_slope * self.drop_width
        self.d_j = max(self.jump, abs(self._v1), self.tail_slope)

    def _j_at_width(self) -> float:
        w = self.drop_width
        return self.jump * w - 0.5 * self.drop_slope * w * w

    def value(self, s):
        s = np.asarray(s, dtype=float)
        w = self.drop_width
        mid = self.jump * s - 0.5 * self.drop_slope * s * s
        tail = self._j_at_width() + self._v1 * (s - w) + 0.5 * self.tail_slope * (s - w) ** 2
        out = np.where(s <= 0.0, 0.0, np.where(s <= w, mid, tail))
        return out if out.ndim else float(out)

    def interval_arrays(self, s):
        s = np.asarray(s, dtype=float)
        w = self.drop_width
        mid = self.jump - self.drop_slope * s
        tail = self._v1 + self.tail_slope * (s - w)
        g = np.where(s <= w, mid, tail)
        lo = np.where(s < 0.0, 0.0, np.where(s == 0.0, 0.0, g))
        hi = np.where(s < 0.0, 0.0, np.where(s == 0.0, self.jump, g))
        return lo, hi

    def branch_slope(self, s: float) -> float:
        if s < 0.0:
            return 0.0
        if s <= self.drop_width:
            return -self.drop_slope
        return self.tail_slope


@dataclass(frozen=True)
class BoundaryFunctional:
    """Weighted nodal realization of the boundary functional
    J(u) = sum_i weights_i * j(u_i)."""

    potential: ScalarPotential
    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float).reshape(-1)
        if w.size == 0 or not np.all(w > 0):
            raise ValueError("weights must be positive")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def dim_u(self) -> int:
        return self.weights.shape[0]

    @property
    def lifted_growth_constant(self) -> float:
        """Growth constant of the lifted functional on the boundary space:
        sqrt(2) * d_j * max(1, sqrt(total boundary weight))."""
        return math.sqrt(2.0) * self.potential.d_j * max(1.0, math.sqrt(float(self.weights.sum())))


@dataclass(frozen=True)
class GrowthReport:
    n_samples: int
    worst_margin: float
    violations: int
    d_j: float
    lifted_d: float

    @property
    def passed(self) -> bool:
        return self.violations == 0


def check_growth(
    pot: ScalarPotential,
    sample_points: Sequence[float],
    weights: Sequence[float] = (1.0,),
) -> GrowthReport:
    """Check |z| <= d_j (1 + |s|) for both interval endpoints at every
    sample, and report the growth constant lifted to the weighted boundary
    functional."""
    s = np.asarray(list(sample_points), dtype=float)
    if s.size == 0:
        raise ValueError("sample list must be non-empty")
    lo, hi = pot.interval_arrays(s)
    bound = pot.d_j * (1.0 + np.abs(s))
    margin = bound - np.maximum(np.abs(lo), np.abs(hi))
    violations = int(np.sum(margin < -1e-12 * (1.0 + np.abs(s))))
    lifted = BoundaryFunctional(pot, np.asarray(weights, dtype=float)).lifted_growth_constant
    return GrowthReport(int(s.size), float(margin.min()), violations, pot.d_j, lifted)
