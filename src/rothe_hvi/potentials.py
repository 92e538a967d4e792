"""Scalar locally Lipschitz boundary potentials and their generalized
derivatives.

A flux law states its potential j (``value``), the derivative z of j as a
plain float (``branch_value``, its lower end at a kink), the slope of z
(``branch_slope``) and the points where z jumps (``kinks``).  Everything
else derives from these: the Clarke interval at s is the single point z(s)
off the kinks and, at a kink, the hull of the values of z at its two
neighbouring floats, the one-sided limits there (Clarke, *Optimization and
Nonsmooth Analysis*, 1983, Thm 2.5.1).  ``interval_arrays`` applies that map
elementwise, and ``kink_table`` holds it at and beside the kinks, built once
for the step solver's scalar loops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
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
    """Base class; a subclass states ``value``, ``branch_value``,
    ``branch_slope`` and ``kinks``, and the interval maps derive from them.

    Contract relied on by the step solver: the derivative z is convex on
    each open interval between consecutive kinks (and on the unbounded
    intervals beyond the first and last kink), ``branch_value`` is z and
    ``branch_slope`` its slope there.  Then s + F z(s) is convex on every
    such piece for F > 0, so each piece holds at most two roots of the
    step's boundary inclusion.  At a kink ``branch_value`` is the lower end
    of the interval and ``branch_slope`` the right-hand slope.

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

    def branch_value(self, s: float) -> float:
        """The derivative z at s between jump points, the lower end of its
        interval at a jump point."""
        raise NotImplementedError

    def branch_slope(self, s: float) -> float:
        """Slope of the derivative between jump points (the right-hand
        slope at a jump point)."""
        raise NotImplementedError

    # --- derived conveniences -------------------------------------------

    @cached_property
    def kink_table(self) -> tuple[tuple[float, ...], tuple[float, ...], tuple[float, ...]]:
        """(s, lo, hi) at the points one float left of every kink, then at
        the kinks, then one float right of them, kinks ascending: the
        one-sided limits of the derivative beside each kink and its interval
        at it.  Built on first use."""
        ks = np.sort(np.asarray(self.kinks, dtype=float))
        pts = np.concatenate([np.nextafter(ks, -math.inf), ks, np.nextafter(ks, math.inf)])
        lo, hi = self.interval_arrays(pts)
        return tuple(pts.tolist()), tuple(lo.tolist()), tuple(hi.tolist())

    def clarke_interval(self, s: float) -> tuple[float, float]:
        """[lo, hi] of the derivative at s: (z, z) off the kinks, the hull of
        z at the two neighbouring floats at a kink."""
        s = float(s)
        if s in self.kinks:
            left = self.branch_value(math.nextafter(s, -math.inf))
            right = self.branch_value(math.nextafter(s, math.inf))
            return min(left, right), max(left, right)
        z = self.branch_value(s)
        return z, z

    def interval_arrays(self, s) -> tuple[np.ndarray, np.ndarray]:
        """``clarke_interval`` elementwise, as two arrays of the shape of s."""
        s = np.asarray(s, dtype=float)
        pairs = np.array([self.clarke_interval(x) for x in s.ravel().tolist()], dtype=float)
        pairs = pairs.reshape(s.shape + (2,))
        return pairs[..., 0], pairs[..., 1]

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


class PaperExponential(ScalarPotential):
    """Exponential-plus-quadratic potential, zero on the negative axis:

        j(s) = 0                          for s < 0,
        j(s) = -d e^{-s} + d s^2 / 2 + d  for s >= 0,

    whose derivative jumps from 0 to d at s = 0 (interval [0, d] there).
    The smooth branch slope is d (e^{-s} + s); with ``literal_branch`` the
    positive branch is d e^{-s} + s instead, the derivative of
    j(s) = -d e^{-s} + s^2 / 2 + d, which agrees only for d = 1 and is kept
    for side-by-side comparisons.
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

    def value(self, s):
        s = np.asarray(s, dtype=float)
        quad = 0.5 * s * s if self.literal_branch else 0.5 * self.d * s * s
        out = np.where(s < 0.0, 0.0, -self.d * np.exp(-s) + quad + self.d)
        return out if out.ndim else float(out)

    def branch_value(self, s: float) -> float:
        if s <= 0.0:
            return 0.0
        if self.literal_branch:
            return self.d * math.exp(-s) + s
        return self.d * (math.exp(-s) + s)

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

    def branch_value(self, s: float) -> float:
        return self.k * s

    def branch_slope(self, s: float) -> float:
        return self.k


class ZeroPotential(ScalarPotential):
    """j identically zero; the flux law contributes nothing."""

    def value(self, s):
        s = np.asarray(s, dtype=float)
        out = np.zeros_like(s)
        return out if out.ndim else 0.0

    def branch_value(self, s: float) -> float:
        return 0.0

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

    def branch_value(self, s: float) -> float:
        if s <= 0.0:
            return 0.0
        if s <= self.drop_width:
            return self.jump - self.drop_slope * s
        return self._v1 + self.tail_slope * (s - self.drop_width)

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
