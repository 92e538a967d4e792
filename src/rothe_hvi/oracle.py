"""Independent brute-force references for the step solver and the scheme.

Nothing here shares code with the production step solver: matrices are
taken dense (``toarray``) and factored densely, and every root of a step
inclusion comes from one scalar scan, an interval-aware grid scan with
bisection in the boundary value s = trace u after u has been eliminated.
Convex solutions come from coordinate-wise golden-section descent on the
step energy, and trajectory references from a much finer run of the scheme
itself, of which only the last state is kept.

The dense factor is ``scipy.linalg``'s Cholesky, which
``scan_roots_reduced`` imports on its first call: no command calls it, so
no command pays for importing that package.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .inclusion_solver import StepProblem
from .potentials import ScalarPotential
from .stepper import BDF2, RotheProblem, TimeGrid, final_state

__all__ = [
    "scan_roots_reduced",
    "step_energy",
    "minimize_energy_convex",
    "reference_solution",
]

_XTOL = 1e-10


def step_energy(p: StepProblem, rhs, u) -> float:
    """E(u) = 0.5 u^T (M + c tau K) u + c tau sum_i w_i j((trace u)_i) - b^T u
    of the step operator p with right-hand side b = ``rhs``, S taken dense.
    Stationary points of E are exactly the inclusion's solutions."""
    u = np.asarray(u, dtype=float)
    s = p.space.trace @ u
    jsum = float(p.weights @ np.atleast_1d(p.potential.value(s)))
    b = np.asarray(rhs, dtype=float)
    return 0.5 * float(u @ p.system.toarray() @ u) + p.flux_coef * jsum - float(b @ u)


def _scan_scalar_inclusion(
    interval_at: Callable[[float], tuple[float, float]],
    kink_points: tuple[float, ...],
    lo: float,
    hi: float,
    grid_n: int,
) -> list[float]:
    """All roots of an interval-valued scalar map on [lo, hi]: a point is a
    root when 0 lies in its value interval; cells whose endpoint intervals
    have strictly opposite signs are bisected."""
    if grid_n < 1000:
        raise ValueError("grid_n must be >= 1000")
    xs = np.linspace(lo, hi, grid_n + 1).tolist()

    def contains_zero(iv: tuple[float, float]) -> bool:
        return iv[0] <= 0.0 <= iv[1]

    def sign(iv: tuple[float, float]) -> float:
        return 1.0 if iv[0] > 0.0 else (-1.0 if iv[1] < 0.0 else 0.0)

    # exact jump locations first: the interval there may contain 0 even when
    # no grid point hits it
    roots = [k for k in kink_points if lo <= k <= hi and contains_zero(interval_at(k))]
    ivs = [interval_at(x) for x in xs]
    roots += [x for x, iv in zip(xs, ivs) if contains_zero(iv)]
    for j in range(grid_n):
        sa, sb = sign(ivs[j]), sign(ivs[j + 1])
        if sa == 0.0 or sb == 0.0 or sa == sb:
            continue
        a, b = xs[j], xs[j + 1]
        while b - a > _XTOL:
            m = 0.5 * (a + b)
            iv = interval_at(m)
            if contains_zero(iv):
                roots.append(m)
                break
            if (1.0 if iv[0] > 0.0 else -1.0) == sa:
                a = m
            else:
                b = m
        else:
            roots.append(0.5 * (a + b))
    roots.sort()
    merged: list[float] = []
    for r in roots:
        if not merged or r - merged[-1] > 1e-9:
            merged.append(r)
    return merged


def scan_roots_reduced(
    p: StepProblem,
    rhs,
    s_lo: float,
    s_hi: float,
    grid_n: int = 2000,
) -> list[np.ndarray]:
    """Roots of a step inclusion of any dimension, the step operator p (one
    boundary row) with right-hand side ``rhs``.

    Eliminating u through the linear system reduces the inclusion to a
    scalar one in the boundary value s = trace u:

        s + c tau w (trace S^{-1} trace^T) z(s)  =  trace S^{-1} b,

    whose roots are scanned on [s_lo, s_hi]; every scalar root is mapped
    back to the full coefficient vector.  S is taken dense and factored
    here.  Returns an empty list when nothing is found (the caller widens
    the range)."""
    import scipy.linalg as sla  # on first use: see the module docstring

    cho = sla.cho_factor(p.system.toarray())  # dense on purpose: no shared solver code
    t_row = p.space.trace[0]
    w = float(p.weights[0])
    s_inv_t = sla.cho_solve(cho, t_row)
    gamma = float(t_row @ s_inv_t)
    s_inv_b = sla.cho_solve(cho, np.asarray(rhs, dtype=float))
    s_b = float(t_row @ s_inv_b)
    factor = p.flux_coef * w * gamma  # >= 0, so the interval keeps its order

    def interval_at(s: float) -> tuple[float, float]:
        z_lo, z_hi = p.potential.clarke_interval(s)
        return s - s_b + factor * z_lo, s - s_b + factor * z_hi

    s_roots = _scan_scalar_inclusion(interval_at, p.potential.kinks, s_lo, s_hi, grid_n)
    out = []
    for s in s_roots:
        z = 0.0 if factor == 0.0 else (s_b - s) / factor
        out.append(s_inv_b - s_inv_t * (p.flux_coef * w * z))
    return out


def _golden_section(f: Callable[[float], float], a: float, b: float, xtol: float) -> float:
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > xtol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def _convex(pot: ScalarPotential) -> bool:
    """Whether j is convex, read from the potential's own data: z is convex
    on each piece between kinks, so it is nondecreasing everywhere when its
    slope is >= 0 at every piece's left end and its one-sided limits do not
    fall at any kink."""
    pts, lo, _ = pot.kink_table
    m = len(pts) // 3
    lefts = (-math.inf, *pts[2 * m:])  # one float right of each kink
    return all(pot.branch_slope(a) >= 0.0 for a in lefts) and all(
        a <= b for a, b in zip(lo[:m], lo[2 * m:])
    )


def minimize_energy_convex(
    p: StepProblem,
    rhs,
    tol: float = 1e-9,
    max_sweeps: int = 400,
) -> np.ndarray:
    """Coordinate-wise golden-section descent on the step energy of the step
    operator p with right-hand side ``rhs``; valid only for monotone flux
    laws (convex energy), which is checked (``_convex``)."""
    if not _convex(p.potential):
        raise ValueError("energy minimization requires a monotone flux law")
    u = np.zeros(p.dim)
    xtol = min(tol * 1e-2, 1e-11)
    for _ in range(max_sweeps):
        moved = 0.0
        for k in range(p.dim):
            def along(alpha: float, k=k) -> float:
                probe = u.copy()
                probe[k] += alpha
                return step_energy(p, rhs, probe)

            radius = 1.0 + abs(u[k])
            lo, hi = -radius, radius
            # expand the bracket until the minimum is interior
            for _ in range(60):
                if along(lo) > along(0.0) < along(hi):
                    break
                lo *= 2.0
                hi *= 2.0
            alpha = _golden_section(along, lo, hi, xtol)
            u[k] += alpha
            moved = max(moved, abs(alpha))
        if moved <= tol * 1e-1:
            break
    return u


def reference_solution(
    problem: RotheProblem,
    t_final: float,
    tau_fine: float,
    tol: float = 1e-12,
    scheme: str = BDF2,
) -> np.ndarray:
    """The state at t = t_final of a fine-step run of the scheme (the
    two-step one by default) with tightened tolerance, used as the
    reference when measuring temporal errors there; no other state is
    kept.  ValueError unless tau_fine divides t_final (``TimeGrid.of_step``)."""
    return final_state(problem, TimeGrid.of_step(t_final, tau_fine), scheme, tol)
