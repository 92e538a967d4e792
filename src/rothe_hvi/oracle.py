"""Independent brute-force references for the step solver and the scheme.

Nothing here shares code with the production step solver: roots come
from interval-aware grid scans with bisection, convex solutions from
coordinate-wise golden-section descent on the step energy, and trajectory
references from a much finer run of the scheme itself.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import scipy.linalg as sla

from .inclusion_solver import StepProblem
from .stepper import BDF2, RotheProblem, RotheTrajectory, TimeGrid, run_rothe

__all__ = [
    "scan_roots_1d",
    "scan_roots_reduced",
    "step_energy",
    "minimize_energy_convex",
    "reference_solution",
]

_XTOL = 1e-10


def step_energy(p: StepProblem, u) -> float:
    """E(u) = 0.5 u^T (M + c tau K) u + c tau sum_i w_i j((trace u)_i) - b^T u.
    Stationary points of E are exactly the inclusion's solutions."""
    u = np.asarray(u, dtype=float)
    s = p.trace @ u
    jsum = float(p.weights @ np.atleast_1d(p.potential.value(s)))
    return 0.5 * float(u @ p.system @ u) + p.flux_coef * jsum - float(p.rhs @ u)


def _scan_scalar_inclusion(
    interval_fun: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
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
    xs = np.linspace(lo, hi, grid_n + 1)
    f_lo, f_hi = interval_fun(xs)
    roots: list[float] = []

    def contains_zero(a: float, b: float) -> bool:
        return a <= 0.0 <= b

    # exact jump locations first: the interval there may contain 0 even when
    # no grid point hits it
    for k in kink_points:
        if lo <= k <= hi:
            a, b = interval_fun(np.asarray([k]))
            if contains_zero(float(a[0]), float(b[0])):
                roots.append(float(k))
    for j, x in enumerate(xs):
        if contains_zero(f_lo[j], f_hi[j]):
            roots.append(float(x))
    for j in range(grid_n):
        sa = 1.0 if f_lo[j] > 0.0 else (-1.0 if f_hi[j] < 0.0 else 0.0)
        sb = 1.0 if f_lo[j + 1] > 0.0 else (-1.0 if f_hi[j + 1] < 0.0 else 0.0)
        if sa == 0.0 or sb == 0.0 or sa == sb:
            continue
        a, b = float(xs[j]), float(xs[j + 1])
        while b - a > _XTOL:
            m = 0.5 * (a + b)
            m_lo, m_hi = interval_fun(np.asarray([m]))
            if contains_zero(float(m_lo[0]), float(m_hi[0])):
                roots.append(m)
                break
            sm = 1.0 if m_lo[0] > 0.0 else -1.0
            if sm == sa:
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


def scan_roots_1d(p: StepProblem, lo: float, hi: float, grid_n: int = 2000) -> list[float]:
    """All solutions of a one-dimensional step inclusion on [lo, hi].

    The scalar residual (m + c tau k) u + c tau g w z(g u) - b becomes an
    interval at jump points of z; a root exists there exactly when the
    interval contains zero.  Returns an empty list when nothing is found
    (the caller widens the range)."""
    if p.dim != 1:
        raise ValueError("scan_roots_1d needs a one-dimensional problem")
    m_lin = float(p.system[0, 0])
    g = float(p.trace[0, 0])
    w = float(p.weights[0])
    b = float(p.rhs[0])
    factor = p.flux_coef * g * w

    def interval_fun(us: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        z_lo, z_hi = p.potential.interval_arrays(g * us)
        lin = m_lin * us - b
        t1, t2 = factor * z_lo, factor * z_hi
        return lin + np.minimum(t1, t2), lin + np.maximum(t1, t2)

    kinks = tuple(k / g for k in p.potential.kinks) if g != 0.0 else ()
    return _scan_scalar_inclusion(interval_fun, kinks, lo, hi, grid_n)


def scan_roots_reduced(
    p: StepProblem,
    s_lo: float,
    s_hi: float,
    grid_n: int = 2000,
) -> list[np.ndarray]:
    """Roots of a step inclusion with a single boundary row, any dimension.

    Eliminating u through the linear system reduces the inclusion to a
    scalar one in the boundary value s = trace u:

        s + c tau w (trace S^{-1} trace^T) z(s)  =  trace S^{-1} b,

    which is scanned exactly like the 1-d case; every scalar root is mapped
    back to the full coefficient vector."""
    if p.dim_u != 1:
        raise ValueError("reduction needs exactly one boundary row")
    S = p.system
    cho = sla.cho_factor(S)
    t_row = p.trace[0]
    w = float(p.weights[0])
    s_inv_t = sla.cho_solve(cho, t_row)
    gamma = float(t_row @ s_inv_t)
    s_inv_b = sla.cho_solve(cho, p.rhs)
    s_b = float(t_row @ s_inv_b)
    factor = p.flux_coef * w * gamma

    def interval_fun(ss: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        z_lo, z_hi = p.potential.interval_arrays(ss)
        lin = ss - s_b
        t1, t2 = factor * z_lo, factor * z_hi
        return lin + np.minimum(t1, t2), lin + np.maximum(t1, t2)

    s_roots = _scan_scalar_inclusion(interval_fun, p.potential.kinks, s_lo, s_hi, grid_n)
    out = []
    for s in s_roots:
        z = 0.0 if factor == 0.0 else (s_b - s) / factor
        out.append(s_inv_b - sla.cho_solve(cho, t_row) * (p.flux_coef * w * z))
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


def minimize_energy_convex(
    p: StepProblem,
    tol: float = 1e-9,
    max_sweeps: int = 400,
) -> np.ndarray:
    """Coordinate-wise golden-section descent on the step energy; valid
    only for monotone flux laws (convex energy), which is checked."""
    if not p.potential.is_monotone:
        raise ValueError("energy minimization requires a monotone flux law")
    u = np.zeros(p.dim)
    xtol = min(tol * 1e-2, 1e-11)
    for _ in range(max_sweeps):
        moved = 0.0
        for k in range(p.dim):
            def along(alpha: float, k=k) -> float:
                probe = u.copy()
                probe[k] += alpha
                return step_energy(p, probe)

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
) -> RotheTrajectory:
    """Fine-step two-step run with tightened tolerance, used as the
    reference when measuring temporal errors at shared grid points."""
    n = round(t_final / tau_fine)
    if abs(n * tau_fine - t_final) > 4.0 * np.finfo(float).eps * t_final:
        raise ValueError(f"tau_fine={tau_fine} does not divide T={t_final}")
    return run_rothe(problem, TimeGrid(t_final, n), BDF2, tol)
