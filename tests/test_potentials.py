from __future__ import annotations

import math

import numpy as np
import pytest

from rothe_hvi import (
    BoundaryFunctional,
    LinearRobin,
    NonconvexPiecewise,
    PaperExponential,
    ZeroPotential,
    check_growth,
)

ALL_POTENTIALS = [
    PaperExponential(1.0),
    PaperExponential(2.5),
    LinearRobin(1.0),
    LinearRobin(0.0),
    NonconvexPiecewise(),
    ZeroPotential(),
]


def test_value_negative_branch():
    assert PaperExponential(1.0).value(-3.0) == 0.0


def test_value_continuous_at_junction():
    pot = PaperExponential(1.0)
    assert pot.value(0.0) == pytest.approx(0.0, abs=1e-15)
    # right slope at the junction is d, so the value vanishes linearly
    assert pot.value(1e-9) == pytest.approx(0.0, abs=2e-9)


def test_value_positive_branch():
    assert PaperExponential(2.0).value(1.0) == pytest.approx(3.0 - 2.0 / math.e)


def test_interval_at_jump():
    assert PaperExponential(1.0).clarke_interval(0.0) == (0.0, 1.0)


def test_interval_upper_semicontinuous_at_jump():
    # the right limit of the smooth branch equals the interval's upper end
    for d in (1.0, 3.0):
        pot = PaperExponential(d)
        lo, hi = pot.clarke_interval(1e-13)
        assert lo == pytest.approx(d, rel=1e-10)
        assert pot.clarke_interval(0.0)[1] == d


def test_interval_smooth_case():
    assert LinearRobin(3.0).clarke_interval(2.0) == (6.0, 6.0)


def test_literal_branch_only_matches_for_unit_d():
    s = 1.5
    default = PaperExponential(2.0)
    literal = PaperExponential(2.0, literal_branch=True)
    assert default.selection(s) == pytest.approx(2.0 * (math.exp(-s) + s))
    assert literal.selection(s) == pytest.approx(2.0 * math.exp(-s) + s)
    same = PaperExponential(1.0, literal_branch=True)
    assert same.selection(s) == pytest.approx(PaperExponential(1.0).selection(s))


def test_derivative_consistent_with_branch_of_value():
    # the smooth branch slope is the derivative of the value branch
    pot = PaperExponential(2.0)
    for s in (0.5, 1.0, 4.0):
        fd = (pot.value(s + 1e-6) - pot.value(s - 1e-6)) / 2e-6
        assert pot.selection(s) == pytest.approx(fd, rel=1e-8)


def test_growth_bound_random_sweep():
    rng = np.random.default_rng(1234)
    s = rng.uniform(-50.0, 50.0, 10_000)
    for pot in ALL_POTENTIALS:
        rep = check_growth(pot, s)
        assert rep.passed, type(pot).__name__
        assert rep.n_samples == 10_000


def test_growth_paper_branch_inequality():
    # e^{-s} + s <= 1 + s on the positive axis, so d_j = d is admissible
    rep = check_growth(PaperExponential(1.0), np.linspace(0.0, 60.0, 5000))
    assert rep.passed
    assert rep.d_j == 1.0


def test_growth_zero_potential_full_slack():
    rep = check_growth(ZeroPotential(), [-3.0, 0.0, 7.0])
    assert rep.passed
    assert rep.worst_margin == pytest.approx(1.0)  # d_j * (1 + 0) at s = 0


def test_lifted_growth_constant_unit_boundary():
    rep = check_growth(PaperExponential(1.0), [0.0], weights=[1.0])
    assert rep.lifted_d == pytest.approx(math.sqrt(2.0))
    bf = BoundaryFunctional(PaperExponential(1.0), np.array([4.0]))
    assert bf.lifted_growth_constant == pytest.approx(math.sqrt(2.0) * 2.0)


def test_monotone_certificates():
    grid = np.linspace(-5.0, 5.0, 4001)
    pot = PaperExponential(1.0)
    lo, hi = pot.interval_arrays(grid)
    assert np.all(np.diff(lo) >= -1e-14)
    assert np.all(np.diff(hi) >= -1e-14)
    assert pot.is_monotone

    ncv = NonconvexPiecewise()
    lo_n, hi_n = ncv.interval_arrays(grid)
    assert np.any(np.diff(hi_n) < -1e-10)  # the descending segment
    assert not ncv.is_monotone


def test_value_derivative_midpoint_consistency():
    rng = np.random.default_rng(7)
    for pot in ALL_POTENTIALS:
        for s in rng.uniform(-8.0, 8.0, 50):
            if any(abs(s - k) < 1e-3 for k in pot.kinks):
                continue
            fd = (pot.value(s + 1e-5) - pot.value(s - 1e-5)) / 2e-5
            lo, hi = pot.clarke_interval(s)
            # piecewise quadratics have branch joins away from the kink set;
            # central differences straddling a join still agree to O(step)
            assert abs(0.5 * (lo + hi) - fd) < 1e-4


def test_boundary_functional_validation():
    bf = BoundaryFunctional(LinearRobin(2.0), [[3.0]])
    assert bf.dim_u == 1
    assert bf.weights.shape == (1,) and not bf.weights.flags.writeable
    with pytest.raises(ValueError):
        BoundaryFunctional(LinearRobin(1.0), np.array([0.0]))


def test_nonconvex_parameter_validation():
    with pytest.raises(ValueError):
        NonconvexPiecewise(jump=0.0)
    with pytest.raises(ValueError):
        PaperExponential(0.0)
    with pytest.raises(ValueError):
        LinearRobin(-1.0)
