from __future__ import annotations

import math

import numpy as np
import pytest

from rothe_hvi import (
    BoundaryFunctional,
    LinearRobin,
    NonconvexPiecewise,
    PaperExponential,
    ScalarPotential,
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
    PaperExponential(2.0, literal_branch=True),
    PaperExponential(0.5, literal_branch=True),
]


def potential_id(pot):
    return type(pot).__name__


def joins_of(pot):
    """Where a branch formula changes: the kinks, and the end of the
    descending segment of the nonconvex law."""
    return [*pot.kinks, *([pot.drop_width] if hasattr(pot, "drop_width") else [])]


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
    assert default.clarke_interval(s) == pytest.approx((2.0 * (math.exp(-s) + s),) * 2)
    assert literal.clarke_interval(s) == pytest.approx((2.0 * math.exp(-s) + s,) * 2)
    same = PaperExponential(1.0, literal_branch=True)
    assert same.clarke_interval(s) == pytest.approx(PaperExponential(1.0).clarke_interval(s))


def test_derivative_consistent_with_branch_of_value():
    # the smooth branch slope is the derivative of the value branch
    pot = PaperExponential(2.0)
    for s in (0.5, 1.0, 4.0):
        fd = (pot.value(s + 1e-6) - pot.value(s - 1e-6)) / 2e-6
        lo, hi = pot.clarke_interval(s)
        assert lo == hi == pytest.approx(fd, rel=1e-8)


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


@pytest.mark.parametrize("pot", ALL_POTENTIALS, ids=potential_id)
def test_branch_value_is_the_lower_end_of_the_interval(pot):
    rng = np.random.default_rng(17)
    points = (rng.normal(size=200) * 10.0 ** rng.uniform(-3.0, 2.0, 200)).tolist()
    for k in joins_of(pot):
        points += [math.nextafter(k, -math.inf), k, math.nextafter(k, math.inf)]
    for s in points:
        got = pot.branch_value(s)
        want = float(pot.interval_arrays(np.array([s]))[0][0])
        assert type(got) is float
        assert abs(got - want) <= 1e-15 * abs(want), (s, got, want)


@pytest.mark.parametrize("pot", ALL_POTENTIALS, ids=potential_id)
def test_branch_slope_is_the_slope_of_branch_value(pot):
    rng = np.random.default_rng(23)
    h = 1e-6
    points = []
    while len(points) < 200:
        s = float(rng.uniform(-8.0, 8.0))
        if all(abs(s - k) >= 1e-3 for k in joins_of(pot)):
            points.append(s)
    for s in points:
        fd = (pot.branch_value(s + h) - pot.branch_value(s - h)) / (2.0 * h)
        slope = pot.branch_slope(s)
        assert type(slope) is float
        assert abs(fd - slope) <= 1e-6 * (1.0 + abs(slope)), (s, fd, slope)
    # at a kink: the right-hand slope, taken from the right limit of z
    for k in pot.kinks:
        fd = (pot.branch_value(k + h) - pot.branch_value(math.nextafter(k, math.inf))) / h
        slope = pot.branch_slope(k)
        assert abs(fd - slope) <= 1e-5 * (1.0 + abs(slope)), (k, fd, slope)


@pytest.mark.parametrize(
    "pot, interval",
    [
        (PaperExponential(2.5), (0.0, 2.5)),
        (PaperExponential(2.0, literal_branch=True), (0.0, 2.0)),
        (PaperExponential(0.5, literal_branch=True), (0.0, 0.5)),
        (NonconvexPiecewise(), (0.0, 1.0)),
        (NonconvexPiecewise(jump=3.0, drop_slope=2.0, drop_width=0.5), (0.0, 3.0)),
    ],
    ids=lambda v: type(v).__name__ if isinstance(v, ScalarPotential) else str(v[1]),
)
def test_clarke_interval_at_the_kink_is_the_closed_form(pot, interval):
    # the hull of the one-sided limits: (0, d) for the exponential law,
    # (0, jump) for the nonconvex one; -0.0 is the same point
    assert pot.clarke_interval(0.0) == interval
    assert pot.clarke_interval(-0.0) == interval
    assert pot.kink_table[1][1:2] + pot.kink_table[2][1:2] == interval


@pytest.mark.parametrize("pot", ALL_POTENTIALS, ids=potential_id)
@pytest.mark.parametrize(
    "s",
    [
        np.array(0.0),
        np.array([-1.0, -0.0, 0.0, 0.5, 1.0, 3.0, math.inf, -math.inf, math.nan]),
        np.array([[0.0, 2.0, -4.0], [1.0, 1e-300, -7.5]]),
        np.array([]),
        np.zeros((0, 3)),
    ],
    ids=["0-d", "1-d", "2-d", "empty", "empty-2-d"],
)
def test_interval_arrays_is_clarke_interval_elementwise(pot, s):
    lo, hi = pot.interval_arrays(s)
    assert lo.shape == hi.shape == s.shape
    want = [pot.clarke_interval(x) for x in s.ravel().tolist()]
    # NaN where z is: at NaN, and at inf for a zero Robin coefficient (0 * inf)
    np.testing.assert_array_equal(lo.ravel(), [w[0] for w in want])
    np.testing.assert_array_equal(hi.ravel(), [w[1] for w in want])


def test_interval_at_nan_is_nan_except_for_the_zero_law():
    for pot in ALL_POTENTIALS:
        lo, hi = pot.clarke_interval(math.nan)
        if isinstance(pot, ZeroPotential):
            assert (lo, hi) == (0.0, 0.0)
        else:
            assert math.isnan(lo) and math.isnan(hi), type(pot).__name__


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
