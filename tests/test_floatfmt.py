from __future__ import annotations

import importlib.util
import math
import re
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rothe_hvi import floatfmt
from rothe_hvi.cli import main


def percent_17g(table: np.ndarray) -> bytes:
    text = "".join(",".join("%.17g" % x for x in row) + "\n" for row in table.tolist())
    return text.encode("ascii")


def _from_bits(bits: int) -> float:
    return float(np.array(bits, dtype=np.uint64).view(np.float64))


@st.composite
def float_tables(draw):
    n_rows, n_cols = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    cell = st.one_of(st.floats(), st.integers(0, 2**64 - 1).map(_from_bits))
    cells = draw(st.lists(cell, min_size=n_rows * n_cols, max_size=n_rows * n_cols))
    return np.array(cells, dtype=np.float64).reshape(n_rows, n_cols)


@given(float_tables(), st.sampled_from([1, 5, 64, floatfmt.BLOCK_CELLS]))
def test_lines_are_percent_17g_for_any_bits_and_shape(table, block):
    with mock.patch.object(floatfmt, "_VECTOR_MIN_CELLS", 0), mock.patch.object(
        floatfmt, "BLOCK_CELLS", block
    ):
        pieces = list(floatfmt.g17_lines(table))
    assert all(type(piece) is bytes for piece in pieces)
    assert b"".join(pieces) == percent_17g(table)
    assert len(pieces) == -(-table.size // block)


DBL_MAX = float(np.finfo(np.float64).max)
_DIGITS = "12345678901234567"
# the cells where a layout of the record could go wrong, each with its sign
# flipped too: the extremes of the float range, both sides of %g's switches
# from %f to %e (below 1e-4 and from 1e17 on), 17-digit integers, the point
# after each of the first 16 digits, trailing zeros and the non-finite cells
EDGE_CELLS = [
    0.0, 5e-324, 2.2250738585072014e-308, DBL_MAX, float("nan"), float("inf"),
    1e-4, np.nextafter(1e-4, 0.0), np.nextafter(1e-4, 1.0), 1e-5, 9.9999999999999991e-05,
    1e17, np.nextafter(1e17, 0.0), np.nextafter(1e17, np.inf), 1e16, 1e16 + 2.0,
    12345678901234568.0, 99999999999999984.0, 2.0**53, 2.0**53 - 1.0,
    *(float(_DIGITS[:p] + ".5") for p in range(1, 17)),
    *(float(_DIGITS[:p] + "." + _DIGITS[p:]) for p in range(1, 17)),
    0.5, 100.0, 120.0, 1000.5, 123000.0, 1.25e-5, 1.5e300, 0.1, 1.0, 10.0,
    # 0.118 of its 17th digit below 10^-14, so that its s rounds up to 10^17
    1e-14,
    # s = n + 1/2 exactly, ties to even: n even rounds down, n odd up
    1000000000000000.25, 1000000000000000.75,
    # cells of the seed-0 wide-smooth trajectory whose fraction of s lies
    # within 1/64 of 1/2, so that the top fraction limb alone decides little
    *map(float.fromhex, [
        "0x1.cca9729ae137fp-15", "0x1.9bab95702cf6bp-9", "0x1.97c34d990dd93p-7",
        "0x1.9a938f748245ap-8", "0x1.b912167bd6fbdp-5", "0x1.a4ffc60bf6b88p-4",
        "0x1.5a0382343a54ep-5", "0x1.0721bb7c7edc0p-3", "0x1.d8ed2a22bf6bap-4",
        "0x1.2ec0ea1d765cep-3", "0x1.eca3674b8545ep-3", "0x1.285eef5541966p-4",
    ]),
]


def _lines(table: np.ndarray, block: int) -> bytes:
    with mock.patch.object(floatfmt, "_VECTOR_MIN_CELLS", 0), mock.patch.object(
        floatfmt, "BLOCK_CELLS", block
    ):
        return b"".join(floatfmt.g17_lines(table))


@pytest.mark.parametrize("cell", EDGE_CELLS, ids=lambda x: "%.17g" % x)
def test_edge_cells_are_percent_17g_at_every_place_of_a_block(cell):
    # the cell and its negation at every offset of a block of 5 among
    # ordinary cells, so that it meets the separator words of both kinds
    table = np.full((4, 7), 0.3)
    table.reshape(-1)[::2] = cell
    table.reshape(-1)[1::4] = -cell
    assert _lines(table, 5) == percent_17g(table)
    assert _lines(table.T.copy(), floatfmt.BLOCK_CELLS) == percent_17g(table.T)


@pytest.mark.parametrize("block", [1, 8, 16])
def test_row_ends_fall_at_every_offset_of_a_block(block):
    rng = np.random.default_rng(block)
    cells = np.array(EDGE_CELLS)
    for n_cols in range(1, block + 2):
        shape = (2 * block + 1, n_cols)
        table = rng.choice(cells, size=shape) * rng.choice([-1.0, 1.0], size=shape)
        assert _lines(table, block) == percent_17g(table)


@pytest.mark.parametrize("shape", [(4, 6, 10), (2, 3, 4), (5,)], ids=str)
def test_g17_lines_writes_only_2d_arrays(shape):
    # a 3-d table, as large as the vectorized path takes or smaller, and a
    # 1-d array; no piece is made before the error
    with pytest.raises(ValueError, match=re.escape(f"2-d array, not one of shape {shape}")):
        floatfmt.g17_lines(np.zeros(shape))


def _nearest_to_a_tie(k: int, q: int, m0: int, odd: bool) -> int:
    """The m near m0 whose s = m 5^k 2^(q + k) lies nearest to n + 1/2, n
    odd or even as asked.  With u = -(q + k), that is m 5^k mod 2^(u + 1)
    nearest to (2 odd + 1) 2^(u - 1): a closest-vector problem in the
    2-d lattice of (m - m0, m 5^k mod 2^(u + 1)), solved by Lagrange's
    reduction and Babai's rounding.  The residue is weighted so that
    |m - m0| ~ 2^51 weighs as much as a residue 2^(u - 51) off, so s lands
    within about 2^-51 of n + 1/2, or on it where that is a double."""
    u = -(q + k)
    if k < 0 or u <= 0:  # no integer 5^k, or s an integer
        return m0
    mod = 2 ** (u + 1)
    weight = 2 ** max(102 - u, 0)
    basis = [(1, weight * (5**k % mod)), (0, weight * mod)]
    norm = lambda b: b[0] ** 2 + b[1] ** 2  # noqa: E731
    while True:
        basis.sort(key=norm)
        (a0, a1), (b0, b1) = basis
        mu = round(Fraction(a0 * b0 + a1 * b1, norm(basis[0])))
        if mu == 0:
            break
        basis[1] = (b0 - mu * a0, b1 - mu * a1)
    target = weight * (((2 * odd + 1) * 2 ** (u - 1) - m0 * 5**k) % mod)
    det = a0 * b1 - a1 * b0
    return m0 + round(Fraction(-target * b0, det)) * a0 + round(Fraction(a0 * target, det)) * b0


@st.composite
def near_ties(draw):
    """A cell x whose s = x 10^k lies on n + 1/2, n even or odd, or within
    about 2^-51 of it, or a few ulps either side of such a cell, for k over
    the limb range and one past each end.  s = n + 1/2 exactly needs a
    double (2n + 1) / 2^(k + 1), which exists for 1 <= k <= 24."""
    k = draw(st.integers(-1, floatfmt._LIMB_K_MAX + 1))
    n = draw(st.integers(10**16, 10**17 - 1))
    mantissa, exponent = math.frexp(float(Fraction(2 * n + 1, 2) / Fraction(10) ** k))
    m0, q = int(mantissa * 2**53), exponent - 53
    m = _nearest_to_a_tie(k, q, m0, draw(st.booleans()))
    x = math.ldexp(m if 2**52 <= m < 2**53 else m0, q)
    ulps = draw(st.integers(-3, 3)) if draw(st.booleans()) else 0
    return _from_bits(int(np.array(x).view(np.uint64)) + ulps)


def _decided_by_limbs(x: float) -> bool:
    """Whether _decide rounds x: s = |x| 10^k for k in the limb range, and
    s at least 10^3 from 10^16 and 10^17, next to which log10 can put e one
    off and send the cell to '%.17g'."""
    e = int(("%.16e" % x).split("e")[1])
    s = abs(Fraction(x)) * Fraction(10) ** (16 - e)
    return 0 <= 16 - e <= floatfmt._LIMB_K_MAX and 10**16 + 10**3 <= s <= 10**17 - 10**3


@given(near_ties())
def test_cells_on_and_next_to_a_rounding_tie_are_percent_17g(x):
    fallback, counted = floatfmt._fallback, []

    def counting(cells):
        counted.extend(cells.tolist())
        return fallback(cells)

    table = np.array([[x, -x, 0.3]] * 3)
    with mock.patch.object(floatfmt, "_fallback", counting):
        assert _lines(table, floatfmt.BLOCK_CELLS) == percent_17g(table)
    if _decided_by_limbs(x):
        assert counted == []


def test_cells_nearest_a_tie_at_every_k_are_percent_17g(monkeypatch):
    # for every k of the limb range and one past each end, the cells
    # nearest a tie at 8 places of a binade, n even and odd: within about
    # 2^-51 of n + 1/2, they round by every partial product and carry
    counted = _counting_finite_fallback(monkeypatch)
    cells = []
    for k in range(-1, floatfmt._LIMB_K_MAX + 2):
        q = math.frexp(float(Fraction(3 * 10**16) / Fraction(10) ** k))[1] - 53
        for m0 in range(2**52 + 2**48, 2**53, 2**49):
            for odd in (False, True):
                m = _nearest_to_a_tie(k, q, m0, odd)
                cells.append(math.ldexp(m if 2**52 <= m < 2**53 else m0, q))
    table = np.array(cells).reshape(-1, 4)
    assert _lines(table, floatfmt.BLOCK_CELLS) == percent_17g(table)
    assert not any(map(_decided_by_limbs, counted))


def test_the_limb_tables_hold_5_to_the_k_for_every_covered_k():
    for k in range(floatfmt._K_MIN, floatfmt._K_MAX + 1):
        i = k - floatfmt._K_MIN
        limbs = [int(floatfmt._F0[i]), int(floatfmt._F1[i]), int(floatfmt._F2[i])]
        scale = float(floatfmt._SCALE[i])
        if 0 <= k <= floatfmt._LIMB_K_MAX:
            length = (5**k).bit_length()
            assert all(limb < 2**32 for limb in limbs), k
            assert limbs[2] << 64 | limbs[1] << 32 | limbs[0] == 5**k << (96 - length), k
            assert scale == 2.0 ** (k + length), k
        else:  # s is 0, so the cell goes to '%.17g'
            assert limbs == [0, 0, 0] and scale == 0.0, k
    k = floatfmt._LIMB_K_MAX
    assert (5**k).bit_length() <= 96 < (5 ** (k + 1)).bit_length()


def test_decide_keeps_only_17_digits_that_stay_17_when_rounded():
    # of the doubles just below a power of ten in the limb range, only 1e-14
    # has an s that rounds up to 10^17 at its own exponent, k = 31; log10
    # puts it at k = 30, where floor(s) = 10^16 - 1.  Both rows must send
    # it to '%.17g', and the window's ends keep 10^16 and 10^17 - 16
    below = []
    for k in range(floatfmt._LIMB_K_MAX + 1):
        power = float(Fraction(10) ** (17 - k))  # the double nearest 10^(17 - k)
        for x in (math.nextafter(power, 0.0), power):
            if 10**17 - Fraction(1, 2) <= Fraction(x) * Fraction(10) ** k < 10**17:
                below.append((k, x))
    assert below == [(31, 1e-14)]
    cells = np.array([1e-14, 1e-14, 1.0, 99999999999999984.0, 0.1, 1e16 - 2])
    ks = np.array([31, 30, 16, 0, 17, 0])
    n, outside = floatfmt._decide(cells, ks - floatfmt._K_MIN)
    assert outside.tolist() == [True, True, False, False, False, True]
    assert n[2:5].tolist() == [10**16, 99999999999999984, 10**16 + 1]


def _counting_finite_fallback(monkeypatch) -> list:
    """Finite cells that reach ``_fallback`` from now on, appended to the
    list returned."""
    fallback = floatfmt._fallback
    counted = []

    def counting(cells):
        counted.extend(cells[np.isfinite(cells)].tolist())
        return fallback(cells)

    monkeypatch.setattr(floatfmt, "_fallback", counting)
    return counted


def _sent_to_percent_17g(x: float) -> bool:
    """Whether a finite nonzero x goes to '%.17g': |x| outside [10^-25,
    10^17), the limb range, or next to a power of ten where numpy's log10
    rounds to the next integer and so puts k one off."""
    a = abs(Fraction(x))
    if not Fraction(1, 10**25) <= a < 10**17:
        return True
    e = math.floor(math.log10(abs(x)))
    e += (a >= Fraction(10) ** (e + 1)) - (a < Fraction(10) ** e)
    return math.floor(np.log10(abs(x))) != e


def test_exactly_the_cells_outside_the_limb_range_reach_percent_17g(monkeypatch):
    # the ends of the limb range and one ulp either side, the subnormals and
    # the largest doubles; beside 1e17 log10 rounds 1e17 - 16 up to 17, the
    # one cell inside the range that goes to '%.17g'
    counted = _counting_finite_fallback(monkeypatch)
    ends = [1e-25, 1e17]
    cells = [np.nextafter(x, to) for x in ends for to in (0.0, x, np.inf)]
    cells += [5e-324, 2.5e-320, 2.2250738585072009e-308, 2.2250738585072014e-308]
    cells += [DBL_MAX, np.nextafter(DBL_MAX, 0.0)]
    cells = [float(x) for x in cells]
    table = np.array(cells + [-x for x in cells] + [0.3, -0.3]).reshape(-1, 2)
    assert _lines(table, floatfmt.BLOCK_CELLS) == percent_17g(table)
    assert sorted(counted) == sorted(x for x in table.reshape(-1) if _sent_to_percent_17g(x))
    assert {x for x in counted if 1e-25 <= abs(x) < 1e17} == {1e17 - 16, 16 - 1e17}


def test_the_vectorized_path_decides_every_finite_cell_of_a_wide_trajectory(tmp_path, monkeypatch):
    # falling back on '%.17g' would be exact but slow
    counted = _counting_finite_fallback(monkeypatch)
    cfg = tmp_path / "config.ini"
    cfg.write_text(
        "[problem]\nn_el = 1024\nforcing = smooth\npotential = paper_exponential\n"
        "u0 = zero\n\n[ladder]\ntaus = 0.03125\n",
        encoding="utf-8",
    )
    assert main(["run", str(cfg), "--out", str(tmp_path / "out"), "--quiet"]) == 0
    lines = (tmp_path / "out" / "trajectory.csv").read_text(encoding="utf-8").splitlines()
    cells = sum(len(line.split(",")) for line in lines[2:])
    assert cells == 33 * 1028
    assert counted == []


def _ncvx_sweep_ops():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks its own module up by name
    spec.loader.exec_module(module)
    return module.make_ops("ncvx-sweep", 0)


def test_the_seed0_ncvx_sweep_sends_no_finite_cell_to_percent_17g(tmp_path, monkeypatch):
    # every cell lies in the limb range, the residual column's too: its
    # cells lie at k = 29..33, |x| from 1e-17 to 1e-12
    counted = _counting_finite_fallback(monkeypatch)
    decide, ks = floatfmt._decide, set()

    def spying(a, row):
        ks.update((row + floatfmt._K_MIN).tolist())
        return decide(a, row)

    monkeypatch.setattr(floatfmt, "_decide", spying)
    for i, op in enumerate(_ncvx_sweep_ops()):
        cfg = tmp_path / f"{i}.ini"
        cfg.write_text(op.config, encoding="utf-8")
        main(["run", str(cfg), "--out", str(tmp_path / str(i)), "--quiet"])
    assert counted == []
    assert ks <= set(range(floatfmt._LIMB_K_MAX + 1))
    assert ks & set(range(29, 34))
