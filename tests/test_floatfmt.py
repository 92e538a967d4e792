from __future__ import annotations

from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rothe_hvi import floatfmt
from rothe_hvi.cli import main

EXTENDED = np.finfo(np.longdouble).nmant > np.finfo(np.float64).nmant


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
    if floatfmt._EXTENDED:
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
    # cells that the seed-0 wide-smooth trajectory sends to '%.17g' itself
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


@pytest.mark.skipif(not floatfmt._EXTENDED, reason="no vectorized path here")
def test_the_scaled_powers_of_ten_are_correctly_rounded():
    # the rounding bound of the vectorized path assumes 128 * 10^k within
    # half an ulp, 2^-64 relative, for every k of the table, and exact for
    # the k it treats as exact
    powers = zip(range(floatfmt._K_MIN, floatfmt._K_MAX + 1), floatfmt._POW128)
    for (k, value), shift in zip(powers, floatfmt._UNDECIDED_SHIFT):
        error = abs(Fraction(*value.as_integer_ratio()) - 128 * Fraction(10) ** k)
        assert error <= 128 * Fraction(10) ** k / 2**64, k
        assert error == 0 or shift == 66, k


@pytest.mark.skipif(not EXTENDED, reason="longdouble is no wider than double here")
def test_the_vectorized_path_decides_most_cells_of_a_wide_trajectory(tmp_path, monkeypatch):
    # falling back on '%.17g' everywhere would be exact but slow
    fallback = floatfmt._fallback
    counted = []

    def counting(cells):
        counted.append(cells.size)
        return fallback(cells)

    monkeypatch.setattr(floatfmt, "_fallback", counting)
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
    assert sum(counted) <= 0.1 * cells
