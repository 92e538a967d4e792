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


def percent_17g(table: np.ndarray) -> str:
    return "".join(",".join("%.17g" % x for x in row) + "\n" for row in table.tolist())


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
    assert "".join(pieces) == percent_17g(table)
    if floatfmt._EXTENDED:
        assert len(pieces) == -(-table.size // block)


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
