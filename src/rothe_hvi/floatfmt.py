"""Exact ``'%.17g'`` text of float64 tables, a block of cells at a time.

``g17_lines(rows)`` yields the text of a 2-d float array: each cell exactly
as ``'%.17g' % x`` writes it, cells joined by ``,`` and each row ended by
``\\n``.  It converts at most ``BLOCK_CELLS`` cells at once, so its scratch
memory is bounded whatever the table's size.

The 17 significant digits of a finite nonzero cell x are ``s`` rounded to
an integer, where ``s = |x| 10^(16-e)`` lies in [10^16, 10^17).  numpy
computes ``128 s`` in ``np.longdouble``, from a table of ``128 * 10^k``:
with a 64-bit significand the table entry and the product round once each,
so ``128 s`` is off by at most 1.19, or by 0.5 where ``10^k`` is exact
(0 <= k <= 27).  A cell whose ``128 s`` lies that close to an odd multiple
of 64, so that its rounding is undecided, and every non-finite cell goes
through Python's ``'%.17g'``.  numpy lays out every other cell: the ``%f``
or ``%e`` form that ``%g`` picks, trailing zeros stripped, ``e±XX``.  So
the output is byte-identical to ``'%.17g'`` by construction.  Where
longdouble is narrower, and for tables under ``_VECTOR_MIN_CELLS`` cells,
where the vectorized path's fixed cost exceeds the whole Python loop, every
cell goes through ``'%.17g'``.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

__all__ = ["BLOCK_CELLS", "g17_lines"]

BLOCK_CELLS = 4096

# tables under this many cells take the Python loop, which is faster there;
# measured on ncvx-sweep's table shapes (12 or 68 columns), one core
_VECTOR_MIN_CELLS = 256

_LD = np.finfo(np.longdouble)
# a 64-bit significand, and an exponent range that holds 128 * 10^340, the
# largest scale a subnormal needs
_EXTENDED = bool(_LD.nmant >= 63 and _LD.maxexp > 1140)

# k = 16 - e over every decimal exponent e of a float64, -324 to 308
_K_MIN, _K_MAX = -292, 340
_OFFSET = 324  # row e + _OFFSET of a per-exponent table is exponent e

# A cell's text is laid out in a record of six little-endian 64-bit words,
# every piece at a fixed byte and every unused byte NUL; deleting the NULs
# of a block of records leaves its text.  Bytes: 0 the sign, 1-5 the "0.000"
# of %f with a negative exponent, 6 the first digit, then the other 16
# digits at 8, 10, ..., 38; the byte after each digit holds the point if it
# goes there.  40-44 hold "e+XXX", 45 the separator, 46-47 stay NUL.
_WORD = np.dtype("<u8")
_RECORD = 48
_SPARE = 47
_FALLBACK_WIDTH = 45  # a verbatim cell's text, NUL-padded, over bytes 0-44


def _word(text: bytes, at: int = 0) -> int:
    """``text`` placed at byte ``at`` of a little-endian word."""
    return int.from_bytes(text, "little") << (8 * at)


def _exponent_tables() -> tuple[np.ndarray, ...]:
    """Per decimal exponent e of the rounded value: word 0 without its
    digit, for a positive and a negative cell (rows 2(e + _OFFSET) and
    2(e + _OFFSET) + 1); word 5 without its separator; the digits that %f
    shows whatever their value (X + 1 for exponent X >= 0); and the digits
    before the point (beyond 17: none)."""
    span = range(-_OFFSET, 309)
    head = np.zeros(2 * len(span), _WORD)
    exp_word = np.zeros(len(span), _WORD)
    whole = np.zeros(len(span), np.intp)
    point = np.zeros(len(span), np.intp)
    for i, e in enumerate(span):
        prefix = 0
        if -4 <= e < 0:
            prefix = _word(b"0." + b"0" * (-e - 1), 1)
            point[i] = 18
        elif 0 <= e <= 16:
            whole[i] = point[i] = e + 1
        else:
            exp_word[i] = _word(b"e%+03d" % e)
            point[i] = 1
        head[2 * i] = prefix
        head[2 * i + 1] = prefix | _word(b"-")
    return head, exp_word, whole, point


def _digit_tables() -> tuple[np.ndarray, ...]:
    """For q < 10^4: its four digits at bytes 0, 2, 4, 6 of a word, and per
    group g of four digits, the count of significant digits that the group
    ends (0 for q = 0); per word 1-4 and digit count, the mask that keeps
    that many leading digits; the first digit at byte 6."""
    q = np.arange(10_000)
    four = np.zeros(q.size, _WORD)
    last = np.zeros(q.size, np.intp)
    for j in range(4):
        digit = q // 10 ** (3 - j) % 10
        four |= (digit + 48).astype(_WORD) << np.uint64(16 * j)
        last[digit != 0] = j + 1
    ends = np.array([np.where(q == 0, 0, 1 + 4 * g + last) for g in range(4)])
    keep = np.zeros((4, 18), _WORD)
    for kept in range(18):
        for j in range(1, kept):  # digit j sits at byte 2((j - 1) % 4) of word 1 + (j - 1) // 4
            keep[(j - 1) // 4, kept] |= np.uint64(0xFF << (16 * ((j - 1) % 4)))
    first = np.array([_word(b"%d" % d, 6) for d in range(10)], _WORD)
    return four, ends, keep, first


if _EXTENDED:
    _POW128 = 128 * np.array([f"1e{k}" for k in range(_K_MIN, _K_MAX + 1)], np.longdouble)
    # (128 frac(s) + shift) % 128 < 2 shift - 128 marks an undecided cell:
    # 128 frac(s) in 63..64 for an exact 10^k, 62..65 otherwise
    _UNDECIDED_SHIFT = np.array(
        [65 if 0 <= k <= 27 else 66 for k in range(_K_MIN, _K_MAX + 1)], np.uint64
    )
    _HEAD, _EXP_WORD, _WHOLE, _POINT = _exponent_tables()
    _FOUR, _GROUP_END, _KEEP, _FIRST = _digit_tables()
_COMMA, _NEWLINE = np.uint64(_word(b",", 5)), np.uint64(_word(b"\n", 5))
_FALLBACK_FORMAT = f"%-{_FALLBACK_WIDTH}.17g"
_SPACE_TO_NUL = bytes.maketrans(b" ", b"\0")


def _fallback(cells: np.ndarray) -> bytes:
    """``'%.17g'`` of each cell, NUL-padded to ``_FALLBACK_WIDTH`` bytes: the
    cells the vectorized path cannot decide.  A seam of its own, so that the
    share of cells that take it can be counted."""
    text = "".join([_FALLBACK_FORMAT % x for x in cells.tolist()])
    return text.encode("ascii").translate(_SPACE_TO_NUL)


def _block(cells: np.ndarray, sep: np.ndarray) -> bytes:
    """Text of a block of float64 cells, cell i followed by the separator
    word ``sep[i]``."""
    m = cells.size
    a = np.abs(cells)
    zero = a == 0
    special = ~(a < np.inf)
    a = np.where(zero | special, 1.0, a)
    e = np.floor(np.log10(a)).astype(np.intp)
    # v = floor(128 s), s = |x| 10^(16-e), where log10 may put e one off
    # next to a power of ten; 128 s < 2^64 even then
    k = 16 - _K_MIN - e
    v = (a.astype(np.longdouble) * _POW128.take(k)).astype(np.uint64)
    n = ((v + 64) >> 7).view(np.int64)
    shift = _UNDECIDED_SHIFT.take(k)
    verbatim = ((v + shift) & 127) < 2 * shift - 128
    # floor(s) below 10^16 or s rounding to 10^17: e is one off, which only
    # a cell next to a power of ten can make
    verbatim |= special | (v < 128 * 10**16) | (n >= 10**17)
    n[verbatim | zero] = 0

    first = n // 10**16
    rest = n - first * 10**16
    groups = np.empty((4, m), np.intp)
    np.floor_divide(rest, 10**8, out=groups[1])
    np.subtract(rest, groups[1] * 10**8, out=groups[3])
    np.floor_divide(groups[1], 10**4, out=groups[0])
    groups[1] -= groups[0] * 10**4
    np.floor_divide(groups[3], 10**4, out=groups[2])
    groups[3] -= groups[2] * 10**4
    significant = np.maximum(_GROUP_END[0].take(groups[0]), 1)
    for g in (1, 2, 3):
        np.maximum(significant, _GROUP_END[g].take(groups[g]), out=significant)
    eo = e + _OFFSET
    kept = np.maximum(significant, _WHOLE.take(eo))
    point = _POINT.take(eo)
    has_point = significant > point

    rec = np.empty((m, 6), _WORD)
    rec[:, 0] = _HEAD.take(2 * eo + np.signbit(cells)) | _FIRST.take(first)
    for g in range(4):
        rec[:, g + 1] = _FOUR.take(groups[g]) & _KEEP[g].take(kept)
    rec[:, 5] = _EXP_WORD.take(eo) | sep
    raw = rec.view(np.uint8).reshape(-1)
    at = np.arange(0, m * _RECORD, _RECORD)
    raw[at + np.where(has_point, 5 + 2 * point, _SPARE)] = has_point * np.uint8(ord("."))
    if verbatim.any():
        (where,) = np.nonzero(verbatim)
        raw.reshape(m, _RECORD)[where, :_FALLBACK_WIDTH] = np.frombuffer(
            _fallback(cells[where]), np.uint8
        ).reshape(-1, _FALLBACK_WIDTH)
    return raw.tobytes().translate(None, b"\0")


def g17_lines(rows: np.ndarray) -> Iterator[str]:
    """Text of a 2-d float array, ``'%.17g'`` cells joined by ``,`` and rows
    ended by ``\\n``, in pieces of at most ``BLOCK_CELLS`` cells."""
    rows = np.asarray(rows, dtype=np.float64)
    n_cols = rows.shape[1]
    cells = rows.reshape(-1)
    if not _EXTENDED or cells.size < _VECTOR_MIN_CELLS:
        line = ",".join(["%.17g"] * n_cols) + "\n"
        for row in rows.tolist():
            yield line % tuple(row)
        return
    for start in range(0, cells.size, BLOCK_CELLS):
        block = cells[start : start + BLOCK_CELLS]
        ends = np.arange(start + 1, start + block.size + 1) % n_cols == 0
        yield _block(block, np.where(ends, _NEWLINE, _COMMA)).decode("ascii")
