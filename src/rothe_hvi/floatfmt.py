"""Exact ``'%.17g'`` text of float64 tables, a block of cells at a time.

``g17_lines(rows)`` yields the text of a 2-d float array as ASCII
``bytes``: each cell exactly as ``'%.17g' % x`` writes it, cells joined by
``,`` and each row ended by ``\\n``; any other shape raises ``ValueError``.
It converts at most ``BLOCK_CELLS`` cells at once, so its scratch memory is
bounded whatever the table's size, and a caller writes the pieces to a
binary file as they are.

The 17 significant digits of a finite nonzero cell x are ``s`` rounded to
an integer, ties to even, where ``s = |x| 10^k``, k = 16 - e, lies in
[10^16, 10^17).  numpy computes ``128 s`` in ``np.longdouble``, from a
table of ``128 * 10^k``: with a 64-bit significand the table entry and the
product round once each, so ``128 s`` is off by at most 1.19, or by 0.5
where ``10^k`` is exact (0 <= k <= 27).  A cell whose ``128 s`` lies that
close to an odd multiple of 64 leaves its rounding undecided there.  For
0 <= k <= 41, where 5^k fits three 32-bit limbs, ``_decide`` rounds such
cells exactly in a few whole-array uint64 operations: with |x| = m 2^q,
s = m 5^k 2^(q+k), and the bits of m 5^k below the point, formed from
32-bit partial products with an explicit carry, settle s against the
half-integer (the fixed-precision integer technique of Ryu printf, Adams,
OOPSLA 2019).  Only the non-finite cells, the undecided cells outside that
range (|x| under 10^-25 or from 10^17 on), and the rare cells next to a
power of ten whose decimal exponent log10 puts one off go through Python's
``'%.17g'``.  numpy lays out every other cell: the ``%f`` or ``%e`` form
that ``%g`` picks, trailing zeros stripped, ``e±XX``.  So the output is
byte-identical to ``'%.17g'`` by construction.

Each cell is laid out in a 32-byte record of four 64-bit words, every piece
at a fixed byte and every unused byte NUL, and deleting the NULs of a block
of records leaves its text.  The 16 digits after the first are stored
densely; where the point falls among them, the digits after it move one
byte on, through an unaligned view of the record, and only blocks that
hold such a cell pay for that shift.  A block costs a fixed number of numpy
calls: every per-exponent and per-digit table is indexed by one ``take``,
trailing zeros are stripped by masks of the digit words, and the row ends
flip their separator words in one strided update.  Where longdouble is
narrower, and for tables under ``_VECTOR_MIN_CELLS`` cells, where the
vectorized path's fixed cost exceeds the whole Python loop, every cell goes
through ``'%.17g'``.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

__all__ = ["BLOCK_CELLS", "g17_lines"]

BLOCK_CELLS = 4096

# tables under this many cells take the Python loop, which is faster there;
# measured on ncvx-sweep's table shapes (12 or 68 columns), one core: the
# two paths cross at 160-200 cells
_VECTOR_MIN_CELLS = 192

_LD = np.finfo(np.longdouble)
# a 64-bit significand, and an exponent range that holds 128 * 10^340, the
# largest scale a subnormal needs
_EXTENDED = bool(_LD.nmant >= 63 and _LD.maxexp > 1140)

# k = 16 - e over every decimal exponent e of a float64, -324 to 308; the
# per-exponent tables are indexed by k - _K_MIN, the row of k in _POW128
_K_MIN, _K_MAX = -292, 340
# the undecided cells of 0 <= k <= _LIMB_K_MAX are decided exactly, with 5^k
# in three 32-bit limbs: 5^41 < 2^96 < 5^42
_LIMB_K_MAX = 41

# A cell's text is laid out in a record of four little-endian 64-bit words,
# every piece at a fixed byte and every unused byte NUL; deleting the NULs
# of a block of records leaves its text.  Bytes: 0 the sign, 1-5 the "0.000"
# of %f with a negative exponent, 6 the first digit, 7 the point if it
# follows the first digit, then the other 16 digits densely at 8-23.  Where
# the point follows digit p of them, 2 <= p <= 16, it takes byte 7 + p and
# the digits after it move one byte on, the last to byte 24; such a cell has
# no exponent.  24-28 hold "e+XXX", 29 the separator, 30-31 stay NUL.
_WORD = np.dtype("<u8")
_QUAD = np.dtype("<u4")  # four digits, half a word
_FALLBACK_WIDTH = 29  # a verbatim cell's text, NUL-padded, over bytes 0-28
# the place of the point, the count of digits before it, is at most 17;
# place 0 stands for no point
_PLACES = 18


def _word(text: bytes, at: int = 0) -> int:
    """``text`` placed at byte ``at`` of a little-endian word."""
    return int.from_bytes(text, "little") << (8 * at)


def _exponent_tables() -> tuple[np.ndarray, ...]:
    """Per row k - _K_MIN, for the decimal exponent e = 16 - k of the
    rounded value: word 0 without its sign and digit; word 3 with a comma
    for separator; and the place of the point, which is also the count of
    digits that %f shows whatever their value: X + 1 for exponent X >= 0,
    1 in the %e form and 0 in %f with a negative exponent."""
    span = [16 - k for k in range(_K_MIN, _K_MAX + 1)]
    head = np.zeros(len(span), _WORD)
    exp_word = np.zeros(len(span), _WORD)
    point = np.zeros(len(span), np.intp)
    for i, e in enumerate(span):
        if -4 <= e < 0:
            head[i] = _word(b"0." + b"0" * (-e - 1), 1)
        elif 0 <= e <= 16:
            point[i] = e + 1
        else:
            exp_word[i] = _word(b"e%+03d" % e)
            point[i] = 1
        exp_word[i] |= _word(b",", 5)
    return head, exp_word, point


def _digit_tables() -> tuple[np.ndarray, ...]:
    """For q < 10^4: its four digits at bytes 0-3 of a 32-bit word, and per
    group g of four digits, the count of significant digits that the group
    ends (0 for q = 0).  Per count of digits kept, the masks of words 1 and 2
    that keep them; per place of the point, the masks of the digits that move
    one byte on and of the point, for words 1 and 2.  At index
    _PLACES * digit + place, the first digit at byte 6, with the point at
    byte 7 for place 1."""
    q = np.arange(10_000)
    four = np.zeros(q.size, _QUAD)
    last = np.zeros(q.size, np.intp)
    for j in range(4):
        digit = q // 10 ** (3 - j) % 10
        four |= (digit + 48).astype(np.uint32) << np.uint32(8 * j)
        last[digit != 0] = j + 1
    ends = np.array([np.where(q == 0, 0, 1 + 4 * g + last) for g in range(4)], np.uint8)
    # digit j, 2 <= j <= 17, at byte j - 2 of words 1-2 before it moves; a
    # point at place p, 2 <= p <= 16, takes the byte of digit p + 1
    kept = np.zeros((_PLACES, 16), np.uint8)
    moved = np.zeros((_PLACES, 16), np.uint8)
    point = np.zeros((_PLACES, 16), np.uint8)
    for n in range(_PLACES):
        kept[n, : max(n - 1, 0)] = 0xFF
    for place in range(2, 17):  # place 17 never shows: at most 17 digits
        moved[place, place - 1 :] = 0xFF
        point[place, place - 1] = ord(".")
    first = np.zeros((10, _PLACES), _WORD)
    for d in range(10):
        first[d] = _word(b"%d" % d, 6)
        first[d, 1] |= _word(b".", 7)
    kept, moved, point = (np.ascontiguousarray(t.view(_WORD).T) for t in (kept, moved, point))
    return four, ends, kept, moved, point, first.reshape(-1)


def _limb_tables() -> tuple[np.ndarray, ...]:
    """Per row k - _K_MIN, for 0 <= k <= _LIMB_K_MAX, where 5^k fits three
    32-bit limbs: F = 5^k 2^(96 - len(5^k)), in [2^95, 2^96), as F >> 32
    and its low limb, and the scale 2^(k + len(5^k)); and whether k lies
    outside that range, where all three are 0."""
    high, low = np.zeros((2, _K_MAX - _K_MIN + 1), _WORD)
    scale = np.zeros(high.size)
    outside = np.ones(high.size, bool)
    for k in range(_LIMB_K_MAX + 1):
        length = (5**k).bit_length()
        f = 5**k << (96 - length)
        i = k - _K_MIN
        high[i], low[i], outside[i] = f >> 32, f & 0xFFFFFFFF, False
        scale[i] = 2.0 ** (k + length)
    return high, low, scale, outside


if _EXTENDED:
    _POW128 = 128 * np.array([f"1e{k}" for k in range(_K_MIN, _K_MAX + 1)], np.longdouble)
    # (128 frac(s) + shift) % 128 < width = 2 shift - 128 marks an undecided
    # cell: 128 frac(s) in 63..64 for an exact 10^k, 62..65 otherwise
    _UNDECIDED_SHIFT = np.array(
        [65 if 0 <= k <= 27 else 66 for k in range(_K_MIN, _K_MAX + 1)], np.uint64
    )
    _UNDECIDED_WIDTH = 2 * _UNDECIDED_SHIFT - 128
    _HEAD, _EXP_WORD, _POINT = _exponent_tables()
    _FOUR, _GROUP_END, _KEPT, _MOVED, _POINT_BYTE, _FIRST = _digit_tables()
    _F_HIGH, _F_LOW, _SCALE, _OUTSIDE = _limb_tables()
# v in [128 * 10^16, 128 * 10^17 - 66) rounds s to 17 digits under 10^17,
# whether v decides it or _decide does: v - _V_LOW below _V_SPAN, in
# wrapping unsigned arithmetic
_V_LOW = np.uint64(128 * 10**16)
_V_SPAN = np.uint64(128 * 10**17 - 66 - 128 * 10**16)
# 0-d arrays: numpy scalars cost an array call twice as much
_U1, _U7, _U32, _LIMB, _HALF = (np.array(c, _WORD) for c in (1, 7, 32, 2**32 - 1, 2**63))
_COMMA_TO_NEWLINE = np.uint64(_word(b",", 5) ^ _word(b"\n", 5))
_FALLBACK_FORMAT = b"%%-%d.17g" % _FALLBACK_WIDTH
_SPACE_TO_NUL = bytes.maketrans(b" ", b"\0")


def _fallback(cells: np.ndarray) -> bytes:
    """``'%.17g'`` of each cell, NUL-padded to ``_FALLBACK_WIDTH`` bytes: the
    cells the vectorized path cannot round.  A seam of its own, so that the
    share of cells that take it can be counted."""
    text = (_FALLBACK_FORMAT * cells.size) % tuple(cells.tolist())
    return text.translate(_SPACE_TO_NUL)


def _decide(a: np.ndarray, v: np.ndarray, row: np.ndarray) -> tuple[np.ndarray, ...]:
    """s rounded to an integer exactly, ties to even as ``'%.17g'`` rounds,
    for cells |x| = a whose ``v = floor(128 s)`` lies within 2 of an odd
    multiple of 64, so that floor(s) is ``v >> 7`` and only frac(s) against
    1/2 is open; and whether each cell lies outside the limb range, where
    its rounding means nothing.  With F from the limb tables,
    M = a 2^(k + len(5^k)) = m 2^d is an integer under 2^58 (1 <= d <= 5),
    and s = M F / 2^96: frac(s) is R = M F mod 2^96, and s rounds up where
    R + (floor(s) odd) exceeds 2^95."""
    high, low = _F_HIGH.take(row), _F_LOW.take(row)
    m = (a * _SCALE.take(row)).astype(np.uint64)
    n = v >> _U7
    # R + odd over 2^95: the ceiling of (R + odd) / 2^32, bits 32-95, over
    # 2^63; the low limbs' product carries its high half, and its low half
    # and the tie bit round that carry up
    y = (m & _LIMB) * low
    y += n & _U1
    y += _LIMB
    y >>= _U32
    t = m * high
    t += (m >> _U32) * low
    t += y
    n += t > _HALF
    return n, _OUTSIDE.take(row)


def _block(cells: np.ndarray, first_end: int, n_cols: int, rec: np.ndarray) -> bytes:
    """Text of a block of float64 cells, each followed by a comma, except
    cells first_end, first_end + n_cols, ..., which end a row and are
    followed by a newline.  The records are laid out in ``rec``, an array
    of at least cells.size rows of four words that the caller reuses from
    block to block.  Every table lookup is one ``take``, so the block costs
    a fixed number of numpy calls whatever its size."""
    m = cells.size
    a = np.abs(cells)
    zero = a == 0
    special = ~(a < np.inf)
    a[zero | special] = 1.0
    # the row k - _K_MIN of k = 16 - e, where log10 may put e one off next
    # to a power of ten; v = floor(128 s), s = |x| 10^k; 128 s < 2^64 even then
    row = 16 - _K_MIN - np.floor(np.log10(a)).astype(np.intp)
    v = np.multiply(a, _POW128.take(row), dtype=np.longdouble).astype(np.uint64)
    n = ((v + 64) >> 7).view(np.int64)
    undecided = ((v + _UNDECIDED_SHIFT.take(row)) & 127) < _UNDECIDED_WIDTH.take(row)
    (at,) = np.nonzero(undecided)
    if at.size:  # decided exactly, but for the cells outside the limb range
        n[at], undecided[at] = _decide(a[at], v[at], row[at])
    # floor(s) below 10^16 or s rounding to 10^17: e is one off, which only
    # a cell next to a power of ten can make
    verbatim = undecided | special | ((v - _V_LOW) >= _V_SPAN)
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
    significant = significant.astype(np.intp)  # as wide as the place tables
    point = _POINT.take(row)
    kept = np.maximum(significant, point)
    place = point * (significant > point)  # 0 where the point does not show

    rec = rec[:m]
    np.bitwise_or(_HEAD.take(row), _FIRST.take(_PLACES * first + place), out=rec[:, 0])
    text = rec.view(np.uint8)
    np.multiply(np.signbit(cells).view(np.uint8), ord("-"), out=text[:, 0])
    quads = rec.view(_QUAD)
    for g in range(4):  # mode "clip" lets take write its strided out unbuffered
        _FOUR.take(groups[g], out=quads[:, 2 + g], mode="clip")
    _EXP_WORD.take(row, out=rec[:, 3], mode="clip")
    rec[first_end::n_cols, 3] ^= _COMMA_TO_NEWLINE
    for w in (1, 2):
        rec[:, w] &= _KEPT[w - 1].take(kept)
    if place.max() > 1:  # a point among the 16 digits: those after it move on
        for w in (2, 1):  # word 1 moves a digit into byte 0 of word 2
            digits = rec[:, w]
            moved = digits & _MOVED[w - 1].take(place)
            digits ^= moved ^ _POINT_BYTE[w - 1].take(place)
            # one byte on, through an unaligned view of the record
            text[:, 8 * w + 1 : 8 * w + 9].view(_WORD)[:, 0] |= moved
    if verbatim.any():
        (where,) = np.nonzero(verbatim)
        text[where, :_FALLBACK_WIDTH] = np.frombuffer(
            _fallback(cells[where]), np.uint8
        ).reshape(-1, _FALLBACK_WIDTH)
    return rec.tobytes().translate(None, b"\0")


def g17_lines(rows: np.ndarray) -> Iterator[bytes]:
    """ASCII text of a 2-d float array, ``'%.17g'`` cells joined by ``,`` and
    rows ended by ``\\n``, as ``bytes`` pieces of at most ``BLOCK_CELLS``
    cells.  An array of any other shape raises ``ValueError`` here, before
    any piece is made."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2:
        raise ValueError(f"g17_lines writes a 2-d array, not one of shape {rows.shape}")
    return _pieces(rows)


def _pieces(rows: np.ndarray) -> Iterator[bytes]:
    n_cols = rows.shape[1]
    cells = rows.reshape(-1)
    if not _EXTENDED or cells.size < _VECTOR_MIN_CELLS:
        line = b",".join([b"%.17g"] * n_cols) + b"\n"
        for row in rows.tolist():
            yield line % tuple(row)
        return
    rec = np.empty((min(cells.size, BLOCK_CELLS), 4), _WORD)
    for start in range(0, cells.size, BLOCK_CELLS):
        block = cells[start : start + BLOCK_CELLS]
        yield _block(block, (n_cols - 1 - start) % n_cols, n_cols, rec)
