"""Exact ``'%.17g'`` text of float64 tables, a block of cells at a time.

``g17_lines(rows)`` yields the text of a 2-d float array as ASCII
``bytes``: each cell exactly as ``'%.17g' % x`` writes it, cells joined by
``,`` and each row ended by ``\\n``; any other shape raises ``ValueError``.
It converts at most ``BLOCK_CELLS`` cells at once, so its scratch memory is
bounded whatever the table's size, and a caller writes the pieces to a
binary file as they are.

The 17 significant digits of a finite nonzero cell x are ``s`` rounded to
an integer, ties to even, where ``s = |x| 10^k``, k = 16 - e, lies in
[10^16, 10^17).  ``_decide`` forms s exactly in integer arithmetic, the
fixed-precision integer technique of Ryu printf (Adams, OOPSLA 2019), for
0 <= k <= 41, where 5^k fits three 32-bit limbs: with L the bit length of
5^k, M = |x| 2^(k + L) is an integer of two limbs, F = 5^k 2^(96 - L) one
of three, and s = M F / 2^96.  Six 32-bit partial products, summed column
by column with explicit carries, give floor(s) and the fraction's three
limbs; s rounds up where the top fraction limb exceeds 2^31, and where it
is exactly 2^31 the lower limbs and the parity of floor(s) decide.  The
arithmetic is the same on every platform: it needs no float type wider
than float64.  Only the non-finite cells, the cells outside that range
(|x| under 10^-25 or from 10^17 on, where s is 0), and the rare cells
next to a power of ten, where log10 can put the decimal exponent one off
or s can round up to 10^17, go through Python's ``'%.17g'``; floor(s)
outside [10^16, 10^17 - 1) marks all but the non-finite.  numpy lays out
every other cell: the ``%f`` or ``%e`` form that ``%g`` picks, trailing
zeros stripped, ``e±XX``.  So the output is byte-identical to ``'%.17g'``
by construction.

Each cell is laid out in a 32-byte record of four 64-bit words, every piece
at a fixed byte and every unused byte NUL, and deleting the NULs of a block
of records leaves its text.  The 16 digits after the first are stored
densely; where the point falls among them, the digits after it move one
byte on, through an unaligned view of the record, and only blocks that
hold such a cell pay for that shift.  A block costs a fixed number of numpy
calls: every per-exponent and per-digit table is indexed by one ``take``,
trailing zeros are stripped by masks of the digit words, and the row ends
flip their separator words in one strided update.  Tables under
``_VECTOR_MIN_CELLS`` cells, where the vectorized path's fixed cost
exceeds the whole Python loop, go through ``'%.17g'`` cell by cell.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

__all__ = ["BLOCK_CELLS", "g17_lines"]

BLOCK_CELLS = 4096

# tables under this many cells take the Python loop, which is faster there.
# Measured on row slices of the seed-0 ncvx-sweep tables, one core of a
# 2-vCPU VM (Python 3.11, numpy 2.4), 31 alternations: median us a table,
# loop / vectorized (ratio, vectorized faster in)
#   12 columns: 144 cells 68.5 / 79.4 (0.86, 0);  156: 74.5 / 83.3 (0.92, 2)
#               168: 80.1 / 82.3 (0.97, 2), again 79.2 / 76.6 (1.03, 28)
#               180: 83.5 / 77.1 (1.09, 31);  192: 92.4 / 81.1 (1.14, 30)
#   68 columns: 136 cells 62.9 / 78.2 (0.80, 0);  204: 96.5 / 83.4 (1.14, 31)
_VECTOR_MIN_CELLS = 180

# k = 16 - e over every decimal exponent e of a float64, -324 to 308; every
# per-exponent table, the limb tables among them, is indexed by k - _K_MIN
_K_MIN, _K_MAX = -292, 340
# _decide forms s for 0 <= k <= _LIMB_K_MAX, with 5^k in three 32-bit
# limbs: 5^41 < 2^96 < 5^42
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
    32-bit limbs: F = 5^k 2^(96 - len(5^k)), in [2^95, 2^96), as its limbs
    from the lowest, and the scale 2^(k + len(5^k)) that makes |x| the
    integer M.  Outside that range all four are 0, so that s is 0 there."""
    limbs = np.zeros((3, _K_MAX - _K_MIN + 1), _WORD)
    scale = np.zeros(limbs.shape[1])
    for k in range(_LIMB_K_MAX + 1):
        length = (5**k).bit_length()
        f = 5**k << (96 - length)
        limbs[:, k - _K_MIN] = [f >> 32 * j & 0xFFFFFFFF for j in range(3)]
        scale[k - _K_MIN] = 2.0 ** (k + length)
    return (*limbs, scale)


_HEAD, _EXP_WORD, _POINT = _exponent_tables()
_FOUR, _GROUP_END, _KEPT, _MOVED, _POINT_BYTE, _FIRST = _digit_tables()
_F0, _F1, _F2, _SCALE = _limb_tables()
# 0-d arrays: numpy scalars cost an array call twice as much, and numpy
# 1.24 casts a Python int by value; floor(s) - 10^16 below _S_SPAN, in
# wrapping unsigned arithmetic, is 17 digits that stay 17 when rounded
_U1, _U32, _LIMB, _HALF, _S_LOW, _S_SPAN = (
    np.array(c, _WORD) for c in (1, 32, 2**32 - 1, 2**31, 10**16, 9 * 10**16 - 1)
)
_COMMA_TO_NEWLINE = np.uint64(_word(b",", 5) ^ _word(b"\n", 5))
_FALLBACK_FORMAT = b"%%-%d.17g" % _FALLBACK_WIDTH
_SPACE_TO_NUL = bytes.maketrans(b" ", b"\0")


def _fallback(cells: np.ndarray) -> bytes:
    """``'%.17g'`` of each cell, NUL-padded to ``_FALLBACK_WIDTH`` bytes: the
    cells the vectorized path cannot round.  A seam of its own, so that the
    share of cells that take it can be counted."""
    text = (_FALLBACK_FORMAT * cells.size) % tuple(cells.tolist())
    return text.translate(_SPACE_TO_NUL)


def _decide(a: np.ndarray, row: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """s = a 10^k rounded to an integer exactly, ties to even as ``'%.17g'``
    rounds, for cells |x| = a of row k - _K_MIN; and whether floor(s) lies
    outside [10^16, 10^17 - 1), where that rounding is not the cell's 17
    digits: outside the limb range, where s is 0, or where k is one off.
    In the limb range s = M F / 2^96, with F = F2 2^64 + F1 2^32 + F0 and
    M = a 2^(k + len(5^k)) = M1 2^32 + M0 under 2^61, so that no column
    overflows; M is an integer where floor(s) lies in the window, and
    truncating it elsewhere only lowers s."""
    m = (a * _SCALE.take(row)).astype(np.uint64)
    m0, m1 = m & _LIMB, m >> _U32
    f0, f1, f2 = _F0.take(row), _F1.take(row), _F2.take(row)
    low, mid, high = m0 * f0, m0 * f1, m0 * f2
    # the columns of 2^32 and 2^64, each under 2^62 with its carry in
    c1 = m1 * f0
    c1 += low >> _U32
    c1 += mid & _LIMB
    c2 = m1 * f1
    c2 += mid >> _U32
    c2 += c1 >> _U32
    c2 += high & _LIMB
    s = m1 * f2
    s += high >> _U32
    s += c2 >> _U32
    outside = (s - _S_LOW) >= _S_SPAN
    top = c2 & _LIMB  # the fraction's top limb, against 2^95
    s += top > _HALF
    (at,) = np.nonzero(top == _HALF)
    if at.size:  # on the half or just above it: the lower limbs decide,
        # and on the half the parity of floor(s)
        s[at] += (((c1[at] | low[at]) << _U32) | (s[at] & _U1)) != 0
    return s.view(np.int64), outside


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
    # to a power of ten
    row = 16 - _K_MIN - np.floor(np.log10(a)).astype(np.intp)
    n, verbatim = _decide(a, row)
    verbatim |= special
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
    if cells.size < _VECTOR_MIN_CELLS:
        line = b",".join([b"%.17g"] * n_cols) + b"\n"
        for row in rows.tolist():
            yield line % tuple(row)
        return
    rec = np.empty((min(cells.size, BLOCK_CELLS), 4), _WORD)
    for start in range(0, cells.size, BLOCK_CELLS):
        block = cells[start : start + BLOCK_CELLS]
        yield _block(block, (n_cols - 1 - start) % n_cols, n_cols, rec)
