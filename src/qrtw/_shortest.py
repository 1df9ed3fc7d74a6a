"""Shortest round-trip text of whole numpy arrays, for the CSV writers.

:func:`csv_rows` writes every float of its float64 columns in exactly
the bytes of ``repr(float(v))``: the shortest decimal that reads back
as ``v``, the nearest one to ``v`` among those, laid out as Python's
``'r'`` format lays it out (exponent form when the decimal point would
sit 4 or more places left of the first digit or past the 16th, with at
least two exponent digits; ``.0`` on integral values).  The digits come
from Schubfach (R. Giulietti, "The Schubfach way to render doubles",
2020; compare Ryu, U. Adams, PLDI 2018), which finds them with 64-bit
integer arithmetic alone: numpy runs it over whole arrays, with 64 x
128-bit products done in 32-bit limbs, and the result does not depend
on the CPU features numpy dispatches to.  Only ``inf``, ``-inf`` and
``nan`` are rendered by ``repr``, one value at a time.

Each field is a record of four little-endian ``uint64`` words: the text
in order, with NUL bytes where nothing is written, which the CSV joiner
drops.  Building the text in words makes placing a sign, a point or a
prefix a shift of whole words, and the exponent gets a word of its own.
"""

from __future__ import annotations

import functools

import numpy as np

_CHUNK = 2048
"""Values per pass of the kernel.  Its temporary arrays are this long,
about 150 bytes a value in all; larger passes cut numpy's per-call cost
but raise the peak memory of a worker that writes profiles."""

_U = np.uint64
_M32 = _U(0xFFFF_FFFF)
_M63 = _U((1 << 63) - 1)
_HIDDEN = _U(1 << 52)
_K_MIN = -324  # the smallest k of _tables: 10^-324 < 2^-1074
_POW10 = np.array([10**j for j in range(18)], dtype=np.uint64)
_NO_POINT = 24  # a point position past every digit: no point is inserted
# Indexed by m + 24 for m in -24..24: a word's first m bytes (none for
# m <= 0, all for m >= 8), and the bits that turn a "0" at byte m into a
# "." (none outside 0..7).
_FIRST = np.array([(1 << 8 * min(max(m, 0), 8)) - 1 for m in range(-24, 25)], dtype=np.uint64)
_DOT = np.array([(0x2E ^ 0x30) << 8 * m if 0 <= m < 8 else 0 for m in range(-24, 25)], dtype=np.uint64)
# Indexed by 8 * neg + z: "-" if neg, then the first z bytes of "0.000".
_FILL = np.array(
    [int.from_bytes(b"-" * neg + b"0.000"[:z], "little") for neg in (0, 1) for z in range(8)],
    dtype=np.uint64,
)


@functools.cache
def _tables():
    """Built on first use, not at import.

    ``g``: for each k from -324 to 292, the 126-bit ``floor(b) + 1``
    where ``10^-k = b * 2^r`` and ``2^125 <= b < 2^126``: the four
    32-bit limbs (lowest first) of its low and high 63 bits, then the
    high 63 bits whole.
    ``exponents``: the ``e+XX`` or ``e-XXX`` of every exponent from -400
    to 399, its bytes in a word.
    """
    limbs = []
    for k in range(_K_MIN, 293):
        if k <= 0:
            p = 10**-k
            r = p.bit_length() - 126
            b = p >> r if r >= 0 else p << -r
        else:
            d = 10**k
            b = (1 << (125 + d.bit_length())) // d
        g = b + 1
        lo, hi = g & ((1 << 63) - 1), g >> 63
        limbs.append((lo & 0xFFFF_FFFF, lo >> 32, hi & 0xFFFF_FFFF, hi >> 32, hi))
    g = np.array(limbs, dtype=np.uint64).T.copy()
    exponents = np.array(
        [int.from_bytes(b"e%+03d" % x, "little") for x in range(-400, 400)], dtype=np.uint64
    )
    g.flags.writeable = exponents.flags.writeable = False
    return g, exponents


def _mulhi(a_lo, a_hi, b_lo, b_hi):
    """High 64 bits of the products ``a * b``, from 32-bit limbs, for
    ``a < 2^63`` and ``b < 2^60``: the middle sum then stays below 2^64."""
    mid = a_lo * b_lo
    mid >>= 32
    mid += a_lo * b_hi
    mid += a_hi * b_lo
    mid >>= 32
    mid += a_hi * b_hi
    return mid


def _rop(g, cp):
    """``floor(g * cp / 2^127)`` rounded to odd, so its low bit is set
    when the division is inexact (Schubfach's ``rop``); ``g`` as limbs,
    and ``cp`` is overwritten."""
    z = g[4] * cp  # the low word of g1 * cp
    z >>= 1
    lo = cp & _M32
    cp >>= 32
    z += _mulhi(g[0], g[1], lo, cp)
    y1 = _mulhi(g[2], g[3], lo, cp)
    del lo, cp
    y1 += z >> 63
    z &= _M63
    y1 |= z != 0
    return y1


def _decimal(mag):
    """``(f, k)``: the shortest decimal ``f * 10^k`` that reads back as
    each positive finite double (given by its bits), the nearest one
    where several do, ties to even ``f``."""
    be = (mag >> 52).view(np.int64)
    c = mag & (_HIDDEN - 1)
    del mag
    np.bitwise_or(c, _HIDDEN, out=c, where=be != 0)
    q = np.maximum(be, 1)
    q -= 1075  # the double is c * 2^q
    irregular = (c == _HIDDEN) & (be > 1)  # the gap below is half the gap above
    del be
    k = q * 661_971_961_083
    k -= irregular * 274_743_187_321
    k >>= 41  # floor(log10(2^q)), or of 3/4 * 2^q where irregular
    h = k * -913_124_641_741
    h >>= 38
    h += q
    h += 2
    h = h.view(np.uint64)
    del q
    g = np.take(_tables()[0], k - _K_MIN, axis=1)
    # the value 4c and the interval's ends 4c - 2 (4c - 1 where
    # irregular) and 4c + 2, each scaled by 2^h
    out = (c & 1).astype(bool)  # an even c's interval includes its ends
    c <<= 2
    vb = _rop(g, c << h)
    vbr = _rop(g, (c + 2) << h)
    c -= 2
    c += irregular
    vbl = _rop(g, c << h)
    del g, h, c
    vbl += out
    vbr -= out
    del out
    s = vb >> 2
    # one digit shorter: the multiples of ten on either side of s
    sp10 = s // 10
    sp10 *= 10
    upin = vbl <= sp10 << 2
    wpin = (sp10 << 2) + 40 <= vbr
    sp10 += ~upin * _U(10)
    # full length: s or s + 1, the nearer where both are in
    uin = vbl <= s << 2
    win = (s << 2) + 4 <= vbr
    # vb & 3 is 4 * (v - s): 2 at the midpoint, where the even one of s, s + 1 wins
    s += np.where(uin != win, win, (vb & 3) + (s & 1) > 2)
    return np.where(upin != wpin, sp10, s), k


def _ascii8(v):
    """Replace each ``v < 10^8`` by its eight decimal digits in ASCII,
    most significant first.  Halves, quarters and digits are split off
    in parallel lanes: a lane ``x`` becomes ``q`` and ``x - n*q`` side by
    side as ``(x << b) - q * (n << b) + q``."""
    q = v // 10000
    v <<= 32
    v -= q * ((10000 << 32) - 1)
    q = v * 5243
    q >>= 19
    q &= _U(0x7F_0000_007F)  # lane // 100, for lanes below 10^4
    v <<= 16
    v -= q * ((100 << 16) - 1)
    q = v * 103
    q >>= 10
    q &= _U(0x000F_000F_000F_000F)  # lane // 10, for lanes below 100
    v <<= 8
    v -= q * ((10 << 8) - 1)
    v |= _U(0x3030_3030_3030_3030)


def _render(F, keep, point, prefix, fill, suffix):
    """Each value's text as the four words of its record: ``fill``
    (``prefix`` bytes), then the first ``keep`` of the 17 digits of ``F``
    with a ``.`` before digit ``point`` where ``point < keep``, and in the
    last word ``suffix``.  ``F`` is overwritten."""
    dotted = point < keep
    keep += dotted
    point = np.where(dotted, point, 17)  # a gap past the digits is cut off below
    del dotted
    # F with a 0 digit inserted before digit `point`: 10*I*D + R where F = I*D + R
    D = _POW10[17 - point]
    F += F // D * D * 9
    del D
    w = np.empty((4, len(F)), np.uint64)
    w[0] = F // 10**10
    F -= w[0] * 10**10
    w[1] = F // 100
    F -= w[1] * 100
    _ascii8(w[:2])
    w[2] = F // 10
    w[2] |= (F - w[2] * 10) << 8
    w[2] |= 0x3030
    for j in range(3):
        w[j] ^= _DOT[point + (24 - 8 * j)]  # the inserted "0" becomes "."
        w[j] &= _FIRST[keep + (24 - 8 * j)]
    bits = (prefix * 8).view(np.uint64)
    spill = w[:2] >> (64 - bits)  # a shift by 64 gives 0: no prefix
    w[:3] <<= bits
    w[1:3] |= spill
    w[0] |= fill
    w[3] = suffix
    return w


def _float_args(x):
    """The :func:`_render` arguments for float64 values; inf, -inf and nan
    come out as 0.0, for :func:`csv_rows` to overwrite."""
    bits = x.view(np.uint64)
    nonzero = ((bits & _M63) < _U(0x7FF0_0000_0000_0000)) & (bits << 1 != 0)
    f, e = _decimal(np.where(nonzero, bits & _M63, _U(0x3FF0_0000_0000_0000)))  # 1.0 stands in
    f *= nonzero
    for p in (16, 8, 4, 2, 1):  # strip trailing zeros, in halving steps
        q = f // 10**p
        strip = q * 10**p == f
        np.copyto(f, q, where=strip)
        e += strip * p
    del q, strip
    n = np.maximum(np.searchsorted(_POW10, f, side="right"), 1)
    f *= _POW10[17 - n]
    decpt = n + e
    np.copyto(decpt, 1, where=~nonzero)  # the value is 0.d1d2...dn * 10^decpt
    exp = (decpt < -3) | (decpt > 16)
    small = ~exp & (decpt < 1)  # 0.000ddd: zeros and point are a prefix
    zeros = small * (2 - decpt)
    neg = (bits >> 63).view(np.int64)
    fill = _FILL[8 * neg + zeros]
    suffix = _tables()[1][decpt + 399] * exp
    keep = np.where(exp | small, n, np.maximum(n, decpt + 1))
    point = np.where(exp, 1, decpt + small * _NO_POINT)
    del n, decpt, exp, small, e
    neg += zeros
    return f, keep, point, neg, fill, suffix


def _int_args(x):
    """The :func:`_render` arguments for int64 values."""
    neg = (x < 0).view(np.int8).astype(np.int64)
    f = np.abs(x).view(np.uint64)
    n = np.maximum(np.searchsorted(_POW10, f, side="right"), 1)
    f *= _POW10[17 - n]
    return f, n, np.full_like(n, _NO_POINT), neg, _FILL[8 * neg], np.zeros_like(f)


INT_LIMIT = 10**17
"""The ``index`` of :func:`csv_rows` lies strictly between ``-INT_LIMIT``
and ``INT_LIMIT``: integers of up to 17 digits."""


_COMMA, _NEWLINE = _U(ord(",") << 56), _U(ord("\n") << 56)


def csv_rows(columns, index=None):
    """Yield CSV rows as text, a few thousand fields at a time: the int64
    ``index`` column if given, then the float64 ``columns``, all of one
    length.  Each float is written in exactly the bytes of ``repr``, each
    index in those of ``str``.  One :func:`_render` call lays out all the
    fields of a chunk, in row order."""
    width = len(columns) + (index is not None)
    step = max(1, _CHUNK // width)
    for i in range(0, len(columns[0]), step):
        floats = np.stack([c[i : i + step] for c in columns], axis=1)
        count = len(floats)
        args = _float_args(floats.ravel())
        if index is not None:  # the index as the first field of each row
            ints = _int_args(index[i : i + step])
            args = [np.concatenate((a[:, None], b.reshape(count, -1)), axis=1).ravel() for a, b in zip(ints, args)]
        rows = np.ascontiguousarray(_render(*args).T).reshape(count, width, 4)
        for j in np.flatnonzero(~np.isfinite(floats)):  # inf, -inf and nan: the only repr calls
            record = np.frombuffer(repr(float(floats.flat[j])).encode().ljust(32, b"\0"), "<u8")
            rows[j // len(columns), width - len(columns) + j % len(columns)] = record
        rows[:, :, 3] |= _COMMA
        rows[:, -1, 3] ^= _COMMA ^ _NEWLINE
        text = rows.astype("<u8", copy=False).view(np.uint8).ravel()  # the words' values are little-endian text
        yield str(text[text != 0], "ascii")
