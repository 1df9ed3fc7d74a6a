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

Each field is a record of four little-endian ``uint64`` words.  The
text ends at byte 24, right-aligned in the first three words, and the
exponent and the separator start the fourth, so the text is one run
with NUL bytes only before it and after it, which the CSV joiner drops.
Digits come right-aligned out of an integer, so a point is a ``0``
digit inserted arithmetically, and the sign and the ``0.000`` of a
small value sit on leading zeros: one OR with a word per layout turns
digit values into ASCII and places the point and the sign.
"""

from __future__ import annotations

import functools

import numpy as np

_CHUNK = 4096
"""Values per pass of the kernel.  A pass holds at most about 90 bytes a
value (about 0.37 MB at this size, the block a writer holds included);
smaller passes pay numpy's per-call cost more often, and larger ones
raise the peak memory of the worker that writes evolve snapshots."""

_PIECE = 2048
"""Fields whose text is joined at a time: a pass yields its text in
pieces of about this many fields, so the byte mask (32 bytes a field)
and the text in flight stay near 64 KB."""

_U = np.uint64
_M32 = _U(0xFFFF_FFFF)
_M63 = _U((1 << 63) - 1)
_BIG = _U(0x7FEF_FFFF_FFFF_FFFF)  # a value's bits less 1 reach this for 0, inf and nan
_NOT3 = _U(~3 & (1 << 64) - 1)
_TEN = _U(10)
_K_MIN = -324  # the smallest k of the powers of ten: 10^-324 < 2^-1074
_POW10 = np.array([10**j for j in range(18)], dtype=np.uint64)
_TIE = np.array([v & 3 == 3 or v == 6 for v in range(8)])  # by vb & 7: s + 1 is nearer, or as near and even
_E0 = 400  # a decimal point position d has exponent index d + _E0
# lane multipliers of the digit split (see _digits8)
_LANE4, _LANE2, _LANE1 = _U((10000 << 32) - 1), _U((100 << 16) - 1), _U((10 << 8) - 1)
_LANE0 = _U((10 << 56) - (1 << 48))  # the two digits of a value below 100 into bytes 6 and 7
_HALVES, _QUARTERS = _U(0x7F_0000_007F), _U(0x000F_000F_000F_000F)
_ZERO = 4 * 36 + 2  # the layout id of "0.0": class d = 1, one digit
_INT = 21  # the layout class of integers; classes 0..19 are d = -3..16, 20 exponent form


def _layout(cls, n, neg):
    """``(z, a, start)`` of one layout: the digits get ``z`` zeros
    appended and a point before their last ``a`` (none if 0), and the
    text, sign included, starts at byte ``start``."""
    if cls == _INT:
        z, a, chars = 0, 0, n
    elif cls == 20:
        z, a, chars = 0, n - 1, n + (n > 1)
    elif cls - 3 >= n:  # integral: digits, zeros up to the point, ".0"
        z, a, chars = cls - 3 - n + 1, 1, cls - 3 + 2
    elif cls >= 4:
        z, a, chars = 0, n - cls + 3, n + 1
    else:  # 0.000ddd: the zeros are padding
        z, a = 0, n - cls + 3
        chars = a + 2
    return z, a, 24 - chars - neg


@functools.cache
def _tables():
    """Built on first use, not at import.

    By exponent key (see :func:`_float_fields`): ``base``, the bits to
    subtract for the significand ``c``, ORed with ``k - _K_MIN``;
    ``shift``, which makes ``4c << h``; and ``dl`` and ``dr``, the
    scaled half-gaps below and above.
    By ``k - _K_MIN``: ``g``, the 32-bit limbs, lowest first, of the
    high and then the low 63 bits of the 126-bit ``floor(b) + 1``,
    where ``10^-k = b * 2^r`` and ``2^125 <= b < 2^126``.
    By layout id ``36 * class + 2 * digits + sign``: ``pz``, the power
    of ten that appends the zeros; ``pd``, the one that opens the point
    (``10^19`` where there is none); ``asc``, the three words ORed onto
    the digit values.
    By exponent index: ``cls``, 36 times the layout class, and
    ``suffix``, the exponent (if any) and ``,``, then the same with a
    newline from index 800 on.
    """
    g = np.empty((4, 293 - _K_MIN), np.uint64)
    for j in range(g.shape[1]):
        k = j + _K_MIN
        if k <= 0:
            p = 10**-k
            r = p.bit_length() - 126
            b = p >> r if r >= 0 else p << -r
        else:
            d = 10**k
            b = (1 << (125 + d.bit_length())) // d
        lo, hi = b + 1 & (1 << 63) - 1, b + 1 >> 63
        g[:, j] = hi & 0xFFFF_FFFF, hi >> 32, lo & 0xFFFF_FFFF, lo >> 32
    tables = {"base": np.empty(4096, np.uint64), "g": tuple(g)}
    for name in ("shift", "dl", "dr"):
        tables[name] = np.empty(4096, np.uint8)
    # key = 2 * biased exponent, less 1 where the significand bits are all 0:
    # a power of two, whose gap below is half the gap above
    for odd in (0, 1):
        be = np.arange(odd, 2048 + odd)
        key = 2 * be - odd
        irregular = (be > 1) & (odd == 1)
        be = np.clip(be, 1, 2046)
        q = be - 1075  # the double is c * 2^q
        k = q * 661_971_961_083 - irregular * 274_743_187_321
        k >>= 41  # floor(log10(2^q)), or of 3/4 * 2^q where irregular
        h = ((k * -913_124_641_741) >> 38) + q + 2
        tables["base"][key] = be - 1 << 52 | k - _K_MIN
        tables["shift"][key] = h + 2
        tables["dl"][key] = 2 - irregular << h
        tables["dr"][key] = 2 << h
    del be, key, irregular, q, k, h
    z, a, start = np.array([_layout(cls, n, neg) for cls in range(22) for n in range(18) for neg in (0, 1)]).T
    tables["pz"] = np.array([10**v for v in z.tolist()], dtype=np.uint64)
    tables["pd"] = np.array([10 ** min(v, 19) if v > 0 else 10**19 for v in a.tolist()], dtype=np.uint64)
    at = np.arange(24)
    asc = np.where(at >= start[:, None], np.uint8(0x30), np.uint8(0))
    asc[(at == start[:, None]) & (np.arange(len(asc)) % 2 == 1)[:, None]] = 0x2D
    asc[(at == 23 - a[:, None]) & (a > 0)[:, None]] = 0x2E
    tables["asc"] = np.ascontiguousarray(asc.view("<u8").astype(np.uint64).T)
    d = np.arange(800) - _E0
    exp = (d < -3) | (d > 16)
    tables["cls"] = np.where(exp, 20, d + 3) * 36
    exponents = [b"e%+03d" % (x - 1) if e else b"" for x, e in zip(d.tolist(), exp)]
    tables["suffix"] = np.array([int.from_bytes(x + end, "little") for end in (b",", b"\n") for x in exponents], dtype=np.uint64)
    for v in tables.values():
        for array in v if isinstance(v, tuple) else (v,):
            array.flags.writeable = False
    return tables


def _rop(g, j, cp):
    """``floor(g * cp / 2^127)`` rounded to odd, so its low bit is set
    when the division is inexact (Schubfach's ``rop``), for ``cp <
    2^60``; ``g`` is 10^-k, its limbs (see :func:`_tables`) gathered one
    at a time at ``j = k - _K_MIN``, and ``cp`` is overwritten."""
    g1_lo, g1_hi, g0_lo, g0_hi = g
    lo = cp & _M32
    limb = g1_lo.take(j)
    z = limb * cp  # z: the low word of g1 * cp, in two parts
    cp >>= 32
    y = limb * lo  # y: the high word of g1 * cp, from its four limb products
    y >>= 32
    p = limb * cp
    y += p
    np.take(g1_hi, j, out=limb, mode="wrap")
    np.multiply(limb, lo, out=p)
    y += p
    p <<= 32
    z += p
    z >>= 1
    y >>= 32
    np.multiply(limb, cp, out=p)
    y += p
    np.take(g0_lo, j, out=limb, mode="wrap")  # p: the high word of g0 * cp
    np.multiply(limb, lo, out=p)
    p >>= 32
    limb *= cp
    p += limb
    np.take(g0_hi, j, out=limb, mode="wrap")
    lo *= limb
    p += lo
    p >>= 32
    limb *= cp
    p += limb
    z += p
    np.right_shift(z, 63, out=p)
    y += p
    z &= _M63
    np.minimum(z, 1, out=z)
    y |= z
    return y


def _float_fields(x):
    """``[F, lid, di]`` of each float64 value: its digits as an integer
    (a ``0`` inserted where the point goes), its layout id and its
    exponent index (see :func:`_tables`).  Zeros, and inf, -inf and nan
    for :func:`csv_rows` to overwrite, come out as ``0.0`` with their
    sign, without passing through Schubfach.  ``x`` is overwritten."""
    m = x.view(np.uint64)
    neg = np.signbit(x)
    m &= _M63
    key = m - _U(1)
    special = key >= _BIG  # 0, inf and nan
    if not special.any():
        return _finite_fields(m, key, neg)
    some = np.flatnonzero(~special)
    key = key[some]
    parts = _finite_fields(m[some], key, neg[some])
    del key
    fields = [np.zeros(len(m), np.uint64), neg.astype(np.int64), np.full(len(m), _E0 + 1)]  # "0.0": F = 0, d = 1
    fields[1] += _ZERO
    for full, part in zip(fields, parts):
        full[some] = part
    return fields


def _finite_fields(m, key, neg):
    """:func:`_float_fields` of the finite nonzero values whose bits, sign
    cleared, are ``m`` (overwritten), with ``key = m - 1``.  The shortest
    digits are Schubfach's ``f * 10^k``, the nearest where several read
    back, ties to even ``f``."""
    t = _tables()
    key >>= 52
    key += m >> 52
    key = key.view(np.int64)  # 2 * biased exponent, less 1 for a power of two
    odd = (m & 1).astype(bool)  # an even significand's interval includes its ends
    base = t["base"].take(key)
    e = base & _U(1023)  # k - _K_MIN, which picks the limbs of 10^-k
    m -= base
    m += e
    del base
    m <<= t["shift"].take(key)
    cp = m  # the value 4c, scaled by 2^h
    e = e.view(np.int64)
    vbl = _rop(t["g"], e, cp - t["dl"].take(key))  # the interval's ends
    vbl += odd
    vbr = cp + t["dr"].take(key)
    del key
    vbr = _rop(t["g"], e, vbr)
    vbr -= odd
    vb = _rop(t["g"], e, cp)  # and the value
    del odd, cp, m
    sp = vb // 40
    sp *= 40
    upin = vbl <= sp  # one digit shorter: the multiples of ten on either side of s
    sp += 40
    wpin = sp <= vbr
    s = vb & _NOT3
    uin = vbl <= s  # full length: s or s + 1
    s += 4
    win = s <= vbr
    del vbl, vbr
    # s or s + 1, the nearer where both are in: vb & 3 is 4 * (v - s),
    # 2 at the midpoint, where the even one wins (see _TIE)
    np.right_shift(vb, 2, out=s)
    s += np.where(uin != win, win, _TIE.take((vb & 7).view(np.int64)))
    sp >>= 2
    sp -= upin * _TEN
    f = np.where(upin != wpin, sp, s)
    del vb, sp, s, upin, wpin, uin, win
    d = np.searchsorted(_POW10, f, side="right")
    e += d  # the value is 0.d1d2... * 10^(e + _K_MIN)
    e += _E0 + _K_MIN
    q = f // 10
    ends = np.flatnonzero(q * 10 == f)
    if len(ends):  # strip the trailing zeros, in halving steps
        fz = q[ends]
        for j in (8, 4, 2, 1):
            q = fz // _POW10[j]
            fz = np.where(q * _POW10[j] == fz, q, fz)
        f[ends] = fz
        d[ends] = np.searchsorted(_POW10, fz, side="right")
    del q, ends
    lid = t["cls"].take(e)
    d <<= 1
    lid += d
    lid += neg
    f *= t["pz"].take(lid)
    # a 0 digit inserted before the last log10(d) digits: 10*I*d + R where f = I*d + R
    d = t["pd"].take(lid)
    d *= f // d
    d *= 9
    f += d
    return [f, lid, e]


def _int_fields(x):
    """``(F, lid, di)`` of each int64 value (see :func:`_float_fields`)."""
    f = np.abs(x).view(np.uint64)
    n = np.searchsorted(_POW10, f, side="right")
    np.maximum(n, 1, out=n)
    n <<= 1
    n += _INT * 36
    n += x < 0
    return [f, n, np.full(len(x), _E0 + 1)]


def _records(fields):
    """The four words of each field's record, from the list ``[F, lid,
    di]`` (see :func:`_float_fields`), which is emptied so that each
    array is freed once it is used."""
    f, lid, di = fields
    fields.clear()
    t = _tables()
    w = np.empty((3, len(f)), np.uint64)
    np.floor_divide(f, _POW10[16], out=w[0])
    np.multiply(w[0], _POW10[16], out=w[1])
    f -= w[1]
    np.floor_divide(f, _POW10[8], out=w[1])
    np.multiply(w[1], _POW10[8], out=w[2])
    np.subtract(f, w[2], out=w[2])
    # the first word has two digits (f < 10^18), at its last two bytes
    np.multiply(w[0], 103, out=f)
    f >>= 10
    w[0] <<= 56
    f *= _LANE0
    w[0] -= f
    _digits8(w[1:])
    del f
    rows = np.empty((len(di), 4), np.uint64)
    for j in range(3):
        np.bitwise_or(w[j], t["asc"][j].take(lid), out=rows[:, j])
    del w, lid
    rows[:, 3] = t["suffix"].take(di)
    return rows


def _digits8(v):
    """Replace each ``v < 10^8`` by its eight decimal digits, one a
    byte, most significant first.  Halves, quarters and digits are
    split off in parallel lanes: a lane ``x`` becomes ``q`` and ``x -
    n*q`` side by side as ``(x << b) - q * (n << b) + q``."""
    q = v // 10000
    v <<= 32
    q *= _LANE4
    v -= q
    np.multiply(v, 5243, out=q)
    q >>= 19
    q &= _HALVES  # lane // 100, for lanes below 10^4
    v <<= 16
    q *= _LANE2
    v -= q
    np.multiply(v, 103, out=q)
    q >>= 10
    q &= _QUARTERS  # lane // 10, for lanes below 100
    v <<= 8
    q *= _LANE1
    v -= q


INT_LIMIT = 10**17
"""The ``index`` of :func:`csv_rows` lies strictly between ``-INT_LIMIT``
and ``INT_LIMIT``: integers of up to 17 digits."""


def csv_rows(columns, index=None):
    """Yield CSV rows as text, a few thousand fields at a time: the int64
    ``index`` column if given, then the float64 ``columns``, all of one
    length.  Each float is written in exactly the bytes of ``repr``, each
    index in those of ``str``.  One :func:`_records` call lays out all
    the fields of a pass, in row order."""
    width = len(columns) + (index is not None)
    step = max(1, _CHUNK // width)
    for i in range(0, len(columns[0]), step):
        x = np.stack([c[i : i + step] for c in columns], axis=1).ravel()
        count = len(x) // len(columns)
        finite = np.isfinite(x)
        bad = None if finite.all() else np.flatnonzero(~finite)
        bad_values = None if bad is None else x[bad]
        del finite
        fields = _float_fields(x)
        del x
        if index is not None:  # the index as the first field of each row
            ints = _int_fields(index[i : i + step])
            fields = [np.concatenate((a[:, None], b.reshape(count, -1)), axis=1).ravel() for a, b in zip(ints, fields)]
            del ints
        fields[2].reshape(count, width)[:, -1] += 800  # a newline ends the row
        rows = _records(fields).reshape(count, width, 4)
        if bad is not None:  # inf, -inf and nan: the only repr calls
            for j, v in zip(bad.tolist(), bad_values.tolist()):
                record = np.frombuffer(repr(v).encode().rjust(24, b"\0"), "<u8")
                rows[j // len(columns), width - len(columns) + j % len(columns), :3] = record
        yield from _text(rows.reshape(count, -1))
        del rows


def _text(rows):
    """Yield the text of the records, a row of them each, without the NUL
    bytes around each field, :data:`_PIECE` fields at a time."""
    text = rows.astype("<u8", copy=False).view(np.uint8)  # the words' values are little-endian text
    step = max(1, 4 * _PIECE // rows.shape[1])
    for i in range(0, len(text), step):
        piece = text[i : i + step].ravel()
        yield str(piece[piece != 0], "ascii")
