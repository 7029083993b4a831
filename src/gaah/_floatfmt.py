"""Shortest round-trip text of float64 blocks, byte for byte ``repr``.

``format_rows(block, tail)`` returns ``"%r,%r,...,%r" % row`` for every row
of a (rows, m) float64 block, each followed by that row's ``tail`` bytes, as
one ``bytes`` object.  It works on the whole block at once in numpy integer
arithmetic, so its work arrays grow with the block and callers pass blocks
of bounded size; nothing loops over values in Python except the rare
subnormals, infinities and NaNs, which are handed to ``repr`` one at a time.

Why the text equals ``repr``:

* **Digits.**  ``repr`` prints the shortest decimal that rounds back to the
  double (round-half-even reading), and of several such the one nearest to
  it.  The Schubfach algorithm (R. Giulietti, "The Schubfach way to render
  doubles", 2020; Java's ``Double.toString``) computes exactly that decimal
  in 64-bit integer arithmetic.  Here it runs on uint64 arrays.  Its
  products g * c of the 126-bit scaled power of ten g(k) with the
  59-bit scaled significand are formed from 32-bit limbs, whose pairwise
  products fit in 64 bits.  The 617 values g(k), k = -324 ... 292, are
  computed once from Python integers, with the definition of the paper:
  g = floor(10^-k 2^-r) + 1, with r chosen so that 2^125 <= g < 2^126.
  Only normal doubles take this route; zeros are written directly.  That
  leaves out Schubfach's branch for the two smallest subnormals.
* **Layout.**  With the digits d1 d2 ... dn and the decimal point position
  p (value = 0.d1d2...dn x 10^p), ``repr`` uses fixed notation when
  -4 < p <= 16 (``123.0``, ``0.00012``) and otherwise scientific notation
  with at least two exponent digits (``1e-05``, ``1.5e+16``).  Either form
  fits 30 fixed slots per value: sign, ``0.000``, 17 digits with the point
  among them, ``e-308`` and the separator.  Every slot is filled for many
  values at once, and a slot a value does not use is multiplied by zero.
  The slots are then transposed into text order, and one pass drops every
  NUL byte.
"""

from __future__ import annotations

import numpy as np

_K_MIN, _K_MAX = -324, 292  # floor(log10(2^q)) over the normal exponents q
_M32 = 0xFFFFFFFF
_M63 = (1 << 63) - 1
_C_MIN = 1 << 52  # the implicit bit of a normal significand
_ONE_BITS = 0x3FF0000000000000

# Slots of one value: "-", "0.000", 17 digits and a point, "e-308", ",".
_SLOTS = 30
_PREFIX = slice(1, 6)
_AREA = slice(6, 24)
_EXPONENT = slice(24, 29)


def _flog2pow10(e):
    """floor(e log2 10) for |e| <= 1233, exact in integer arithmetic."""
    return (e * 913_124_641_741) >> 38


def _g_table() -> tuple[np.ndarray, ...]:
    """g1, g0 = divmod(g(k), 2^63), with g1 and g0 also split in 32-bit limbs."""
    g1, g0 = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        r = _flog2pow10(-k) - 125
        num, den = (10 ** -k, 1) if k <= 0 else (1, 10 ** k)
        if r < 0:
            num <<= -r
        else:
            den <<= r
        g = num // den + 1
        g1.append(g >> 63)
        g0.append(g & _M63)
    g1 = np.array(g1, dtype=np.uint64)
    g0 = np.array(g0, dtype=np.uint64)
    return g1, g1 >> 32, g1 & _M32, g0 >> 32, g0 & _M32


_G = _g_table()

_N4 = np.arange(10000)
#: "%04d" % n as four ASCII bytes, in memory order.
_DIGITS4 = (_N4[:, None] // np.array([1000, 100, 10, 1]) % 10
            + ord("0")).astype(np.uint8).view(np.uint32).ravel()
#: Position of the last nonzero digit of "%04d" % n, 1-4 (0 when n = 0).
_LAST4 = (4 - sum(_N4 % 10 ** i == 0 for i in range(1, 5))).astype(np.uint8)
#: Digits before each 4-digit group of a 17-digit significand.
_GROUP_OFFSET = np.array([[1], [5], [9], [13]], dtype=np.uint8)
_ROW = np.arange(18, dtype=np.uint8)[:, None]


def _columns(texts: list[str], width: int) -> np.ndarray:
    """ASCII ``texts`` NUL-padded to ``width``, one text per column."""
    return np.array([list(t.encode().ljust(width, b"\0")) for t in texts],
                    dtype=np.uint8).T.copy()


#: Fixed notation below 1: "0." and 1 - p zeros for p = 1 ... -3; column 0 empty.
_SMALL_PREFIX = _columns(["", "0.", "0.0", "0.00", "0.000"], 5)
#: Scientific exponent e = -324 ... 308 at column e + 324, with an empty
#: hundreds slot for two-digit exponents ("e-05", "e+100").
_EXPONENT_TEXT = _columns(
    [t if len(t) == 5 else t[:2] + "\0" + t[2:]
     for t in ("e%+03d" % e for e in range(-324, 309))], 5)


def _mulhi(a1, a0, b1, b0):
    """High 64 bits of (a1 2^32 + a0)(b1 2^32 + b0) for 32-bit limbs."""
    t = a1 * b0
    t += (a0 * b0) >> 32
    w = t & _M32
    w += a0 * b1
    hi = a1 * b1
    hi += t >> 32
    hi += w >> 32
    return hi


def _rop(g, cp):
    """floor(g cp / 2^127), with the low bit set when the quotient is inexact.

    This is Schubfach's ``rop``: g = g1 2^63 + g0, and only the bits the
    paper's proof needs enter the sticky bit.
    """
    g1, g1h, g1l, g0h, g0l = g
    b1, b0 = cp >> 32, cp & _M32
    z = g1 * cp
    z >>= 1
    z += _mulhi(g0h, g0l, b1, b0)
    vbp = _mulhi(g1h, g1l, b1, b0)
    vbp += z >> 63
    vbp |= (z & _M63) != 0
    return vbp


def _interval(bits):
    """Schubfach's scaled value vb and rounding interval [vbl, vbr] of
    normal doubles, and the decimal exponent k of their scale 10^k."""
    c = (bits & (_C_MIN - 1)) | _C_MIN
    q = ((bits >> 52) & 0x7FF).astype(np.int64) - 1075
    # At a power of two the gap below is half the gap above: the rounding
    # interval is asymmetric, and k is taken from 3/4 of 2^q.
    irregular = (c == _C_MIN) & (q > -1074)
    k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41
    h = (q + _flog2pow10(-k) + 2).astype(np.uint8)
    g = tuple(np.take(col, k - _K_MIN) for col in _G)
    cb = c << 2
    out = c & 1
    vb = _rop(g, cb << h)
    vbl = _rop(g, (cb - 2 + irregular) << h) + out
    vbr = _rop(g, (cb + 2) << h) - out
    return vb, vbl, vbr, k


def _shortest(bits):
    """Shortest decimal f 10^e of normal doubles, 10^16 <= f < 10^17.

    Returns f and the decimal point position p = e + 17.
    """
    vb, vbl, vbr, k = _interval(bits)
    s = vb >> 2
    # One digit fewer: at most one multiple of 10 lies in the interval.
    sp10 = (s // 10) * 10
    tp10 = sp10 + 10
    upin = vbl <= sp10 << 2
    wpin = tp10 << 2 <= vbr
    # Full length: s or s + 1, the nearer one when both lie inside.
    t = s + 1
    uin = vbl <= s << 2
    win = t << 2 <= vbr
    mid = (s + t) << 1
    take_s = np.where(uin != win, uin, (vb < mid) | ((vb == mid) & ((s & 1) == 0)))
    f = np.where(upin != wpin, np.where(upin, sp10, tp10), np.where(take_s, s, t))
    short = f < 10 ** 16
    return np.where(short, f * 10, f), (k + 17 - short).astype(np.int16)


def _digits(f):
    """ASCII digits (17, n) of f < 10^17, and how many precede trailing zeros."""
    n = len(f)
    lead = f // 10 ** 16
    rest = f - lead * 10 ** 16
    hi = rest // 10 ** 8
    lo = rest - hi * 10 ** 8
    groups = np.empty((4, n), dtype=np.intp)
    groups[0], groups[1] = np.divmod(hi, 10 ** 4)
    groups[2], groups[3] = np.divmod(lo, 10 ** 4)
    digits = np.empty((17, n), dtype=np.uint8)
    digits[0] = lead + ord("0")
    digits[1:].reshape(4, 4, n)[...] = (
        _DIGITS4[groups].view(np.uint8).reshape(4, n, 4).transpose(0, 2, 1))
    last = _LAST4[groups]
    ends = (last > 0) * (last + _GROUP_OFFSET)
    return digits, np.maximum(ends.max(axis=0), 1)


def _layout(digits, count, p, negative, slots):
    """Write repr's characters into ``slots`` (30, n); unused slots get 0.

    Selections are products with 0/1 masks: on these small unsigned arrays
    that is an order of magnitude faster than ``np.where``.
    """
    fixed = (p > -4) & (p <= 16)
    small = fixed & (p <= 0)
    big = fixed & (p > 0)
    sci = ~fixed
    # Digits kept: fixed notation keeps those before the point and at least
    # one after it ("100.0").
    keep = np.maximum(count, big * (p + 1)).astype(np.uint8)
    # Digits before the point: p in fixed notation, one in scientific
    # notation unless the value has a single digit ("1e-05"); 18 is none.
    dot = (big * p + (sci & (count > 1))
           + 18 * (small | (sci & (count == 1)))).astype(np.uint8)
    slots[0] = negative * ord("-")
    slots[_PREFIX] = _SMALL_PREFIX.take(small * (1 - p), axis=1)
    # shifted[j + 1] = digits[j] where kept, else 0.
    shifted = np.zeros((19, len(p)), dtype=np.uint8)
    np.multiply(digits, _ROW[:17] < keep, out=shifted[1:18])
    area = slots[_AREA]
    np.multiply(shifted[1:], _ROW < dot, out=area)
    area += shifted[:18] * (_ROW > dot)
    area += (_ROW == dot) * np.uint8(ord("."))
    np.multiply(_EXPONENT_TEXT.take(p + 323, axis=1), sci, out=slots[_EXPONENT])


def _fill_slots(bits, normal, slots):
    """Write the text slots (30, n) of each value; subnormal, inf and nan
    values are written as if they were 1.0."""
    all_normal = normal.all()
    f, p = _shortest(bits if all_normal else np.where(normal, bits, _ONE_BITS))
    if not all_normal:
        zero = (bits << 1) == 0
        f[zero] = 0
        p[zero] = 1
    digits, count = _digits(f)
    _layout(digits, count, p, bits >> 63, slots)


def format_rows(block: np.ndarray, tail: np.ndarray) -> bytes:
    """``",".join(map(repr, row))`` of each row of ``block``, then its tail.

    ``block`` is (rows, m) float64.  ``tail`` is uint8, (w,) for every row or
    (rows, w) per row; its zero bytes are dropped.
    """
    rows, m = block.shape
    bits = np.ascontiguousarray(block, dtype=np.float64).reshape(-1).view(np.uint64)
    exponent = (bits >> 52) & 0x7FF
    normal = (exponent != 0) & (exponent != 0x7FF)
    slots = np.empty((_SLOTS, rows * m), dtype=np.uint8)
    _fill_slots(bits, normal, slots)
    slots[-1] = ord(",")
    buf = np.empty((rows, m * _SLOTS + np.shape(tail)[-1]), dtype=np.uint8)
    values = buf[:, :m * _SLOTS].reshape(rows, m, _SLOTS)
    values[...] = slots.reshape(_SLOTS, rows, m).transpose(1, 2, 0)
    values[:, -1, -1] = 0
    buf[:, m * _SLOTS:] = tail
    for i in np.flatnonzero(~normal & ((bits << 1) != 0)):
        text = repr(float(bits[i:i + 1].view(np.float64)[0])).encode()
        row, col = divmod(int(i), m)
        values[row, col, :-1] = 0
        values[row, col, :len(text)] = np.frombuffer(text, dtype=np.uint8)
    return buf.tobytes().translate(None, b"\0")
