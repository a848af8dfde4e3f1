"""Exact float-to-text for whole columns of float64.

``g17_slots`` and ``repr_slots`` give, for every value of a column, exactly
the bytes of ``'%.17g' % v`` and of ``repr(v)``, as one column of a uint8
array in which NUL marks an absent byte.  ``chunks`` lays such slot arrays
and constant byte strings side by side, one line per value, and drops the
NULs, so a writer turns a block of records into text without a Python call
per value.

Digits.  A normal float is a = m 2^e with m in [2^52, 2^53).  With its
decimal exponent X (10^X <= a < 10^(X+1)) and k = 16 - X, the scaled value
y = a 10^k lies in [10^16, 10^17).  The 17-digit decimal of a is y rounded
to an integer, and the 16- and 15-digit decimals are y / 10 and y / 100
rounded, half to even.  y is computed as a double-double: 10^k = T 2^t with
T in [1, 2] stored as T_hi + T_lo (made from exact integers, so the pair is
within 2^-106 of T), then a 2^t T_hi by Dekker's exact product, a 2^t T_lo
in one rounding and their sum in one more.  That is within 2^-104 y < 2^-47
of y, so N = floor(y) and f = y - N are known to 2^-47 in units of y's last
place.

Decisions.  Each rounding compares (N mod 10^s) + f with 10^s / 2.  A
comparison more than ``_EPS`` from its boundary is certain.  Nearer, the
value is either an exact tie, which the integer test ``_is_half`` finds and
rounds to even, or it is left unsure.  ``repr`` is the shortest decimal that
reads back as a, and of those the nearest: the first of the 15-, 16- and
17-digit roundings that lies inside a's rounding interval, +-1/2 ulp with
the low side halved at a power of two.  At most one 15-digit decimal fits
in that interval (its width is under a fifth of their spacing for a normal
a), so a shorter decimal inside it is the 15-digit rounding with its
trailing zeros.  At a power of two the 16-digit decimal one unit above the
rounding may fit where the nearer one below does not, so it is tried too.
A distance within ``_EPS`` of the interval's edge is left unsure.

Layout.  Each value has ``_WIDTH`` byte slots: sign, the ``0.000`` prefix
of a fixed value below 1, the 17 digits with a slot for the point after
each of the first 16, and the exponent.  Which slots hold a byte depends on
the layout: ``%g``'s fixed form for -4 <= X < 17 and ``repr``'s for
-4 <= X < 16, trailing zeros dropped, and ``repr``'s ``.0`` on an integral
fixed value.

Zeros are constants.  Infinities, NaN, subnormals and the rare unsure value
are formatted by Python's ``%`` or ``repr``, one at a time; that is the only
per-value path left.
"""

from __future__ import annotations

import functools

import numpy as np

# k = 16 - X over the normal floats (X in [-308, 308]), one wider each way
# for a decimal exponent that is first estimated one off
_K_MIN, _K_MAX = -293, 326
# the computed y is within 2^-47 of the exact one, so a decision further
# than this from its boundary is certain
_EPS = 2.0 ** -44
_SPLIT = 2.0 ** 27 + 1.0  # Veltkamp's constant: halves of at most 26 bits
_TINY, _HUGE = np.finfo(np.float64).tiny, np.finfo(np.float64).max
_MANT = (1 << 52) - 1
_POW5 = np.array([5 ** j for j in range(28)], dtype=np.int64)
# Values formatted at a time.  On 600 000 Cauchy values on a 2-core Xeon
# (2 MiB of L2 a core), '%.17g' took 103, 78 and 98 ns a value at blocks of
# 4096, 16384 and 65536, and repr 154, 115 and 149 ns: a smaller block pays
# its per-call overhead more often, and the temporaries of a larger one fall
# out of L2.  The block does not change the bytes.
_BLOCK = 16384

# slot rows: sign, '0', '.', three '0's, d0 p0 d1 p1 ... p15 d16, 'e', sign, 3 digits
_DIGIT = 6  # digit j is row _DIGIT + 2 j, the point after it row _DIGIT + 2 j + 1
_EXP = _DIGIT + 33
_WIDTH = _EXP + 5
_ZERO, _DOT, _MINUS, _PLUS = ord("0"), ord("."), ord("-"), ord("+")


@functools.cache
def _powers() -> tuple:
    """10^k = T 2^t for k in [_K_MIN, _K_MAX): T_hi, T_lo and t, indexed by
    k - _K_MIN."""
    hi, lo, t = [], [], []
    for k in range(_K_MIN, _K_MAX):
        if k >= 0:
            num = 10 ** k
            tk = num.bit_length() - 1
            den = 1 << tk
        else:
            den = 10 ** -k
            tk = -den.bit_length()
            num = 1 << -tk
        h = num / den  # int / int is correctly rounded
        hi.append(h)
        lo.append(((num << 52) - int(h * 2.0 ** 52) * den) / (den << 52))
        t.append(tk)
    tables = np.array(hi), np.array(lo), np.array(t, dtype=np.int64)
    for a in tables:
        a.setflags(write=False)  # cached, so shared by every caller
    return tables


@functools.cache
def _exponents() -> np.ndarray:
    """Column X + 400 holds the exponent bytes of 10^X: 'e', its sign, and
    three digits, the first NUL below 100."""
    X = np.arange(-400, 400)
    a = np.abs(X)
    table = np.array([np.full(800, ord("e")), np.where(X < 0, _MINUS, _PLUS),
                      np.where(a >= 100, a // 100 + _ZERO, 0), a // 10 % 10 + _ZERO,
                      a % 10 + _ZERO], dtype=np.uint8)
    table.setflags(write=False)  # cached, so shared by every caller
    return table


def _scaled(bits: np.ndarray, k: np.ndarray) -> tuple:
    """floor(y) and y - floor(y), each within 2^-47, for y = a 10^k and the
    positive normal floats a whose bits are given (as int64)."""
    hi, lo, t = (col[k - _K_MIN] for col in _powers())
    a = (bits + (t << 52)).view(np.float64)  # a 2^t = y / T: normal, exact
    c = _SPLIT * a
    ah = c - (c - a)
    al = a - ah
    c = _SPLIT * hi
    hh = c - (c - hi)
    hl = hi - hh
    p = a * hi
    s = (((ah * hh - p) + ah * hl + al * hh) + al * hl) + a * lo
    yh = p + s  # an integer: y >= 10^16 > 2^53
    yl = s - (yh - p)
    whole = np.floor(yl)
    return yh.astype(np.int64) + whole.astype(np.int64), yl - whole


def _is_half(bits: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Whether a 10^k is exactly an odd multiple of 1/2, for the positive
    normal floats a whose bits are given."""
    m = bits & _MANT | (1 << 52)
    low = m & -m
    v = (bits >> 52) - 1075 + np.frexp(low.astype(np.float64))[1] - 1  # 2-adic valuation of a
    return (v + k == -1) & ((m // low) % _POW5[np.clip(-k, 0, 27)] == 0)


def _round(N, f, s: int, bits, k) -> tuple:
    """y / 10^s rounded half to even, and where that was left unsure."""
    if s:
        q = N // 10 ** s
        d = ((N - q * 10 ** s) - 0.5 * 10 ** s) + f
    else:
        q, d = N, f - 0.5
    up = d > _EPS
    near = np.flatnonzero(np.abs(d) <= _EPS)
    unsure = np.zeros(len(N), dtype=bool)
    if len(near):
        tie = _is_half(bits[near], k[near] - s)
        up[near[tie]] = q[near[tie]] % 2 == 1
        unsure[near[~tie]] = True
    return q + up, unsure


def _shortest(N, f, bits, k) -> tuple:
    """The first of the 15-, 16- and 17-digit roundings inside the rounding
    interval, as a 17-digit integer, and where a decision was left unsure."""
    hi, _, t = (col[k - _K_MIN] for col in _powers())
    e = (bits >> 52) - 1075  # a = m 2^e
    half = hi * ((e + t + 1022) << 52).view(np.float64)  # 1/2 ulp in units of y's last place
    pow2 = ((bits & _MANT) == 0) & ((bits >> 52) > 1)
    below = half - 0.5 * half * pow2  # the low half-gap
    unsure = np.zeros(len(N), dtype=bool)

    def inside(R, s, rows=slice(None)):
        diff = (R * 10 ** s - N[rows]) - f[rows]  # candidate minus y
        gap = half[rows] - np.abs(diff) - (diff < 0) * (half[rows] - below[rows])
        unsure[rows] |= np.abs(gap) <= _EPS
        return gap > 0

    R, was = _round(N, f, 0, bits, k)
    unsure |= was
    for s in (1, 2):
        Rs, was = _round(N, f, s, bits, k)
        unsure |= was
        fits = inside(Rs, s)
        if s == 1:
            up = np.flatnonzero(pow2 & ~fits)
            moved = inside(Rs[up] + 1, 1, up)
            Rs[up[moved]] += 1
            fits[up[moved]] = True
        R += fits * (Rs * 10 ** s - R)
    return R, unsure


def _slots(x, shortest: bool) -> np.ndarray:
    x = np.ascontiguousarray(x, dtype=np.float64).reshape(-1)
    out = np.empty((_WIDTH, len(x)), dtype=np.uint8)
    for lo in range(0, len(x), _BLOCK):
        out[:, lo:lo + _BLOCK] = _block(x[lo:lo + _BLOCK], shortest)
    used = out.max(axis=1, initial=0) > 0  # slots no value uses cost the writers time
    return out if used.all() else out[used]


def _decimal(x: np.ndarray, shortest: bool) -> tuple:
    """Each value of x as R 10^(X - 16) with R a 17-digit integer (0 for a
    zero), and whether Python formats the value instead."""
    a = np.abs(x)
    special = ~((a >= _TINY) & (a <= _HUGE))
    a[special] = 1.0
    bits = a.view(np.int64)
    X = np.floor(np.log10(a)).astype(np.int64)
    N, f = _scaled(bits, 16 - X)
    off = np.flatnonzero((N < 10 ** 16) | (N >= 10 ** 17))
    if len(off):  # log10 was one off next to a power of ten
        X[off] += 2 * (N[off] >= 10 ** 17) - 1
        N[off], f[off] = _scaled(bits[off], 16 - X[off])
    if shortest:
        R, unsure = _shortest(N, f, bits, 16 - X)
    else:
        R, unsure = _round(N, f, 0, bits, 16 - X)
    carry = np.flatnonzero(R == 10 ** 17)
    R[carry] = 10 ** 16
    X[carry] += 1
    R[special] = 0
    X[special] = 0
    return R, X, unsure | (special & (x != 0))


def _block(x: np.ndarray, shortest: bool) -> np.ndarray:
    n = len(x)
    R, X, python = _decimal(x, shortest)
    out = np.empty((_WIDTH, n), dtype=np.uint8)
    np.multiply(_u8(np.signbit(x)), _MINUS, out=out[0])
    top = R // 10 ** 16
    np.add(top, _ZERO, out=out[_DIGIT], casting="unsafe")
    rest = R - top * 10 ** 16
    high = rest // 10 ** 8
    v = np.empty((2, n), dtype=np.uint32)
    v[0] = high
    v[1] = rest - high * 10 ** 8
    for j in range(8, 0, -1):  # digits j and j + 8
        q = v // 10
        np.add(v - q * 10, _ZERO, out=out[_DIGIT + 2 * j:_DIGIT + 2 * j + 17:16],
               casting="unsafe")
        v = q

    X = X.astype(np.int16)
    fixed = (X >= -4) & (X <= (15 if shortest else 16))
    lead = fixed & (X < 0)
    whole = fixed & ~lead
    # digits before the point: X + 1 when fixed, none below 1, one in the exponent form
    P = (X + 1) * whole + ~fixed
    digits = out[_DIGIT:_EXP:2]
    nd = np.full(n, 17, dtype=np.int16)
    zeros = np.ones(n, dtype=bool)
    for j in range(16, -1, -1):  # trailing zeros
        zeros &= digits[j] == _ZERO
        if not zeros.any():
            break
        nd -= zeros
    keep = np.maximum(np.maximum(nd, 1), P)  # digits shown, integer part included
    if shortest:  # '.0' after an integral fixed value
        keep += (nd <= P) & whole
    for j in range(int(keep.min(initial=17)), 17):
        digits[j] *= _u8(keep > j)
    out[_DIGIT + 1:_EXP:2] = 0
    at = np.flatnonzero((P >= 1) & (keep > P))
    out.reshape(-1)[(_DIGIT - 1 + 2 * P[at].astype(np.intp)) * n + at] = _DOT
    np.multiply(_u8(lead), _ZERO, out=out[1])
    np.multiply(_u8(lead), _DOT, out=out[2])
    for i in range(3):  # zeros after '0.'
        np.multiply(_u8(lead & (X < -1 - i)), _ZERO, out=out[3 + i])
    out[_EXP:] = 0
    ex = np.flatnonzero(~fixed)
    out[_EXP:, ex] = _exponents()[:, X[ex] + 400]

    fmt = repr if shortest else "%.17g".__mod__
    for i in np.flatnonzero(python).tolist():
        b = fmt(float(x[i])).encode()
        out[:, i] = 0
        out[:len(b), i] = np.frombuffer(b, dtype=np.uint8)
    return out


def _u8(flags: np.ndarray) -> np.ndarray:
    return flags.view(np.uint8)


def g17_slots(x) -> np.ndarray:
    """The bytes of ``'%.17g' % v``, one column of at most ``_WIDTH`` slots
    per value of x; slots that no value uses are dropped."""
    return _slots(x, False)


def repr_slots(x) -> np.ndarray:
    """The bytes of ``repr(v)``, one column of at most ``_WIDTH`` slots per
    value of x; slots that no value uses are dropped."""
    return _slots(x, True)


def int_slots(v) -> np.ndarray:
    """The decimal digits of each nonnegative integer of v, one column of slots each."""
    v = np.asarray(v, dtype=np.int64)
    width = len(str(int(v.max()))) if len(v) else 1
    out = np.empty((width, len(v)), dtype=np.uint8)
    for j in range(width - 1, -1, -1):
        q = v // 10
        np.add(v - q * 10, _ZERO, out=out[j], casting="unsafe")
        v = q
    lead = np.ones(len(v), dtype=bool)
    for j in range(width - 1):
        lead &= out[j] == _ZERO
        out[j] *= ~lead
    return out


def chunks(pieces, lo: int = 0, hi: int | None = None):
    """The text of lines lo to hi, one per value, about 64 KiB at a time:
    the pieces side by side, each a constant byte string or a slot
    array with one column per value (or one for all), NUL bytes dropped.
    One small buffer holds the lines being laid out, which keeps the copies
    in cache and the memory flat."""
    n = max(p.shape[1] for p in pieces if isinstance(p, np.ndarray))
    hi = n if hi is None else hi
    width = sum(len(p) for p in pieces)
    step = max(1, (1 << 16) // max(width, 1))
    buf = np.empty((step, width), dtype=np.uint8)
    for a in range(lo, hi, step):
        lines = buf[:min(step, hi - a)]
        at = 0
        for p in pieces:
            if isinstance(p, np.ndarray):
                lines[:, at:at + len(p)] = (p[:, a:a + len(lines)] if p.shape[1] == n else p).T
            else:
                lines[:, at:at + len(p)] = np.frombuffer(p, dtype=np.uint8)
            at += len(p)
        yield lines.tobytes().translate(None, b"\0").decode("ascii")
