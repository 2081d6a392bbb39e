"""Decimal digits of numeric blocks, for the CSV block encoder.

`int_cells` and `float_cells` turn one block of a numeric column into a
stack of uint8 planes, one per byte position of its cells (0 where a cell
is shorter), and the rows they leave to Python's repr.  `experiments`
joins the stacks of a table's columns into CSV bytes (`_encode_block`).
The digits come from integer division in 32-bit lanes wherever the values
allow it: an int block within (-2**31, 2**31) is worked in int32, and a
row below 10**18 is split once into two halves below 10**9.
"""

from __future__ import annotations

import numpy as np

# a cell the block encoder cannot write digit by digit is formatted by Python
# into a slot this wide: a float's repr has at most 24 characters, an int's 20
TEXT_WIDTH = 24
# |int| below this is written digit by digit
_INT_DIGITS_BOUND = 2**62
# an int block inside (-_INT32_BOUND, _INT32_BOUND) is worked in int32
_INT32_BOUND = 2**31
# the double nearest 10**k, k = -9..-4: a double is at least the one for k
# exactly when its shortest decimal is at least 10**k
_DECADE_STARTS = np.array([1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4])
# 10**s, s = 19..22, each an exact double
_EXACT_POW10 = np.array([1e19, 1e20, 1e21, 1e22])
# 5**t, t = 0..24, of which `_long_digits` takes 21..24
_POW5 = np.array([5**t for t in range(25)], np.uint64)
_DIGIT = ord("0")


def _digit_planes(q: np.ndarray, width: int) -> np.ndarray:
    """The `width` decimal digits of each int 0 <= q < 10**width as ASCII,
    most significant first: (width, len(q)) uint8.

    Below 10**18 every division runs in uint32 lanes: on q itself when it
    has 9 digits or fewer, otherwise on its halves q // 10**9 and q % 10**9
    side by side, 9 digits each, of which the high half's leading zeros are
    dropped.  A wider q, whose high half can pass 2**32, stays in int64.
    """
    if width <= 9:
        lanes, per = q.astype(np.uint32, copy=False)[None], width
    elif width <= 18:
        lanes, per = np.empty((2, q.size), np.uint32), 9
        lanes[0] = high = q // 10**9
        lanes[1] = q - high * 10**9
    else:
        lanes, per = q[None], width
    planes = np.empty((len(lanes), per, q.size), np.uint8)
    for j in range(per - 1, -1, -1):
        nxt = lanes // 10
        planes[:, j] = lanes - nxt * 10
        lanes = nxt
    planes = planes.reshape(-1, q.size)[len(planes) * per - width :]
    planes += _DIGIT
    return planes


def int_cells(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A bool or int block as (planes, the rows left to repr).  A block
    inside (-2**31, 2**31) is worked in int32; any other in int64, with
    each |int| >= 2**62 left to repr."""
    if x.dtype.kind == "b":
        return (x.astype(np.uint8) + _DIGIT)[None], np.empty(0, np.intp)
    low, high = int(x.min()), int(x.max())
    if -_INT32_BOUND < low and high < _INT32_BOUND:
        v = x.astype(np.int32, copy=False)
        # |v| < 2**31, so its uint32 view holds the same values
        a = np.abs(v).view(np.uint32)
        top, slow = max(high, -low), np.empty(0, np.intp)
    else:
        if x.dtype.kind == "u":
            wide = x >= _INT_DIGITS_BOUND
            v = np.where(wide, 0, x).astype(np.int64)
        else:
            v = x.astype(np.int64)
            wide = (v <= -_INT_DIGITS_BOUND) | (v >= _INT_DIGITS_BOUND)
            v[wide] = 0
        a = np.abs(v)
        top, slow = int(a.max()), np.flatnonzero(wide)
        low = int(v.min())
    width = len(str(top))
    digits = _digit_planes(a, width)
    # no leading zeros: the digit of 10**k shows when a >= 10**k, the units always
    for j in range(width - 1):
        digits[j] *= a >= 10 ** (width - 1 - j)
    parts = [(v < 0).astype(np.uint8)[None] * ord("-"), digits] if low < 0 else [digits]
    if slow.size:
        parts.append(np.zeros((TEXT_WIDTH - sum(map(len, parts)), x.size), np.uint8))
    return np.concatenate(parts), slow


def _exact_split(m: np.ndarray, q: np.ndarray, t: np.ndarray) -> tuple:
    """(d, r, sh), all uint64, with m * 5**t = d * 2**sh + r, 0 <= r <
    2**sh and sh = -(q + t): floor(m * 2**q * 10**t) and its remainder,
    exact.  m < 2**53 and t <= 24 keep the product below 2**109, summed in
    two uint64 limbs from 32-bit partial products; 1 <= sh <= 63 keeps
    every shift defined."""
    c = _POW5[t]
    mh, ml, ch, cl = m >> 32, m & 0xFFFFFFFF, c >> 32, c & 0xFFFFFFFF
    lo = ml * cl
    mid = mh * cl + ml * ch
    low = lo + (mid << 32)
    high = mh * ch + (mid >> 32) + (low < lo)
    sh = (-(q + t)).astype(np.uint64)
    return (high << (64 - sh)) | (low >> sh), low & ((1 << sh) - 1), sh


def _long_digits(a: np.ndarray, decade: np.ndarray) -> np.ndarray:
    """repr's digits of positive normal doubles of decade -8..-5 that no
    decimal of 15 digits or fewer round-trips, as 17-digit ints (a 16-digit
    one times 10).

    With a = m * 2**q and a * 10**t = D + R / 2**sh, t = 16 - decade,
    repr's 17 digits are a * 10**t rounded, ties to even.  In units of
    2**-(sh+2), the 16-digit candidates 10 * (D // 10) and 10 more lie 4 *
    ((D mod 10) * 2**sh + R) below a and 40 * 2**sh less that above it,
    and half an ulp is 2 * 5**t (5**t below a power of two).  A candidate
    within it round-trips; repr takes the nearer, or of two equally near
    the even one.  No candidate lies on an end, which is 2 (mod 4) or odd
    here, so m's parity never decides.  On these decades sh is 45..55, so
    40 * 2**sh stays below 2**63.
    """
    f, e = np.frexp(a)
    m = (f * 2.0**53).astype(np.uint64)
    t = 16 - decade
    d, r, sh = _exact_split(m, e - 53, t)
    half = 1 << (sh - 1)
    seventeen = d + ((r > half) | ((r == half) & (d & 1 == 1)))
    tens = d // 10
    below = (((d - tens * 10) << sh) + r) << 2
    above = (40 << sh) - below
    reach = _POW5[t] << 1
    down_ok = below < np.where(m == 2**52, reach >> 1, reach)
    up_ok = above < reach
    up = up_ok & (~down_ok | (above < below) | ((above == below) & (tens & 1 == 1)))
    return np.where(down_ok | up_ok, (tens + up) * 10, seventeen).astype(np.int64)


def float_cells(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A float block as (planes, the rows left to repr).

    A value of decade -8 to -5, which repr writes as `d[.ddd]e-0X`, is
    written from N = rint(|x| * 10**s), s = 14 - decade, when 1e14 <= N <
    1e15 and N / 10**s == |x|.  That quotient of two exact doubles is
    correctly rounded, so N's 15-digit decimal round-trips; decimals of 15
    digits or fewer lie further apart than a double's rounding interval is
    wide, so no other one does, and N without its trailing zeros is repr's
    digits.  The decade only picks the candidate: a wrong guess fails the
    check.  A value of those decades that fails it has 16 or 17 digits,
    which `_long_digits` finds by exact integer arithmetic; its decade is
    repr's own (see `_DECADE_STARTS`).  Every other value (another decade,
    ±0, subnormal, inf, nan) is left to repr.
    """
    x = x.astype(np.float64, copy=False)
    a = np.abs(x)
    # a value outside the window (huge, inf, a signalling nan) may raise a
    # floating-point flag on the way; it is left to repr all the same
    with np.errstate(all="ignore"):
        # a's decade, clipped to -10..-4; outside -8..-5 the candidate
        # misses [1e14, 1e15)
        decade = np.searchsorted(_DECADE_STARTS, a, side="right") - 10
        s = np.clip(14 - decade, 19, 22)
        p = _EXACT_POW10[s - 19]
        n = np.rint(a * p)
        fast = (n >= 1e14) & (n < 1e15) & (n / p == a)
        long = np.flatnonzero(~fast & (decade >= -8) & (decade <= -5))
    # every written row as 17 digits; trailing zeros go, and the point with
    # them when one digit is left
    q = np.where(fast, n, 0).astype(np.int64) * 100
    q[long] = _long_digits(a[long], decade[long])
    digits = _digit_planes(q, 17)
    shown = np.zeros(x.size, bool)
    for row in digits[:0:-1]:
        shown |= row != _DIGIT
        row *= shown
    planes = np.zeros((TEXT_WIDTH, x.size), np.uint8)
    planes[0] = np.signbit(x) * ord("-")
    planes[1] = digits[0]
    planes[2] = shown * ord(".")
    planes[3:19] = digits[1:]
    planes[19:22] = np.frombuffer(b"e-0", np.uint8)[:, None]
    planes[22] = _DIGIT + s - 14
    # the 16- and 17-digit rows are written too
    fast[long] = True
    return planes, np.flatnonzero(~fast)
