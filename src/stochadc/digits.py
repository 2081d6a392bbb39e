"""One block of numeric CSV columns as bytes: `encode_block`.

Each column's cells become a stack of uint8 planes, one per byte position,
and `encode_block` joins the stacks of a table's columns into CSV text.
The digits come from integer division in 32-bit lanes: an int block within
(-2**31, 2**31) is worked in int32, and a row of 10 to 18 digits is split
once into two halves below 10**9.  Python's repr writes any other int
block whole, and each float that `_float_cells` does not take.
"""

from __future__ import annotations

import numpy as np

# a cell written by repr is padded with spaces, which no numeric repr holds,
# into a slot this wide: a float's repr has at most 24 characters, an int's 20
_TEXT_WIDTH = 24
# an int block inside (-_INT32_BOUND, _INT32_BOUND) is written digit by digit
_INT32_BOUND = 2**31
# the double nearest 10**k, k = -9..-4: a double is at least the one for k
# exactly when its shortest decimal is at least 10**k
_DECADE_STARTS = np.array([1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4])
# 10**s, s = 19..22, each an exact double
_EXACT_POW10 = np.array([1e19, 1e20, 1e21, 1e22])
# 5**t, t = 0..24, of which `_long_digits` takes 21..24
_POW5 = np.array([5**t for t in range(25)], np.uint64)
_DIGIT = ord("0")


def encode_block(chunks: list) -> bytes:
    """One block of an all-numeric table, a 1-D bool, int or float array
    per column, all of one length, as CSV bytes.

    Each column becomes a stack of planes, with 0 where a cell is shorter
    and spaces after a cell written by repr, and a `,` or `\\n` plane
    follows it.  The stack is transposed to rows, and dropping the 0 bytes
    and the spaces leaves the CSV text.  A chunk that is the same object
    as an earlier one reuses its planes.
    """
    encoded = {}
    for c in chunks:
        if id(c) not in encoded:
            encoded[id(c)] = (_float_cells if c.dtype.kind == "f" else _int_cells)(c)
    n_rows = len(chunks[0])
    planes = []
    for c in chunks:
        planes += [encoded[id(c)], np.full((1, n_rows), ord(","), np.uint8)]
    planes[-1] = np.full((1, n_rows), ord("\n"), np.uint8)
    # a view of the rows: `tobytes` transposes it in its one copy
    return np.concatenate(planes).T.tobytes().translate(None, b"\0 ")


def _text_planes(values: list) -> np.ndarray:
    """The repr of each Python int or float, padded with spaces:
    (_TEXT_WIDTH, len(values)) uint8."""
    text = (f"%-{_TEXT_WIDTH}r" * len(values)) % tuple(values)
    return np.frombuffer(text.encode(), np.uint8).reshape(-1, _TEXT_WIDTH).T


def _digit_planes(q: np.ndarray, width: int) -> np.ndarray:
    """The `width` decimal digits of each int 0 <= q < 10**width, width <=
    18, as ASCII, most significant first: (width, len(q)) uint8.

    Every division runs in uint32 lanes: on q itself when it has 9 digits
    or fewer, otherwise on its halves q // 10**9 and q % 10**9 side by
    side, 9 digits each, of which the high half's leading zeros are
    dropped.
    """
    if width <= 9:
        lanes, per = q.astype(np.uint32, copy=False)[None], width
    else:
        lanes, per = np.empty((2, q.size), np.uint32), 9
        lanes[0] = high = q // 10**9
        lanes[1] = q - high * 10**9
    planes = np.empty((len(lanes), per, q.size), np.uint8)
    for j in range(per - 1, -1, -1):
        nxt = lanes // 10
        planes[:, j] = lanes - nxt * 10
        lanes = nxt
    planes = planes.reshape(-1, q.size)[len(planes) * per - width :]
    planes += _DIGIT
    return planes


def _int_cells(x: np.ndarray) -> np.ndarray:
    """A bool or int block's planes.  A block inside (-2**31, 2**31) is
    worked in int32; repr writes any other whole."""
    if x.dtype.kind == "b":
        return (x.astype(np.uint8) + _DIGIT)[None]
    low, high = int(x.min()), int(x.max())
    if low <= -_INT32_BOUND or high >= _INT32_BOUND:
        return _text_planes(x.tolist())
    v = x.astype(np.int32, copy=False)
    # |v| < 2**31, so its uint32 view holds the same values
    a = np.abs(v).view(np.uint32)
    width = len(str(max(high, -low)))
    digits = _digit_planes(a, width)
    # no leading zeros: the digit of 10**k shows when a >= 10**k, the units always
    for j in range(width - 1):
        digits[j] *= a >= 10 ** (width - 1 - j)
    if low < 0:
        return np.concatenate([(v < 0).astype(np.uint8)[None] * ord("-"), digits])
    return digits


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


def _float_cells(x: np.ndarray) -> np.ndarray:
    """A float block's planes.

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
    ±0, subnormal, inf, nan) is written by repr.
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
    planes = np.zeros((_TEXT_WIDTH, x.size), np.uint8)
    planes[0] = np.signbit(x) * ord("-")
    planes[1] = digits[0]
    planes[2] = shown * ord(".")
    planes[3:19] = digits[1:]
    planes[19:22] = np.frombuffer(b"e-0", np.uint8)[:, None]
    planes[22] = _DIGIT + s - 14
    # the 16- and 17-digit rows are written too
    fast[long] = True
    slow = np.flatnonzero(~fast)
    if slow.size:
        planes[:, slow] = _text_planes(x[slow].tolist())
    return planes
