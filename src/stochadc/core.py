"""Shared numeric types, seeded randomness, the mismatch scale and clamp,
and the percentile and median of a run summary.

All analog behavior in this package is expressed as edge timestamps: plain
floats in seconds (double precision comfortably resolves sub-ps steps against
ns-scale windows).  Instants are absolute times, Durations are differences;
both are ordinary floats so arithmetic is closed by construction.

Randomness is keyed: value i is a pure function of (seed, i), implemented
with a SplitMix64-style mixer plus the inverse normal CDF (`ndtri`, a port of
Cephes' ndtri that equals scipy.special.ndtri bit for bit, so numpy alone
fixes the draws).  Everything that must be reproducible per instance index
(tap delays, path skews, V2T parameters, sampling jitter) draws this way,
independent of how many instances exist or in which order they are
evaluated; `normal_rows` draws the rows of many instances in one call, and
`mismatch_scale` turns a row of standard normals into instance values.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

import numpy as np

Instant = float
Duration = float

# SplitMix64 constants as 0-d uint64 arrays, built once: a ufunc takes them
# faster than np.uint64 scalars, which it converts on every call
_MASK64 = (1 << 64) - 1
_GOLDEN_INT = 0x9E3779B97F4A7C15
_GOLDEN, _MIX1, _MIX2, _ONE, _S11, _S27, _S30, _S31 = (
    np.array(k, dtype=np.uint64)
    for k in (_GOLDEN_INT, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB, 1, 11, 27, 30, 31)
)

# The largest double below 1: the keyed uniform of the top 53-bit value,
# (2^53 - 1) * 2^-53 + 2^-54, rounds to 1.0 and is clamped here.
_UNIFORM_MAX = float(np.nextafter(1.0, 0.0))

# Clamp floor for mismatch draws that parameterize a physical delay.
CLAMP_FLOOR = 0.05


def _finalize(x: np.ndarray) -> np.ndarray:
    """SplitMix64 output function (vectorized over uint64, wraparound intended).

    Updates its fresh first result in place; its callers run it under
    ``np.errstate(over="ignore")``.
    """
    x = x ^ (x >> _S30)
    x *= _MIX1
    x ^= x >> _S27
    x *= _MIX2
    x ^= x >> _S31
    return x


def seed_array(seeds) -> np.ndarray:
    """Seeds as a uint64 array, each int wrapped modulo 2^64; a uint64 array
    is returned as it is."""
    if isinstance(seeds, np.ndarray) and seeds.dtype == np.uint64:
        return seeds
    return np.array([int(s) & _MASK64 for s in seeds], dtype=np.uint64)


def derive_seed(master_seed, label: str, index: int = 0):
    """Derive a component sub-stream seed keyed by (label, index).

    Monte Carlo reproducibility must not depend on evaluation order, so every
    component derives its own seed from the master seed instead of consuming
    a shared stream.  Seed and index wrap modulo 2^64 (`& _MASK64` is that
    modulus for negative ints too), exactly as uint64 arithmetic would.

    An int master seed derives one int; a sequence of master seeds (or a
    uint64 array of any shape) derives one seed each, as a uint64 array.
    Both go through the same vectorized pass, so element i equals the int
    derived from master seed i.
    """
    scalar = isinstance(master_seed, (int, np.integer))
    label_key = np.array(zlib.crc32(label.encode()), dtype=np.uint64)
    index_key = np.array((int(index) * _GOLDEN_INT) & _MASK64, dtype=np.uint64)
    with np.errstate(over="ignore"):
        h = _finalize(seed_array([master_seed] if scalar else master_seed) + _GOLDEN)
        h = _finalize(_finalize(h ^ label_key) + index_key)
    return int(h[0]) if scalar else h


def keyed_u64(seed, indices) -> np.ndarray:
    """i-th output of a SplitMix64 sequence keyed by ``seed``.

    ``seed`` is one int, or a sequence of ints (or a 1-D uint64 array) that
    draws one row per seed: the result then has shape
    ``(len(seed),) + indices.shape`` and row r equals
    ``keyed_u64(seed[r], indices)`` bit for bit, because every output is a
    pure function of its (seed, index) pair.  One call for many rows (see
    `normal_rows`) costs one call's overhead instead of one per row.

    Seeds and indices wrap modulo 2^64, so a negative index is a key like
    any other and the mapping stays injective over any practical range.
    """
    idx = np.asarray(indices, dtype=np.int64).view(np.uint64)
    if isinstance(seed, (int, np.integer)):
        seeds = np.array(int(seed) & _MASK64, dtype=np.uint64)
    else:
        seeds = seed_array(seed)
        seeds = seeds.reshape(seeds.shape + (1,) * idx.ndim)
    with np.errstate(over="ignore"):
        return _finalize(seeds + (idx + _ONE) * _GOLDEN)


def keyed_uniform(seed, indices) -> np.ndarray:
    """Uniforms in (0, 1), one per (seed, index); seeds as in `keyed_u64`.

    The top 53 bits b map to b * 2^-53 + 2^-54; the one b whose value rounds
    to 1.0 is clamped to the largest double below 1.
    """
    u = (keyed_u64(seed, indices) >> _S11).astype(np.float64)
    u *= 2.0**-53
    u += 2.0**-54
    return np.minimum(u, _UNIFORM_MAX)


# Cephes ndtri (S. L. Moshier), the algorithm scipy.special.ndtri runs.
# With y = u, or 1 - u when u > 1 - e^-2: for y above e^-2, a rational
# function of (y - 0.5)^2; otherwise x = sqrt(-2 log y) corrected by a
# rational function of z = 1/x, P1/Q1 for x < 8 (y above e^-32) and P2/Q2
# beyond, negated unless u was reflected.  Q0, Q1 and Q2 omit their leading
# coefficient 1.
_S2PI = 2.50662827463100050242e0
_EXPM2 = 0.13533528323661269189
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _polevl(x: np.ndarray, coefs) -> np.ndarray:
    """Cephes polevl: coefs[0] x^n + ... + coefs[n] by Horner's rule."""
    ans = x * coefs[0]
    for c in coefs[1:-1]:
        ans += c
        ans *= x
    ans += coefs[-1]
    return ans


def _p1evl(x: np.ndarray, coefs) -> np.ndarray:
    """Cephes p1evl: `_polevl` with an implied leading coefficient 1."""
    ans = x + coefs[0]
    for c in coefs[1:]:
        ans *= x
        ans += c
    return ans


def _rational(x: np.ndarray, p, q) -> np.ndarray:
    """x P(x) / Q(x), rounded in Cephes' order: (x * P) / Q, never x * (P / Q)."""
    ans = x * _polevl(x, p)
    ans /= _p1evl(x, q)
    return ans


def _libm_log(a: np.ndarray) -> np.ndarray:
    """Natural log of normal doubles below 0.5 or at least 2, through the C
    library.

    numpy's float log may take a SIMD path that rounds the last bit
    differently from libm on some CPUs.  Its complex log calls the C
    library's clog, whose real part for an argument in those ranges with a
    zero imaginary part is log(hypot(a, 0)) = log(a) exactly; a subnormal
    argument is rescaled first, and the result can differ.
    """
    return np.log(a.astype(np.complex128)).real


def ndtri(u) -> np.ndarray:
    """Inverse standard normal CDF, element-wise, for normal doubles u in
    (0, 1) (a keyed uniform is at least 2^-54).

    Bit for bit the result of scipy.special.ndtri (Cephes ndtri): each
    operation rounds as the C code's does, in its order, and both tail logs
    go through the C library.
    """
    u = np.asarray(u, dtype=np.float64)
    y = u.reshape(-1)
    upper = y > 1.0 - _EXPM2
    y = np.where(upper, 1.0 - y, y)
    # the centre formula runs on every element, since Q0 has no root where
    # (y - 0.5)^2 < 0.25; the tail elements are overwritten below
    tail = np.flatnonzero(~(y > _EXPM2))
    yc = y - 0.5
    x = _rational(yc * yc, _P0, _Q0)
    x *= yc
    x += yc
    x *= _S2PI
    if tail.size:
        # t >= 2, the range `_libm_log` needs: libm's log is monotone and
        # log(e^-2) = -2
        t = np.sqrt(-2.0 * _libm_log(y[tail]))
        z = 1.0 / t
        correction = _rational(z, _P1, _Q1)
        far = np.flatnonzero(t >= 8.0)
        if far.size:
            correction[far] = _rational(z[far], _P2, _Q2)
        t -= _libm_log(t) / t
        t -= correction
        np.negative(t, out=t, where=~upper[tail])
        x[tail] = t
    return x.reshape(u.shape)


def keyed_normal(seed, indices) -> np.ndarray:
    """Standard normals, one per (seed, index); seeds as in `keyed_u64`."""
    return ndtri(keyed_uniform(seed, indices))


def normal_rows(blocks) -> list[tuple[np.ndarray, ...]]:
    """Standard normal rows of many instances, one `keyed_normal` call per
    row length.

    Each block is ``(seeds, length)``: a uint64 array of row seeds whose
    first axis runs over the instances, and the length of its rows.
    Instance i gets one array per block, its rows of shape
    ``seeds.shape[1:] + (length,)``; each row equals
    ``keyed_normal(seed, np.arange(length))`` bit for bit.
    """
    by_length = {}
    for seeds, length in blocks:
        by_length.setdefault(length, []).append(seeds)
    drawn = {}
    for length, group in by_length.items():
        rows = keyed_normal(np.concatenate([s.reshape(-1) for s in group]), np.arange(length))
        drawn[length] = iter(np.split(rows, np.cumsum([s.size for s in group])[:-1]))
    per_block = [next(drawn[length]).reshape(seeds.shape + (length,)) for seeds, length in blocks]
    return list(zip(*per_block))


# np.percentile and np.median, bit for bit: the same partition of the values
# and the same arithmetic.  On their first call in a process the numpy
# functions import numpy.ma (about 10 ms), which no run needs otherwise.


def percentile(values: np.ndarray, pct: float) -> float:
    """np.percentile of a 1-D float64 array, default linear interpolation."""
    last = values.size - 1
    virtual = last * (pct / 100)
    # at or beyond the last value, numpy reads index -1 on both sides
    low = -1 if virtual >= last else math.floor(virtual)
    high = low + 1 if low >= 0 else -1
    part = np.partition(values, sorted({-1, 0, low, high}))
    if np.isnan(part[-1]):  # a NaN sorts last, and numpy returns it
        return float(part[-1])
    gamma = virtual - low
    a, b = part[low], part[high]
    diff = b - a
    return float(b - diff * (1 - gamma) if gamma >= 0.5 else a + diff * gamma)


def median(values: np.ndarray) -> float:
    """np.median of a 1-D float64 array: np.mean of the middle value, or of
    the middle two."""
    half, odd = divmod(values.size, 2)
    part = np.partition(values, ([half] if odd else [half - 1, half]) + [-1])
    if np.isnan(part[-1]):  # a NaN sorts last, and numpy returns it
        return float(part[-1])
    return float(np.mean(part[half - 1 + odd : half + 1]))


def mismatch_scale(nominal: float, sigma_rel: float, normals: np.ndarray) -> np.ndarray:
    """Gaussian per-instance values around ``nominal`` from standard normals:
    ``nominal + n * (sigma_rel * nominal)``, element-wise.

    A positive nominal parameterizes a physical quantity, so its values are
    clamped to ``CLAMP_FLOOR * nominal`` and a wide sigma can never produce a
    non-positive delay.
    """
    if sigma_rel < 0:
        raise ValueError(f"sigma_rel must be >= 0, got {sigma_rel}")
    values = nominal + normals * (sigma_rel * nominal)
    if nominal > 0:
        values = np.maximum(values, CLAMP_FLOOR * nominal)
    return values


@dataclass(frozen=True)
class ClockSpec:
    """Periodic edge source; edge k is at phase0 + k*period."""

    period: Duration
    phase0: Instant = 0.0

    def __post_init__(self):
        if self.period <= 0:
            raise ValueError(f"clock period must be > 0, got {self.period}")
