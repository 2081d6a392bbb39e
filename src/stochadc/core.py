"""Shared numeric types, the interleaving factor, the frozen record base,
seeded randomness, the mismatch scale and clamp, and the percentile and
median of a run summary.

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
import operator
import zlib
from dataclasses import MISSING, FrozenInstanceError, dataclass, fields

import numpy as np

Instant = float
Duration = float

# the interleaving factor: slices of the converter, and the spur families of
# its spectrum at multiples of fs / N_SLICES
N_SLICES = 16


class Record:
    """A frozen record: the base of every dataclass in the package.

    A subclass declares annotated fields as a dataclass does, with
    `dataclasses.field` for defaults, factories and ``init=False``, and
    needs a docstring (without one, `dataclass` builds it from
    `inspect.signature`).  `dataclass(frozen=True)` generates and execs the
    source of six methods for every class, most of the package's import
    time; here they are written once.  Each subclass still goes through
    ``dataclass(init=False, repr=False, eq=False)``, which generates no code,
    so `dataclasses.fields`, `replace`, `is_dataclass` and `asdict` work on
    it, though its ``__dataclass_params__`` read not frozen.  The
    constructor, its `TypeError` messages, ``__post_init__``, ``==``, `hash`,
    `repr` and the `FrozenInstanceError` on assignment and deletion are those
    a frozen dataclass generates; a record keeps its fields in its
    ``__dict__`` in field order.  `InitVar` and keyword-only fields, and an
    ``init=False`` field with a factory, are not supported.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        dataclass(init=False, repr=False, eq=False)(cls)
        every = fields(cls)
        if any(not f.init and f.default_factory is not MISSING for f in every):
            raise TypeError(f"{cls.__qualname__}: an init=False field takes no default_factory")
        params = tuple((f.name, f.default, f.default_factory) for f in every if f.init)
        required = 0  # the leading init fields without a default
        for i, (name, default, factory) in enumerate(params):
            if default is MISSING and factory is MISSING:
                if required < i:
                    raise TypeError(f"non-default argument {name!r} follows default argument")
                required += 1
        cls._record_params, cls._record_required = params, required
        cls._record_names = tuple(name for name, _, _ in params)
        cls._record_index = {name: i for i, name in enumerate(cls._record_names)}
        cls._record_post = hasattr(cls, "__post_init__")
        cls._record_repr = tuple(f.name for f in every if f.repr)
        cls._record_eq = tuple(f.name for f in every if f.compare)
        cls._record_hash = tuple(
            f.name for f in every if (f.compare if f.hash is None else f.hash)
        )

    def __init__(self, *args, **kwargs):
        cls = type(self)
        names = cls._record_names
        if not kwargs and len(args) == len(names):
            self.__dict__.update(zip(names, args))
        elif not args and tuple(kwargs) == names:  # every field by keyword, in order
            self.__dict__.update(kwargs)
        else:
            self.__dict__.update(zip(names, _bind(cls, args, kwargs)))
        if cls._record_post:
            self.__post_init__()

    def __repr__(self):
        items = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._record_repr)
        return f"{type(self).__qualname__}({items})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        names = self._record_eq
        return tuple(getattr(self, n) for n in names) == tuple(getattr(other, n) for n in names)

    def __hash__(self):
        return hash(tuple(getattr(self, n) for n in self._record_hash))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


def _bind(cls, args: tuple, kwargs: dict) -> list:
    """The value of every init field of `cls` for a call with `args` and
    `kwargs`, defaults and factories filled in; a call that does not fit
    raises the TypeError CPython gives for the dataclass's own ``__init__``,
    checked in its order: keywords, the positional count, missing fields."""
    params, required = cls._record_params, cls._record_required
    owner = f"{cls.__qualname__}.__init__()"
    values = list(args[: len(params)])
    values += [MISSING] * (len(params) - len(values))
    for key, value in kwargs.items():
        i = cls._record_index.get(key)
        if i is None:
            raise TypeError(f"{owner} got an unexpected keyword argument '{key}'")
        if i < len(args):
            raise TypeError(f"{owner} got multiple values for argument '{key}'")
        values[i] = value
    if len(args) > len(params):
        total, given = len(params) + 1, len(args) + 1  # the counts include self
        takes = str(total) if required == len(params) else f"from {required + 1} to {total}"
        raise TypeError(
            f"{owner} takes {takes} positional argument{'s' * (takes != '1')} but {given} "
            f"{'was' if given == 1 else 'were'} given"
        )
    missing = [repr(p[0]) for p, value in zip(params, values[:required]) if value is MISSING]
    if missing:
        *rest, last = missing
        listed = f"{', '.join(rest)}{',' * (len(rest) > 1)} and {last}" if rest else last
        raise TypeError(
            f"{owner} missing {len(missing)} required positional "
            f"argument{'s' * bool(rest)}: {listed}"
        )
    for i in range(required, len(params)):
        if values[i] is MISSING:
            _, default, factory = params[i]
            values[i] = default if factory is MISSING else factory()
    return values


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


def seed_int(seed) -> int:
    """A seed as an int.  A bool, or a seed that is not an integer, raises
    TypeError naming it: truncated, or read as 0 or 1, it would run another
    seed's draws."""
    if not isinstance(seed, (bool, np.bool_)):
        try:
            return operator.index(seed)
        except TypeError:
            pass
    raise TypeError(f"seed must be an integer, got {seed!r}")


def seed_array(seeds) -> np.ndarray:
    """Seeds as a uint64 array, each int wrapped modulo 2^64 and read through
    `seed_int`; a uint64 array is returned as it is."""
    if isinstance(seeds, np.ndarray) and seeds.dtype == np.uint64:
        return seeds
    return np.array([seed_int(s) & _MASK64 for s in seeds], dtype=np.uint64)


# what holds many seeds; any other seed is one, which `seed_int` reads
_SEEDS = (list, tuple, np.ndarray)


def derive_seed(master_seed, label: str, index: int = 0):
    """Derive a component sub-stream seed keyed by (label, index).

    Monte Carlo reproducibility must not depend on evaluation order, so every
    component derives its own seed from the master seed instead of consuming
    a shared stream.  Seed and index wrap modulo 2^64 (`& _MASK64` is that
    modulus for negative ints too), exactly as uint64 arithmetic would.

    An int master seed derives one int; a list or tuple of master seeds (or
    a uint64 array of any shape) derives one seed each, as a uint64 array.
    Both go through the same vectorized pass, so element i equals the int
    derived from master seed i.
    """
    scalar = not isinstance(master_seed, _SEEDS)
    label_key = np.array(zlib.crc32(label.encode()), dtype=np.uint64)
    index_key = np.array((int(index) * _GOLDEN_INT) & _MASK64, dtype=np.uint64)
    with np.errstate(over="ignore"):
        h = _finalize(seed_array([master_seed] if scalar else master_seed) + _GOLDEN)
        h = _finalize(_finalize(h ^ label_key) + index_key)
    return int(h[0]) if scalar else h


def keyed_u64(seed, indices) -> np.ndarray:
    """i-th output of a SplitMix64 sequence keyed by ``seed``.

    ``seed`` is one int, or a list or tuple of ints (or a 1-D uint64 array)
    that draws one row per seed: the result then has shape
    ``(len(seed),) + indices.shape`` and row r equals
    ``keyed_u64(seed[r], indices)`` bit for bit, because every output is a
    pure function of its (seed, index) pair.  One call for many rows (see
    `normal_rows`) costs one call's overhead instead of one per row.

    Seeds and indices wrap modulo 2^64, so a negative index is a key like
    any other and the mapping stays injective over any practical range.
    """
    idx = np.asarray(indices, dtype=np.int64).view(np.uint64)
    if not isinstance(seed, _SEEDS):
        seeds = np.array(seed_int(seed) & _MASK64, dtype=np.uint64)
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


# normals evaluated at a time: `ndtri` holds several float64 temporaries of
# its input's size, so a draw's peak memory is its output plus a few blocks
_NORMAL_BLOCK = 1 << 17


def keyed_normal(seed, indices) -> np.ndarray:
    """Standard normals, one per (seed, index); seeds as in `keyed_u64`.

    Evaluated in blocks of at most `_NORMAL_BLOCK` normals, whole rows of
    seeds or parts of one row, written into one output array; every step is
    element-wise, so the values are those of one evaluation of the whole draw.
    """
    idx = np.asarray(indices, dtype=np.int64)
    scalar = not isinstance(seed, _SEEDS)
    seeds = seed_array([seed] if scalar else seed)
    shape = idx.shape if scalar else seeds.shape + idx.shape
    seeds, idx = seeds.reshape(-1), idx.reshape(-1)
    if seeds.size * idx.size <= _NORMAL_BLOCK:  # one block: no output array to fill
        return ndtri(keyed_uniform(seeds, idx)).reshape(shape)
    out = np.empty((seeds.size, idx.size))
    cols = min(idx.size, _NORMAL_BLOCK)
    rows = _NORMAL_BLOCK // cols
    for r in range(0, seeds.size, rows):
        for c in range(0, idx.size, cols):
            block = keyed_uniform(seeds[r : r + rows], idx[c : c + cols])
            out[r : r + rows, c : c + cols] = ndtri(block)
    return out.reshape(shape)


def normal_rows(blocks) -> list[np.ndarray]:
    """Standard normal rows of many instances, one `keyed_normal` call per
    row length.

    Each block is ``(seeds, length)``: a uint64 array of row seeds whose
    first axis runs over the instances, and the length of its rows.  Each
    block gets one array of shape ``seeds.shape + (length,)``, instance i's
    rows at index i; each row equals ``keyed_normal(seed, np.arange(length))``
    bit for bit.
    """
    by_length = {}
    for seeds, length in blocks:
        by_length.setdefault(length, []).append(seeds)
    drawn = {}
    for length, group in by_length.items():
        rows = keyed_normal(np.concatenate([s.reshape(-1) for s in group]), np.arange(length))
        drawn[length] = iter(np.split(rows, np.cumsum([s.size for s in group])[:-1]))
    return [next(drawn[length]).reshape(seeds.shape + (length,)) for seeds, length in blocks]


# np.percentile and np.median, bit for bit: the same partition of the values
# and the same arithmetic.  On their first call in a process the numpy
# functions import numpy.ma (about 10 ms), which no run needs otherwise; so
# does np.unique, which no run calls.


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

