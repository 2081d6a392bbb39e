"""Shared numeric types, seeded randomness and mismatch-instance sampling.

All analog behavior in this package is expressed as edge timestamps: plain
floats in seconds (double precision comfortably resolves sub-ps steps against
ns-scale windows).  Instants are absolute times, Durations are differences;
both are ordinary floats so arithmetic is closed by construction.

Randomness is keyed: value i is a pure function of (seed, i), implemented
with a SplitMix64-style mixer plus the inverse normal CDF.  Everything that
must be reproducible per instance index (tap delays, path skews, V2T
parameters, sampling jitter) draws this way, independent of how many instances
exist or in which order they are evaluated.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

Instant = float
Duration = float

# SplitMix64 constants: Python ints for the scalar seed derivation, uint64
# for the vectorized keyed draws
_MASK64 = (1 << 64) - 1
_GOLDEN_INT = 0x9E3779B97F4A7C15
_MIX1_INT = 0xBF58476D1CE4E5B9
_MIX2_INT = 0x94D049BB133111EB
# 0-d uint64 arrays, built once: a ufunc takes them faster than np.uint64
# scalars, which it converts on every call
_GOLDEN, _MIX1, _MIX2, _ONE, _S11, _S27, _S30, _S31 = (
    np.array(k, dtype=np.uint64) for k in (_GOLDEN_INT, _MIX1_INT, _MIX2_INT, 1, 11, 27, 30, 31)
)

# The largest double below 1: the keyed uniform of the top 53-bit value,
# (2^53 - 1) * 2^-53 + 2^-54, rounds to 1.0 and is clamped here.
_UNIFORM_MAX = float(np.nextafter(1.0, 0.0))

# Clamp floor for mismatch draws that parameterize a physical delay.
CLAMP_FLOOR = 0.05


def _finalize(x: np.ndarray) -> np.ndarray:
    """SplitMix64 output function (vectorized over uint64, wraparound intended).

    Updates its fresh first result in place; `keyed_u64`, the one caller, runs
    it under ``np.errstate(over="ignore")``.
    """
    x = x ^ (x >> _S30)
    x *= _MIX1
    x ^= x >> _S27
    x *= _MIX2
    x ^= x >> _S31
    return x


def _finalize_int(x: int) -> int:
    """`_finalize` for one value in [0, 2^64), in Python int arithmetic."""
    x = ((x ^ (x >> 30)) * _MIX1_INT) & _MASK64
    x = ((x ^ (x >> 27)) * _MIX2_INT) & _MASK64
    return x ^ (x >> 31)


def derive_seed(master_seed: int, label: str, index: int = 0) -> int:
    """Derive a component sub-stream seed keyed by (label, index).

    Monte Carlo reproducibility must not depend on evaluation order, so every
    component derives its own seed from the master seed instead of consuming
    a shared stream.  Seed and index wrap modulo 2^64 (`& _MASK64` is that
    modulus for negative ints too), exactly as uint64 arithmetic would.
    """
    h = _finalize_int((int(master_seed) + _GOLDEN_INT) & _MASK64)
    h = _finalize_int(h ^ zlib.crc32(label.encode()))
    return _finalize_int((h + int(index) * _GOLDEN_INT) & _MASK64)


def keyed_u64(seed, indices) -> np.ndarray:
    """i-th output of a SplitMix64 sequence keyed by ``seed``.

    ``seed`` is one int, or a sequence of ints that draws one row per seed:
    the result then has shape ``(len(seed),) + indices.shape`` and row r
    equals ``keyed_u64(seed[r], indices)`` bit for bit, because every output
    is a pure function of its (seed, index) pair.  One call per instance
    group (a converter's chains, a PI chain's taps and skews) costs one
    call's overhead instead of one per row.

    Seeds and indices wrap modulo 2^64, so a negative index is a key like
    any other and the mapping stays injective over any practical range.
    """
    idx = np.asarray(indices, dtype=np.int64).view(np.uint64)
    if isinstance(seed, (int, np.integer)):
        seeds = np.array(int(seed) & _MASK64, dtype=np.uint64)
    else:
        seeds = np.array([int(s) & _MASK64 for s in seed], dtype=np.uint64)
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


def keyed_normal(seed, indices) -> np.ndarray:
    """Standard normals, one per (seed, index); seeds as in `keyed_u64`."""
    return ndtri(keyed_uniform(seed, indices))


@dataclass(frozen=True)
class MismatchModel:
    """Gaussian per-instance deviations around a nominal value.

    ``sample(count)`` yields one draw per instance index; identical
    (model, index) always yields the identical value and the draws for the
    first ``n`` instances do not depend on ``count``.

    Draws whose nominal is positive parameterize a physical quantity and are
    clamped to ``CLAMP_FLOOR * nominal`` so a wide sigma can never produce a
    non-positive delay.
    """

    nominal: float
    sigma_rel: float
    seed: int = 0

    def __post_init__(self):
        if self.sigma_rel < 0:
            raise ValueError(f"sigma_rel must be >= 0, got {self.sigma_rel}")

    def sample(self, count: int) -> np.ndarray:
        if count < 1:
            raise ValueError("count must be >= 1")
        return self.sample_at(np.arange(count))

    def sample_at(self, indices) -> np.ndarray:
        return self.scale(keyed_normal(self.seed, indices))

    def scale(self, normals: np.ndarray) -> np.ndarray:
        """Instance values from standard normals already drawn at this
        model's seed, so a caller can draw them in one call with other rows."""
        values = self.nominal + normals * (self.sigma_rel * self.nominal)
        if self.nominal > 0:
            values = np.maximum(values, CLAMP_FLOOR * self.nominal)
        return values


@dataclass(frozen=True)
class ClockSpec:
    """Periodic edge source; edge k is at phase0 + k*period."""

    period: Duration
    phase0: Instant = 0.0

    def __post_init__(self):
        if self.period <= 0:
            raise ValueError(f"clock period must be > 0, got {self.period}")
