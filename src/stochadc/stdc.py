"""Stochastic time-to-digital converter.

A launch edge propagates through a chain of non-precise unit inverters,
producing one delayed edge per tap.  The converter quantizes a pulse by
counting how many tap edges fall inside it (adder tree over per-tap sampler
bits), then the unfold stage subtracts the offset code and reapplies the
folder's sign bit.  Linearity emerges statistically from the tap-delay
population rather than from matched delays, which is also why the offset
code must be estimated in the background from a histogram of raw counts.
This module holds the chain, the vectorized window count and the offset
adaptation; a capture applies unfold in `interleaver.convert_pair_arrays`.
A tap edge is counted once per conversion only while the widest pulse plus
the chain spread fits in one divided-clock period, and a pulse is counted to
its end only if it closes before the last tap edge; `interleaver.AdcSystem`
checks both on every slice's chain.
The single-shot model of one pulse (tap edges, sampler bits, adder tree,
unfold) lives with the tests in `tests/oracles.py`.

Window convention is half-open [start, start + width): an edge exactly on
the closing boundary is not counted.  Comparisons carry a guard of
1e-6 x mean tap spacing so that edges landing on a boundary through exact
configuration arithmetic resolve deterministically despite float rounding;
the guard is far below any modeled physical scale.

Captures count with an exact bucketed index of the edge offsets instead of a
binary search.  One monotone bucket function f(x) = floor(x * inv_h), with
inv_h = 4 * n_taps / span (about four buckets per mean tap), places both the
edges, when the chain is built, and the queries.  For a query v,

    #edges < v  =  below[f(v)] + sum_j (edge_j[f(v)] < v)

where below[b] counts the edges in buckets under b and edge_j[b] is the j-th
edge of bucket b, padded with +inf (j ranges over the largest bucket
occupancy, which stays 1 while no tap is shorter than about a quarter of
the mean).  Because f is
monotone, an edge o >= v has f(o) >= f(v): every edge in a lower bucket is
below v, every edge in a higher bucket is not, and the comparisons settle
the shared bucket.  So the count equals ``searchsorted(offsets, v, "left")``
for every finite v, and a pulse count built from two such counts keeps the
half-open window and the guard unchanged.  Queries below 0 or past the span
clip to the first or last bucket, which count 0 or n_taps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import Duration


def _bucket(x: np.ndarray, inv_h: float, n_buckets: int) -> np.ndarray:
    """f(x) = floor(x * inv_h), clipped into [0, n_buckets)."""
    b = x * inv_h
    np.clip(b, 0, n_buckets - 1, out=b)
    return b.astype(np.intp)


@dataclass(frozen=True)
class EdgeBuckets:
    """Exact bucketed index of increasing edge offsets (see module docstring)."""

    inv_h: float
    below: np.ndarray  # (n_buckets,) edges in lower buckets
    edges: np.ndarray  # (occupancy, n_buckets) edges per bucket, +inf padded

    @classmethod
    def build(cls, offsets: np.ndarray) -> EdgeBuckets:
        inv_h = 4 * offsets.size / float(offsets[-1])
        if not 0 < inv_h < np.inf:
            raise ValueError("chain span is too small to index")
        n_buckets = int(offsets[-1] * inv_h) + 1  # f of the last, largest edge
        bucket = _bucket(offsets, inv_h, n_buckets)
        counts = np.bincount(bucket, minlength=n_buckets)
        below = np.cumsum(counts) - counts
        edges = np.full((int(counts.max()), n_buckets), np.inf)
        edges[np.arange(offsets.size) - below[bucket], bucket] = offsets
        return cls(inv_h, below, edges)

    @property
    def n_buckets(self) -> int:
        return int(self.below.size)

    def count_below(self, v: np.ndarray) -> np.ndarray:
        """Number of edges < v, per query; v must be free of NaN."""
        b = _bucket(v, self.inv_h, self.n_buckets)
        count = self.below[b]
        for row in self.edges:
            count += row[b] < v
        return count


@dataclass(frozen=True)
class InverterChain:
    """Per-instance inverter chain; tap i fires at launch + sum(delays[:i+1])."""

    tap_delays: np.ndarray
    edge_offsets: np.ndarray = field(init=False, repr=False)
    edge_buckets: EdgeBuckets = field(init=False, repr=False)
    boundary_guard: float = field(init=False, repr=False)  # 1e-6 x mean tap delay

    def __post_init__(self):
        delays = np.asarray(self.tap_delays, dtype=np.float64)
        if delays.ndim != 1 or delays.size < 1:
            raise ValueError("tap_delays must be a non-empty 1-D array")
        if not np.all((delays > 0) & np.isfinite(delays)):
            raise ValueError("all tap delays must be finite and > 0")
        object.__setattr__(self, "tap_delays", delays)
        object.__setattr__(self, "edge_offsets", np.cumsum(delays))
        object.__setattr__(self, "edge_buckets", EdgeBuckets.build(self.edge_offsets))
        object.__setattr__(self, "boundary_guard", 1e-6 * float(np.mean(delays)))

    @property
    def n_taps(self) -> int:
        return int(self.tap_delays.size)

    @property
    def total_delay(self) -> Duration:
        return float(self.edge_offsets[-1])


@dataclass(frozen=True)
class OffsetEstimate:
    """Offset code plus the histogram evidence it was derived from."""

    offset_code: int
    histogram: np.ndarray
    window: int

    def __post_init__(self):
        hist = np.asarray(self.histogram, dtype=np.int64)
        object.__setattr__(self, "histogram", hist)
        if self.offset_code < 0:
            raise ValueError("offset_code must be >= 0")
        if int(hist.sum()) != self.window:
            raise ValueError("histogram total must equal the window size")


def adapt_offset(raw_stream, window: int, threshold: float) -> OffsetEstimate:
    """Estimate the offset code from a histogram of recent raw counts.

    The estimate is a robust minimum: the smallest raw code whose cumulative
    frequency (from zero) reaches ``threshold`` of the histogram window.
    Runs on raw counts; a zero-mean input makes the true minimum code the
    folder's offset width expressed in taps.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    if not (0 < threshold <= 1):
        raise ValueError("threshold must lie in (0, 1]")
    stream = np.asarray(raw_stream, dtype=np.int64)
    if stream.size == 0:
        raise ValueError("raw stream must be non-empty")
    if stream.min() < 0:
        raise ValueError("raw counts must be >= 0")
    tail = stream[-window:]
    hist = np.bincount(tail)
    used = int(tail.size)
    cumulative = np.cumsum(hist)
    offset_code = int(np.argmax(cumulative >= threshold * used))
    return OffsetEstimate(offset_code=offset_code, histogram=hist, window=used)


def count_edges_batch(
    chain: InverterChain,
    starts: np.ndarray,
    widths: np.ndarray,
) -> np.ndarray:
    """Vectorized raw counts for many launch-relative windows.

    Equal per sample to the single-shot count of one pulse's sampler bits,
    with the same boundary guard (`count_edges_in_pulse` in
    `tests/oracles.py`, the oracle this path is tested against).
    """
    starts = np.asarray(starts, dtype=np.float64)
    widths = np.asarray(widths, dtype=np.float64)
    guard = chain.boundary_guard
    # both window ends in one pass: [opening edges | closing edges]
    n = starts.size
    ends = np.empty(2 * n)
    np.subtract(starts, guard, out=ends[:n])
    np.add(starts, widths, out=ends[n:])
    ends[n:] -= guard
    below = chain.edge_buckets.count_below(ends)
    return below[n:] - below[:n]
