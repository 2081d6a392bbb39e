"""Stochastic time-to-digital converter.

A launch edge propagates through a chain of non-precise unit inverters,
producing one delayed edge per tap.  The converter quantizes a pulse by
counting how many tap edges fall inside it (adder tree over per-tap sampler
bits), then the unfold stage subtracts the offset code and reapplies the
folder's sign bit.  Linearity emerges statistically from the tap-delay
population rather than from matched delays, which is also why the offset
code must be estimated in the background: the k-th smallest raw count of a
window, an order statistic (`adapt_offset`).  This module holds the chains
(`build_chains`, their one builder), the vectorized window count and the
offset adaptation; a capture applies unfold in
`interleaver.convert_pair_arrays`.
A tap edge is counted once per conversion only while the widest pulse plus
the chain spread fits in one divided-clock period, and a pulse is counted to
its end only if it closes before the last tap edge; `interleaver.converters`
checks both on every slice's chain as it builds a converter.
The single-shot models (one pulse's tap edges, sampler bits, adder tree and
unfold; the estimate's cumulative histogram) live in `tests/oracles.py`.

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
edge of bucket b, padded with +inf (j ranges over the chain's largest bucket
occupancy, which stays 1 while no tap is shorter than about a quarter of the
mean).  Because f is monotone, an edge o >= v has f(o) >= f(v): every edge
in a lower bucket is below v, every edge in a higher bucket is not, and the
comparisons settle the shared bucket.  So the count equals
``searchsorted(offsets, v, "left")`` for every finite v, and a pulse count
built from two such counts keeps the half-open window and the guard
unchanged.  Queries below 0 or past the span clip to the first or last
bucket, which count 0 or n_taps.

A count is at most n_taps, so `below` and every count are held in
`COUNT_DTYPE` (int16), as are the codes a capture unfolds from them and the
LUT tables that map those codes (`interleaver`).  The widest value formed in
it is the LUT address, a code of at most n_taps in magnitude plus 128
(`interleaver.LUT_SIZE // 2`), so a chain holds at most `MAX_TAPS` =
2**15 - 1 - 128 = 32,639 taps: `build_chains` refuses a longer row, and
`adc.n_taps` a larger value at load.
"""

from __future__ import annotations

import math
from dataclasses import field

import numpy as np

from .core import Duration, Record

# the dtype of every count and code, from the count index to the artifacts
COUNT_DTYPE = np.int16
# the most taps a chain may hold: a LUT address, a code within +/-n_taps plus
# interleaver.LUT_SIZE // 2 = 128, must fit COUNT_DTYPE
MAX_TAPS = int(np.iinfo(COUNT_DTYPE).max) - 128


def _bucket(x: np.ndarray, inv_h, n_buckets) -> np.ndarray:
    """f(x) = floor(x * inv_h), clipped into [0, n_buckets)."""
    b = x * inv_h
    np.clip(b, 0, n_buckets - 1, out=b)
    return b.astype(np.intp)


class EdgeBuckets(Record):
    """Exact bucketed index of increasing edge offsets (see module docstring)."""

    inv_h: float
    below: np.ndarray  # (n_buckets,) COUNT_DTYPE, edges in lower buckets
    edges: np.ndarray  # (occupancy, n_buckets) edges per bucket, +inf padded


class InverterChain(Record):
    """Per-instance inverter chain; tap i fires at launch + sum(delays[:i+1]).

    A plain record of the chain and its count index, built only by
    `build_chains`."""

    tap_delays: np.ndarray
    edge_offsets: np.ndarray = field(repr=False)
    edge_buckets: EdgeBuckets = field(repr=False)
    boundary_guard: float = field(repr=False)  # 1e-6 x mean tap delay

    @property
    def n_taps(self) -> int:
        return int(self.tap_delays.size)

    @property
    def total_delay(self) -> Duration:
        return float(self.edge_offsets[-1])


def build_chains(tap_delays) -> list[InverterChain]:
    """One chain per row of a (chains, taps) array of tap delays, in one pass."""
    delays = np.asarray(tap_delays, dtype=np.float64)
    if delays.ndim != 2 or delays.size < 1 or not np.all((delays > 0) & np.isfinite(delays)):
        raise ValueError("tap delays must be finite, > 0 and one non-empty row per chain")
    k, n = delays.shape
    if n > MAX_TAPS:
        raise ValueError(f"a chain holds at most {MAX_TAPS} taps (its counts are int16), got {n}")
    offsets = np.cumsum(delays, axis=1)
    inv_h = 4 * n / offsets[:, -1]
    if not np.all((0 < inv_h) & (inv_h < np.inf)):
        raise ValueError("chain span is too small to index")
    n_buckets = (offsets[:, -1] * inv_h).astype(np.intp) + 1  # f of each last edge
    bucket = _bucket(offsets, inv_h[:, None], n_buckets[:, None])
    # one bincount for every chain: chain r's buckets start at r * width
    width, rows = int(n_buckets.max()), np.arange(k)[:, None]
    counts = np.bincount((bucket + rows * width).ravel(), minlength=k * width).reshape(k, width)
    depth = counts.max(axis=1)
    below = np.cumsum(counts, axis=1, dtype=COUNT_DTYPE)
    below -= counts
    del counts  # the edge table takes its place on the heap
    edges = np.full((k, int(depth.max()), width), np.inf)
    edges[rows, np.arange(n) - below[rows, bucket], bucket] = offsets
    guards = 1e-6 * (delays.sum(axis=1) / n)
    chains = []
    for r, size in enumerate(n_buckets):
        index = EdgeBuckets(float(inv_h[r]), below[r, :size], edges[r, : depth[r], :size])
        chains.append(InverterChain(delays[r], offsets[r], index, float(guards[r])))
    return chains


class OffsetEstimate(Record):
    """Offset code: the `rank`-th smallest of the last `window` raw counts."""

    offset_code: int
    rank: int
    window: int


def adapt_offset(raw_stream, window: int, threshold: float) -> OffsetEstimate:
    """Estimate the offset code from the last `window` raw counts.

    The estimate is a robust minimum, the smallest raw code whose cumulative
    frequency reaches ``threshold`` of the window: the k-th smallest count,
    k = ceil(threshold x window), found by selection.  A zero-mean input
    makes the true minimum code the folder's offset width in taps.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    if not (0 < threshold <= 1):
        raise ValueError("threshold must lie in (0, 1]")
    stream = np.asarray(raw_stream)
    if stream.size == 0:
        raise ValueError("raw stream must be non-empty")
    if stream.dtype.kind not in "iu":
        raise ValueError(f"raw counts must be integers, got {stream.dtype}")
    if stream.min() < 0:
        raise ValueError("raw counts must be >= 0")
    tail = stream[-window:]
    # a whole count reaches threshold x window exactly when it reaches k
    rank = math.ceil(threshold * tail.size)
    offset_code = int(np.partition(tail, rank - 1)[rank - 1])
    return OffsetEstimate(offset_code=offset_code, rank=rank, window=int(tail.size))


def count_edges_batch(
    chain: InverterChain,
    starts: np.ndarray,
    widths: np.ndarray,
) -> np.ndarray:
    """Vectorized raw counts for many launch-relative windows, as COUNT_DTYPE.

    Equal per sample to the single-shot count of one pulse's sampler bits,
    with the same boundary guard (`count_edges_in_pulse` in
    `tests/oracles.py`, the oracle this path is tested against).
    """
    starts = np.asarray(starts, dtype=np.float64)
    widths = np.asarray(widths, dtype=np.float64)
    index = chain.edge_buckets
    # both window ends in one pass: [opening edges | closing edges]
    n = starts.size
    ends = np.empty(2 * n)
    np.subtract(starts, chain.boundary_guard, out=ends[:n])
    np.add(starts, widths, out=ends[n:])
    ends[n:] -= chain.boundary_guard
    # #edges < end for each end (module docstring).  Every bucket lies inside
    # its table, so "clip" only skips the bounds check of the default mode
    b = _bucket(ends, index.inv_h, index.below.size)
    below = index.below.take(b, mode="clip")
    hit = np.empty(2 * n, dtype=bool)
    for row in index.edges:
        below += np.less(row.take(b, mode="clip"), ends, out=hit)
    return below[n:] - below[:n]
