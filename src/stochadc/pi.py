"""Synthesizable phase interpolator model.

A 32-tap delay chain spans roughly two input-clock periods.  Arbiters
quantize the period into N unit delays; the mixer at the clock boundary
replaces its tap's phase with the average of that tap edge and the next
clock edge, taps beyond the boundary alias into the next cycle, and the
result is a ring of N+1 phase positions covering exactly one period.  The
encoder walks 16 logical segments of that ring leapfrog-style (odd and even
tap selects alternate, adjacent segments share one endpoint) and a 16-step
blender interpolates inside the selected segment, giving period/256 nominal
resolution.

Routing skew between a chain node and the blender can exceed the unit delay
after automated place-and-route, which breaks monotonicity; an arbiter at
the blender input detects the resulting order contradiction and the
offending paths are trimmed in fixed steps until no contradiction remains.

A `DelayChain` is one interpolator instance, a plain record of its chain
and ring; `build_delay_chains`, its one builder, works out the rings of a
whole stack of chains in one numpy pass.  A trim is a change of path skews,
rebuilt through the builder's one-row case.  This module draws no mismatch:
`interleaver.pi_chain` scales every chain the package uses from a run
config's rows and hands the stack to the builder.

`pi_sweep` and `pi_output` read the chain's ring through a cached,
read-only code table (`code_table`): each code's segment and blend weight,
from the encoder's integer arithmetic.  `inverted_segments` reads the ring
alone: while N <= 256 the codes select every segment, taps (1, 2) to
(N, N + 1), so the arbiters' check compares adjacent ring positions.  The
single-code model (encoder selects, blender, inversion detector) lives with
the tests in `tests/oracles.py`, which hold these functions to it bit for
bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import field

import numpy as np

from .core import Duration, Instant, Record
# not called here: perfbench/hooks.py patches the keyed draw under this name
from .core import keyed_normal  # noqa: F401
from .errors import ChainUnderspanError, TrimConvergenceError

PI_CODES = 256
BLEND_STEPS = 16

# Relative guard for arbiter comparisons against the clock period, so a
# mismatch-free chain whose accumulated delay lands exactly on the period
# quantizes deterministically despite cumsum rounding.
_ARB_TOL = 1e-9


class DelayChain(Record):
    """One interpolator instance: delay chain, per-tap routing skew toward
    the blender muxes, the input-clock period it divides, and its ring.

    `n_delays` is the N unit delays the arbiters find in the period (the
    smallest tap whose pre-skew accumulated delay spans it), and `positions`
    the N+1 blender endpoint times covering the period after clock edge 0,
    in ring order.  Position j (1-based tap j) for j < N is that tap's
    mux-input time, position N the boundary-mixer midpoint plus its skew,
    and position N+1 the wrap endpoint one period up (tap N+1, or the next
    cycle's first tap when the boundary sits on the last tap).  A plain
    record of read-only arrays, built only by `build_delay_chains`.
    """

    unit_delay: Duration
    tap_delays: np.ndarray
    path_skews: np.ndarray
    period: Duration
    n_delays: int
    positions: np.ndarray = field(repr=False)

    @property
    def n_taps(self) -> int:
        return int(self.tap_delays.size)


def build_delay_chains(unit_delay: Duration, tap_delays, path_skews, period: Duration):
    """One chain per row of (chains, taps) arrays of tap delays and path
    skews, all of one unit delay and clock period, worked out in one pass.

    Returns an iterator that makes each chain when it is taken; the chains'
    arrays are read-only rows of copies the build owns.  Each row's N is 1
    plus the count of its taps below the period (within `_ARB_TOL`), since
    accumulated positive delays never decrease.  A row that does not span
    the period raises `ChainUnderspanError`, the first such row named.
    """
    delays = np.array(tap_delays, dtype=np.float64)
    skews = np.array(path_skews, dtype=np.float64)
    if delays.ndim != 2 or delays.shape[1] < 2:
        raise ValueError("tap_delays must hold at least two taps")
    if skews.shape != delays.shape:
        raise ValueError("path_skews must match tap_delays in length")
    if (delays <= 0).any():
        raise ValueError("all tap delays must be > 0")
    for name, values in (("tap_delays", delays), ("path_skews", skews)):
        if not np.isfinite(values).all():
            raise ValueError(f"{name} must be finite")
    for name, value in (("unit_delay", unit_delay), ("period", period)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if unit_delay <= 0:
        raise ValueError("unit_delay must be > 0")
    if period <= 0:
        raise ValueError(f"clock period must be > 0, got {period}")
    taps = np.cumsum(delays, axis=1)
    limit = period * (1.0 - _ARB_TOL)
    short = np.flatnonzero(taps[:, -1] < limit)
    if short.size:
        raise ChainUnderspanError(
            f"chain spans {taps[short[0], -1]:.4e} s, "
            f"shorter than the clock period {period:.4e} s"
        )
    k, n_taps = delays.shape
    n = (taps < limit).sum(axis=1) + 1
    rows, last = np.arange(k), n - 1
    ring = np.empty((k, n_taps + 1))
    # every tap's mux-input time; each row's boundary and wrap entries follow
    np.add(taps, skews, out=ring[:, :n_taps])
    ring[rows, last] = 0.5 * (taps[rows, last] + period) + skews[rows, last]
    wraps = n == n_taps
    ring[wraps, n_taps] = period + delays[wraps, 0] + skews[wraps, 0]
    for array in (delays, skews, ring):
        array.flags.writeable = False
    return (
        DelayChain(unit_delay, delays[r], skews[r], period, size, ring[r, : size + 1])
        for r, size in enumerate(n.tolist())
    )


class CodeTable(Record):
    """Encoder output for every code at one period quantization.

    Index = code.  Taps are 1-based ring positions (see `DelayChain`):
    code c blends from tap `start_tap[c]`, ring index `segment[c]`, toward
    tap `start_tap[c] + 1`, ring index `start_tap[c]`.  `weight` is the
    blender's `blend_k / BLEND_STEPS`, computed once.  All arrays are
    read-only, because one table is shared by every caller with the same N.
    """

    segment: np.ndarray
    start_tap: np.ndarray
    blend_k: np.ndarray
    weight: np.ndarray


@functools.lru_cache(maxsize=64)
def code_table(n_delays_per_cycle: int) -> CodeTable:
    """The encoder's integer arithmetic over all codes, cached per N.

    Codes scale onto the N physical ring segments: position code*N/256
    selects physical segment floor() and the blender weight is the 16-step
    fraction within it.  At the nominal N = 16 this reduces exactly to
    segment = code >> 4, blend_k = code & 15.  Segment p interpolates from
    tap p+1 toward tap p+2, so adjacent segments share an endpoint and only
    one of the odd and even mux selects advances per segment step
    (leapfrog); off-nominal N keeps monotonicity but not step uniformity.
    """
    scaled = np.arange(PI_CODES, dtype=np.int64) * n_delays_per_cycle
    segment = scaled // PI_CODES
    blend_k = (scaled % PI_CODES) // BLEND_STEPS
    table = CodeTable(
        segment=segment,
        start_tap=segment + 1,
        blend_k=blend_k,
        weight=blend_k / BLEND_STEPS,
    )
    for array in (table.segment, table.start_tap, table.blend_k, table.weight):
        array.flags.writeable = False
    return table


def pi_output(code: int, chain: DelayChain) -> Instant:
    """Output edge time for one control code, in the period after edge 0.

    Entry `code` of `pi_sweep`, bit for bit, without computing the others.
    """
    # checked here: a negative code would index the table from its end
    if not 0 <= code < PI_CODES:
        raise ValueError(f"code must lie in [0, {PI_CODES}), got {code}")
    table = code_table(chain.n_delays)
    start = int(table.segment[code])
    t_a, t_b = chain.positions[start : start + 2].tolist()
    return t_a + float(table.weight[code]) * (t_b - t_a)


def pi_sweep(chain: DelayChain) -> np.ndarray:
    """Output phase for every code, one cycle (index = code).

    Code c's phase is t_a + weight * (t_b - t_a) between its segment's
    endpoints t_a and t_b.  At weight 0 that is t_a bit for bit, as the
    blender's k = 0 passes its first input: the difference is finite (the
    build refuses non-finite delays and skews; only times near the float64
    limit, about 1e308 s, could overflow it) and t_a is never -0.0 (a
    positive cumulative delay, or the period, plus a skew is +0.0 at worst).
    """
    table = code_table(chain.n_delays)
    t_a = chain.positions[table.segment]
    t_b = chain.positions[table.start_tap]
    t_b -= t_a
    t_b *= table.weight
    t_b += t_a
    return t_b


def inverted_segments(chain: DelayChain) -> list[tuple[int, int]]:
    """Segments whose blender inputs contradict the encoder, over all codes.

    Each segment the codes select is checked once, in code order.
    Whichever of the odd and even selects leads, the arbiter's check
    reduces to "the start endpoint is not strictly earlier than the end
    endpoint", so a tie fires: a real arbiter cannot certify margin, and
    treating ties as clean would let trimming stall on an exactly zero-width
    segment.
    """
    positions = chain.positions
    rising = positions[:-1] < positions[1:]
    # a fraction of the cost of `rising.all()` on a few dozen flags
    if np.count_nonzero(rising) == rising.size:
        return []
    taps = np.flatnonzero(~rising) + 1
    if chain.n_delays > PI_CODES:
        # more segments than codes: the encoder skips some, and no code reads those
        taps = taps[np.isin(taps, code_table(chain.n_delays).start_tap)]
    return [(tap, tap + 1) for tap in taps.tolist()]


class TrimResult(Record):
    """Outcome of the post-fabrication trim procedure: the trimmed chain,
    whose path skews are the input chain's plus `adjustments`."""

    chain: DelayChain
    adjustments: np.ndarray
    iterations: int
    initial_inversions: int


def trim_paths(chain: DelayChain, max_iters: int) -> TrimResult:
    """Iteratively trim offending paths until no inversion fires.

    Each firing segment moves its expected-earlier endpoint earlier and its
    expected-later endpoint later by unit_delay/16 each (a fixed closure of
    unit_delay/8 per segment per iteration); every adjustment stays below
    the unit delay.  Iteration 1 checks the untrimmed chain itself.  Raises
    when inversions persist at the iteration limit.
    """
    step = chain.unit_delay / 8.0
    limit = chain.unit_delay * (1.0 - 1e-6)
    adjustments = np.zeros(chain.n_taps)
    trimmed = chain
    initial = None
    for iteration in range(1, max_iters + 1):
        firing = inverted_segments(trimmed)
        if initial is None:
            initial = len(firing)
        if not firing:
            return TrimResult(
                chain=trimmed,
                adjustments=adjustments,
                iterations=iteration,
                initial_inversions=initial,
            )
        for start_tap, end_tap in firing:
            # the wrap endpoint beyond the last tap is physically tap 1's path
            adjustments[(start_tap - 1) % chain.n_taps] -= step / 2.0
            adjustments[(end_tap - 1) % chain.n_taps] += step / 2.0
        np.clip(adjustments, -limit, limit, out=adjustments)
        [trimmed] = build_delay_chains(
            chain.unit_delay, chain.tap_delays[None], (chain.path_skews + adjustments)[None],
            chain.period,
        )
    raise TrimConvergenceError(
        f"inversions persist after {max_iters} trim iterations"
    )
