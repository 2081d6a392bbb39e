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

A `DelayChain` is one interpolator instance, a plain record of its chain,
its ring, its 256-code sweep and two verdicts on them; `build_delay_chains`,
its one builder, works out the rings and ring verdicts of a whole stack of
chains in one numpy pass, and the sweeps and sweep verdicts of each block of
`SWEEP_ROWS` chains in one more when the block's first chain is taken.  A
trim is a change of path skews, rebuilt through the builder's one-row case.
This module draws no mismatch: `interleaver.pi_chain` scales every chain the
package uses from a run config's rows and hands the stack to the builder.

The builder reads each ring through a cached, read-only code table
(`code_table`): each code's segment and blend weight, from the encoder's
integer arithmetic.  `pi_sweep` returns the chain's sweep, and `pi_output`
is one entry of it.  `sweep_rises` is the verdict that every code step
rises strictly, and `ring_rises` that no adjacent ring positions fail the
arbiters' check: while N <= 256 the codes select every segment, taps
(1, 2) to (N, N + 1), so that check compares adjacent ring positions.
`inverted_segments` returns at once when the ring rises and otherwise reads
the ring alone.  The single-code model (encoder selects, blender, inversion
detector) lives with the tests in `tests/oracles.py`, which hold the sweep,
both verdicts and these functions to it bit for bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import field

import numpy as np

from .core import Duration, Instant, Record
# not called here: perfbench/hooks.py patches the keyed draw under this name
from .core import keyed_normal  # noqa: F401
from .errors import ChainUnderspanError, PreconditionError, TrimConvergenceError

PI_CODES = 256
BLEND_STEPS = 16

# Relative guard for arbiter comparisons against the clock period, so a
# mismatch-free chain whose accumulated delay lands exactly on the period
# quantizes deterministically despite cumsum rounding.
_ARB_TOL = 1e-9

# chains whose sweeps are worked out in one pass: bounds the pass's
# (rows, 256) temporaries at 128 KiB, and the sweeps a built stack holds
# beyond the chains its caller keeps to one block's
SWEEP_ROWS = 64


class DelayChain(Record):
    """One interpolator instance: delay chain, per-tap routing skew toward
    the blender muxes, the input-clock period it divides, and its ring.

    `n_delays` is the N unit delays the arbiters find in the period (the
    smallest tap whose pre-skew accumulated delay spans it), and `positions`
    the N+1 blender endpoint times covering the period after clock edge 0,
    in ring order.  Position j (1-based tap j) for j < N is that tap's
    mux-input time, position N the boundary-mixer midpoint plus its skew,
    and position N+1 the wrap endpoint one period up (tap N+1, or the next
    cycle's first tap when the boundary sits on the last tap).  `sweep` is
    the output phase of every code (index = code), `sweep_rises` whether
    each code step of it rises strictly, and `ring_rises` whether each ring
    position is strictly earlier than the next, the arbiters' check with a
    tie firing.  A plain record of read-only arrays and plain bools, built
    only by `build_delay_chains`.
    """

    unit_delay: Duration
    tap_delays: np.ndarray
    path_skews: np.ndarray
    period: Duration
    n_delays: int
    positions: np.ndarray = field(repr=False)
    sweep: np.ndarray = field(repr=False)
    sweep_rises: bool
    ring_rises: bool

    @property
    def n_taps(self) -> int:
        return int(self.tap_delays.size)


def build_delay_chains(unit_delay: Duration, tap_delays, path_skews, period: Duration):
    """One chain per row of (chains, taps) arrays of tap delays and path
    skews, all of one unit delay and clock period, worked out in one pass.

    Returns an iterator that makes each chain when it is taken; the chains'
    arrays are read-only rows of copies the build owns.  Each row's N is 1
    plus the count of its taps below the period (within `_ARB_TOL`), since
    accumulated positive delays never decrease.  The ring verdicts are
    worked out here, the sweeps of each block of `SWEEP_ROWS` rows when the
    block's first chain is taken (`_chains`).  A row that does not span
    the period raises `ChainUnderspanError`, and one whose accumulated delay
    or ring position overflows float64 `PreconditionError`, the first such
    row named.
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
    with np.errstate(over="ignore"):  # refused below, after the ring is built
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
    # zeros: the last entry of a row that does not wrap stays unused, and finite
    ring = np.zeros((k, n_taps + 1))
    # every tap's mux-input time; each row's boundary and wrap entries follow.
    # A tap whose delay overflowed stays inf, since its skew is finite
    with np.errstate(over="ignore"):
        np.add(taps, skews, out=ring[:, :n_taps])
        ring[rows, last] = 0.5 * (taps[rows, last] + period) + skews[rows, last]
        wraps = n == n_taps
        ring[wraps, n_taps] = period + delays[wraps, 0] + skews[wraps, 0]
    overflow = np.argwhere(~np.isfinite(ring))
    if overflow.size:
        r, j = overflow[0]
        raise PreconditionError(
            f"chain {r}'s delay to tap {j + 1} overflows float64 ({ring[r, j]} s): its "
            "tap delays, path skews and clock period sum past the largest double"
        )
    # the arbiters' check on each row's N segments: its first falling pair
    # of positions, or the sentinel past its last tap, lies past its N
    falls = np.ones((k, n_taps + 1), dtype=bool)
    np.greater_equal(ring[:, :-1], ring[:, 1:], out=falls[:, :-1])
    ring_rises = (falls.argmax(axis=1) >= n).tolist()
    for array in (delays, skews, ring):
        array.flags.writeable = False
    return _chains(unit_delay, delays, skews, period, n.tolist(), ring, ring_rises)


def _chains(unit_delay, delays, skews, period, n, ring, ring_rises):
    """The chains of a built stack in row order, each block of `SWEEP_ROWS`
    rows' sweeps and sweep verdicts worked out in one pass."""
    for start in range(0, len(n), SWEEP_ROWS):
        stop = start + SWEEP_ROWS
        block, sizes = ring[start:stop], n[start:stop]
        groups = set(sizes)
        if len(groups) == 1:
            sweeps = _blend(block, sizes[0])
        else:  # rows are grouped by N, each group reading one code table
            sweeps = np.empty((len(sizes), PI_CODES))
            for size in groups:
                rows = [i for i, s in enumerate(sizes) if s == size]
                sweeps[rows] = _blend(block[rows], size)
        sweeps.flags.writeable = False
        sweep_rises = (sweeps[:, :-1] < sweeps[:, 1:]).all(axis=1).tolist()
        for r, size, sweep, rises in zip(range(start, stop), sizes, sweeps, sweep_rises):
            yield DelayChain(
                unit_delay, delays[r], skews[r], period, size, ring[r, : size + 1], sweep,
                rises, ring_rises[r],
            )


def _blend(ring, size: int) -> np.ndarray:
    """Every code's phase, (rows, 256), of rings whose N is `size`.

    Code c's phase is t_a + weight * (t_b - t_a) between its segment's
    endpoints t_a and t_b.  At weight 0 that is t_a bit for bit, as the
    blender's k = 0 passes its first input: the difference is finite (the
    build refuses non-finite delays, skews and rings; only times near the
    float64 limit, about 1e308 s, could overflow it) and t_a is never -0.0
    (a positive cumulative delay, or the period, plus a skew is +0.0 at
    worst).
    """
    table = code_table(size)
    t_a = ring.take(table.segment, axis=1)
    t_b = ring.take(table.start_tap, axis=1)
    t_b -= t_a
    t_b *= table.weight
    t_b += t_a
    return t_b


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
    """Output edge time for one control code, in the period after edge 0:
    entry `code` of the chain's sweep."""
    # checked here: a negative code would index the sweep from its end
    if not 0 <= code < PI_CODES:
        raise ValueError(f"code must lie in [0, {PI_CODES}), got {code}")
    return float(chain.sweep[code])


def pi_sweep(chain: DelayChain) -> np.ndarray:
    """Output phase for every code, one cycle (index = code): the chain's
    read-only sweep, worked out when it was built (see `_blend`)."""
    return chain.sweep


def inverted_segments(chain: DelayChain) -> list[tuple[int, int]]:
    """Segments whose blender inputs contradict the encoder, over all codes.

    Each segment the codes select is checked once, in code order.
    Whichever of the odd and even selects leads, the arbiter's check
    reduces to "the start endpoint is not strictly earlier than the end
    endpoint", so a tie fires: a real arbiter cannot certify margin, and
    treating ties as clean would let trimming stall on an exactly zero-width
    segment.  A chain whose ring rises fires none.
    """
    if chain.ring_rises:
        return []
    positions = chain.positions
    rising = positions[:-1] < positions[1:]
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
