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

A `DelayChain` is one interpolator instance, its ring worked out once; a
trim is a change of its path skews.

`pi_sweep`, `pi_output` and `inverted_segments` read the chain's ring
through a cached, read-only code table (`code_table`): each code's start tap
and blend step, from the encoder's integer arithmetic.  The single-code
model (encoder selects, blender, inversion detector) lives with the tests
in `tests/oracles.py`, which hold these functions to it bit for bit.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace

import numpy as np

from .core import (
    Duration,
    Instant,
    derive_seed,
    keyed_normal,
    mismatch_scale,
    seed_array,
)
from .errors import ChainUnderspanError, TrimConvergenceError

PI_CODES = 256
BLEND_STEPS = 16

# Relative guard for arbiter comparisons against the clock period, so a
# mismatch-free chain whose accumulated delay lands exactly on the period
# quantizes deterministically despite cumsum rounding.
_ARB_TOL = 1e-9


@dataclass(frozen=True)
class DelayChain:
    """One interpolator instance: delay chain, per-tap routing skew toward
    the blender muxes, and the input-clock period it divides.

    Building it works out `n_delays`, the N unit delays the arbiters find in
    the period (the smallest tap whose pre-skew accumulated delay spans it;
    `ChainUnderspanError` when none does), and `positions`, the N+1 blender
    endpoint times covering the period after clock edge 0, in ring order.
    Position j (1-based tap j) for j < N is that tap's mux-input time,
    position N the boundary-mixer midpoint plus its skew, and position N+1
    the wrap endpoint one period up (tap N+1, or the next cycle's first tap
    when the boundary sits on the last tap).
    """

    unit_delay: Duration
    tap_delays: np.ndarray
    path_skews: np.ndarray
    period: Duration
    n_delays: int = field(init=False)
    positions: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        # own read-only copies: the ring below is worked out from them once
        delays = np.array(self.tap_delays, dtype=np.float64)
        skews = np.array(self.path_skews, dtype=np.float64)
        if delays.ndim != 1 or delays.size < 2:
            raise ValueError("tap_delays must hold at least two taps")
        if skews.shape != delays.shape:
            raise ValueError("path_skews must match tap_delays in length")
        if (delays <= 0).any():
            raise ValueError("all tap delays must be > 0")
        if self.unit_delay <= 0:
            raise ValueError("unit_delay must be > 0")
        if self.period <= 0:
            raise ValueError(f"clock period must be > 0, got {self.period}")
        taps = np.cumsum(delays)
        limit = self.period * (1.0 - _ARB_TOL)
        if taps[-1] < limit:
            raise ChainUnderspanError(
                f"chain spans {taps[-1]:.4e} s, "
                f"shorter than the clock period {self.period:.4e} s"
            )
        n = int(np.searchsorted(taps, limit, side="left")) + 1
        positions = np.empty(n + 1, dtype=np.float64)
        positions[: n - 1] = taps[: n - 1] + skews[: n - 1]
        positions[n - 1] = 0.5 * (taps[n - 1] + self.period) + skews[n - 1]
        if n < delays.size:
            positions[n] = taps[n] + skews[n]
        else:
            positions[n] = self.period + delays[0] + skews[0]
        for array in (delays, skews, positions):
            array.flags.writeable = False
        object.__setattr__(self, "tap_delays", delays)
        object.__setattr__(self, "path_skews", skews)
        object.__setattr__(self, "n_delays", n)
        object.__setattr__(self, "positions", positions)

    @property
    def n_taps(self) -> int:
        return int(self.tap_delays.size)


def chain_seeds(seeds: np.ndarray, skewed: bool) -> np.ndarray:
    """Keyed-draw seeds of the chains keyed by ``seeds`` (a uint64 array):
    shape ``seeds.shape + (rows,)``, the tap row, then the skew row when the
    chain has skews."""
    rows = [derive_seed(seeds, "pi.tap")]
    if skewed:
        rows.append(derive_seed(seeds, "pi.skew"))
    return np.stack(rows, axis=-1)


def chain_delays(
    unit_delay: Duration,
    tap_sigma_rel: float,
    skew_sigma: Duration,
    normals: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Tap delays and path skews of a chain instance from its standard normal
    rows, in `chain_seeds` order."""
    taps = mismatch_scale(unit_delay, tap_sigma_rel, normals[0])
    skews = normals[1] * skew_sigma if skew_sigma > 0 else np.zeros(normals.shape[-1])
    return taps, skews


def make_pi_chain(
    unit_delay: Duration,
    period: Duration,
    n_taps: int = 32,
    tap_sigma_rel: float = 0.0,
    skew_sigma: Duration = 0.0,
    seed: int = 0,
) -> DelayChain:
    """Chain instance with gaussian tap mismatch and routing skews, dividing
    `period`.

    The tap row and, when skews are on, the skew row come from one keyed
    draw; each row equals its own single-seed draw bit for bit.
    """
    row_seeds = chain_seeds(seed_array([seed]), skew_sigma > 0)[0]
    normals = keyed_normal(row_seeds, np.arange(n_taps))
    taps, skews = chain_delays(unit_delay, tap_sigma_rel, skew_sigma, normals)
    return DelayChain(unit_delay=unit_delay, tap_delays=taps, path_skews=skews, period=period)


@dataclass(frozen=True)
class CodeTable:
    """Encoder output for every code at one period quantization.

    Index = code.  Taps are 1-based ring positions (see `DelayChain`);
    each segment ends on tap `start_tap + 1`.  `segment_codes` lists the first
    code of each distinct segment, in code order.  `weight` and `at_start` are
    the blender's `blend_k / BLEND_STEPS` and `blend_k == 0`, computed once.
    All arrays are read-only, because one table is shared by every caller
    with the same N.
    """

    start_tap: np.ndarray
    blend_k: np.ndarray
    segment_codes: np.ndarray
    weight: np.ndarray
    at_start: np.ndarray


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
    start_tap = scaled // PI_CODES + 1
    _, segment_codes = np.unique(start_tap, return_index=True)
    blend_k = (scaled % PI_CODES) // BLEND_STEPS
    table = CodeTable(
        start_tap=start_tap,
        blend_k=blend_k,
        segment_codes=segment_codes,
        weight=blend_k / BLEND_STEPS,
        at_start=blend_k == 0,
    )
    for array in (table.start_tap, table.blend_k, table.segment_codes, table.weight,
                  table.at_start):
        array.flags.writeable = False
    return table


def _blend(positions: np.ndarray, start_tap, weight, at_start) -> np.ndarray:
    """16-step weighted average of segment endpoints read from ring positions.

    Element-wise over code-table entries; k = 0 (`at_start`) returns the
    start endpoint exactly.
    """
    t_a = positions[start_tap - 1]
    t_b = positions[start_tap]
    return np.where(at_start, t_a, t_a + weight * (t_b - t_a))


def pi_output(code: int, chain: DelayChain) -> Instant:
    """Output edge time for one control code, in the period after edge 0.

    Entry `code` of `pi_sweep`, bit for bit, without computing the others.
    """
    # checked here: a negative code would index the table from its end
    if not 0 <= code < PI_CODES:
        raise ValueError(f"code must lie in [0, {PI_CODES}), got {code}")
    table = code_table(chain.n_delays)
    return float(
        _blend(chain.positions, table.start_tap[code], table.weight[code], table.at_start[code])
    )


def pi_sweep(chain: DelayChain) -> np.ndarray:
    """Output phase for every code, one cycle (index = code)."""
    table = code_table(chain.n_delays)
    return _blend(chain.positions, table.start_tap, table.weight, table.at_start)


def inverted_segments(chain: DelayChain) -> list[tuple[int, int]]:
    """Segments whose blender inputs contradict the encoder, over all codes.

    Each distinct segment is checked once, in code order.  Whichever of the
    odd and even selects leads, the arbiter's check reduces to "the start
    endpoint is not strictly earlier than the end endpoint", so a tie fires:
    a real arbiter cannot certify margin, and treating ties as clean would
    let trimming stall on an exactly zero-width segment.
    """
    positions = chain.positions
    table = code_table(chain.n_delays)
    start = table.start_tap[table.segment_codes]
    firing = ~(positions[start - 1] < positions[start])
    return [(tap, tap + 1) for tap in start[firing].tolist()]


@dataclass(frozen=True)
class TrimResult:
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
        trimmed = replace(chain, path_skews=chain.path_skews + adjustments)
    raise TrimConvergenceError(
        f"inversions persist after {max_iters} trim iterations"
    )
