"""Reference models that only the tests use.

The package holds one production path per block: a capture converts whole
arrays (`interleaver.convert_pair_arrays`, `stdc.count_edges_batch`) and the
phase interpolator's builder reads every code from its code table
(`pi.build_delay_chains`: the sweep `pi.pi_sweep` and `pi.pi_output` read,
and the verdicts `pi.inverted_segments` reads).  The single-shot models below
describe the same blocks one conversion or one code at a time, the way the
circuit is drawn, and the tests hold the production path to them:

* order-dependent sub-stream generators and keyed per-instance mismatch
  values;
* the discharge-ramp V2T pair and the pulse folder;
* the STDC chain built from its own row, the STDC as tap edges, per-tap
  sampler bits, an adder tree and unfold, and the offset estimate as the
  first code of a cumulative histogram;
* one sample of a slice end to end (`convert_one`: the V2T pair with the
  slice's drawn slopes and thresholds, the folder, the STDC with its unfold
  and the LUT), the one V2T model `convert_pair_arrays`, `run_capture` and
  `slice_transfer` are held to sample by sample;
* the PI as its chain built from its own row, period arbiters and ring,
  boundary mixers, leapfrog encoder, 16-step blender and blender-inversion
  detector, and its sweep and verdicts through them code by code;
* the converter's and the PI chain's mismatch instances, one keyed draw per
  row, a one-seed converter build and the design-envelope refusal as two
  per-slice loops;
* the mid-tread ideal quantizer and the identity LUT.
"""

from __future__ import annotations

import functools
import zlib
from dataclasses import dataclass

import numpy as np

from stochadc.core import Duration, Instant, derive_seed, keyed_normal
from stochadc.errors import ChainUnderspanError, OverrangeError, UnderrangeError
from stochadc.interleaver import CODE_MAX, CODE_MIN, LUT_SIZE, N_SLICES, converters
from stochadc.pi import BLEND_STEPS, PI_CODES, DelayChain
from stochadc.stdc import EdgeBuckets, InverterChain, OffsetEstimate, build_chains

# Stream draws.


def substream(master_seed: int, label: str, index: int = 0) -> np.random.Generator:
    """Order-dependent generator on an independent sub-stream."""
    entropy = [int(master_seed) % (1 << 64), zlib.crc32(label.encode()), int(index)]
    return np.random.default_rng(np.random.SeedSequence(entropy))


@dataclass(frozen=True)
class KeyedMismatch:
    """Gaussian per-instance values around a nominal, keyed by instance
    index: value i depends on (seed, i) alone, never on how many instances
    are drawn.  A positive nominal is a physical quantity, clamped to 0.05
    of itself."""

    nominal: float
    sigma_rel: float
    seed: int = 0

    def sample_at(self, indices) -> np.ndarray:
        values = self.nominal + keyed_normal(self.seed, indices) * (self.sigma_rel * self.nominal)
        if self.nominal > 0:
            values = np.maximum(values, 0.05 * self.nominal)
        return values


# Voltage-to-time pair and folder.
#
# One conversion cycle: the held voltage is discharged at a constant rate
# from the discharge phase, and a buffer fires when the ramp crosses its
# threshold.  The edge time is therefore affine in the sampled voltage.  Two
# converters encode a differential input as the time difference of their
# output edges; the folder turns that signed difference into (sign bit,
# unsigned pulse width) with a configured minimum width.

# Tolerance for range checks at the exact threshold/supply boundary, volts.
# Keeps full-scale stimuli from tripping on float dust.  Restated here, not
# imported, so that a test of the band's edges sees either side drift.
_V_EPS = 1e-12


@dataclass(frozen=True)
class PulseSample:
    """Folded time-domain encoding of one conversion."""

    sign: bool
    width: Duration

    def __post_init__(self):
        if self.width < 0:
            raise ValueError("pulse width must be >= 0")


def v2t_edge_time(
    v_sampled: float, slope: float, threshold: float, vdd: float, t_phi2: Instant = 0.0
) -> Instant:
    """Time at which a converter with this discharge slope and threshold
    fires for a sampled voltage, the discharge starting at t_phi2.

    Affine and strictly increasing in v_sampled.  A voltage below the
    threshold would make the real circuit fire immediately; that is
    surfaced as an error instead of being clipped, so bad stimulus
    configurations fail loudly rather than corrupting linearity tests.
    """
    if v_sampled < threshold - _V_EPS:
        raise UnderrangeError(f"input underrange: {v_sampled} V below threshold {threshold} V")
    if v_sampled > vdd + _V_EPS:
        raise OverrangeError(f"input overrange: {v_sampled} V above {vdd} V")
    return t_phi2 + max(v_sampled - threshold, 0.0) / slope


def v2t_pair(
    v_p: float, v_n: float, slopes, thresholds, vdd: float, t_phi2: Instant = 0.0
) -> tuple[Instant, Instant]:
    """Edge times (t_inp, t_inn) of the converter pair; `slopes` and
    `thresholds` are each (p side, n side)."""
    t_inp = v2t_edge_time(v_p, slopes[0], thresholds[0], vdd, t_phi2)
    t_inn = v2t_edge_time(v_n, slopes[1], thresholds[1], vdd, t_phi2)
    return t_inp, t_inn


def fold(t_inp: Instant, t_inn: Instant, d_offset: Duration) -> PulseSample:
    """Fold a signed time difference into a sign bit and unsigned width.

    sign is true when t_inp arrives first; an exact tie folds to sign=false
    (any fixed choice works, the offset adaptation absorbs a half-LSB).
    """
    if d_offset <= 0:
        raise ValueError("d_offset must be > 0")
    return PulseSample(sign=t_inp < t_inn, width=abs(t_inp - t_inn) + d_offset)


# Stochastic TDC, one pulse at a time.


def make_chain(
    unit_delay: Duration,
    n_taps: int = 255,
    sigma_rel: float = 0.0,
    seed: int = 0,
) -> InverterChain:
    """Chain with per-tap gaussian mismatch around a nominal unit delay."""
    model = KeyedMismatch(nominal=unit_delay, sigma_rel=sigma_rel, seed=seed)
    return build_chains(model.sample_at(np.arange(n_taps))[None])[0]


def rowwise_chain(tap_delays) -> InverterChain:
    """One chain built from its own row alone, the build `stdc.build_chains`
    stacks: edge offsets by cumsum, f(x) = floor(x * inv_h) with about four
    buckets per mean tap, each bucket's `below` from this row's own bucket
    counts in int16, and an edge table as deep as its fullest bucket, +inf
    padded."""
    delays = np.asarray(tap_delays, dtype=np.float64)
    offsets = np.cumsum(delays)
    inv_h = 4 * delays.size / float(offsets[-1])
    bucket = np.floor(offsets * inv_h).astype(np.intp)
    n_buckets = int(offsets[-1] * inv_h) + 1  # f of the last, largest edge
    counts = np.bincount(bucket, minlength=n_buckets)
    below = (np.cumsum(counts) - counts).astype(np.int16)
    edges = np.full((int(counts.max()), n_buckets), np.inf)
    edges[np.arange(delays.size) - below[bucket], bucket] = offsets
    guard = 1e-6 * float(np.mean(delays))
    return InverterChain(delays, offsets, EdgeBuckets(inv_h, below, edges), guard)


def tap_edge_times(chain: InverterChain, launch_edge: Instant) -> np.ndarray:
    """Edge time per tap (ordered by tap index, strictly increasing)."""
    return launch_edge + chain.edge_offsets


def count_edges_in_pulse(
    pulse: PulseSample,
    pulse_start: Instant,
    edges: np.ndarray,
    guard: float | None = None,
) -> tuple[int, np.ndarray]:
    """Raw count and the per-tap sampler bits for one pulse window."""
    edges = np.asarray(edges, dtype=np.float64)
    if guard is None:
        if edges.size > 1:
            guard = 1e-6 * float(edges[-1] - edges[0]) / (edges.size - 1)
        else:
            guard = 0.0
    lo = pulse_start - guard
    hi = pulse_start + pulse.width - guard
    bits = (edges >= lo) & (edges < hi)
    return int(np.count_nonzero(bits)), bits


def adder_tree_depth(n_inputs: int) -> int:
    """Latency, in adder stages, of the balanced reduction tree."""
    depth = 0
    while n_inputs > 1:
        n_inputs = (n_inputs + 1) // 2
        depth += 1
    return depth


def adder_tree_sum(bits, expected_length: int = 255) -> int:
    """Population count via a balanced binary reduction tree.

    Modeled structurally (pairwise partial sums per stage) so the depth the
    hardware would need is the one actually exercised; equals the naive sum.
    """
    arr = np.asarray(bits)
    if arr.ndim != 1 or arr.size != expected_length:
        raise ValueError(
            f"adder tree expects {expected_length} inputs, got {arr.shape}"
        )
    level = arr.astype(np.int64)
    while level.size > 1:
        half = level.size // 2
        merged = level[: 2 * half : 2] + level[1 : 2 * half : 2]
        if level.size % 2:
            merged = np.concatenate([merged, level[-1:]])
        level = merged
    return int(level[0])


@dataclass(frozen=True)
class AdcCode:
    """Signed output code of one conversion plus the raw unsigned count."""

    code: int
    raw: int


def unfold(raw: int, offset, sign: bool) -> AdcCode:
    """Remove the offset code and reapply the sign.

    Raw counts below the offset estimate are offset-estimation error; they
    clamp to zero so the error is bounded at one LSB.
    """
    offset_code = offset.offset_code if isinstance(offset, OffsetEstimate) else int(offset)
    magnitude = max(int(raw) - offset_code, 0)
    return AdcCode(code=-magnitude if sign else magnitude, raw=int(raw))


def histogram_offset_estimate(raw_stream, window: int, threshold: float) -> tuple[int, int]:
    """The offset estimate as first defined: the smallest raw code whose
    cumulative histogram over the last `window` counts reaches `threshold`
    of them, and the count that reaching it takes (the rank of the code
    among the sorted counts)."""
    tail = np.asarray(raw_stream, dtype=np.int64)[-window:]
    used = tail.size
    cumulative = np.cumsum(np.bincount(tail))
    code = int(np.argmax(cumulative >= threshold * used))
    rank = int(np.argmax(np.arange(1, used + 1) >= threshold * used)) + 1
    return code, rank


def stdc_convert(
    pulse: PulseSample,
    pulse_start: Instant,
    chain: InverterChain,
    offset,
    launch_edge: Instant = 0.0,
) -> AdcCode:
    """Full conversion of one pulse: edges -> window count -> unfold.

    ``launch_edge`` is the divided-clock edge associated with this conversion
    cycle; pulse_start is expressed in the same time frame.
    """
    edges = tap_edge_times(chain, launch_edge)
    _, bits = count_edges_in_pulse(pulse, pulse_start, edges, guard=chain.boundary_guard)
    raw = adder_tree_sum(bits, chain.n_taps)
    return unfold(raw, offset, pulse.sign)


def convert_one(system, s: int, v_p: float, v_n: float, offset_code: int, lut=None):
    """One sample on slice s of a converter (an `AdcSystem`), in plain
    floats: the V2T pair with the slice's drawn slopes and thresholds, the
    folder, the STDC launched `adc.launch_lead` before the discharge starts
    (its unfold included) and the LUT at its saturating address.  Returns
    (raw, sign, code, corrected), corrected being the code without a LUT.

    An input below either side's threshold, or not a number, is refused
    before one above the supply on either side.
    """
    adc = system.config.adc
    slopes = float(system.slope_p[s]), float(system.slope_n[s])
    thresholds = float(system.vth_p[s]), float(system.vth_n[s])
    v_p, v_n = float(v_p), float(v_n)
    if not (v_p >= thresholds[0] - _V_EPS and v_n >= thresholds[1] - _V_EPS):
        raise UnderrangeError(f"slice {s}: input below V2T threshold or not a number")
    if not (v_p <= adc.vdd + _V_EPS and v_n <= adc.vdd + _V_EPS):
        raise OverrangeError(f"slice {s}: input above supply")
    t_inp, t_inn = v2t_pair(v_p, v_n, slopes, thresholds, adc.vdd)
    pulse = fold(t_inp, t_inn, adc.d_offset)
    start = min(t_inp, t_inn) + adc.launch_lead
    out = stdc_convert(pulse, start, system.chains[s], int(offset_code))
    corrected = out.code
    if lut is not None:
        corrected = int(lut[min(max(out.code + LUT_SIZE // 2, 0), LUT_SIZE - 1)])
    return out.raw, pulse.sign, out.code, corrected


# Phase interpolator, one code at a time.

ODD_TO_EVEN = "odd_to_even"
EVEN_TO_ODD = "even_to_odd"


@dataclass(frozen=True)
class EncoderSelect:
    """Mux selects and blender weight for one input code."""

    sel_odd: int
    sel_even: int
    blend_k: int
    direction: str


def propagate_chain(
    chain: DelayChain,
    clock_edge: Instant,
    adjustments: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Tap edge times (pre-skew) and blender-mux input times (post-skew and
    post-trim)."""
    taps = clock_edge + np.cumsum(chain.tap_delays)
    adjust = chain.path_skews if adjustments is None else chain.path_skews + adjustments
    return taps, taps + adjust


def rowwise_delay_chain(
    unit_delay: Duration, tap_delays, path_skews, period: Duration
) -> DelayChain:
    """One PI chain worked out from its own row alone, the build
    `pi.build_delay_chains` stacks: the chain's own read-only copies of its
    taps and skews, N, its ring (`rowwise_ring`), and its sweep and two
    verdicts from the single-code models: each code through the encoder,
    its select pair's endpoints and the blender; the sweep rising when each
    code's phase is below the next one's; and the ring rising when the
    inversion detector fires on none of its N segments, taps (1, 2) to
    (N, N + 1), each with the direction its start tap's parity gives.
    """
    delays, skews, positions, n = rowwise_ring(unit_delay, tap_delays, path_skews, period)
    phases = [
        blend(positions[start_tap - 1], positions[end_tap - 1], blend_k)
        for start_tap, end_tap, blend_k in _code_selects(n)
    ]
    sweep = np.array(phases)
    sweep_rises = all(a < b for a, b in zip(phases, phases[1:]))
    fires = []
    for start_tap in range(1, n + 1):
        t_start, t_end = positions[start_tap - 1], positions[start_tap]
        if start_tap % 2 == 1:
            fires.append(detect_blender_inversion(t_start, t_end, ODD_TO_EVEN))
        else:
            fires.append(detect_blender_inversion(t_end, t_start, EVEN_TO_ODD))
    for array in (delays, skews, positions, sweep):
        array.flags.writeable = False
    return DelayChain(unit_delay, delays, skews, period, n, positions, sweep, sweep_rises,
                      not any(fires))


@functools.lru_cache(maxsize=None)
def _code_selects(n_delays_per_cycle: int) -> tuple[tuple[int, int, int], ...]:
    """Each code's segment endpoints and blend step from `encode`, in code
    order, worked out once per N."""
    return tuple(
        (*segment_endpoints(sel), sel.blend_k)
        for sel in (encode(code, n_delays_per_cycle) for code in range(PI_CODES))
    )


def rowwise_ring(
    unit_delay: Duration, tap_delays, path_skews, period: Duration
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """A PI chain's tap delays, path skews, ring and N worked out from its
    own row alone.

    N is the number of unit delays the arbiters find in the period: the
    smallest tap whose accumulated (pre-skew) delay spans it, within a
    relative guard of 1e-9 against cumsum rounding.  Position j (1-based
    tap j) for j < N is that tap's mux-input time, position N is the
    boundary-mixer midpoint plus its skew, and position N+1 is the wrap
    endpoint: the next phase position one period up (tap N+1 of the same
    wavefront, or the next cycle's first tap when the boundary sits on the
    last tap).
    """
    delays = np.array(tap_delays, dtype=np.float64)
    skews = np.array(path_skews, dtype=np.float64)
    if delays.ndim != 1 or delays.size < 2:
        raise ValueError("tap_delays must hold at least two taps")
    if skews.shape != delays.shape:
        raise ValueError("path_skews must match tap_delays in length")
    if (delays <= 0).any():
        raise ValueError("all tap delays must be > 0")
    if unit_delay <= 0:
        raise ValueError("unit_delay must be > 0")
    if period <= 0:
        raise ValueError(f"clock period must be > 0, got {period}")
    taps = np.cumsum(delays)
    limit = period * (1.0 - 1e-9)
    if taps[-1] < limit:
        raise ChainUnderspanError(
            f"chain spans {taps[-1]:.4e} s, shorter than the clock period {period:.4e} s"
        )
    n = int(np.searchsorted(taps, limit, side="left")) + 1
    positions = np.empty(n + 1, dtype=np.float64)
    positions[: n - 1] = taps[: n - 1] + skews[: n - 1]
    positions[n - 1] = 0.5 * (taps[n - 1] + period) + skews[n - 1]
    if n < delays.size:
        positions[n] = taps[n] + skews[n]
    else:
        positions[n] = period + delays[0] + skews[0]
    return delays, skews, positions, n


def ring_positions(
    chain: DelayChain,
    period: Duration,
    adjustments: np.ndarray | None = None,
) -> tuple[np.ndarray, int]:
    """The N+1 blender endpoint times covering the period after clock edge 0,
    in ring order, and N (`rowwise_ring`), for the chain's taps and skews at
    `period`, with optional per-path trim `adjustments` added to the skews."""
    skews = chain.path_skews if adjustments is None else chain.path_skews + adjustments
    _, _, positions, n = rowwise_ring(chain.unit_delay, chain.tap_delays, skews, period)
    return positions, n


def apply_boundary_mixers(
    taps: np.ndarray,
    clock_edge_next: Instant,
    n: int,
    period: Duration,
) -> np.ndarray:
    """Usable phase per tap, folded into one period.

    Taps before the boundary pass through, the boundary tap becomes the
    midpoint of (its own edge, next clock edge), taps beyond the boundary
    alias into the next cycle.  Indexed by tap; sort to view as a phase set.
    """
    taps = np.asarray(taps, dtype=np.float64)
    phases = taps.copy()
    phases[n - 1] = 0.5 * (taps[n - 1] + clock_edge_next)
    phases[n:] = taps[n:] - period
    return phases


def encode(code: int, n_delays_per_cycle: int) -> EncoderSelect:
    """Mux selects and blender weight for one control code.

    Codes scale onto the N physical ring segments by integer arithmetic:
    position code*N/256 selects physical segment floor() and the blender
    weight is the 16-step fraction within it.  At the nominal N = 16 this
    reduces exactly to segment = code >> 4, blend_k = code & 15.  Segment p
    interpolates from tap p+1 toward tap p+2, so adjacent segments share an
    endpoint and only one mux select advances per segment step (leapfrog
    between the odd and even selects); off-nominal N keeps monotonicity but
    not step uniformity.
    """
    if not (0 <= code < PI_CODES):
        raise ValueError(f"code must lie in [0, {PI_CODES}), got {code}")
    scaled = code * n_delays_per_cycle
    physical = scaled // PI_CODES
    blend_k = (scaled % PI_CODES) // BLEND_STEPS
    start_tap = physical + 1
    end_tap = physical + 2
    if start_tap % 2 == 1:
        return EncoderSelect(start_tap, end_tap, blend_k, ODD_TO_EVEN)
    return EncoderSelect(end_tap, start_tap, blend_k, EVEN_TO_ODD)


def blend(t_a: Instant, t_b: Instant, k: int) -> Instant:
    """16-step weighted average of two edges; k = 0 returns t_a exactly."""
    if not (0 <= k < BLEND_STEPS):
        raise ValueError(f"blend step must lie in [0, {BLEND_STEPS}), got {k}")
    if k == 0:
        return t_a
    return t_a + (k / BLEND_STEPS) * (t_b - t_a)


def segment_endpoints(sel: EncoderSelect) -> tuple[int, int]:
    """(start tap, end tap) of the segment a select pair addresses."""
    if sel.direction == ODD_TO_EVEN:
        return sel.sel_odd, sel.sel_even
    return sel.sel_even, sel.sel_odd


def single_code_output(
    code: int,
    chain: DelayChain,
    adjustments: np.ndarray | None = None,
) -> Instant:
    """Output edge time for one control code at the chain's period, with
    optional trim `adjustments`: ring, encoder, selects, blender."""
    positions, n = ring_positions(chain, chain.period, adjustments)
    sel = encode(code, n)
    start_tap, end_tap = segment_endpoints(sel)
    return blend(positions[start_tap - 1], positions[end_tap - 1], sel.blend_k)


def detect_blender_inversion(t_a: Instant, t_b: Instant, expected: str) -> bool:
    """True when the blender inputs arrive in the wrong order.

    t_a is the odd-mux output, t_b the even-mux output.  A tie counts as an
    inversion: a real arbiter cannot certify margin, and treating ties as
    clean would let trimming stall on an exactly zero-width segment.
    """
    if expected == ODD_TO_EVEN:
        return not (t_a < t_b)
    if expected == EVEN_TO_ODD:
        return not (t_b < t_a)
    raise ValueError(f"unknown direction {expected!r}")


# Mismatch instances, one keyed draw per row.


def converter(cfg, seed: int):
    """One seed's `AdcSystem`, from `interleaver.converters`, its one builder."""
    return next(converters(cfg, [seed]))


def rowwise_adc_draws(adc, master_seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The STDC tap delays (16, n_taps), V2T slopes and thresholds (32,: slice
    s owns entries 2s and 2s + 1) that `interleaver.converters` builds an
    `AdcSystem` from, one keyed draw per row."""
    sys_dev = (
        keyed_normal(derive_seed(master_seed, "stdc.tap.systematic"), np.arange(adc.n_taps))
        * adc.tap_sigma_systematic
    )
    taps = []
    for s in range(N_SLICES):
        rand_dev = (
            keyed_normal(derive_seed(master_seed, "stdc.tap.random", s), np.arange(adc.n_taps))
            * adc.tap_sigma_random
        )
        row = adc.unit_delay * (1.0 + sys_dev + rand_dev)
        taps.append(np.maximum(row, 0.05 * adc.unit_delay))
    idx = np.arange(2 * N_SLICES)
    slopes = adc.discharge_slope * (
        1.0 + keyed_normal(derive_seed(master_seed, "v2t.slope"), idx) * adc.slope_sigma
    )
    slopes = np.maximum(slopes, 0.05 * adc.discharge_slope)
    thresholds = adc.v_threshold * (
        1.0 + keyed_normal(derive_seed(master_seed, "v2t.threshold"), idx) * adc.threshold_sigma
    )
    thresholds = np.maximum(thresholds, 0.05 * adc.v_threshold)
    return np.array(taps), slopes, thresholds


def envelope_refusal(system) -> str | None:
    """The `ConfigError` message the converter build gives for `system`'s
    design envelope, or None when every slice fits: two loops over the
    slices, the divided-period check on every slice first, then the
    chain-reach check, each naming its first failing slice."""
    adc, sc = system.config.adc, system.config.system
    divided_period = adc.divided_ratio * sc.slice_period
    widest = adc.d_offset + np.maximum(
        (adc.vdd - system.vth_p) / system.slope_p, (adc.vdd - system.vth_n) / system.slope_n
    )
    for s, chain in enumerate(system.chains):
        needed = widest[s] + chain.total_delay
        if divided_period <= needed:
            return (
                f"slice {s} at seed {system.master_seed} needs {needed:.5g} s for its widest "
                f"pulse ({widest[s]:.5g} s) plus its chain spread, but the divided clock "
                f"period is {divided_period:.5g} s; raise adc.divided_ratio or shorten the chain"
            )
    for s, chain in enumerate(system.chains):
        closes = adc.launch_lead + widest[s]
        if closes > chain.total_delay:
            return (
                f"slice {s} at seed {system.master_seed} needs its chain to reach "
                f"{closes:.5g} s, where its widest pulse closes, but its last edge "
                f"fires at {chain.total_delay:.5g} s and counts would saturate at "
                "adc.n_taps; raise adc.n_taps"
            )
    return None


def rowwise_pi_chain(
    unit_delay: Duration,
    period: Duration,
    n_taps: int = 32,
    tap_sigma_rel: float = 0.0,
    skew_sigma: Duration = 0.0,
    seed: int = 0,
) -> DelayChain:
    """A PI chain keyed by `seed` itself, with the taps from their own
    `KeyedMismatch` draw and the skews from theirs: `interleaver.pi_chain`'s
    two-row draw, row by row, and a chain at any period for the tests that
    need one a run config cannot express."""
    taps = KeyedMismatch(
        nominal=unit_delay, sigma_rel=tap_sigma_rel, seed=derive_seed(seed, "pi.tap")
    ).sample_at(np.arange(n_taps))
    if skew_sigma > 0:
        skews = keyed_normal(derive_seed(seed, "pi.skew"), np.arange(n_taps)) * skew_sigma
    else:
        skews = np.zeros(n_taps)
    return rowwise_delay_chain(unit_delay, taps, skews, period)


def rowwise_jitter(master_seed: int, n_cycles: int, sampling_jitter: float) -> np.ndarray:
    """Per-slice sampling jitter (16, n_cycles), one keyed draw per slice."""
    return np.array([
        keyed_normal(derive_seed(master_seed, "sampling.jitter", s), np.arange(n_cycles))
        * sampling_jitter
        for s in range(N_SLICES)
    ])


# Codes.


def ideal_quantizer_codes(
    n_samples: int,
    j_bin: int,
    full_scale_codes: int = 127,
    amplitude_rel: float = 1.0,
    phase: float = 0.0,
) -> np.ndarray:
    """Mid-tread ideal quantizer oracle for spectral cross-checks."""
    n = np.arange(n_samples)
    wave = amplitude_rel * full_scale_codes * np.sin(2 * np.pi * j_bin * n / n_samples + phase)
    return np.clip(np.rint(wave), -full_scale_codes, full_scale_codes).astype(np.int64)


def identity_lut() -> np.ndarray:
    """The (LUT_SIZE,) mapping that leaves every code in range as it is."""
    codes = np.arange(LUT_SIZE) - LUT_SIZE // 2
    return np.clip(codes, CODE_MIN, CODE_MAX)
