"""Reference models that only the tests use.

The package holds one production path per block: a capture converts whole
arrays (`interleaver.convert_pair_arrays`, `stdc.count_edges_batch`) and the
phase interpolator reads every code from its code table (`pi.pi_sweep`,
`pi.pi_output`, `pi.inverted_segments`).  The single-shot models below
describe the same blocks one conversion or one code at a time, the way the
circuit is drawn, and the tests hold the production path to them:

* clock edges over a window, order-dependent sub-stream generators and
  keyed per-instance mismatch values;
* the sampling-phase generator, the discharge-ramp V2T pair and the pulse
  folder;
* the STDC as tap edges, per-tap sampler bits, an adder tree and unfold;
* the PI as its chain, period arbiters and ring, boundary mixers, leapfrog
  encoder, 16-step blender and blender-inversion detector;
* the converter's and the PI chain's mismatch instances, one keyed draw per
  row;
* the mid-tread ideal quantizer and the identity LUT.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from stochadc.core import (
    ClockSpec,
    Duration,
    Instant,
    derive_seed,
    keyed_normal,
)
from stochadc.errors import ChainUnderspanError, OverrangeError, UnderrangeError
from stochadc.interleaver import CODE_MAX, CODE_MIN, LUT_SIZE, N_SLICES, Lut
from stochadc.pi import BLEND_STEPS, PI_CODES, DelayChain
from stochadc.stdc import InverterChain, OffsetEstimate

# Clock edges and stream draws.


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


def clock_edges(spec: ClockSpec, t_start: Instant, t_end: Instant) -> np.ndarray:
    """Edges in [t_start, t_end).

    Window membership is decided with a guard of 1e-9 * period so that edges
    lying exactly on a window boundary resolve deterministically despite
    float rounding.
    """
    if t_start > t_end:
        raise ValueError("t_start must be <= t_end")
    guard = 1e-9 * spec.period
    k0 = int(np.ceil((t_start - spec.phase0 - guard) / spec.period))
    k1 = int(np.floor((t_end - spec.phase0 - guard) / spec.period))
    if k1 < k0:
        return np.empty(0, dtype=np.float64)
    k = np.arange(k0, k1 + 1)
    return spec.phase0 + k * spec.period


# Sampling phases.


@dataclass(frozen=True)
class PhaseTiming:
    """Offsets defining one cycle's sampling phases.

    track:  cycle start to end of tracking (= sampling instant phi1)
    early:  how much earlier the bottom-plate phase phi1e opens
    gap:    phi1 to discharge start phi2 (0 = discharge starts immediately)
    late:   phi2 to the late settling phase phi2l
    """

    track: Duration
    early: Duration
    late: Duration
    gap: Duration = 0.0

    def __post_init__(self):
        if self.early <= 0:
            raise ValueError("early offset must be > 0 (phi1e strictly before phi1)")
        if self.late <= 0:
            raise ValueError("late offset must be > 0 (phi2l strictly after phi2)")
        if self.gap < 0:
            raise ValueError("gap must be >= 0")
        if self.track <= self.early:
            raise ValueError("track must exceed the early offset")


@dataclass(frozen=True)
class PhaseSet:
    """The four instants of one conversion cycle."""

    phi1e: Instant
    phi1: Instant
    phi2: Instant
    phi2l: Instant

    def __post_init__(self):
        if not (self.phi1e < self.phi1 <= self.phi2 < self.phi2l):
            raise ValueError(
                f"phase ordering violated: {self.phi1e} < {self.phi1} "
                f"<= {self.phi2} < {self.phi2l} required"
            )


def gen_sampling_phases(cycle_start: Instant, timing: PhaseTiming) -> PhaseSet:
    """Four phase instants for the conversion cycle starting at cycle_start."""
    phi1 = cycle_start + timing.track
    phi2 = phi1 + timing.gap
    return PhaseSet(
        phi1e=phi1 - timing.early,
        phi1=phi1,
        phi2=phi2,
        phi2l=phi2 + timing.late,
    )


# Voltage-to-time pair and folder.
#
# One conversion cycle: the input is sampled at phi1 (bottom plate opens
# slightly earlier at phi1e), the held voltage is discharged at a constant
# rate from phi2, and a buffer fires when the ramp crosses its threshold.
# The edge time is therefore affine in the sampled voltage.  Two converters
# encode a differential input as the time difference of their output edges;
# the folder turns that signed difference into (sign bit, unsigned pulse
# width) with a configured minimum width.

# Tolerance for range checks at the exact threshold/supply boundary, volts.
# Keeps full-scale stimuli from tripping on float dust.
_V_EPS = 1e-12


@dataclass(frozen=True)
class PulseSample:
    """Folded time-domain encoding of one conversion."""

    sign: bool
    width: Duration

    def __post_init__(self):
        if self.width < 0:
            raise ValueError("pulse width must be >= 0")


@dataclass(frozen=True)
class V2TConfig:
    """Discharge-ramp converter parameters.

    ``c_sample`` is informational; the discharge slope is the operative
    parameter.  ``t_phi2`` is the discharge start used by the single-shot
    edge-time operation (capture paths supply per-cycle values).
    """

    vdd: float
    v_threshold: float
    discharge_slope: float  # volts/second
    slope_mismatch: KeyedMismatch
    threshold_mismatch: KeyedMismatch
    c_sample: float = 50e-15
    t_phi2: Instant = 0.0

    def __post_init__(self):
        if not (0 < self.v_threshold < self.vdd / 2):
            raise ValueError(
                f"v_threshold must lie in (0, vdd/2), got {self.v_threshold}"
            )
        if self.discharge_slope <= 0:
            raise ValueError("discharge_slope must be > 0")

    def instance_params(self, instance: int) -> tuple[float, float]:
        """(slope, threshold) for one converter instance, mismatch applied."""
        slope = float(self.slope_mismatch.sample_at(instance))
        v_th = float(self.threshold_mismatch.sample_at(instance))
        return slope, v_th


def ideal_mismatch(nominal: float) -> KeyedMismatch:
    return KeyedMismatch(nominal=nominal, sigma_rel=0.0)


def v2t_edge_time(
    v_sampled: float,
    cfg: V2TConfig,
    instance: int = 0,
    t_phi2: Instant | None = None,
) -> Instant:
    """Time at which this instance's buffer fires for a sampled voltage.

    Affine and strictly increasing in v_sampled.  A voltage below the
    instance's threshold would make the real circuit fire immediately; that
    is surfaced as an error instead of being clipped, so bad stimulus
    configurations fail loudly rather than corrupting linearity tests.
    """
    slope, v_th = cfg.instance_params(instance)
    if v_sampled < v_th - _V_EPS:
        raise UnderrangeError(
            f"input underrange: {v_sampled} V below threshold {v_th} V"
        )
    if v_sampled > cfg.vdd + _V_EPS:
        raise OverrangeError(f"input overrange: {v_sampled} V above {cfg.vdd} V")
    start = cfg.t_phi2 if t_phi2 is None else t_phi2
    return start + max(v_sampled - v_th, 0.0) / slope


def v2t_pair(
    v_p: float,
    v_n: float,
    cfg: V2TConfig,
    instances: tuple[int, int] = (0, 1),
    t_phi2: Instant | None = None,
) -> tuple[Instant, Instant]:
    """Edge times (t_inp, t_inn) of the converter pair."""
    t_inp = v2t_edge_time(v_p, cfg, instances[0], t_phi2)
    t_inn = v2t_edge_time(v_n, cfg, instances[1], t_phi2)
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
    return InverterChain(tap_delays=model.sample_at(np.arange(n_taps)))


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


def ring_positions(
    chain: DelayChain,
    period: Duration,
    adjustments: np.ndarray | None = None,
) -> tuple[np.ndarray, int]:
    """The N+1 blender endpoint times covering the period after clock edge 0,
    in ring order, and N, for the chain's taps and skews at `period`, with
    optional per-path trim `adjustments` added to the skews.

    N is the number of unit delays the arbiters find in the period: the
    smallest tap whose accumulated (pre-skew) delay spans it, within a
    relative guard of 1e-9 against cumsum rounding.  Position j (1-based tap j) for j < N is that tap's mux-input time,
    position N is the boundary-mixer midpoint plus the path adjustment, and
    position N+1 is the wrap endpoint: the next phase position one period up
    (tap N+1 of the same wavefront, or the next cycle's first tap when the
    boundary sits on the last tap).
    """
    taps = np.cumsum(chain.tap_delays)
    limit = period * (1.0 - 1e-9)
    if taps[-1] < limit:
        raise ChainUnderspanError(
            f"chain spans {taps[-1]:.4e} s, shorter than the clock period {period:.4e} s"
        )
    n = int(np.searchsorted(taps, limit, side="left")) + 1
    adjust = chain.path_skews if adjustments is None else chain.path_skews + adjustments
    positions = np.empty(n + 1, dtype=np.float64)
    positions[: n - 1] = taps[: n - 1] + adjust[: n - 1]
    positions[n - 1] = 0.5 * (taps[n - 1] + period) + adjust[n - 1]
    if n < chain.n_taps:
        positions[n] = taps[n] + adjust[n]
    else:
        positions[n] = period + chain.tap_delays[0] + adjust[0]
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


def rowwise_adc_draws(adc, master_seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`AdcSystem`'s STDC tap delays (16, n_taps), V2T slopes and thresholds
    (32,: slice s owns entries 2s and 2s + 1), one keyed draw per row."""
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


def rowwise_pi_chain(
    unit_delay: Duration,
    period: Duration,
    n_taps: int = 32,
    tap_sigma_rel: float = 0.0,
    skew_sigma: Duration = 0.0,
    seed: int = 0,
) -> DelayChain:
    """`pi.make_pi_chain` with the taps from their own `KeyedMismatch` draw
    and the skews from theirs."""
    taps = KeyedMismatch(
        nominal=unit_delay, sigma_rel=tap_sigma_rel, seed=derive_seed(seed, "pi.tap")
    ).sample_at(np.arange(n_taps))
    if skew_sigma > 0:
        skews = keyed_normal(derive_seed(seed, "pi.skew"), np.arange(n_taps)) * skew_sigma
    else:
        skews = np.zeros(n_taps)
    return DelayChain(unit_delay=unit_delay, tap_delays=taps, path_skews=skews, period=period)


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


def identity_lut() -> Lut:
    codes = np.arange(LUT_SIZE) - 128
    return Lut(mapping=np.clip(codes, CODE_MIN, CODE_MAX))
