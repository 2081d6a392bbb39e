"""16-channel time-interleaved ADC: scheduling, capture, alignment, calibration.

Sixteen slices are organized as 4 groups of 4.  Each group samples on its
own phase-interpolator output (quadrature: nominal codes one quarter period
apart on the shared 5 GHz input clock); within a group the four slices
rotate, so slice s = 4*rotation + group owns every aggregate sample k with
k mod 16 == s and the union of all slices forms the 20 GS/s grid (50 ps
pitch).

Conversion arithmetic is cycle-local: the STDC wavefront is launched
``launch_lead`` before the discharge phase, so only the sampling instants
are absolute times.  Slice outputs pass through a fixed-depth double-flop
retime, which the aligner compensates exactly before interleaving.

This module is also the one mismatch instancer, from draw to build: it
alone decides which keyed-draw rows become which instance, the converter's
(`mismatch_seeds`, built by `converters`) and the one PI chain `pi-sweep` and
`pi-trim` model (`pi_mismatch_seeds`); it draws them for a run's trials,
`DRAW_NORMALS` at a time (`converters`, `pi_chains`); `pi_chain` scales
every PI chain from a stack of rows, the converter's four and a draw chunk
of that one alike, and `pi.build_delay_chains` builds the stack in one pass.
"""

from __future__ import annotations

import cmath
from contextlib import contextmanager
from dataclasses import fields
from functools import partial
from typing import TYPE_CHECKING

import numpy as np

from .core import (
    CLAMP_FLOOR,
    N_SLICES,
    Record,
    derive_seed,
    keyed_normal,
    median,
    mismatch_scale,
    normal_rows,
    seed_array,
    seed_int,
)
from .errors import (
    ConfigError,
    CoverageError,
    OverrangeError,
    PreconditionError,
    UnderrangeError,
)
from .metrics import coherent_bin
from .pi import PI_CODES, DelayChain, build_delay_chains, pi_output, trim_paths
from .stdc import (
    COUNT_DTYPE,
    InverterChain,
    OffsetEstimate,
    adapt_offset,
    build_chains,
    count_edges_batch,
)
from .stimulus import SineStimulus

if TYPE_CHECKING:
    from .config import RunConfig

N_GROUPS = 4
CODE_MIN, CODE_MAX = -127, 127
N_CODES = CODE_MAX - CODE_MIN + 1
# a slice's calibration LUT is indexed by code + LUT_SIZE // 2, the widest
# COUNT_DTYPE value a capture forms (stdc.MAX_TAPS)
LUT_SIZE = 256
NOMINAL_PI_CODE_BASE = 32
# quadrature sits at quarter-period code spacing; basing it at code 32 (not
# 0) gives every group +/-32 codes of correction headroom
NOMINAL_PI_CODES = NOMINAL_PI_CODE_BASE + np.arange(N_GROUPS) * (PI_CODES // N_GROUPS)
NOMINAL_PI_CODES.flags.writeable = False

_V_EPS = 1e-12


def _pi_row_seeds(cfg: RunConfig, master_seeds: np.ndarray, group: int) -> np.ndarray:
    """Keyed-draw seeds of group `group`'s PI chain for each master seed, on
    a last axis: the tap row, then the skew row when `pi.skew_sigma` is on."""
    seeds = derive_seed(master_seeds, "pi.instance", group)
    rows = [derive_seed(seeds, "pi.tap")]
    if cfg.pi.skew_sigma > 0:
        rows.append(derive_seed(seeds, "pi.skew"))
    return np.stack(rows, axis=-1)


def mismatch_seeds(cfg: RunConfig, master_seeds: np.ndarray) -> list[tuple[np.ndarray, int]]:
    """The converter's keyed-draw rows for each master seed (a uint64 array),
    as `core.normal_rows` takes them: the systematic and 16 per-slice STDC tap
    rows, the V2T slope and threshold rows, and each group's PI chain rows."""
    taps = [derive_seed(master_seeds, "stdc.tap.systematic")]
    taps += [derive_seed(master_seeds, "stdc.tap.random", s) for s in range(N_SLICES)]
    v2t = [derive_seed(master_seeds, label) for label in ("v2t.slope", "v2t.threshold")]
    pi = [_pi_row_seeds(cfg, master_seeds, g) for g in range(N_GROUPS)]
    return [
        (np.stack(taps, axis=-1), cfg.adc.n_taps),
        (np.stack(v2t, axis=-1), 2 * N_SLICES),
        (np.stack(pi, axis=1), cfg.pi.n_taps),
    ]


def pi_mismatch_seeds(cfg: RunConfig, master_seeds: np.ndarray) -> list[tuple[np.ndarray, int]]:
    """The keyed-draw rows of group 0's PI chain alone, the one `pi-sweep`
    and `pi-trim` model, as `core.normal_rows` takes them."""
    return [(_pi_row_seeds(cfg, master_seeds, 0), cfg.pi.n_taps)]


def pi_chain(cfg: RunConfig, rows: np.ndarray):
    """PI chains from a stack of standard normal rows, (chains, rows, taps)
    in `_pi_row_seeds` order, each dividing the PI clock period with
    `pi.injected_skews` added to its skew row: one `mismatch_scale` call and
    one `pi.build_delay_chains` pass, whose iterator it returns."""
    pi = cfg.pi
    taps = mismatch_scale(pi.unit_delay, pi.tap_sigma_rel, rows[:, 0])
    skews = rows[:, 1] * pi.skew_sigma if pi.skew_sigma > 0 else np.zeros(taps.shape)
    for path, amount in pi.injected_skews:
        skews[:, int(path) - 1] += float(amount) * pi.unit_delay
    return build_delay_chains(pi.unit_delay, taps, skews, cfg.system.pi_clock_period)


# standard normals drawn at a time: bounds the mismatch rows held in memory
# (about 56 converter or 4,096 PI chain instances per draw).  A PI chunk's
# 256-phase sweeps are worked out `pi.SWEEP_ROWS` chains at a time as they are
# taken, so it holds at most one block's, 128 KiB, not 256 doubles per chain
# (0.8 MiB on `pi-mc`, 8 MiB at 4,096 chains)
DRAW_NORMALS = 1 << 18


def _instances(cfg: RunConfig, seeds: list[int], row_seeds, build):
    """Yield, in seed order, the instances `build(chunk, blocks)` makes for
    each chunk of seeds from the chunk's rows.  Each chunk is one
    `core.normal_rows` call of about DRAW_NORMALS normals, drawn once the
    previous chunk's last instance is taken; its rows equal each seed's
    single-seed draw bit for bit."""
    per_seed = sum(s.size * length for s, length in row_seeds(cfg, seed_array(seeds[:1])))
    step = max(1, DRAW_NORMALS // per_seed)
    for start in range(0, len(seeds), step):
        chunk = seeds[start : start + step]
        yield from build(chunk, normal_rows(row_seeds(cfg, seed_array(chunk))))


def converters(cfg: RunConfig, seeds: list[int]):
    """Each seed's `AdcSystem`, built lazily in order: the one builder."""
    if cfg.pi.injected_skews:
        # a per-path skew is defined on the one chain pi-sweep/pi-trim model,
        # not across the system's four group chains
        raise ConfigError(
            "pi.injected_skews applies only to pi-sweep and pi-trim; "
            "remove it to build the full converter"
        )
    make = partial(_converter, cfg)
    return _instances(cfg, seeds, mismatch_seeds, lambda chunk, rows: map(make, chunk, zip(*rows)))


def pi_chains(cfg: RunConfig, seeds: list[int]):
    """Each seed's untrimmed group 0 PI chain in order: a draw chunk's
    chains are built in one pass, each record made when it is taken."""
    return _instances(cfg, seeds, pi_mismatch_seeds, lambda _, blocks: pi_chain(cfg, blocks[0]))


def _converter(cfg: RunConfig, seed, rows) -> AdcSystem:
    """One seed's `AdcSystem` from its rows of `mismatch_seeds`, refused
    outside the design envelope, its PI chains trimmed when `pi.trim_enabled`."""
    adc = cfg.adc
    master_seed = seed_int(seed)
    tap_normals, (slope_normals, threshold_normals), pi_normals = rows
    sys_dev = tap_normals[0] * adc.tap_sigma_systematic
    rand_dev = tap_normals[1:] * adc.tap_sigma_random
    taps = adc.unit_delay * (1.0 + sys_dev + rand_dev)
    taps = np.maximum(taps, CLAMP_FLOOR * adc.unit_delay)
    chains = tuple(build_chains(taps))
    slopes = adc.discharge_slope * (1.0 + slope_normals * adc.slope_sigma)
    slopes = np.maximum(slopes, CLAMP_FLOOR * adc.discharge_slope)
    thresholds = adc.v_threshold * (1.0 + threshold_normals * adc.threshold_sigma)
    thresholds = np.maximum(thresholds, CLAMP_FLOOR * adc.v_threshold)
    slopes.flags.writeable = thresholds.flags.writeable = False
    slope_p, slope_n = slopes[0::2], slopes[1::2]
    vth_p, vth_n = thresholds[0::2], thresholds[1::2]
    # a tap edge is counted once only if each slice's own widest pulse (one side
    # at the supply, the other at its threshold) plus its chain spread fits in
    # one divided-clock period
    divided_period = adc.divided_ratio * cfg.system.slice_period
    widest = adc.d_offset + np.maximum((adc.vdd - vth_p) / slope_p, (adc.vdd - vth_n) / slope_n)
    last_edges = np.array([chain.total_delay for chain in chains])
    needed = widest + last_edges
    failing = np.flatnonzero(divided_period <= needed)
    if failing.size:
        s = failing[0]
        raise ConfigError(
            f"slice {s} at seed {master_seed} needs {needed[s]:.5g} s for its widest "
            f"pulse ({widest[s]:.5g} s) plus its chain spread, but the divided clock "
            f"period is {divided_period:.5g} s; raise adc.divided_ratio or shorten the chain"
        )
    # and a count reaches its end only if that pulse closes before the
    # chain's last edge fires: past it, counts would stop at adc.n_taps
    closes = adc.launch_lead + widest
    failing = np.flatnonzero(closes > last_edges)
    if failing.size:
        s = failing[0]
        raise ConfigError(
            f"slice {s} at seed {master_seed} needs its chain to reach "
            f"{closes[s]:.5g} s, where its widest pulse closes, but its last edge "
            f"fires at {last_edges[s]:.5g} s and counts would saturate at "
            "adc.n_taps; raise adc.n_taps"
        )
    pi_chains = tuple(pi_chain(cfg, pi_normals))
    if cfg.pi.trim_enabled:
        pi_chains = tuple(trim_paths(c, cfg.pi.trim_max_iters).chain for c in pi_chains)
    return AdcSystem(cfg, master_seed, chains, slope_p, slope_n, vth_p, vth_n, pi_chains)


class AdcSystem(Record):
    """Mismatch-instantiated converter: chains, V2T parameters, group PIs.

    A plain record of a run config, whose `adc`, `pi` and `system` sections
    are the one description of the design, a seed and the instances drawn
    from them, built only by `converters`; the V2T arrays are read-only."""

    config: RunConfig
    master_seed: int
    chains: tuple[InverterChain, ...]  # one STDC chain per slice
    slope_p: np.ndarray
    slope_n: np.ndarray
    vth_p: np.ndarray
    vth_n: np.ndarray
    pi_chains: tuple[DelayChain, ...]  # one PI chain per group

    def group_phase_offset(self, group: int, code: int) -> float:
        """Group sampling-phase offset vs the ideal grid, for a PI code.

        Referenced so that a mismatch-free PI at its nominal code contributes
        exactly 0; quadrature then comes out as group * period/4 plus the
        code trim.
        """
        raw = pi_output(int(code), self.pi_chains[group])
        base = self.config.pi.unit_delay + NOMINAL_PI_CODE_BASE * self.config.system.pi_step
        return raw - base - group * (self.config.system.pi_clock_period / 4.0)


def _base_phases(system: AdcSystem, pi_codes) -> np.ndarray:
    """Each slice's first sampling instant before jitter, (16,): its group's
    PI output (at its `NOMINAL_PI_CODES` entry plus any correction) shifted
    by the group's injected skew, the group's four slices rotating at its rate."""
    sc = system.config.system
    pi_codes = np.asarray(pi_codes, dtype=np.int64)
    if pi_codes.shape != (N_GROUPS,):
        raise ConfigError(f"pi_codes must have shape ({N_GROUPS},)")
    if np.any((pi_codes < 0) | (pi_codes >= PI_CODES)):
        raise ConfigError(f"pi codes must lie in [0, {PI_CODES})")
    # one PI lookup per group, shared by its four slices
    offsets = np.array([system.group_phase_offset(g, int(c)) for g, c in enumerate(pi_codes)])
    slices = np.arange(N_SLICES)
    group, rotation = slices % N_GROUPS, slices // N_GROUPS
    skews = np.asarray(sc.skew_injection, dtype=np.float64)[group]
    return group * sc.pi_clock_period / 4.0 + offsets[group] + rotation * sc.pi_clock_period + skews


def schedule_sampling(system: AdcSystem, pi_codes, n_cycles: int) -> np.ndarray:
    """Sampling instants (16, n_cycles): slice s's `_base_phases` entry plus
    m slice periods, plus any jitter."""
    sc = system.config.system
    instants = _base_phases(system, pi_codes)[:, None] + np.arange(n_cycles) * sc.slice_period
    if sc.sampling_jitter > 0:
        seeds = [derive_seed(system.master_seed, "sampling.jitter", s) for s in range(N_SLICES)]
        instants += keyed_normal(seeds, np.arange(n_cycles)) * sc.sampling_jitter
    return instants


class CaptureResult(Record):
    """Per-slice streams of one capture (row index = slice).  The offset
    warmup is no capture and makes none (see `adapt_offsets`)."""

    instants: np.ndarray  # (16, n) float64 sampling instants
    raw: np.ndarray  # (16, n) COUNT_DTYPE unsigned counts
    codes: np.ndarray  # (16, n) COUNT_DTYPE signed codes after unfold
    # (16, n) the LUT entries, COUNT_DTYPE from `build_luts` (the codes array itself without)
    corrected: np.ndarray


def convert_pair_arrays(
    system: AdcSystem,
    s: int,
    v_p: np.ndarray,
    v_n: np.ndarray,
    offset_code: int,
    context: str = "",
    extremes=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized conversion of sampled voltage pairs on one slice (`extremes` as
    in `_raw_counts`): raw counts, signs and codes, the counts and codes as COUNT_DTYPE.

    The offset code is a count, >= 0.  One above the chain's tap count
    removes every count, as the tap count itself does, so it is taken as
    the tap count: every code then lies within +/-n_taps."""
    offset_code = int(offset_code)
    if offset_code < 0:
        raise ValueError(f"offset code must be >= 0, got {offset_code}")
    raw, sign = _raw_counts(system, s, v_p, v_n, context, extremes)
    code = np.subtract(raw, min(offset_code, system.chains[s].n_taps))
    np.maximum(code, 0, out=code)
    neg = np.negative(sign, dtype=COUNT_DTYPE)  # unfold m to (m ^ -s) + s, sign s = 0 or 1
    code ^= neg
    code -= neg
    return raw, sign, code


def _raw_counts(
    system: AdcSystem, s: int, v_p: np.ndarray, v_n: np.ndarray, context: str,
    extremes=None, signed: bool = True,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Unsigned STDC counts of sampled voltage pairs on one slice, and their
    V2T signs when `signed` (else None); `extremes`, (min v_p, min v_n,
    max v_p, max v_n) bit for bit when the caller holds them."""
    adc = system.config.adc
    vth_p, vth_n = system.vth_p[s], system.vth_n[s]
    # min/max propagate NaN, and "not in range" fails on it; `initial` lets an
    # empty input pass.  The failing index is searched for only on a failure.
    if extremes is None:
        extremes = (v_p.min(initial=np.inf), v_n.min(initial=np.inf),
                    v_p.max(initial=-np.inf), v_n.max(initial=-np.inf))
    p_min, n_min, p_max, n_max = extremes
    if not (p_min >= vth_p - _V_EPS and n_min >= vth_n - _V_EPS):
        m = int(np.flatnonzero(~((v_p >= vth_p - _V_EPS) & (v_n >= vth_n - _V_EPS)))[0])
        raise UnderrangeError(
            f"slice {s} {context}{m}: input below V2T threshold or not a number "
            f"(v_p={v_p[m]:.6f} V, v_n={v_n[m]:.6f} V)"
        )
    if not (p_max <= adc.vdd + _V_EPS and n_max <= adc.vdd + _V_EPS):
        m = int(np.flatnonzero(~((v_p <= adc.vdd + _V_EPS) & (v_n <= adc.vdd + _V_EPS)))[0])
        raise OverrangeError(
            f"slice {s} {context}{m}: input above supply "
            f"(v_p={v_p[m]:.6f} V, v_n={v_n[m]:.6f} V)"
        )
    # cycle-local edge times relative to the discharge phase, in two
    # temporaries that then hold the pulse's width and start
    t_inp = np.subtract(v_p, vth_p)
    np.maximum(t_inp, 0.0, out=t_inp)
    t_inp /= system.slope_p[s]
    t_inn = np.subtract(v_n, vth_n)
    np.maximum(t_inn, 0.0, out=t_inn)
    t_inn /= system.slope_n[s]
    sign = t_inp < t_inn if signed else None
    width = np.subtract(t_inp, t_inn)
    np.abs(width, out=width)
    width += adc.d_offset
    start = np.minimum(t_inp, t_inn, out=t_inp)
    start += adc.launch_lead
    return count_edges_batch(system.chains[s], start, width), sign


def slice_transfer(
    system: AdcSystem,
    s: int,
    dv: np.ndarray,
    common_mode: float,
    offset_code: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Static transfer sweep of one slice over differential inputs."""
    dv = np.asarray(dv, dtype=np.float64)
    v_p = common_mode + dv / 2.0
    v_n = common_mode - dv / 2.0
    return convert_pair_arrays(system, s, v_p, v_n, offset_code, context="point ")


class _ToneSwings:
    """One sampling grid's instants per capture length and, per tone (keyed
    by the exact bits of every field) and length, its half swing with each
    slice's min and max: read-only, as captures share them.  The grid, the
    `_base_phases` and the slice period, fixes the instants bit for bit with
    the length (base + m * period); a capture on another grid drops it all."""

    def __init__(self):
        self.grid, self.instants, self.swings = None, {}, {}

    def sample(self, system: AdcSystem, tone: SineStimulus, n_cycles: int, pi_codes):
        """The instants, and the tone's half swing, min and max per slice."""
        grid = (_base_phases(system, pi_codes).tobytes(), _bits(system.config.system.slice_period))
        if grid != self.grid:
            self.grid, self.instants, self.swings = grid, {}, {}
        instants = self.instants.get(n_cycles)
        if instants is None:
            instants = self.instants[n_cycles] = schedule_sampling(system, pi_codes, n_cycles)
            instants.flags.writeable = False
        key = (*(_bits(getattr(tone, f.name)) for f in fields(tone)), n_cycles)
        if key not in self.swings:
            # row by row like an unshared capture: one (16, n) evaluation
            # may round its SIMD tails differently on another CPU
            swing = np.empty(instants.shape)
            for s in range(N_SLICES):
                swing[s] = tone.half_swing(instants[s])
            self.swings[key] = (swing, swing.min(axis=1), swing.max(axis=1))
            for array in self.swings[key]:
                array.flags.writeable = False
        return instants, self.swings[key]


def _bits(value):
    return value.hex() if isinstance(value, float) else value


_tone_swings: _ToneSwings | None = None


@contextmanager
def shared_tone_swings():
    """Captures inside the block share each grid's instants and tones per length.

    The Monte Carlo opens it: trials draw new STDC and V2T mismatch, but
    without PI mismatch or sampling jitter they sample the same tones at the
    same instants.  Jittered grids and stimuli other than `SineStimulus` are
    evaluated per capture as outside the block.  Every entry is dropped when
    the block exits.
    """
    global _tone_swings
    memo = _tone_swings = _ToneSwings()
    try:
        yield memo
    finally:
        _tone_swings = None
        memo.grid, memo.instants, memo.swings = None, {}, {}


def _slice_inputs(system: AdcSystem, stimulus, n_samples: int, pi_codes):
    """The sampling instants of n_samples aggregate samples (a positive
    multiple of 16), and each slice's (v_p, v_n, `_raw_counts` extremes or
    None) in turn, made as it is taken: the one input step of a capture and
    of the offset warmup.  A shared tone's extremes come from its swing's,
    as cm + h rounds monotonically in h: min(cm - h) is cm - max(h) bit for
    bit, and NaN propagates."""
    if n_samples % N_SLICES != 0 or n_samples <= 0:
        raise ConfigError(f"n_samples must be a positive multiple of {N_SLICES}")
    n_cycles = n_samples // N_SLICES
    sc = system.config.system
    if _tone_swings is None or not isinstance(stimulus, SineStimulus) or sc.sampling_jitter != 0:
        instants = schedule_sampling(system, pi_codes, n_cycles)
        return instants, ((*stimulus(t), None) for t in instants)
    instants, (swings, lo, hi) = _tone_swings.sample(system, stimulus, n_cycles, pi_codes)
    cm = stimulus.common_mode
    bounds = zip(cm + lo, cm - hi, cm + hi, cm - lo)
    return instants, ((*stimulus(t, half_swing=h), b) for t, h, b in zip(instants, swings, bounds))


def run_capture(
    system: AdcSystem,
    stimulus,
    n_samples: int,
    offset_codes=None,
    luts=None,
    pi_codes=NOMINAL_PI_CODES,
) -> CaptureResult:
    """Full-system capture of n_samples aggregate samples (multiple of 16).

    `luts`, a (16, LUT_SIZE) table, maps each slice's codes; a code beyond
    the 8-bit range (an offset estimate that is off) saturates the SRAM
    address to an end entry.  The offset warmup does not come through here:
    `adapt_offsets` estimates from each slice's raw counts alone.
    """
    instants, inputs = _slice_inputs(system, stimulus, n_samples, pi_codes)
    if offset_codes is None:
        offset_codes = np.full(N_SLICES, system.config.adc.nominal_offset_code)
    offset_codes = np.asarray(offset_codes, dtype=np.int64)
    raw = np.empty(instants.shape, dtype=COUNT_DTYPE)
    codes = np.empty(instants.shape, dtype=COUNT_DTYPE)
    for s, (v_p, v_n, extremes) in enumerate(inputs):
        raw[s], _, codes[s] = convert_pair_arrays(
            system, s, v_p, v_n, int(offset_codes[s]), "cycle ", extremes
        )
    corrected = codes
    if luts is not None:
        address = np.clip(codes + LUT_SIZE // 2, 0, LUT_SIZE - 1)
        corrected = np.take_along_axis(luts, address, axis=1)
    return CaptureResult(instants=instants, raw=raw, codes=codes, corrected=corrected)


def adapt_offsets(
    system: AdcSystem, stimulus, window: int, threshold: float
) -> tuple[np.ndarray, list[OffsetEstimate]]:
    """Background-adaptation warmup: per-slice offset codes from raw counts.

    An estimator, not a capture: each slice's `window` raw counts at the
    nominal PI codes go straight to `adapt_offset` and are dropped, so no
    (16, window) count array is built and no code is unfolded.
    """
    _, inputs = _slice_inputs(system, stimulus, window * N_SLICES, NOMINAL_PI_CODES)
    estimates = [
        adapt_offset(
            _raw_counts(system, s, v_p, v_n, "cycle ", extremes, signed=False)[0], window, threshold
        )
        for s, (v_p, v_n, extremes) in enumerate(inputs)
    ]
    return np.array([e.offset_code for e in estimates], dtype=np.int64), estimates


class AlignedStream(Record):
    """Aggregate-rate stream in slice order: sample 16*m + s is from slice s."""

    codes: np.ndarray


def retime_streams(streams: np.ndarray, latencies) -> list[np.ndarray]:
    """Model the double-flop output retime: prepend per-slice pipeline fill."""
    return [
        np.concatenate([np.zeros(int(lat), dtype=np.asarray(row).dtype), np.asarray(row)])
        for row, lat in zip(streams, latencies)
    ]


def align_outputs(streams, latencies) -> AlignedStream:
    """Interleave 16 retimed slice streams into one aggregate-rate stream.

    Latency differences are compensated exactly: entry m of slice s is read
    at stream index m + latency_s.  The output is in slice order, as the
    hardware interleaves it: sample 16*m + s comes from slice s whatever the
    sampling instants.
    """
    if len(streams) != N_SLICES or len(latencies) != N_SLICES:
        raise ValueError(f"expected {N_SLICES} streams and latencies")
    lengths = {len(st) - int(lat) for st, lat in zip(streams, latencies)}
    if len(lengths) != 1:
        raise ValueError(f"inconsistent compensated stream lengths: {sorted(lengths)}")
    n_cycles = lengths.pop()
    if n_cycles < 0:
        raise ValueError("streams shorter than their latency")
    streams = [np.asarray(st) for st in streams]
    codes = np.empty((n_cycles, N_SLICES), dtype=np.result_type(*streams))
    for s, (st, lat) in enumerate(zip(streams, latencies)):
        codes[:, s] = st[int(lat) : int(lat) + n_cycles]
    return AlignedStream(codes=codes.reshape(-1))


def aligned_capture(system: AdcSystem, capture: CaptureResult) -> AlignedStream:
    """Retime and align one capture's corrected codes."""
    lat = system.config.system.latencies
    return align_outputs(retime_streams(capture.corrected, lat), lat)


def code_histogram(codes: np.ndarray) -> np.ndarray:
    """Counts per signed code over [-127, 127], length 255 (ends saturate)."""
    clipped = np.clip(np.asarray(codes).ravel(), CODE_MIN, CODE_MAX)
    return np.bincount(clipped - CODE_MIN, minlength=N_CODES)[:N_CODES]


def build_lut(histogram: np.ndarray, amplitude_code: float, min_hits: int) -> np.ndarray:
    """Code-density linearization of one slice from a sine capture: its
    (LUT_SIZE,) COUNT_DTYPE mapping, monotone and inside [CODE_MIN, CODE_MAX].

    The corrected value for raw code c is the ideal code whose cumulative
    density matches c's observed cumulative density, with the sine's
    arcsine density supplying the inverse CDF.  The capture must cover every
    reachable code with at least ``min_hits`` samples.
    """
    hist = np.asarray(histogram, dtype=np.float64)
    if hist.shape != (N_CODES,):
        raise ValueError(f"histogram must have {N_CODES} per-code entries")
    total = hist.sum()
    if total <= 0:
        raise CoverageError(list(range(CODE_MIN, CODE_MAX + 1)), min_hits)
    nz = np.flatnonzero(hist)
    reachable = np.arange(nz[0], nz[-1] + 1)
    # interior bins at exactly zero are codes the slice cannot produce
    # (what the LUT corrects); only low-but-nonzero bins are undersampled
    short = reachable[(hist[reachable] > 0) & (hist[reachable] < min_hits)]
    if short.size:
        raise CoverageError((short + CODE_MIN).tolist(), min_hits)
    cum_mid = (np.cumsum(hist) - hist / 2.0) / total
    level = -amplitude_code * np.cos(np.pi * cum_mid)
    corrected = np.clip(np.rint(level), CODE_MIN, CODE_MAX).astype(COUNT_DTYPE)
    corrected = np.maximum.accumulate(corrected)
    mapping = np.empty(LUT_SIZE, dtype=COUNT_DTYPE)
    mapping[1:] = corrected
    mapping[0] = corrected[0]
    return mapping


def build_luts(capture: CaptureResult, amplitude_code: float, min_hits: int) -> np.ndarray:
    """Every slice's `build_lut` mapping as one read-only (16, LUT_SIZE)
    COUNT_DTYPE table."""
    luts = np.stack([
        build_lut(code_histogram(capture.codes[s]), amplitude_code, min_hits)
        for s in range(N_SLICES)
    ])
    luts.flags.writeable = False
    return luts


def calibrate_skew(
    system: AdcSystem,
    tone: SineStimulus,
    n_samples: int,
    offset_codes=None,
    pi_codes=NOMINAL_PI_CODES,
) -> np.ndarray:
    """Per-group PI code corrections canceling inter-group sampling skew.

    Each group's received tone phase is measured with a single-bin DFT at
    the (coherent) test frequency over that group's samples against nominal
    sample times; phase differences against the median group convert to time
    skews, which round to PI code steps.  A shift common to all four groups
    moves no group against another, so when a corrected code would leave
    [0, 255] the corrections take the smallest common shift that keeps every
    code in range; when the codes span more than that range, no shift fits
    and PreconditionError is raised before a caller can persist them.
    """
    sc = system.config.system
    fs = sc.aggregate_rate
    coherent_bin(tone.frequency, fs, n_samples)
    if tone.amplitude < system.config.adc.full_scale / 2.0:
        raise ConfigError("skew calibration tone must be at least half scale")
    capture = run_capture(
        system, tone, n_samples, offset_codes=offset_codes, pi_codes=pi_codes
    )
    aligned = aligned_capture(system, capture)
    n = aligned.codes.size
    k = np.arange(n)
    t_nominal = k / fs
    phasor = np.exp(-2j * np.pi * tone.frequency * t_nominal)
    z = np.empty(N_GROUPS, dtype=complex)
    for g in range(N_GROUPS):
        sel = (k % N_GROUPS) == g
        z[g] = np.sum(aligned.codes[sel] * phasor[sel])
    ref = z[0] / abs(z[0])
    # libm's phase, element by element: numpy's angle differs in the last
    # bit on some arguments under AVX-512 dispatch
    phases = np.array([cmath.phase(w) for w in z * np.conj(ref)])
    tau = phases / (2.0 * np.pi * tone.frequency)
    tau = tau - median(tau)
    corrections = -np.rint(tau / sc.pi_step).astype(np.int64)
    codes = np.asarray(pi_codes, dtype=np.int64) + corrections
    lowest, highest = -int(codes.min()), PI_CODES - 1 - int(codes.max())
    if lowest > highest:
        raise PreconditionError(
            f"skew corrections ask for PI codes {codes.tolist()}, which span "
            f"{int(codes.max() - codes.min())} codes: no common shift fits them "
            f"into [0, {PI_CODES - 1}]"
        )
    return corrections + min(max(0, lowest), highest)

