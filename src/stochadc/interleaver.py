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

This module is also the one mismatch instancer: it alone decides which
keyed-draw rows become which instance, the converter's (`mismatch_seeds`,
read by `AdcSystem`) and the one PI chain `pi-sweep` and `pi-trim` model
(`pi_mismatch_seeds`, read by `pi_chain`).
"""

from __future__ import annotations

import cmath
from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

import numpy as np

from .core import (
    CLAMP_FLOOR,
    derive_seed,
    keyed_normal,
    median,
    normal_rows,
    seed_array,
)
from .errors import (
    ConfigError,
    CoverageError,
    OverrangeError,
    PreconditionError,
    UnderrangeError,
)
from .pi import PI_CODES, DelayChain, chain_delays, chain_seeds, pi_output, trim_paths
from .stdc import InverterChain, OffsetEstimate, adapt_offset, count_edges_batch
from .stimulus import SineStimulus

if TYPE_CHECKING:
    from .config import RunConfig

N_SLICES = 16
N_GROUPS = 4
CODE_MIN, CODE_MAX = -127, 127
LUT_SIZE = 256
NOMINAL_PI_CODE_BASE = 32

_V_EPS = 1e-12


def _pi_row_seeds(cfg: RunConfig, master_seeds: np.ndarray, group: int) -> np.ndarray:
    """Keyed-draw seeds of group `group`'s PI chain for each master seed, in
    `pi.chain_seeds` layout."""
    return chain_seeds(derive_seed(master_seeds, "pi.instance", group), cfg.pi.skew_sigma > 0)


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


def pi_chain(cfg: RunConfig, rows: np.ndarray) -> DelayChain:
    """A group's PI chain from its standard normal rows (`pi.chain_seeds`
    order), dividing the PI clock period, with `pi.injected_skews` added to
    its skew row."""
    pi = cfg.pi
    taps, skews = chain_delays(pi.unit_delay, pi.tap_sigma_rel, pi.skew_sigma, rows)
    for path, amount in pi.injected_skews:
        skews[int(path) - 1] += float(amount) * pi.unit_delay
    return DelayChain(
        unit_delay=pi.unit_delay,
        tap_delays=taps,
        path_skews=skews,
        period=cfg.system.pi_clock_period,
    )


class AdcSystem:
    """Mismatch-instantiated converter: chains, V2T parameters, group PIs.

    Drawn from the `adc`, `pi` and `system` sections of a run config, the one
    description of the design, and read back from ``self.config``.  The
    mismatch comes from ``normals``, this seed's rows of `mismatch_seeds`
    drawn by `core.normal_rows`; left out, they are drawn here for this one
    seed.
    """

    def __init__(self, cfg: RunConfig, master_seed: int, normals=None):
        if cfg.pi.injected_skews:
            # a per-path skew is defined on the one chain pi-sweep/pi-trim model,
            # not across the system's four group chains
            raise ConfigError(
                "pi.injected_skews applies only to pi-sweep and pi-trim; "
                "remove it to build the full converter"
            )
        self.config = cfg
        self.master_seed = int(master_seed)

        adc, sc = cfg.adc, cfg.system
        if normals is None:
            (normals,) = normal_rows(mismatch_seeds(cfg, seed_array([master_seed])))
        tap_normals, (slope_normals, threshold_normals), pi_normals = normals
        sys_dev = tap_normals[0] * adc.tap_sigma_systematic
        rand_dev = tap_normals[1:] * adc.tap_sigma_random
        taps = adc.unit_delay * (1.0 + sys_dev + rand_dev)
        taps = np.maximum(taps, CLAMP_FLOOR * adc.unit_delay)
        self.chains: list[InverterChain] = [InverterChain(tap_delays=row) for row in taps]

        slopes = adc.discharge_slope * (1.0 + slope_normals * adc.slope_sigma)
        slopes = np.maximum(slopes, CLAMP_FLOOR * adc.discharge_slope)
        thresholds = adc.v_threshold * (1.0 + threshold_normals * adc.threshold_sigma)
        thresholds = np.maximum(thresholds, CLAMP_FLOOR * adc.v_threshold)
        self.slope_p = slopes[0::2]
        self.slope_n = slopes[1::2]
        self.vth_p = thresholds[0::2]
        self.vth_n = thresholds[1::2]

        # each tap edge is counted once only if this slice's own widest pulse
        # (one side at the supply, the other at its threshold) plus its own
        # chain spread fits in one divided-clock period
        divided_period = adc.divided_ratio * sc.slice_period
        widest = adc.d_offset + np.maximum(
            (adc.vdd - self.vth_p) / self.slope_p, (adc.vdd - self.vth_n) / self.slope_n
        )
        for s, chain in enumerate(self.chains):
            needed = widest[s] + chain.total_delay
            if divided_period <= needed:
                raise ConfigError(
                    f"slice {s} at seed {self.master_seed} needs {needed:.5g} s for its widest "
                    f"pulse ({widest[s]:.5g} s) plus its chain spread, but the divided clock "
                    f"period is {divided_period:.5g} s; raise adc.divided_ratio or shorten the chain"
                )

        self.pi_chains: list[DelayChain] = [pi_chain(cfg, rows) for rows in pi_normals]
        if cfg.pi.trim_enabled:
            self.pi_chains = [
                trim_paths(c, cfg.pi.trim_max_iters).chain for c in self.pi_chains
            ]

    def nominal_pi_codes(self) -> np.ndarray:
        # quadrature sits at quarter-period code spacing; basing it at code
        # 32 (not 0) gives every group +/-32 codes of correction headroom
        return NOMINAL_PI_CODE_BASE + np.arange(N_GROUPS) * 64

    def group_phase_offset(self, group: int, code: int) -> float:
        """Group sampling-phase offset vs the ideal grid, for a PI code.

        Referenced so that a mismatch-free PI at its nominal code contributes
        exactly 0; quadrature then comes out as group * period/4 plus the
        code trim.
        """
        raw = pi_output(int(code), self.pi_chains[group])
        base = self.config.pi.unit_delay + NOMINAL_PI_CODE_BASE * self.config.system.pi_step
        return raw - base - group * (self.config.system.pi_clock_period / 4.0)


def schedule_sampling(
    system: AdcSystem,
    pi_codes,
    n_cycles: int,
) -> np.ndarray:
    """Sampling instants, shape (16, n_cycles); slice s owns grid phase s.

    Group g's phase is its PI output (nominal quadrature code 64*g plus any
    correction), shifted by that group's injected skew; within a group the
    four slices rotate at the group rate.
    """
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
    base = (
        group * sc.pi_clock_period / 4.0
        + offsets[group]
        + rotation * sc.pi_clock_period
        + np.asarray(sc.skew_injection, dtype=np.float64)[group]
    )
    instants = base[:, None] + np.arange(n_cycles) * sc.slice_period
    if sc.sampling_jitter > 0:
        seeds = [derive_seed(system.master_seed, "sampling.jitter", s) for s in range(N_SLICES)]
        instants += keyed_normal(seeds, np.arange(n_cycles)) * sc.sampling_jitter
    return instants


@dataclass
class CaptureResult:
    """Per-slice streams of one capture (row index = slice)."""

    instants: np.ndarray  # (16, n) sampling instants
    raw: np.ndarray  # (16, n) unsigned counts
    codes: np.ndarray | None  # (16, n) signed codes after unfold; None in the warmup
    corrected: np.ndarray | None  # (16, n) after LUT (the codes array itself when no LUT)


def convert_pair_arrays(
    system: AdcSystem,
    s: int,
    v_p: np.ndarray,
    v_n: np.ndarray,
    offset_code: int,
    context: str = "",
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized conversion of sampled voltage pairs on one slice."""
    raw, sign = _raw_counts(system, s, v_p, v_n, context)
    magnitude = np.maximum(raw - int(offset_code), 0)
    code = np.where(sign, -magnitude, magnitude)
    return raw, sign, code


def _raw_counts(
    system: AdcSystem, s: int, v_p: np.ndarray, v_n: np.ndarray, context: str
) -> tuple[np.ndarray, np.ndarray]:
    """Unsigned STDC counts and V2T signs of sampled voltage pairs on one slice."""
    adc = system.config.adc
    vth_p, vth_n = system.vth_p[s], system.vth_n[s]
    # min/max propagate NaN, and "not in range" fails on it; `initial` lets an
    # empty input pass.  The failing index is searched for only on a failure.
    above_floor = v_p.min(initial=np.inf) >= vth_p - _V_EPS and (
        v_n.min(initial=np.inf) >= vth_n - _V_EPS
    )
    if not above_floor:
        m = int(np.flatnonzero(~((v_p >= vth_p - _V_EPS) & (v_n >= vth_n - _V_EPS)))[0])
        raise UnderrangeError(
            f"slice {s} {context}{m}: input below V2T threshold or not a number "
            f"(v_p={v_p[m]:.6f} V, v_n={v_n[m]:.6f} V)"
        )
    below_supply = v_p.max(initial=-np.inf) <= adc.vdd + _V_EPS and (
        v_n.max(initial=-np.inf) <= adc.vdd + _V_EPS
    )
    if not below_supply:
        m = int(np.flatnonzero(~((v_p <= adc.vdd + _V_EPS) & (v_n <= adc.vdd + _V_EPS)))[0])
        raise OverrangeError(
            f"slice {s} {context}{m}: input above supply "
            f"(v_p={v_p[m]:.6f} V, v_n={v_n[m]:.6f} V)"
        )
    # cycle-local edge times relative to the discharge phase
    t_inp = np.maximum(v_p - vth_p, 0.0) / system.slope_p[s]
    t_inn = np.maximum(v_n - vth_n, 0.0) / system.slope_n[s]
    sign = t_inp < t_inn
    width = np.abs(t_inp - t_inn) + adc.d_offset
    start = np.minimum(t_inp, t_inn) + adc.launch_lead
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
    """Half swings of the tones sampled on one grid, shared across captures.

    The grid is the per-slice base phase (column 0 of the instants) and the
    slice period; with the capture length they fix every instant bit for
    bit, since the instants are base + m * period.  A tone is keyed by the
    exact bits of every field and the length.  A capture on another grid
    drops every entry, so only one grid's tones are held.  The arrays are
    read-only because captures share them.
    """

    def __init__(self):
        self.grid = None
        self.swings: dict = {}

    def get(self, tone: SineStimulus, instants: np.ndarray, slice_period: float) -> np.ndarray:
        grid = (instants[:, 0].tobytes(), _bits(slice_period))
        if grid != self.grid:
            self.grid, self.swings = grid, {}
        key = (*(_bits(getattr(tone, f.name)) for f in fields(tone)), instants.shape[1])
        swing = self.swings.get(key)
        if swing is None:
            # row by row like an unshared capture: one (16, n) evaluation
            # may round its SIMD tails differently on another CPU
            swing = np.empty(instants.shape)
            for s in range(N_SLICES):
                swing[s] = tone.half_swing(instants[s])
            swing.flags.writeable = False
            self.swings[key] = swing
        return swing


def _bits(value):
    return value.hex() if isinstance(value, float) else value


_tone_swings: _ToneSwings | None = None


@contextmanager
def shared_tone_swings():
    """Captures inside the block sample each tone once per grid and length.

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
        memo.grid, memo.swings = None, {}


def run_capture(
    system: AdcSystem,
    stimulus,
    n_samples: int,
    offset_codes=None,
    luts=None,
    pi_codes=None,
    *,
    _raw_only: bool = False,
) -> CaptureResult:
    """Full-system capture of n_samples aggregate samples (multiple of 16).

    `_raw_only` (the offset warmup) fills `raw` alone and leaves `codes` and
    `corrected` None.
    """
    if n_samples % N_SLICES != 0 or n_samples <= 0:
        raise ConfigError(f"n_samples must be a positive multiple of {N_SLICES}")
    if offset_codes is None:
        offset_codes = np.full(N_SLICES, system.config.adc.nominal_offset_code)
    offset_codes = np.asarray(offset_codes, dtype=np.int64)
    if pi_codes is None:
        pi_codes = system.nominal_pi_codes()
    n_cycles = n_samples // N_SLICES
    instants = schedule_sampling(system, pi_codes, n_cycles)
    sc = system.config.system
    swings = None
    if _tone_swings is not None and isinstance(stimulus, SineStimulus) and sc.sampling_jitter == 0:
        swings = _tone_swings.get(stimulus, instants, sc.slice_period)
    raw = np.empty((N_SLICES, n_cycles), dtype=np.int64)
    codes = None if _raw_only else np.empty((N_SLICES, n_cycles), dtype=np.int64)
    for s in range(N_SLICES):
        if swings is None:
            v_p, v_n = stimulus(instants[s])
        else:
            v_p, v_n = stimulus(instants[s], half_swing=swings[s])
        if _raw_only:
            raw[s], _ = _raw_counts(system, s, v_p, v_n, "cycle ")
        else:
            raw[s], _, codes[s] = convert_pair_arrays(
                system, s, v_p, v_n, int(offset_codes[s]), context="cycle "
            )
    corrected = codes
    if luts is not None:
        corrected = np.empty_like(codes)
        for s in range(N_SLICES):
            corrected[s] = apply_lut(luts[s], codes[s])
    return CaptureResult(instants=instants, raw=raw, codes=codes, corrected=corrected)


def adapt_offsets(
    system: AdcSystem, stimulus, window: int, threshold: float
) -> tuple[np.ndarray, list[OffsetEstimate]]:
    """Background-adaptation warmup: per-slice offset codes from raw counts."""
    capture = run_capture(system, stimulus, window * N_SLICES, _raw_only=True)
    estimates = [adapt_offset(capture.raw[s], window, threshold) for s in range(N_SLICES)]
    return np.array([e.offset_code for e in estimates], dtype=np.int64), estimates


@dataclass(frozen=True)
class AlignedStream:
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


@dataclass(frozen=True)
class Lut:
    """Per-slice static-nonlinearity correction, indexed by code + 128."""

    mapping: np.ndarray

    def __post_init__(self):
        mapping = np.asarray(self.mapping, dtype=np.int64)
        object.__setattr__(self, "mapping", mapping)
        if mapping.shape != (LUT_SIZE,):
            raise ValueError(f"LUT mapping must have {LUT_SIZE} entries")
        if np.any(np.diff(mapping[1:]) < 0):
            raise ValueError("LUT mapping must be monotone non-decreasing")


def apply_lut(lut: Lut, codes: np.ndarray) -> np.ndarray:
    # raw signed codes can exceed the 8-bit range when the offset estimate
    # is off; the SRAM address saturates to the end entries
    idx = np.clip(np.asarray(codes, dtype=np.int64) + 128, 0, LUT_SIZE - 1)
    return lut.mapping[idx]


def code_histogram(codes: np.ndarray) -> np.ndarray:
    """Counts per signed code over [-127, 127], length 255 (ends saturate)."""
    clipped = np.clip(np.asarray(codes).ravel(), CODE_MIN, CODE_MAX)
    return np.bincount(clipped - CODE_MIN, minlength=255)[:255]


def build_lut(histogram: np.ndarray, amplitude_code: float, min_hits: int) -> Lut:
    """Code-density linearization of one slice from a sine capture.

    The corrected value for raw code c is the ideal code whose cumulative
    density matches c's observed cumulative density, with the sine's
    arcsine density supplying the inverse CDF.  The capture must cover every
    reachable code with at least ``min_hits`` samples.
    """
    hist = np.asarray(histogram, dtype=np.float64)
    if hist.shape != (255,):
        raise ValueError("histogram must have 255 per-code entries")
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
    corrected = np.clip(np.rint(level), CODE_MIN, CODE_MAX).astype(np.int64)
    corrected = np.maximum.accumulate(corrected)
    mapping = np.empty(LUT_SIZE, dtype=np.int64)
    mapping[1:] = corrected
    mapping[0] = corrected[0]
    return Lut(mapping=mapping)


def build_luts(capture: CaptureResult, amplitude_code: float, min_hits: int) -> list[Lut]:
    return [
        build_lut(code_histogram(capture.codes[s]), amplitude_code, min_hits)
        for s in range(N_SLICES)
    ]


def calibrate_skew(
    system: AdcSystem,
    tone: SineStimulus,
    n_samples: int,
    offset_codes=None,
    pi_codes=None,
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
    from .metrics import coherent_bin

    sc = system.config.system
    fs = sc.aggregate_rate
    coherent_bin(tone.frequency, fs, n_samples)
    if tone.amplitude < system.config.adc.full_scale / 2.0:
        raise ConfigError("skew calibration tone must be at least half scale")
    if pi_codes is None:
        pi_codes = system.nominal_pi_codes()
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


def corrected_pi_codes(pi_codes, corrections) -> np.ndarray:
    """PI codes with the skew corrections added, one per group.

    A corrected code outside [0, 255] raises PreconditionError: clipped, it
    would leave part of that group's skew in place while the run still
    reports a plausible ENOB.
    """
    base = np.asarray(pi_codes, dtype=np.int64)
    codes = base + np.asarray(corrections, dtype=np.int64)
    for g, (code, nominal) in enumerate(zip(codes.tolist(), base.tolist())):
        if not 0 <= code < PI_CODES:
            raise PreconditionError(
                f"skew correction asks group {g} for PI code {code}, beyond the bound "
                f"{0 if code < 0 else PI_CODES - 1} (base code {nominal}, "
                f"correction {code - nominal:+d})"
            )
    return codes
