import ast
import dataclasses
import importlib
import math
import re
import tracemalloc
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stochadc import experiments
from stochadc import interleaver as il
from stochadc.config import (
    GOLDEN_FRACTION,
    AdcConfig,
    FomConfig,
    PiConfig,
    RunConfig,
    SystemConfig,
    _validate,
    load_config,
    parse_config,
    warmup_tone,
)
from stochadc.core import Record, derive_seed
from stochadc.errors import (
    CoherenceError,
    ConfigError,
    CoverageError,
    OverrangeError,
    PreconditionError,
    UnderrangeError,
)
from stochadc.interleaver import (
    N_GROUPS,
    N_SLICES,
    NOMINAL_PI_CODES,
    AdcSystem,
    AlignedStream,
    adapt_offsets,
    align_outputs,
    aligned_capture,
    build_lut,
    build_luts,
    calibrate_skew,
    code_histogram,
    convert_pair_arrays,
    retime_streams,
    run_capture,
    schedule_sampling,
    slice_transfer,
)
from stochadc.experiments import CalibrationState
from stochadc.metrics import code_density_linearity, sndr_enob
from stochadc.stdc import COUNT_DTYPE, MAX_TAPS, count_edges_batch
from stochadc.stimulus import SineStimulus

from oracles import (
    _V_EPS,
    converter,
    convert_one,
    envelope_refusal,
    histogram_offset_estimate,
    identity_lut,
    rowwise_adc_draws,
    rowwise_chain,
    rowwise_delay_chain,
    rowwise_jitter,
    rowwise_pi_chain,
    unfold,
)
from test_artifacts import LUT_CONFIG

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
PS = 1e-12
FS_RATE = 20e9
VCM = 0.525


def ideal_system(seed=1, **system):
    return converter(RunConfig(system=SystemConfig(**system)), seed)


def mismatched_system(seed, **adc):
    return converter(RunConfig(adc=AdcConfig(**adc)), seed)


def coherent_tone(j, n, amplitude=0.45, cm=VCM, phase=0.35):
    return SineStimulus(frequency=j * FS_RATE / n, amplitude=amplitude, common_mode=cm, phase=phase)


def constant_input(dv, cm=VCM):
    """A static differential level dv at every instant."""

    def stimulus(t):
        half = np.full(np.shape(t), dv / 2.0)
        return cm + half, cm - half

    return stimulus


def loop_schedule_sampling(system, pi_codes, n_cycles):
    """Oracle: the per-slice schedule loop, one PI lookup per slice."""
    d = system.config.system
    instants = np.empty((N_SLICES, n_cycles), dtype=np.float64)
    cycles = np.arange(n_cycles) * d.slice_period
    for s in range(N_SLICES):
        group = s % N_GROUPS
        rotation = s // N_GROUPS
        base = (
            group * d.pi_clock_period / 4.0
            + system.group_phase_offset(group, int(pi_codes[group]))
            + rotation * d.pi_clock_period
            + d.skew_injection[group]
        )
        instants[s] = base + cycles
    return instants


def argsort_align_outputs(streams, latencies, instants=None):
    """Oracle: the aligner that orders samples by sampling instant."""
    lengths = {len(st) - int(lat) for st, lat in zip(streams, latencies)}
    n_cycles = lengths.pop()
    compensated = np.stack(
        [np.asarray(st)[int(lat) : int(lat) + n_cycles] for st, lat in zip(streams, latencies)]
    )
    codes = compensated.T.reshape(-1)
    if instants is not None:
        out_instants = np.asarray(instants)[:, :n_cycles].T.reshape(-1)
    else:
        out_instants = np.arange(codes.size, dtype=np.float64)
    order = np.argsort(out_instants, kind="stable")
    return AlignedStream(codes=codes[order])


@st.composite
def mismatched_systems(draw):
    """Random converter: tap, V2T and PI mismatch, group skews up to +/-80 ps
    (beyond the 50 ps pitch) and optional jitter."""
    cfg = RunConfig(
        adc=AdcConfig(
            tap_sigma_systematic=draw(st.floats(0.0, 0.15)),
            tap_sigma_random=draw(st.floats(0.0, 0.1)),
            slope_sigma=draw(st.floats(0.0, 0.02)),
            threshold_sigma=draw(st.floats(0.0, 0.02)),
        ),
        pi=PiConfig(
            tap_sigma_rel=draw(st.floats(0.0, 0.05)),
            skew_sigma_rel=draw(st.floats(0.0, 0.3)),
        ),
        system=SystemConfig(
            skew_injection=tuple(
                draw(st.lists(st.floats(-80 * PS, 80 * PS), min_size=4, max_size=4))
            ),
            sampling_jitter=draw(st.sampled_from([0.0, 2 * PS, 60 * PS])),
        ),
    )
    return converter(cfg, draw(st.integers(0, 2**32)))


class TestSchedule:
    def test_ideal_grid(self):
        system = ideal_system()
        instants = schedule_sampling(system, NOMINAL_PI_CODES, 8)
        flat = np.sort(instants.ravel())
        expected = np.arange(flat.size) * 50 * PS
        assert np.allclose(flat, expected, atol=1e-22)
        # slice s owns grid phase s
        assert np.allclose(instants[:, 0], np.arange(16) * 50 * PS, atol=1e-22)

    def test_group_skew_shifts_every_fourth_instant(self):
        base = ideal_system()
        skewed = ideal_system(skew_injection=(0.0, 5 * PS, 0.0, 0.0))
        a = schedule_sampling(base, NOMINAL_PI_CODES, 4)
        b = schedule_sampling(skewed, NOMINAL_PI_CODES, 4)
        delta = b - a
        group_of_slice = np.arange(16) % 4
        assert np.allclose(delta[group_of_slice == 1], 5 * PS, atol=1e-22)
        assert np.allclose(delta[group_of_slice != 1], 0.0, atol=1e-22)

    def test_pi_code_step_shifts_group_by_one_step(self):
        system = ideal_system()
        codes = NOMINAL_PI_CODES
        a = schedule_sampling(system, codes, 2)
        codes2 = codes.copy()
        codes2[2] += 1
        b = schedule_sampling(system, codes2, 2)
        delta = b - a
        group_of_slice = np.arange(16) % 4
        assert np.allclose(delta[group_of_slice == 2], 0.78125 * PS, rtol=1e-9)
        assert np.allclose(delta[group_of_slice != 2], 0.0, atol=1e-22)

    def test_quadrature_pi_codes_are_read_only(self):
        assert NOMINAL_PI_CODES.tolist() == [32, 96, 160, 224]
        with pytest.raises(ValueError, match="read-only"):
            NOMINAL_PI_CODES[0] = 0

    def test_one_pi_lookup_per_group(self, monkeypatch):
        import stochadc.interleaver as il

        calls = []
        real = il.pi_output

        def counted(code, *args, **kwargs):
            calls.append(code)
            return real(code, *args, **kwargs)

        monkeypatch.setattr(il, "pi_output", counted)
        system = ideal_system()
        schedule_sampling(system, NOMINAL_PI_CODES, 3)
        assert calls == NOMINAL_PI_CODES.tolist()

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(mismatched_systems(), st.lists(st.integers(0, 255), min_size=4, max_size=4))
    def test_matches_per_slice_loop_bit_for_bit(self, system, codes):
        cfg = system.config
        system = converter(
            dataclasses.replace(
                cfg, system=dataclasses.replace(cfg.system, sampling_jitter=0.0)
            ),
            system.master_seed,
        )
        got = schedule_sampling(system, codes, 7)
        want = loop_schedule_sampling(system, codes, 7)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_jitter_rows_equal_one_draw_per_slice(self):
        codes = [31, 100, 160, 230]
        jittered = schedule_sampling(ideal_system(seed=5, sampling_jitter=2 * PS), codes, 9)
        want = schedule_sampling(ideal_system(seed=5), codes, 9)
        want += rowwise_jitter(5, 9, 2 * PS)
        assert np.array_equal(jittered.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("sigma", [0.25 * PS, 1 * PS, 4 * PS])
    @pytest.mark.parametrize("j", [1433, 5733])
    def test_jitter_sndr_follows_the_gaussian_jitter_law(self, j, sigma):
        # Gaussian jitter keeps e^(-x^2) of a tone's power, x = 2 pi fin sigma,
        # and spreads the rest as noise, SNR_j = e^(-x^2) / (1 - e^(-x^2)),
        # which adds to the jitter-free converter's noise.  The noise estimate
        # sums n/2 - 1 bins, so it spreads by about 1/sqrt(n/2 - 1) relative;
        # a reading may miss the law by four such spreads
        n = 16384
        tone = coherent_tone(j, n)

        def sndr_db(system):
            offsets = [system.config.adc.nominal_offset_code] * N_SLICES
            codes = aligned_capture(system, run_capture(system, tone, n, offsets)).codes
            return sndr_enob(codes, FS_RATE, tone.frequency)[0]["sndr_db"]

        clean = sndr_db(ideal_system())
        x2 = (2 * math.pi * tone.frequency * sigma) ** 2
        snr_jitter = math.exp(-x2) / -math.expm1(-x2)
        law = -10 * math.log10(10 ** (-clean / 10) + 1 / snr_jitter)
        spread = 10 * math.log10(1 + 1 / math.sqrt(n / 2 - 1))
        for seed in range(4):
            got = sndr_db(ideal_system(seed, sampling_jitter=sigma))
            assert abs(got - law) < 4 * spread, (seed, got, law)

    def test_bad_pi_codes_rejected(self):
        system = ideal_system()
        with pytest.raises(ConfigError):
            schedule_sampling(system, [0, 64, 128], 2)
        with pytest.raises(ConfigError):
            schedule_sampling(system, [0, 64, 128, 300], 2)


class TestCapture:
    def test_zero_differential_input_gives_zero_codes(self):
        system = ideal_system()
        stim = constant_input(0.0)
        offsets, _ = adapt_offsets(system, stim, window=2048, threshold=0.001)
        capture = run_capture(system, stim, 16 * 32, offset_codes=offsets)
        assert np.all(capture.codes == 0)

    def test_full_scale_dc_hits_max_code_on_all_slices(self):
        system = ideal_system()
        stim = constant_input(0.45)
        capture = run_capture(system, stim, 16 * 8)
        assert np.all(capture.codes == 127)

    def test_underrange_reports_slice_and_cycle(self):
        system = ideal_system()
        stim = constant_input(0.5)  # swings below threshold
        with pytest.raises(UnderrangeError, match=r"slice \d+ cycle \d+"):
            run_capture(system, stim, 16 * 4)

    @pytest.mark.parametrize("pair", [(np.nan, VCM), (VCM, np.nan)])
    def test_nan_voltage_fails_range_check(self, pair):
        # NaN compares false both ways; it must not reach the edge count
        v_p = np.array([VCM, pair[0]])
        v_n = np.array([VCM, pair[1]])
        with pytest.raises(PreconditionError, match="point 1"):
            convert_pair_arrays(ideal_system(), 0, v_p, v_n, 25, context="point ")

    def test_first_failing_index_is_reported(self):
        # a NaN fails the under-range check even after an over-range point
        v_p = np.array([VCM, 0.95, VCM, np.nan, 0.1])
        v_n = np.full(5, VCM)
        with pytest.raises(UnderrangeError, match="point 3"):
            convert_pair_arrays(ideal_system(), 0, v_p, v_n, 25, context="point ")
        with pytest.raises(OverrangeError, match="point 1"):
            convert_pair_arrays(ideal_system(), 0, v_p[:3], v_n[:3], 25, context="point ")

    def test_zero_length_input_converts_to_empty_arrays(self):
        empty = np.empty(0)
        raw, sign, code = convert_pair_arrays(ideal_system(), 0, empty, empty, 25)
        assert (raw.size, sign.size, code.size) == (0, 0, 0)
        assert (raw.dtype, sign.dtype, code.dtype) == (np.int16, np.bool_, np.int16)

    def test_offset_code_is_a_count(self):
        # a negative offset code is refused; one above the chain's taps
        # removes every count, as the tap count itself does
        system = ideal_system()
        dv = np.array([0.4, -0.4, 0.0])
        v_p, v_n = VCM + dv / 2, VCM - dv / 2
        with pytest.raises(ValueError, match="offset code must be >= 0"):
            convert_pair_arrays(system, 0, v_p, v_n, -1)
        n_taps = system.config.adc.n_taps
        for offset in (n_taps, n_taps + 1, 2**15, 2**40):
            raw, _, code = convert_pair_arrays(system, 0, v_p, v_n, offset)
            assert raw.min() > 0 and code.tolist() == [0, 0, 0]

    def test_without_luts_corrected_is_the_codes_array(self):
        capture = run_capture(ideal_system(), coherent_tone(11, 256, amplitude=0.4), 256)
        assert capture.corrected is capture.codes

    def test_n_samples_must_be_multiple_of_16(self):
        with pytest.raises(ConfigError):
            run_capture(ideal_system(), constant_input(0.0), 100)

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(
        mismatched_systems(),
        st.integers(1, 40),
        st.lists(st.integers(0, 50), min_size=16, max_size=16),
        st.lists(st.integers(0, 255), min_size=4, max_size=4),
        st.one_of(st.none(), st.integers(0, 2**32)),
    )
    def test_capture_is_prefix_of_longer_capture(self, system, n_cycles, offsets, pi_codes, lut_seed):
        luts = None
        if lut_seed is not None:
            rng = np.random.default_rng(lut_seed)
            luts = np.sort(rng.integers(-127, 128, (16, 256)), axis=1)
        tone = coherent_tone(11, 512, amplitude=0.4, cm=0.55)
        kwargs = dict(offset_codes=offsets, luts=luts, pi_codes=pi_codes)
        short = run_capture(system, tone, 16 * n_cycles, **kwargs)
        full = run_capture(system, tone, 32 * n_cycles, **kwargs)
        for field in dataclasses.fields(short):
            part, whole = getattr(short, field.name), getattr(full, field.name)[:, :n_cycles]
            assert part.dtype == whole.dtype, field.name
            assert np.array_equal(part, whole), field.name

    def test_capture_is_deterministic(self):
        cfg = RunConfig(adc=AdcConfig(tap_sigma_random=0.1, slope_sigma=0.01))
        tone = coherent_tone(11, 1024, amplitude=0.4, cm=0.55)
        a = run_capture(converter(cfg, 7), tone, 1024)
        b = run_capture(converter(cfg, 7), tone, 1024)
        assert np.array_equal(a.codes, b.codes)
        assert np.array_equal(a.instants, b.instants)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32), st.integers(0, 500), st.integers(0, AdcConfig().n_taps))
@example(seed=0, size=100, offset=0)
def test_unfold_equals_the_single_shot_oracle(seed, size, offset):
    # convert_pair_arrays' unfold on raw counts in [0, n_taps] of both signs,
    # with magnitudes past 127 (where the LUT address saturates) whenever
    # the offset is below n_taps - 127
    system = ideal_system()
    n_taps = system.config.adc.n_taps
    rng = np.random.default_rng(seed)
    # int16 counts, as `_raw_counts` returns them
    raw = np.concatenate([[0, 0, n_taps, n_taps], rng.integers(0, n_taps + 1, size)])
    raw = raw.astype(np.int16)
    sign = np.concatenate([[False, True, False, True], rng.random(size) < 0.5])
    v = np.full(raw.size, VCM)
    with mock.patch.object(il, "_raw_counts", return_value=(raw, sign)):
        _, _, code = convert_pair_arrays(system, 0, v, v, offset)
    assert code.dtype == np.int16
    assert code.tolist() == [unfold(r, offset, s).code for r, s in zip(raw, sign)]
    assert np.abs(code).max() == n_taps - offset


# a sample side at a band edge: its threshold or the supply plus k * _V_EPS;
# the range checks refuse k = -2 at the threshold and k = 2 at the supply
BAND_EDGES = [(limit, k) for limit in ("threshold", "supply") for k in (-2, -1, 0, 1, 2)]
IN_BAND_EDGES = range(1, len(BAND_EDGES) - 1)


def side_voltage(side, threshold, vdd):
    """A float side is that fraction of the way from the threshold to the
    supply, an int side indexes BAND_EDGES and None is NaN."""
    if side is None:
        return math.nan
    if isinstance(side, int):
        limit, k = BAND_EDGES[side]
        return (threshold if limit == "threshold" else vdd) + k * _V_EPS
    return threshold + side * (vdd - threshold)


def slice_voltages(system, sides):
    """Each slice's (v_p, v_n) for the (p side, n side) pairs `sides`, at its
    own thresholds; an n side of "=" repeats v_p."""
    vdd = system.config.adc.vdd
    v_p = np.array([[side_voltage(p, vth, vdd) for p, _ in sides] for vth in system.vth_p])
    v_n = np.array([
        [p if n == "=" else side_voltage(n, vth, vdd) for p, (_, n) in zip(row, sides)]
        for row, vth in zip(v_p, system.vth_n)
    ])
    return v_p, v_n


in_band_side = st.floats(0.0, 1.0) | st.sampled_from(IN_BAND_EDGES)
any_side = st.floats(-0.05, 1.05) | st.integers(0, len(BAND_EDGES) - 1) | st.none()
# half the draws keep every sample inside both bands, so captures convert
sample_sides = st.lists(
    st.tuples(in_band_side, in_band_side | st.just("=")), min_size=1, max_size=12
) | st.lists(st.tuples(any_side, any_side | st.just("=")), min_size=1, max_size=12)


def oracle_outcome(*args):
    """`convert_one`'s (raw, sign, code, corrected), or its refusal's class."""
    try:
        return convert_one(*args)
    except (UnderrangeError, OverrangeError) as refused:
        return type(refused)


def first_refusal(outcomes):
    """(class, index) of the refusal a conversion of these samples raises,
    every sample's threshold check before any sample's supply check, or None."""
    for error in (UnderrangeError, OverrangeError):
        if error in outcomes:
            return error, outcomes.index(error)
    return None


def assert_converts_as_the_oracle(convert, inputs, want, where):
    """`convert(*inputs)`, a (raw, sign, code) conversion of parallel input
    arrays, equals the oracle's outcomes `want`: refused with the first
    refusal's class at its index (`where` prefixes it), else sample by
    sample; then the accepted samples together and each refused one alone."""
    refusal = first_refusal(want)
    if refusal is None:
        raw, sign, code = convert(*inputs)
        assert list(zip(raw.tolist(), sign.tolist(), code.tolist())) == [w[:3] for w in want]
        return
    error, m = refusal
    with pytest.raises(error, match=f"^{where}{m}: "):
        convert(*inputs)
    if len(want) == 1:
        return
    ok = np.array([isinstance(w, tuple) for w in want])
    accepted = [w for w in want if isinstance(w, tuple)]
    assert_converts_as_the_oracle(convert, [a[ok] for a in inputs], accepted, where)
    for m in np.flatnonzero(~ok):
        assert_converts_as_the_oracle(convert, [a[m : m + 1] for a in inputs], [want[m]], where)


def test_the_oracle_refuses_under_range_before_over_range():
    # either side under its threshold, or NaN, is under-range even with the
    # other side over the supply; over-range needs both sides above threshold
    system = ideal_system()
    vth, vdd = float(system.vth_p[0]), system.config.adc.vdd
    for v_p, v_n in [(vdd + 0.1, vth - 0.1), (vth - 0.1, vdd + 0.1), (vdd + 0.1, math.nan)]:
        with pytest.raises(UnderrangeError, match="^slice 0: "):
            convert_one(system, 0, v_p, v_n, 25)
    for v_p, v_n in [(vdd + 0.1, 0.6), (0.6, vdd + 0.1)]:
        with pytest.raises(OverrangeError, match="^slice 0: "):
            convert_one(system, 0, v_p, v_n, 25)


REGIME_DESIGN = converter(RunConfig(adc=AdcConfig(
    tap_sigma_systematic=0.15, tap_sigma_random=0.05, slope_sigma=0.01, threshold_sigma=0.01
)), 0)
OFFSETS = [0, 25, 24, 26, 255, 128, 1, 30, 20, 25, 25, 100, 3, 27, 23, 25]


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    mismatched_systems(),
    sample_sides,
    st.lists(st.integers(0, AdcConfig().n_taps), min_size=16, max_size=16),
    st.none() | st.integers(0, 2**32),
)
# every pair of in-band edges (ties where both sides sit at or below their
# thresholds), and v_p == v_n inside the band
@example(
    REGIME_DESIGN,
    [(p, n) for p in IN_BAND_EDGES for n in IN_BAND_EDGES] + [(0.5, "="), (1, "=")],
    OFFSETS,
    7,
)
# each refusing edge, NaN, and v_p over the supply with v_n under its
# threshold: under-range, since every threshold check comes first
@example(REGIME_DESIGN, [(0.5, 0.5), (9, 0), (0.5, 0.5)], OFFSETS, None)
@example(REGIME_DESIGN, [(0.5, 9), (0, 0.5), (None, 0.2), (0.3, None)], OFFSETS, None)
@example(REGIME_DESIGN, [(0.5, 0.5), (9, 0.5), (1.05, "=")], OFFSETS, None)
def test_conversions_equal_the_single_sample_oracle(system, sides, offsets, lut_seed):
    # convert_pair_arrays on every slice and a run_capture fed the same
    # voltages (the stimulus hands each slice its row in turn) equal
    # convert_one per sample, refusals included
    luts = None
    if lut_seed is not None:
        luts = np.sort(np.random.default_rng(lut_seed).integers(-127, 128, (N_SLICES, 256)), axis=1)
    v_p, v_n = slice_voltages(system, sides)
    want = [
        [oracle_outcome(system, s, p, n, offsets[s], None if luts is None else luts[s])
         for p, n in zip(v_p[s], v_n[s])]
        for s in range(N_SLICES)
    ]
    for s in range(N_SLICES):
        convert = partial(convert_pair_arrays, system, s, offset_code=offsets[s], context="point ")
        assert_converts_as_the_oracle(convert, [v_p[s], v_n[s]], want[s], f"slice {s} point ")
    rows = iter(zip(v_p, v_n))
    capture = partial(run_capture, system, lambda t: next(rows), v_p.size, offsets, luts)
    refused = [(s, refusal) for s, row in enumerate(want) if (refusal := first_refusal(row))]
    if refused:
        s, (error, m) = refused[0]
        with pytest.raises(error, match=f"^slice {s} cycle {m}: "):
            capture()
    else:
        got = capture()
        for name, column in (("raw", 0), ("codes", 2), ("corrected", 3)):
            assert getattr(got, name).tolist() == [[w[column] for w in row] for row in want]


def transfer_dv(item, system, s, common_mode):
    """A float item is dv itself; an int k puts v_p (k < 10) or v_n (else)
    on BAND_EDGES[k % 10] of slice s."""
    if isinstance(item, float):
        return item
    adc = system.config.adc
    if item < len(BAND_EDGES):
        return 2.0 * (side_voltage(item, system.vth_p[s], adc.vdd) - common_mode)
    return 2.0 * (common_mode - side_voltage(item - len(BAND_EDGES), system.vth_n[s], adc.vdd))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    mismatched_systems(),
    st.integers(0, N_SLICES - 1),
    st.floats(0.55, 0.65),
    st.lists(st.floats(-0.7, 0.7) | st.integers(0, 2 * len(BAND_EDGES) - 1), max_size=16),
    st.integers(0, 2**32),
    st.integers(0, AdcConfig().n_taps),
)
# the ideal slice at common mode 0.6 (halfway from threshold to supply):
# dv = 0, +/-0.6 and each side on each band edge
@example(ideal_system(), 0, 0.6, [0.0, 0.6, -0.6, *range(2 * len(BAND_EDGES))], 0, 25)
def test_slice_transfer_equals_the_single_sample_oracle(
    system, s, common_mode, items, sweep_seed, offset
):
    # the drawn items, then a uniform sweep of 32 points past both ends
    dv = np.array([transfer_dv(item, system, s, common_mode) for item in items])
    dv = np.concatenate([dv, np.random.default_rng(sweep_seed).uniform(-0.7, 0.7, 32)])
    # the voltages slice_transfer forms
    v_p, v_n = common_mode + dv / 2.0, common_mode - dv / 2.0
    want = [oracle_outcome(system, s, p, n, offset) for p, n in zip(v_p, v_n)]
    convert = partial(slice_transfer, system, s, common_mode=common_mode, offset_code=offset)
    assert_converts_as_the_oracle(convert, [dv], want, f"slice {s} point ")


class TestOffsetWarmup:
    @settings(max_examples=15, deadline=None, derandomize=True, database=None)
    @given(mismatched_systems(), st.integers(1, 300), st.sampled_from([0.001, 0.05, 1.0]))
    def test_equals_the_estimate_from_a_capture(self, system, window, threshold):
        # the warmup estimates each slice from its own raw counts, which a
        # capture at the nominal PI codes holds all at once
        tone = coherent_tone(11, 512, amplitude=0.4, cm=0.55)
        offsets, estimates = adapt_offsets(system, tone, window, threshold)
        raw = run_capture(system, tone, N_SLICES * window).raw
        for s, estimate in enumerate(estimates):
            code, rank = histogram_offset_estimate(raw[s], window, threshold)
            assert estimate.offset_code == code == offsets[s]
            assert (estimate.rank, estimate.window) == (rank, window)

    def test_holds_no_window_of_counts(self):
        # each slice's counts are dropped once estimated.  At the peak, inside
        # one slice's count, the warmup holds its instants and, per sample,
        # the slice's two input sides and three V2T temporaries (5 float64),
        # the count's window ends, their buckets and one gathered row (2
        # float64, 2 intp, 2 float64), its comparison mask (2 bool) and its
        # running count (2 counts); no earlier slice's counts are still held.
        # The counts of every slice at once, (16, window), or counts wider
        # than COUNT_DTYPE (int64 ones add 18 bytes a sample) go over it
        cfg = load_config(CONFIG_DIR / "regime.yaml")
        system = converter(cfg, 0)
        window = cfg.adc.adaptation.window
        tracemalloc.start()
        try:
            adapt_offsets(system, warmup_tone(cfg), window, cfg.adc.adaptation.threshold)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        f8, intp, count = (np.dtype(t).itemsize for t in (np.float64, np.intp, COUNT_DTYPE))
        instants = N_SLICES * window * f8
        per_sample = 9 * f8 + 2 * intp + 2 + 2 * count
        assert peak < instants + window * per_sample + 32768


class TestAlign:
    def test_constant_streams_stay_constant(self):
        streams = retime_streams(np.full((16, 10), 7), [2] * 16)
        aligned = align_outputs(streams, [2] * 16)
        assert np.all(aligned.codes == 7)
        assert aligned.codes.size == 160

    def test_slice_labeling(self):
        base = np.tile(np.arange(16)[:, None], (1, 5))
        aligned = align_outputs(retime_streams(base, [2] * 16), [2] * 16)
        assert np.array_equal(aligned.codes, np.tile(np.arange(16), 5))

    def test_random_latencies_match_zero_latency_reference(self):
        rng = np.random.default_rng(3)
        data = rng.integers(-100, 100, size=(16, 12))
        lats = rng.integers(1, 5, size=16).tolist()
        reference = align_outputs(list(data), [0] * 16)
        compensated = align_outputs(retime_streams(data, lats), lats)
        assert np.array_equal(reference.codes, compensated.codes)

    def test_sample_count_conserved(self):
        data = np.arange(16 * 9).reshape(16, 9)
        aligned = align_outputs(retime_streams(data, [2] * 16), [2] * 16)
        assert aligned.codes.size == data.size

    def test_inconsistent_lengths_rejected(self):
        streams = [np.zeros(5)] * 15 + [np.zeros(7)]
        with pytest.raises(ValueError):
            align_outputs(streams, [0] * 16)

    def test_skew_beyond_pitch_keeps_slice_order(self):
        # +60 ps on group 1 puts its samples after group 2's: the hardware
        # still interleaves in slice order, so the stream is not time-sorted
        system = ideal_system(skew_injection=(0.0, 60 * PS, 0.0, 0.0))
        capture = run_capture(system, coherent_tone(11, 1024, amplitude=0.4), 1024)
        aligned = aligned_capture(system, capture)
        assert np.array_equal(aligned.codes.reshape(64, 16), capture.corrected.T)
        # in slice order the sampling instants are not sorted
        assert np.any(np.diff(capture.instants.T.reshape(-1)) < 0)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 2**32), st.integers(0, 20), st.booleans())
    def test_matches_time_sort_when_instants_are_in_slice_order(self, seed, n_cycles, timed):
        rng = np.random.default_rng(seed)
        data = rng.integers(-128, 128, size=(16, n_cycles))
        lats = rng.integers(0, 5, size=16).tolist()
        streams = retime_streams(data, lats)
        # non-decreasing in slice order, ties included
        steps = rng.choice([0.0, 1e-12, 50e-12], size=16 * n_cycles)
        instants = np.cumsum(steps).reshape(n_cycles, 16).T if timed else None
        got = align_outputs(streams, lats)
        want = argsort_align_outputs(streams, lats, instants)
        assert np.array_equal(got.codes, want.codes)

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(mismatched_systems(), st.integers(0, 2**32), st.booleans())
    def test_histogram_of_aligned_stream_equals_capture_histogram(self, system, seed, lut):
        # the linearity histogram is taken straight from the capture
        luts = None
        if lut:
            rng = np.random.default_rng(seed)
            luts = np.sort(rng.integers(-127, 128, (16, 256)), axis=1)
        capture = run_capture(
            system, coherent_tone(11, 512, amplitude=0.4, cm=0.55), 512, luts=luts
        )
        aligned = aligned_capture(system, capture)
        assert np.array_equal(code_histogram(capture.corrected), code_histogram(aligned.codes))

    def test_aggregate_order_is_by_sampling_instant(self):
        system = ideal_system()
        tone = coherent_tone(11, 1024, amplitude=0.4)
        capture = run_capture(system, tone, 1024)
        aligned = aligned_capture(system, capture)
        # slice order is sampling-instant order when no skew crosses the pitch
        assert np.all(np.diff(capture.instants.T.reshape(-1)) > 0)
        assert np.array_equal(aligned.codes.reshape(64, 16), capture.corrected.T)


class TestLut:
    def test_identity_for_ideal_slice(self):
        system = ideal_system()
        tone = dataclasses.replace(
            coherent_tone(1, 16, amplitude=0.459, cm=0.55),
            frequency=GOLDEN_FRACTION * system.config.system.slice_rate,
        )
        offsets, _ = adapt_offsets(system, tone, window=4096, threshold=0.001)
        capture = run_capture(system, tone, 16 * 2**14, offset_codes=offsets)
        amplitude_code = 0.459 / (0.45 / 127)
        hist = code_histogram(capture.codes[0])
        lut = build_lut(hist, amplitude_code, min_hits=20)
        reachable = np.arange(-127, 128)
        mapped = lut[reachable + 128]
        assert np.max(np.abs(mapped - reachable)) <= 1

    def test_known_static_bow_is_inverted(self):
        # synthetic slice: endpoint-preserving cubic bow ahead of an ideal
        # quantizer (monotone, no missing codes, ~5 LSB of INL)
        rng = np.random.default_rng(5)
        dv = 0.459 * np.sin(rng.uniform(0, 2 * np.pi, 400_000))
        x = dv / 0.45
        bowed = 0.45 * (x + 0.1 * (x**3 - x))
        codes = np.clip(np.rint(bowed / (0.45 / 127)), -127, 127).astype(int)
        lut = build_lut(code_histogram(codes), 0.459 / (0.45 / 127), min_hits=50)
        corrected = lut[codes + 128]
        pre = code_density_linearity(code_histogram(codes), "sine")
        post = code_density_linearity(code_histogram(corrected), "sine")
        assert pre["inl_max"] > 2.0
        assert post["inl_max"] <= pre["inl_max"] / 4.0

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        st.integers(0, 254),
        st.integers(0, 254),
        st.integers(1, 200),
        st.floats(1.0, 200.0),
        st.integers(0, 2**32),
    )
    def test_monotone_for_any_valid_histogram(self, a, b, min_hits, amplitude_code, seed):
        # reachable codes lo..hi, each empty (a code the slice cannot
        # produce) or at or above the hit floor, the two ends hit
        lo, hi = min(a, b), max(a, b)
        rng = np.random.default_rng(seed)
        hist = np.zeros(255, dtype=np.int64)
        hist[lo : hi + 1] = rng.integers(min_hits, 10 * min_hits + 1000, hi - lo + 1)
        hist[lo : hi + 1] *= rng.random(hi - lo + 1) < rng.uniform(0.3, 1.0)
        hist[[lo, hi]] = min_hits
        mapping = build_lut(hist, amplitude_code, min_hits)
        assert mapping.shape == (256,)
        assert np.all(np.diff(mapping) >= 0)
        assert mapping.min() >= -127 and mapping.max() <= 127

    def test_coverage_error_lists_codes(self):
        hist = np.zeros(255, dtype=int)
        hist[100:140] = 1000
        hist[120] = 3  # undersampled interior code
        with pytest.raises(CoverageError) as err:
            build_lut(hist, 129.5, min_hits=100)
        assert err.value.codes == [120 - 127]

    def test_calibration_stability_across_seeds(self):
        system = mismatched_system(3, tap_sigma_random=0.1)
        amplitude_code = 0.459 / (0.45 / 127)
        warm = dataclasses.replace(
            coherent_tone(1, 16, amplitude=0.459, cm=0.55),
            frequency=GOLDEN_FRACTION * system.config.system.slice_rate,
        )
        offsets, _ = adapt_offsets(system, warm, window=4096, threshold=0.001)
        maps = []
        for phase in (0.1, 2.3):  # same mismatch instance, different captures
            tone = SineStimulus(frequency=warm.frequency, amplitude=0.459,
                                common_mode=0.55, phase=phase)
            capture = run_capture(system, tone, 16 * 2**16, offset_codes=offsets)
            # mismatch legitimately produces near-zero-width codes (two
            # transition ladders nearly coinciding), so the hit floor is
            # relaxed here; the coverage check is exercised elsewhere
            maps.append(build_lut(code_histogram(capture.codes[4]), amplitude_code, min_hits=2))
        assert np.max(np.abs(maps[0] - maps[1])) <= 1

    def test_identity_lut_is_identity(self):
        codes = np.arange(-127, 128)
        assert np.array_equal(identity_lut()[codes + 128], codes)

    def test_build_luts_is_one_read_only_table(self):
        system = ideal_system()
        tone = SineStimulus(frequency=GOLDEN_FRACTION * system.config.system.slice_rate,
                            amplitude=0.459, common_mode=0.55)
        capture = run_capture(system, tone, 16 * 2**12)
        amplitude_code = 0.459 / (0.45 / 127)
        luts = build_luts(capture, amplitude_code, min_hits=1)
        assert (luts.shape, luts.dtype, luts.flags.writeable) == ((16, 256), np.int16, False)
        for s in range(16):
            want = build_lut(code_histogram(capture.codes[s]), amplitude_code, min_hits=1)
            assert np.array_equal(luts[s], want)

    def test_each_slice_reads_its_own_lut_with_saturating_address(self):
        # an offset code of 0, 25 below the nominal, pushes full-scale codes
        # past the 8-bit range: the SRAM address saturates to the end entries
        rng = np.random.default_rng(7)
        luts = np.sort(rng.integers(-127, 128, (16, 256)), axis=1)
        tone = coherent_tone(11, 256, amplitude=0.45)
        capture = run_capture(ideal_system(), tone, 256, offset_codes=[0] * 16, luts=luts)
        assert capture.codes.min() < -128 and capture.codes.max() > 127
        for s in range(16):
            address = np.clip(capture.codes[s] + 128, 0, 255)
            assert np.array_equal(capture.corrected[s], luts[s][address])


class TestSkewCalibration:
    def test_zero_skew_needs_no_correction(self):
        system = ideal_system()
        tone = coherent_tone(1433, 4096, amplitude=0.44)
        corr = calibrate_skew(system, tone, 4096)
        assert np.array_equal(corr, np.zeros(4))

    def test_plus_five_ps_on_group_two(self):
        system = ideal_system(2, skew_injection=(0.0, 0.0, 5 * PS, 0.0))
        tone = coherent_tone(1433, 4096, amplitude=0.44)
        corr = calibrate_skew(system, tone, 4096)
        assert np.array_equal(corr, np.array([0, 0, -6, 0]))

    def test_idempotence(self):
        system = ideal_system(2, skew_injection=(0.0, 3 * PS, -4 * PS, 2 * PS))
        tone = coherent_tone(1433, 4096, amplitude=0.44)
        corr = calibrate_skew(system, tone, 4096)
        second = calibrate_skew(
            system, tone, 4096, pi_codes=NOMINAL_PI_CODES + corr
        )
        assert np.max(np.abs(second)) <= 1

    def test_skew_beyond_pitch_is_measured_on_its_own_group(self):
        # +60 ps puts group 1 after group 2 in time; time-sorting the stream
        # used to mislabel the groups (corrections [6, -58, -6, 6])
        system = ideal_system(2, skew_injection=(0.0, 60 * PS, 0.0, 0.0))
        tone = coherent_tone(1433, 4096, amplitude=0.44)
        corr = calibrate_skew(system, tone, 4096)
        assert np.array_equal(corr, np.array([0, -77, 0, 0]))

    def test_common_shift_keeps_corrections_in_range(self):
        # +30 ps on group 0 asks for -38 codes on base code 32 against the
        # median group; the code used to be clipped to 0 later, leaving 6
        # codes (about 5 ps) of skew.  Shifting all four groups by +6 fits.
        system = ideal_system(2, skew_injection=(30 * PS, 0.0, 0.0, 0.0))
        tone = coherent_tone(1433, 4096, amplitude=0.44)
        corr = calibrate_skew(system, tone, 4096)
        assert np.array_equal(corr, np.array([-32, 6, 6, 6]))

    def test_correction_beyond_pi_code_range_raises(self):
        # +70 ps on group 0 asks for codes [-58, 96, 160, 224]: they span 282
        # codes, so no common shift fits them into [0, 255]
        system = ideal_system(2, skew_injection=(70 * PS, 0.0, 0.0, 0.0))
        tone = coherent_tone(1433, 4096, amplitude=0.44)
        with pytest.raises(PreconditionError, match=r"\[-58, 96, 160, 224\], which span 282"):
            calibrate_skew(system, tone, 4096)

    def test_non_coherent_tone_rejected(self):
        system = ideal_system()
        tone = SineStimulus(frequency=7.001e9, amplitude=0.44, common_mode=VCM)
        with pytest.raises(CoherenceError):
            calibrate_skew(system, tone, 4096)

    def test_low_amplitude_rejected(self):
        system = ideal_system()
        tone = coherent_tone(1433, 4096, amplitude=0.1)
        with pytest.raises(ConfigError):
            calibrate_skew(system, tone, 4096)


class TestSliceTransfer:
    def test_ideal_midtread_staircase(self):
        # probe away from the half-LSB transition points, where the window
        # boundary guard makes the pipeline and a rint oracle legitimately
        # disagree by one float ulp of input
        system = ideal_system()
        lsb = 0.45 / 127
        k = np.arange(-127, 127)
        dv = (k + 0.17) * lsb
        _, _, code = slice_transfer(system, 0, dv, VCM, 25)
        assert np.array_equal(code, k)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        mismatched_systems(),
        st.integers(0, 15),
        st.integers(0, 50),
        st.lists(st.floats(-0.45, 0.45), min_size=1, max_size=64),
    )
    @example(ideal_system(), 0, AdcConfig().nominal_offset_code, [0.1, -0.2, 0.45, -0.45])
    def test_ideal_v2t_transfer_is_odd_symmetric(self, system, s, offset, levels):
        # with a matched V2T pair, -dv swaps the two edge times exactly, so
        # the pulse is the same and only the sign flips, whatever the taps;
        # where v_p == v_n both fold to the positive side
        adc = dataclasses.replace(system.config.adc, slope_sigma=0.0, threshold_sigma=0.0)
        system = converter(dataclasses.replace(system.config, adc=adc), system.master_seed)
        dv = np.array([0.0, *levels])
        raw, _, code = slice_transfer(system, s, dv, VCM, offset)
        raw_neg, _, code_neg = slice_transfer(system, s, -dv, VCM, offset)
        assert np.array_equal(raw_neg, raw)
        tie = VCM + dv / 2.0 == VCM - dv / 2.0
        assert np.array_equal(code_neg[~tie], -code[~tie])
        assert np.array_equal(code_neg[tie], code[tie])
        if system.config == RunConfig() and offset == adc.nominal_offset_code:
            # the ideal slice at its nominal offset code maps the tie to code 0
            assert code[0] == 0

    def test_monotone_under_mismatch(self):
        dv = np.linspace(-0.45, 0.45, 2001)
        for seed in range(10):
            system = mismatched_system(seed, tap_sigma_random=0.1)
            _, _, code = slice_transfer(system, 3, dv, VCM, 25)
            assert np.all(np.diff(code) >= 0)


def test_counts_and_codes_are_int16_from_the_count_to_the_histogram(tmp_path, monkeypatch):
    # every count, code and LUT, from the STDC count to the histogram input,
    # is int16 with the LUTs on or off: a change that widens one fails here
    cfg = parse_config(LUT_CONFIG)
    system = converter(cfg, 1)
    built = experiments.compute_calibration(cfg, system)
    monkeypatch.setattr(experiments, "compute_calibration", lambda *args: built)
    experiments.run_experiment("calibrate", cfg, out_dir=tmp_path, seed=1)
    loaded = CalibrationState.from_json((tmp_path / "calibration.json").read_text(), cfg, 1)
    chain = system.chains[0]
    v = np.full(4, VCM)
    raw, _, code = convert_pair_arrays(system, 0, v + 0.1, v - 0.1, 25)
    tone = coherent_tone(11, 256, amplitude=0.4, cm=0.55)
    plain = run_capture(system, tone, 256, loaded.offset_codes)
    mapped = run_capture(system, tone, 256, loaded.offset_codes, loaded.luts)
    arrays = {
        "count_edges_batch": count_edges_batch(chain, np.zeros(2), np.full(2, 1e-9)),
        "convert_pair_arrays raw": raw,
        "convert_pair_arrays code": code,
        "slice_transfer": slice_transfer(system, 0, np.linspace(-0.4, 0.4, 9), VCM, 25)[2],
        "run_capture raw": plain.raw,
        "run_capture codes": plain.codes,
        "run_capture corrected": plain.corrected,
        "run_capture corrected, LUTs on": mapped.corrected,
        "aligned_capture": aligned_capture(system, plain).codes,
        "aligned_capture, LUTs on": aligned_capture(system, mapped).codes,
        "build_luts": built.luts,
        "loaded luts": loaded.luts,
    }
    want = dict.fromkeys(arrays, np.dtype(np.int16))
    assert {name: a.dtype for name, a in arrays.items()} == want


def test_the_largest_n_taps_converts_end_to_end():
    # adc.n_taps at its bound builds a converter (with a divided clock slow
    # enough for the chain's spread) whose capture equals the single-sample
    # oracle; and counts of n_taps unfold to codes of +/-n_taps, whose LUT
    # address, code + 128, the widest int16 value formed, saturates to
    # entries 0 and 255
    assert MAX_TAPS + il.LUT_SIZE // 2 == np.iinfo(COUNT_DTYPE).max
    system = mismatched_system(0, n_taps=MAX_TAPS, divided_ratio=256, tap_sigma_random=0.05)
    luts = np.random.default_rng(7).integers(-127, 128, (N_SLICES, 256))
    luts = np.sort(luts, axis=1).astype(np.int16)
    tone = coherent_tone(11, 256, amplitude=0.4, cm=0.55)
    capture = run_capture(system, tone, 64, [25] * N_SLICES, luts)
    for s in range(N_SLICES):
        v_p, v_n = tone(capture.instants[s])
        want = [convert_one(system, s, p, n, 25, luts[s]) for p, n in zip(v_p, v_n)]
        for name, column in (("raw", 0), ("codes", 2), ("corrected", 3)):
            assert getattr(capture, name)[s].tolist() == [w[column] for w in want], (s, name)
    raw = np.array([0, 0, MAX_TAPS, MAX_TAPS], dtype=np.int16)
    sign = np.array([False, True, False, True])
    with mock.patch.object(il, "_raw_counts", return_value=(raw, sign)):
        saturated = run_capture(system, tone, 64, [0] * N_SLICES, luts)
    assert saturated.codes.tolist() == [[0, 0, MAX_TAPS, -MAX_TAPS]] * N_SLICES
    assert saturated.corrected.tolist() == [[t[128], t[128], t[255], t[0]] for t in luts.tolist()]


def test_calibration_state_roundtrip(tmp_path, monkeypatch):
    # the calibrate experiment writes the state through the artifact writer,
    # and the reader gives back every field, on a config that has them all
    cfg = parse_config(LUT_CONFIG)
    state = CalibrationState(
        offset_codes=np.full(16, 25),
        luts=np.tile(identity_lut(), (16, 1)),
        pi_corrections=np.array([0, -2, 3, 1]),
    )
    monkeypatch.setattr(experiments, "compute_calibration", lambda *args: state)
    experiments.run_experiment("calibrate", cfg, out_dir=tmp_path, seed=5)
    back = CalibrationState.from_json((tmp_path / "calibration.json").read_text(), cfg, 5)
    assert np.array_equal(back.offset_codes, state.offset_codes)
    assert np.array_equal(back.pi_corrections, state.pi_corrections)
    assert np.array_equal(back.luts, state.luts)
    assert (back.luts.dtype, back.luts.flags.writeable) == (np.int16, False)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    st.integers(0, 2**64 - 1),
    st.floats(1e-3, 0.15),
    st.floats(1e-3, 0.1),
    st.floats(1e-3, 0.02),
    st.floats(1e-3, 0.02),
    st.floats(1e-3, 0.05),
    st.floats(1e-3, 0.3),
)
def test_mismatch_draws_equal_one_draw_per_row(
    seed, sigma_systematic, sigma_random, slope_sigma, threshold_sigma, pi_tap, pi_skew
):
    # the converter draws its 17 tap rows, its V2T rows and each PI chain's
    # taps and skews in one keyed call per group; every row must equal the
    # single-seed draw it replaces
    cfg = RunConfig(
        adc=AdcConfig(
            tap_sigma_systematic=sigma_systematic,
            tap_sigma_random=sigma_random,
            slope_sigma=slope_sigma,
            threshold_sigma=threshold_sigma,
        ),
        pi=PiConfig(tap_sigma_rel=pi_tap, skew_sigma_rel=pi_skew),
    )
    system = converter(cfg, seed)
    # a plain record: tuples of chains and read-only V2T arrays
    assert isinstance(system.chains, tuple) and isinstance(system.pi_chains, tuple)
    v2t = (system.slope_p, system.slope_n, system.vth_p, system.vth_n)
    assert not any(array.flags.writeable for array in v2t)
    taps, slopes, thresholds = rowwise_adc_draws(cfg.adc, seed)
    got_taps = np.array([chain.tap_delays for chain in system.chains])
    assert np.array_equal(got_taps.view(np.uint64), taps.view(np.uint64))
    for got, want in (
        (system.slope_p, slopes[0::2]),
        (system.slope_n, slopes[1::2]),
        (system.vth_p, thresholds[0::2]),
        (system.vth_n, thresholds[1::2]),
    ):
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    pi = cfg.pi
    for g, chain in enumerate(system.pi_chains):
        want = rowwise_pi_chain(
            pi.unit_delay, cfg.system.pi_clock_period, pi.n_taps, pi.tap_sigma_rel,
            pi.skew_sigma_rel * pi.unit_delay, derive_seed(seed, "pi.instance", g),
        )
        assert np.array_equal(chain.tap_delays.view(np.uint64), want.tap_delays.view(np.uint64))
        assert np.array_equal(chain.path_skews.view(np.uint64), want.path_skews.view(np.uint64))


def drawn_converter(cfg, seed):
    """`seed`'s converter record, its chains and V2T arrays built by the
    one-draw-per-row oracles and no envelope checked (nor PI chain built)."""
    taps, slopes, thresholds = rowwise_adc_draws(cfg.adc, seed)
    chains = tuple(rowwise_chain(row) for row in taps)
    v2t = (slopes[0::2], slopes[1::2], thresholds[0::2], thresholds[1::2])
    return AdcSystem(cfg, seed, chains, *v2t, ())


def near_envelope(seed, n_taps, systematic, random, slope, threshold):
    """A mismatched design at a divided ratio of 2, where the widest pulse
    plus a chain of about 200 taps of 4 ps nearly fills the divided period
    and that pulse closes near the chain's last edge."""
    return RunConfig(adc=AdcConfig(
        divided_ratio=2, n_taps=n_taps, tap_sigma_systematic=systematic,
        tap_sigma_random=random, slope_sigma=slope, threshold_sigma=threshold,
    ))


# slice 6 alone fails the divided period, slices 11 and 12 alone the chain's reach
BOTH_CHECKS = dict(seed=9, n_taps=198, systematic=0.05, random=0.1, slope=0.02, threshold=0.02)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32),
    n_taps=st.integers(190, 205),
    systematic=st.floats(0.0, 0.1),
    random=st.floats(0.0, 0.2),
    slope=st.floats(0.0, 0.03),
    threshold=st.floats(0.0, 0.03),
)
@example(**BOTH_CHECKS)
# slice 3 alone fails, the chain's reach
@example(seed=7, n_taps=198, systematic=0.05, random=0.1, slope=0.02, threshold=0.02)
# the ideal design fits with 195 taps and not with 194 (at slice 0)
@example(seed=1, n_taps=195, systematic=0.0, random=0.0, slope=0.0, threshold=0.0)
@example(seed=1, n_taps=194, systematic=0.0, random=0.0, slope=0.0, threshold=0.0)
def test_the_builder_refuses_the_envelope_as_the_slice_loops_do(
    seed, n_taps, systematic, random, slope, threshold
):
    # the builder's two array checks refuse a design exactly when the two
    # per-slice loops do, with the message of the first failing slice of
    # the first failing check
    cfg = near_envelope(seed, n_taps, systematic, random, slope, threshold)
    want = envelope_refusal(drawn_converter(cfg, seed))
    if want is None:
        assert converter(cfg, seed).master_seed == seed
    else:
        with pytest.raises(ConfigError) as refused:
            converter(cfg, seed)
        assert str(refused.value) == want


def test_the_envelope_examples_fail_past_slice_0_and_on_both_checks():
    # the first example fails the divided period at slice 6 and, once that
    # check is relaxed, the chain's reach at slice 11; the draws do not
    # depend on adc.divided_ratio, so both failures are on the same chains
    cfg = near_envelope(**BOTH_CHECKS)
    seed = BOTH_CHECKS["seed"]
    period = envelope_refusal(drawn_converter(cfg, seed))
    assert period.startswith("slice 6 at seed 9 needs ") and "divided clock period" in period
    relaxed = dataclasses.replace(cfg, adc=dataclasses.replace(cfg.adc, divided_ratio=3))
    reach = envelope_refusal(drawn_converter(relaxed, seed))
    assert reach.startswith("slice 11 at seed 9 needs its chain to reach ")
    with pytest.raises(ConfigError, match="^slice 11 at seed 9 needs its chain"):
        converter(relaxed, seed)


# an ideal design whose time fields are multiples of 2^-38 s reaches each
# envelope check's equality in floating point
TIE_UNIT = 2.0**-38


def test_an_exact_period_tie_is_refused():
    # the widest pulse plus the chain spread must fit inside the divided
    # period, so equality is refused
    unit = TIE_UNIT
    adc = AdcConfig(unit_delay=unit, d_offset=32 * unit)
    last_edge = adc.n_taps * unit
    widest = adc.d_offset + (adc.vdd - adc.v_threshold) / adc.discharge_slope
    rate = N_SLICES * adc.divided_ratio / (widest + last_edge)
    tie = RunConfig(adc=adc, system=SystemConfig(aggregate_rate=rate))
    assert adc.divided_ratio * tie.system.slice_period == widest + last_edge
    with pytest.raises(ConfigError, match="^slice 0 at seed 0 needs .* divided clock period"):
        converter(tie, 0)
    slower = SystemConfig(aggregate_rate=math.nextafter(rate, 0))
    assert converter(dataclasses.replace(tie, system=slower), 0).master_seed == 0


def test_an_exact_reach_tie_is_built():
    # the widest pulse may close on the chain's last edge, so equality is
    # built
    unit = TIE_UNIT
    last_edge = AdcConfig().n_taps * unit

    def reach(d_offset):
        adc = AdcConfig(unit_delay=unit, d_offset=d_offset, divided_ratio=64)
        ramp = (adc.vdd - adc.v_threshold) / adc.discharge_slope
        return RunConfig(adc=adc), adc.launch_lead + (adc.d_offset + ramp)

    cfg, closes = reach(3.1074402310575034e-10)
    assert closes == last_edge
    assert converter(cfg, 0).master_seed == 0
    # the next d_offset up whose pulse closes later is refused
    d_offset = cfg.adc.d_offset
    while closes == last_edge:
        d_offset = math.nextafter(d_offset, 1.0)
        cfg, closes = reach(d_offset)
    with pytest.raises(ConfigError, match="^slice 0 at seed 0 needs its chain to reach"):
        converter(cfg, 0)


def assert_same_bits(got, want):
    assert np.array_equal(np.asarray(got).view(np.uint64), np.asarray(want).view(np.uint64))


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(
    st.lists(
        st.sampled_from([0, -1, 3, 2**64 - 1, 2**64 + 3]) | st.integers(-(2**65), 2**65),
        min_size=1,
        max_size=5,
    ),
    st.sampled_from([1, 10_000, 1 << 18]),
    st.floats(1e-3, 0.1),
    st.floats(1e-3, 0.3),
)
def test_trial_instances_equal_single_seed_builds(seeds, draw_normals, sigma, pi_skew):
    # a Monte Carlo draws every trial's mismatch rows at once, DRAW_NORMALS
    # normals at a time (1 draws seed by seed, 10,000 two converters at a
    # time); each trial's instance from il.converters and il.pi_chains must
    # equal the one-draw-per-row oracles bit for bit, for repeated seeds,
    # negative ones and ones that wrap modulo 2^64 too
    cfg = RunConfig(
        adc=AdcConfig(tap_sigma_systematic=sigma, tap_sigma_random=sigma, slope_sigma=sigma / 5,
                      threshold_sigma=sigma / 5),
        pi=PiConfig(tap_sigma_rel=sigma, skew_sigma_rel=pi_skew),
    )
    period = cfg.system.pi_clock_period
    with mock.patch.object(il, "DRAW_NORMALS", draw_normals):
        converters, chains = list(il.converters(cfg, seeds)), list(il.pi_chains(cfg, seeds))
    assert [system.master_seed for system in converters] == seeds
    assert len(chains) == len(seeds)
    for seed, got, chain in zip(seeds, converters, chains):
        taps, slopes, thresholds = rowwise_adc_draws(cfg.adc, seed)
        assert_same_bits([a.tap_delays for a in got.chains], taps)
        for name, want in zip(
            ("slope_p", "slope_n", "vth_p", "vth_n"),
            (slopes[0::2], slopes[1::2], thresholds[0::2], thresholds[1::2]),
        ):
            assert_same_bits(getattr(got, name), want)
        # the pi-sweep chain is group 0's, then the converter's four groups
        for g, a in [(0, chain), *enumerate(got.pi_chains)]:
            oracle = rowwise_pi_chain(
                cfg.pi.unit_delay, period, cfg.pi.n_taps, cfg.pi.tap_sigma_rel,
                cfg.pi.skew_sigma, derive_seed(seed, "pi.instance", g),
            )
            assert_same_bits(a.tap_delays, oracle.tap_delays)
            assert_same_bits(a.path_skews, oracle.path_skews)
            assert_same_bits(a.positions, oracle.positions)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    st.integers(-(2**63), 2**64 + 5),
    st.floats(0.0, 0.1),
    st.sampled_from([0.0, 0.15]) | st.floats(1e-3, 0.5),
    st.lists(
        st.tuples(st.integers(1, 32), st.floats(-3.0, 3.0)), min_size=1, max_size=4
    ),
)
def test_injected_skews_enter_the_one_chain_build(seed, pi_tap, pi_skew, injected):
    # the chain pi-sweep builds from its rows, with the injected skews added
    # to the skew row before the build, equals the per-row oracle chain
    # rebuilt with the same skews added entry by entry (repeated paths and
    # negative amounts too)
    cfg = RunConfig(
        pi=PiConfig(tap_sigma_rel=pi_tap, skew_sigma_rel=pi_skew, injected_skews=tuple(injected))
    )
    [chain] = il.pi_chains(cfg, [seed])
    pi = cfg.pi
    oracle = rowwise_pi_chain(
        pi.unit_delay, cfg.system.pi_clock_period, pi.n_taps, pi.tap_sigma_rel,
        pi.skew_sigma, derive_seed(seed, "pi.instance", 0),
    )
    skews = oracle.path_skews.copy()
    for path, amount in injected:
        skews[path - 1] += amount * pi.unit_delay
    oracle = rowwise_delay_chain(oracle.unit_delay, oracle.tap_delays, skews, oracle.period)
    assert_same_bits(chain.tap_delays, oracle.tap_delays)
    assert_same_bits(chain.path_skews, oracle.path_skews)
    assert_same_bits(chain.positions, oracle.positions)


def test_one_mismatch_instancer_draws_and_builds():
    # keyed draws are made in core and in interleaver, which alone decides
    # which rows become which instance; pi.build_delay_chains is the one
    # PI chain build, stdc.build_chains the one STDC chain build and
    # interleaver._converter, under `converters`, the one converter build;
    # no record is made past its constructor, and none is copied with a
    # field changed: `dataclasses.replace` would keep a plain record's old ring
    calls, new, imports = [], [], []
    package = Path(il.__file__).parent
    for path in sorted(package.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = getattr(stmt, "name", None)  # the top-level function or class
            for node in ast.walk(stmt):
                if isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
                    imports += [(path.stem, alias.name) for alias in node.names]
                if isinstance(node, ast.Call):
                    func = node.func
                    name = getattr(func, "id", None) or getattr(func, "attr", None)
                    calls.append((path.stem, owner, name))
                    if name == "__new__" and getattr(func.value, "id", None) == "object":
                        new.append(path.stem)
    draws = {module for module, _, name in calls
             if name in ("derive_seed", "keyed_normal", "normal_rows")}
    assert draws == {"core", "interleaver"}
    assert [module for module, _, name in calls if name == "DelayChain"] == ["pi"]
    assert [module for module, _, name in calls if name == "InverterChain"] == ["stdc"]
    assert [(module, owner) for module, owner, name in calls if name == "AdcSystem"] == [
        ("interleaver", "_converter")
    ]
    assert new == []
    assert [module for module, name in imports if name == "replace"] == []
    assert [module for module, _, name in calls
            if name == "replace" and module in ("pi", "interleaver")] == []


def test_every_class_is_a_record_or_an_exception():
    # an instance is a plain record of its values, built by one function;
    # the two classes that hold state a caller changes are named here
    exempt = {
        ("config", "_Reader"): "a cursor over one config text's tokens, moved as it reads",
        ("interleaver", "_ToneSwings"): "the Monte Carlo's tone memo, filled and dropped per grid",
    }
    package = Path(il.__file__).parent
    others = []
    for path in sorted(package.glob("*.py")):
        module = importlib.import_module(
            "stochadc" if path.stem == "__init__" else f"stochadc.{path.stem}"
        )
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                cls = getattr(module, node.name, None)
                if not (isinstance(cls, type) and issubclass(cls, (Record, BaseException))):
                    others.append((path.stem, node.name))
    assert others == sorted(exempt)


def test_every_package_export_has_a_caller():
    # each name stochadc/__init__.py imports is read outside its own
    # definition by the package, the benchmark or the README; the delay
    # monitor is the paper's PI measurement method, which only acceptance
    # criterion 10 runs
    package = Path(il.__file__).parent
    root = package.parent.parent
    init = ast.parse((package / "__init__.py").read_text(encoding="utf-8"))
    exports = [alias.asname or alias.name for node in init.body
               if isinstance(node, ast.ImportFrom) for alias in node.names]
    used = set()
    for path in package.glob("*.py"):
        if path.name != "__init__.py":
            for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
                names = {getattr(n, "id", None) or getattr(n, "attr", None)
                         for n in ast.walk(stmt) if isinstance(n, (ast.Name, ast.Attribute))}
                if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                    names.discard(stmt.name)
                used |= names
    texts = [(root / "README.md").read_text(encoding="utf-8")]
    texts += [path.read_text(encoding="utf-8") for path in sorted((root / "perfbench").rglob("*.py"))]
    unused = [name for name in exports if name not in used
              and not any(re.search(rf"\b{name}\b", text) for text in texts)]
    assert unused == ["measure_pi_transfer_uncorrelated"]


@pytest.mark.parametrize(
    "seed", [1.7, 1.0, np.float64(1.0), "1"], ids=["float", "integral-float", "numpy-float", "str"]
)
def test_instances_refuse_a_seed_that_is_not_an_integer(seed):
    # a truncated seed would build another seed's converter or chain
    cfg = RunConfig()
    for build in (
        lambda: converter(cfg, seed),
        lambda: next(il.pi_chains(cfg, [seed])),
    ):
        with pytest.raises(TypeError):
            build()


@pytest.mark.parametrize("seed", [True, False, np.True_], ids=["true", "false", "numpy-true"])
def test_instances_refuse_a_bool_seed_by_name(seed):
    # read as 1 or 0, a bool would build seed 1's or seed 0's instance
    cfg = RunConfig()
    for build in (
        lambda: converter(cfg, seed),
        lambda: next(il.converters(cfg, [2, seed])),
        lambda: next(il.pi_chains(cfg, [seed])),
    ):
        with pytest.raises(TypeError, match=re.escape(f"seed must be an integer, got {seed!r}")):
            build()


@pytest.mark.parametrize(
    "name, draws",
    # a converter draws rows of two lengths: 255 STDC taps, and 32 V2T
    # parameters and PI taps
    [("pi-trim", 1), ("slice-transfer", 2)],
)
def test_montecarlo_draws_once_per_row_length(monkeypatch, name, draws):
    from stochadc import core

    calls = []
    draw = core.keyed_normal

    def counted(seed, indices):
        calls.append(seed)
        return draw(seed, indices)

    monkeypatch.setattr(core, "keyed_normal", counted)
    cfg = RunConfig(
        pi=PiConfig(tap_sigma_rel=0.05, skew_sigma_rel=0.15),
        system=SystemConfig(calibration=dataclasses.replace(
            SystemConfig().calibration, adapt_offsets=False)),
        montecarlo=dataclasses.replace(RunConfig().montecarlo, trials=3, experiment=name),
    )
    experiments.run_experiment("montecarlo", cfg, seed=-1)
    assert len(calls) == draws


def test_design_validation():
    # each design section checks itself on construction, so a config built
    # in Python is held to the rules a YAML file is
    bad_sections = [
        (SystemConfig, {"aggregate_rate": 0.0}),
        (SystemConfig, {"skew_injection": (0.0,)}),
        (SystemConfig, {"latencies": (1, 2)}),
        (SystemConfig, {"latencies": (-1,) + (2,) * 15}),
        (AdcConfig, {"v_threshold": 0.5}),
        (AdcConfig, {"v_threshold": 0.0}),
        (AdcConfig, {"full_scale": 0.0}),
        (AdcConfig, {"unit_delay": -4e-12}),
        (AdcConfig, {"d_offset": 0.0}),
        (AdcConfig, {"divided_ratio": 0}),
        (AdcConfig, {"n_taps": 2.5}),
    ]
    for section, kwargs in bad_sections:
        with pytest.raises(ConfigError):
            section(**kwargs)
    # the checks that span sections run when a config is loaded
    sine = "stimulus:\n  coherent_bin: {j}\n  common_mode: {cm}\ncapture:\n  n_samples: 4096\n"
    for text in (
        sine.format(j=100, cm=0.525),  # even bin: not coherent-odd
        sine.format(j=101, cm=0.45),  # swings below the V2T threshold
        sine.format(j=101, cm=0.7),  # swings above the supply
    ):
        with pytest.raises(ConfigError):
            parse_config(text)
    with pytest.raises(ConfigError, match="fom.entries"):
        _validate(RunConfig(fom=FomConfig(entries=({"label": "x"},))))


def test_negative_launch_lead_rejected_by_design():
    # the pulse window would open before the STDC launch edge
    with pytest.raises(ConfigError, match="launch_lead_taps"):
        AdcConfig(launch_lead_taps=-0.5)
    assert AdcConfig(launch_lead_taps=0.0).launch_lead == 0.0


def test_front_end_bandwidth_attenuates_the_tone():
    # one-pole track-and-hold model: at f = bandwidth the received
    # amplitude drops by 3 dB, which the spectrum sees directly
    fin = 1433 * FS_RATE / 4096
    system = ideal_system()
    flat = SineStimulus(frequency=fin, amplitude=0.4, common_mode=VCM, phase=0.2)
    rolled = SineStimulus(frequency=fin, amplitude=0.4, common_mode=VCM, phase=0.2,
                          bandwidth=fin)
    cap_flat = run_capture(system, flat, 4096)
    cap_roll = run_capture(system, rolled, 4096)
    p_flat = np.abs(np.fft.rfft(aligned_capture(system, cap_flat).codes.astype(float))[1433])
    p_roll = np.abs(np.fft.rfft(aligned_capture(system, cap_roll).codes.astype(float))[1433])
    assert 20 * np.log10(p_flat / p_roll) == pytest.approx(3.01, abs=0.1)


def test_front_end_phase_lag_uses_libm_arctan():
    # the ideal tone (bin 101 of 8192) through a 1.044 GHz front end: numpy's
    # arctan of the ratio reads 0.23193908446126454 under AVX-512 dispatch and
    # libm's 0.23193908446126452, so with numpy the tone depended on the host
    fin = 101 * FS_RATE / 8192
    bandwidth = 1.044e9
    tone = SineStimulus(frequency=fin, amplitude=0.45, common_mode=VCM, bandwidth=bandwidth)
    ratio = fin / bandwidth
    assert math.atan(ratio) == 0.23193908446126452
    t = np.arange(8192) / FS_RATE
    amp = 0.45 / (1.0 + ratio**2) ** (1 / 2.0)
    expected = amp * np.sin(2.0 * np.pi * fin * t + (0.0 - math.atan(ratio))) / 2.0
    assert np.array_equal(tone.half_swing(t).view(np.uint64), expected.view(np.uint64))
