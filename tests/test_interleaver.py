import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stochadc import experiments
from stochadc.config import (
    GOLDEN_FRACTION,
    AdcConfig,
    FomConfig,
    PiConfig,
    RunConfig,
    SystemConfig,
    _validate,
    config_hash,
    parse_config,
)
from stochadc.core import derive_seed
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
    AdcSystem,
    AlignedStream,
    Lut,
    adapt_offsets,
    align_outputs,
    aligned_capture,
    apply_lut,
    build_lut,
    calibrate_skew,
    code_histogram,
    convert_pair_arrays,
    corrected_pi_codes,
    pi_chain,
    retime_streams,
    run_capture,
    schedule_sampling,
    slice_transfer,
)
from stochadc.experiments import CalibrationState
from stochadc.metrics import code_density_linearity
from stochadc.stimulus import SineStimulus

from oracles import identity_lut, rowwise_adc_draws, rowwise_jitter, rowwise_pi_chain

PS = 1e-12
FS_RATE = 20e9
VCM = 0.525


def ideal_system(seed=1, **system):
    return AdcSystem(RunConfig(system=SystemConfig(**system)), master_seed=seed)


def mismatched_system(seed, **adc):
    return AdcSystem(RunConfig(adc=AdcConfig(**adc)), master_seed=seed)


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
    (beyond the 50 ps pitch), optional jitter and per-slice latencies."""
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
            latencies=tuple(draw(st.lists(st.integers(0, 5), min_size=16, max_size=16))),
        ),
    )
    return AdcSystem(cfg, master_seed=draw(st.integers(0, 2**32)))


class TestSchedule:
    def test_ideal_grid(self):
        system = ideal_system()
        instants = schedule_sampling(system, system.nominal_pi_codes(), 8)
        flat = np.sort(instants.ravel())
        expected = np.arange(flat.size) * 50 * PS
        assert np.allclose(flat, expected, atol=1e-22)
        # slice s owns grid phase s
        assert np.allclose(instants[:, 0], np.arange(16) * 50 * PS, atol=1e-22)

    def test_group_skew_shifts_every_fourth_instant(self):
        base = ideal_system()
        skewed = ideal_system(skew_injection=(0.0, 5 * PS, 0.0, 0.0))
        a = schedule_sampling(base, base.nominal_pi_codes(), 4)
        b = schedule_sampling(skewed, skewed.nominal_pi_codes(), 4)
        delta = b - a
        group_of_slice = np.arange(16) % 4
        assert np.allclose(delta[group_of_slice == 1], 5 * PS, atol=1e-22)
        assert np.allclose(delta[group_of_slice != 1], 0.0, atol=1e-22)

    def test_pi_code_step_shifts_group_by_one_step(self):
        system = ideal_system()
        codes = system.nominal_pi_codes()
        a = schedule_sampling(system, codes, 2)
        codes2 = codes.copy()
        codes2[2] += 1
        b = schedule_sampling(system, codes2, 2)
        delta = b - a
        group_of_slice = np.arange(16) % 4
        assert np.allclose(delta[group_of_slice == 2], 0.78125 * PS, rtol=1e-9)
        assert np.allclose(delta[group_of_slice != 2], 0.0, atol=1e-22)

    def test_one_pi_lookup_per_group(self, monkeypatch):
        import stochadc.interleaver as il

        calls = []
        real = il.pi_output

        def counted(code, *args, **kwargs):
            calls.append(code)
            return real(code, *args, **kwargs)

        monkeypatch.setattr(il, "pi_output", counted)
        system = ideal_system()
        schedule_sampling(system, system.nominal_pi_codes(), 3)
        assert calls == system.nominal_pi_codes().tolist()

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(mismatched_systems(), st.lists(st.integers(0, 255), min_size=4, max_size=4))
    def test_matches_per_slice_loop_bit_for_bit(self, system, codes):
        cfg = system.config
        system = AdcSystem(
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
        assert (raw.dtype, sign.dtype, code.dtype) == (np.int64, np.bool_, np.int64)

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
            luts = [Lut(np.sort(rng.integers(-127, 128, 256))) for _ in range(16)]
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
        a = run_capture(AdcSystem(cfg, 7), tone, 1024)
        b = run_capture(AdcSystem(cfg, 7), tone, 1024)
        assert np.array_equal(a.codes, b.codes)
        assert np.array_equal(a.instants, b.instants)


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
            luts = [Lut(np.sort(rng.integers(-127, 128, 256))) for _ in range(16)]
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
        mapped = apply_lut(lut, reachable)
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
        corrected = apply_lut(lut, codes)
        pre = code_density_linearity(code_histogram(codes), "sine")
        post = code_density_linearity(code_histogram(corrected), "sine")
        assert pre.inl_max > 2.0
        assert post.inl_max <= pre.inl_max / 4.0

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
        mapping = build_lut(hist, amplitude_code, min_hits).mapping
        assert mapping.shape == (256,)
        assert np.all(np.diff(mapping) >= 0)
        assert mapping.min() >= -127 and mapping.max() <= 127

    def test_mapping_monotone_enforced(self):
        with pytest.raises(ValueError):
            Lut(mapping=np.concatenate([[0], np.arange(127, -128, -1)]))

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
            lut = build_lut(code_histogram(capture.codes[4]), amplitude_code, min_hits=2)
            maps.append(lut.mapping)
        assert np.max(np.abs(maps[0] - maps[1])) <= 1

    def test_identity_lut_is_identity(self):
        codes = np.arange(-127, 128)
        assert np.array_equal(apply_lut(identity_lut(), codes), codes)


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
            system, tone, 4096, pi_codes=system.nominal_pi_codes() + corr
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

    def test_corrected_pi_codes_bounds(self):
        nominal = np.array([32, 96, 160, 224])
        assert corrected_pi_codes(nominal, [-32, 0, 0, 31]).tolist() == [0, 96, 160, 255]
        with pytest.raises(PreconditionError, match=r"group 3 for PI code 256, beyond the bound 255"):
            corrected_pi_codes(nominal, [0, 0, 0, 32])
        with pytest.raises(PreconditionError, match=r"group 1 for PI code -1, beyond the bound 0"):
            corrected_pi_codes(nominal, [0, -97, 0, 0])

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
        system = AdcSystem(dataclasses.replace(system.config, adc=adc), system.master_seed)
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


def test_calibration_state_roundtrip(tmp_path, monkeypatch):
    # the calibrate experiment writes the state through the artifact writer,
    # and the reader gives back every field
    cfg = RunConfig()
    state = CalibrationState(
        config_hash=config_hash(cfg),
        master_seed=5,
        offset_codes=np.full(16, 25),
        luts=[identity_lut() for _ in range(16)],
        pi_corrections=np.array([0, -2, 3, 1]),
    )
    monkeypatch.setattr(experiments, "compute_calibration", lambda *args: state)
    experiments.run_experiment("calibrate", cfg, out_dir=tmp_path, seed=5)
    back = CalibrationState.from_json((tmp_path / "calibration.json").read_text())
    assert (back.config_hash, back.master_seed) == (state.config_hash, 5)
    assert np.array_equal(back.offset_codes, state.offset_codes)
    assert np.array_equal(back.pi_corrections, state.pi_corrections)
    assert all(
        np.array_equal(a.mapping, b.mapping) for a, b in zip(back.luts, state.luts)
    )


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
    system = AdcSystem(cfg, seed)
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
    # time); each trial's instance must equal its single-seed build, for
    # repeated seeds, negative ones and ones that wrap modulo 2^64 too
    cfg = RunConfig(
        adc=AdcConfig(tap_sigma_systematic=sigma, tap_sigma_random=sigma, slope_sigma=sigma / 5,
                      threshold_sigma=sigma / 5),
        pi=PiConfig(tap_sigma_rel=sigma, skew_sigma_rel=pi_skew),
    )
    period = cfg.system.pi_clock_period
    def instances(name):
        chunks = list(experiments._instance_chunks(name, cfg, seeds))
        assert [s for chunk, _ in chunks for s in chunk] == seeds
        return [normals for _, rows in chunks for normals in rows]

    with mock.patch.object(experiments, "DRAW_NORMALS", draw_normals):
        converters, chains = instances("adc-sine"), instances("pi-trim")
    assert len(converters) == len(chains) == len(seeds)
    for seed, normals, pi_normals in zip(seeds, converters, chains):
        got, want = AdcSystem(cfg, seed, normals), AdcSystem(cfg, seed)
        for a, b in zip(got.chains, want.chains):
            assert_same_bits(a.tap_delays, b.tap_delays)
        for name in ("slope_p", "slope_n", "vth_p", "vth_n"):
            assert_same_bits(getattr(got, name), getattr(want, name))
        for a, b in zip(got.pi_chains, want.pi_chains):
            assert_same_bits(a.tap_delays, b.tap_delays)
            assert_same_bits(a.path_skews, b.path_skews)
            assert_same_bits(a.positions, b.positions)
        chain = pi_chain(cfg, *pi_normals)
        oracle = rowwise_pi_chain(
            cfg.pi.unit_delay, period, cfg.pi.n_taps, cfg.pi.tap_sigma_rel,
            cfg.pi.skew_sigma, derive_seed(seed, "pi.instance", 0),
        )
        assert_same_bits(chain.tap_delays, oracle.tap_delays)
        assert_same_bits(chain.path_skews, oracle.path_skews)
        assert_same_bits(chain.positions, oracle.positions)


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
    [(_, (normals,))] = experiments._instance_chunks("pi-sweep", cfg, [seed])
    chain = pi_chain(cfg, *normals)
    pi = cfg.pi
    oracle = rowwise_pi_chain(
        pi.unit_delay, cfg.system.pi_clock_period, pi.n_taps, pi.tap_sigma_rel,
        pi.skew_sigma, derive_seed(seed, "pi.instance", 0),
    )
    skews = oracle.path_skews.copy()
    for path, amount in injected:
        skews[path - 1] += amount * pi.unit_delay
    oracle = dataclasses.replace(oracle, path_skews=skews)
    assert_same_bits(chain.tap_delays, oracle.tap_delays)
    assert_same_bits(chain.path_skews, oracle.path_skews)
    assert_same_bits(chain.positions, oracle.positions)


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
