import numpy as np
import pytest

from stochadc.core import ClockSpec
from stochadc.errors import CoherenceError, CorrelatedSamplerError, PreconditionError
from stochadc.metrics import (
    check_uncorrelated,
    code_density_linearity,
    coherent_bin,
    dominant_family_spur_db,
    measure_edge_distance,
    measure_pi_transfer_uncorrelated,
    sndr_enob,
    uncorrelated_sampler,
    walden_fom,
)
from stochadc.pi import make_pi_chain, pi_sweep

from oracles import ideal_quantizer_codes

PS = 1e-12
FS = 20e9


def ideal_hist(n_samples=10**6, n_codes=255, amplitude=1.005):
    v = np.linspace(-amplitude, amplitude, n_samples)
    codes = np.clip(np.rint(v * 127), -127, 127).astype(int)
    return np.bincount(codes + 127, minlength=n_codes)[:n_codes]


class TestLinearity:
    def test_ideal_ramp_is_flat(self):
        report = code_density_linearity(ideal_hist(), "ramp")
        assert report.dnl_max < 0.02
        assert report.inl_max < 0.02
        assert report.missing_codes == []

    def test_inl_endpoints_are_zero(self):
        rng = np.random.default_rng(0)
        hist = rng.integers(500, 1500, size=255)
        report = code_density_linearity(hist, "ramp")
        assert report.inl[0] == pytest.approx(0.0, abs=1e-12)
        assert report.inl[-1] == pytest.approx(0.0, abs=1e-12)

    def test_missing_code_reads_minus_one(self):
        hist = ideal_hist()
        hist[100] = 0
        report = code_density_linearity(hist, "ramp")
        assert 100 in report.missing_codes
        idx = int(np.flatnonzero(report.codes == 100)[0])
        assert report.dnl[idx] == pytest.approx(-1.0, abs=0.02)

    def test_sine_density_correction(self):
        # low-discrepancy phase fill: histogram error is O(log n / n), so any
        # residual DNL/INL is the arcsine-correction itself, not shot noise
        n = 2 * 10**6
        phase = 2 * np.pi * ((np.arange(n) * 0.6180339887498949 + 0.123) % 1.0)
        codes = np.clip(np.rint(129.5 * np.sin(phase)), -127, 127).astype(int)
        hist = np.bincount(codes + 127, minlength=255)[:255]
        report = code_density_linearity(hist, "sine")
        assert report.dnl_max < 0.02
        assert report.inl_max < 0.02

    def test_undersampled_histogram_rejected(self):
        with pytest.raises(PreconditionError):
            code_density_linearity(np.ones(255, dtype=int), "ramp")

    def test_unknown_stimulus_rejected(self):
        with pytest.raises(ValueError):
            code_density_linearity(ideal_hist(), "square")


class TestSpectrum:
    def test_ideal_eight_bit_quantizer_enob(self):
        codes = ideal_quantizer_codes(2**13, 101, phase=0.3)
        report = sndr_enob(codes, FS, 101 * FS / 2**13)
        assert 7.85 <= report.enob <= 8.05

    def test_ideal_matches_quantization_theory(self):
        codes = ideal_quantizer_codes(2**13, 233, phase=1.1)
        report = sndr_enob(codes, FS, 233 * FS / 2**13)
        assert report.sndr_db == pytest.approx(6.02 * 8 + 1.76, abs=0.2)

    def test_half_amplitude_costs_six_db(self):
        full = sndr_enob(ideal_quantizer_codes(2**13, 101, phase=0.4), FS, 101 * FS / 2**13)
        half = sndr_enob(
            ideal_quantizer_codes(2**13, 101, amplitude_rel=0.5, phase=0.4),
            FS,
            101 * FS / 2**13,
        )
        assert full.sndr_db - half.sndr_db == pytest.approx(6.0, abs=0.5)

    def test_enob_relation_is_structural(self):
        codes = ideal_quantizer_codes(2**12, 11)
        report = sndr_enob(codes, FS, 11 * FS / 2**12)
        assert report.enob == (report.sndr_db - 1.76) / 6.02

    def test_non_coherent_tone_rejected_with_suggestion(self):
        codes = ideal_quantizer_codes(2**12, 11)
        with pytest.raises(CoherenceError, match="nearest coherent"):
            sndr_enob(codes, FS, 11.4 * FS / 2**12)

    def test_even_bin_rejected(self):
        with pytest.raises(CoherenceError):
            coherent_bin(10 * FS / 2**12, FS, 2**12)

    def test_short_or_odd_length_rejected(self):
        with pytest.raises(CoherenceError):
            coherent_bin(FS / 100, FS, 1000)

    def test_parseval_consistency(self):
        codes = ideal_quantizer_codes(2**12, 77, phase=0.9).astype(float)
        spectrum = np.fft.rfft(codes)
        power = np.abs(spectrum) ** 2
        power[1:-1] *= 2.0
        total_freq = power.sum() / codes.size**2
        total_time = np.mean(codes**2)
        assert total_freq == pytest.approx(total_time, rel=1e-9)

    def test_spur_list_sorted_and_family_selected(self):
        n = 2**12
        t = np.arange(n)
        x = 100 * np.sin(2 * np.pi * 101 * t / n)
        x += 3 * np.sin(2 * np.pi * (101 + n // 16) * t / n)  # interleave image
        report = sndr_enob(np.rint(x), FS, 101 * FS / n)
        powers = [db for _, db in report.spur_list]
        assert powers == sorted(powers, reverse=True)
        assert report.spur_list[0][0] in (101 + n // 16, n // 2 - (101 + n // 16) % (n // 2))
        assert dominant_family_spur_db(report) == pytest.approx(
            20 * np.log10(3 / 100), abs=0.1
        )


class TestDelayMonitor:
    def test_known_step_estimated_within_quarter_ps(self):
        clock = ClockSpec(period=200 * PS)
        phases = pi_sweep(make_pi_chain(12.5 * PS, clock.period))[:6]
        sampler = uncorrelated_sampler(clock, phase0=3.1 * PS)
        est = measure_pi_transfer_uncorrelated(phases, 200 * PS, sampler, 10**6, anchor=12.5 * PS)
        steps = np.diff(est)
        assert np.max(np.abs(steps - 0.78125 * PS)) < 0.25 * PS

    def test_repeatability_within_statistical_bound(self):
        clock = ClockSpec(period=200 * PS)
        n = 10**5
        p = 2 * 40 * PS / (200 * PS)
        sigma = (200 * PS / 2) * np.sqrt(p * (1 - p) / n)
        a = measure_edge_distance(0.0, 40 * PS, 200 * PS, uncorrelated_sampler(clock, phase0=0.7 * PS), n)
        b = measure_edge_distance(0.0, 40 * PS, 200 * PS, uncorrelated_sampler(clock, phase0=11.3 * PS), n)
        assert abs(a - b) < 3 * sigma * np.sqrt(2)

    def test_estimator_unbiased_over_seeds(self):
        clock = ClockSpec(period=200 * PS)
        rng = np.random.default_rng(7)
        true_delay = 17.3 * PS
        n = 10**5
        estimates = [
            measure_edge_distance(
                0.0, true_delay, 200 * PS,
                uncorrelated_sampler(clock, phase0=float(rng.uniform(0, 200 * PS))),
                n,
            )
            for _ in range(50)
        ]
        p = 2 * true_delay / (200 * PS)
        sigma = (200 * PS / 2) * np.sqrt(p * (1 - p) / n)
        assert abs(np.mean(estimates) - true_delay) < sigma / np.sqrt(50) + 0.002 * PS

    def test_full_sweep_monotone_post_trim(self):
        clock = ClockSpec(period=200 * PS)
        from stochadc.pi import trim_paths

        chain = make_pi_chain(
            12.5 * PS, clock.period, tap_sigma_rel=0.05, skew_sigma=0.15 * 12.5 * PS, seed=4
        )
        phases = pi_sweep(trim_paths(chain, 64).chain)
        sampler = uncorrelated_sampler(clock, phase0=1.9 * PS)
        est = measure_pi_transfer_uncorrelated(phases, 200 * PS, sampler, 10**5, anchor=12.5 * PS)
        assert np.max(np.abs(est - phases)) < 0.2 * PS
        assert np.all(np.diff(est) > -0.1 * PS)

    def test_correlated_sampler_rejected(self):
        with pytest.raises(CorrelatedSamplerError):
            check_uncorrelated(100 * PS, 200 * PS)
        with pytest.raises(CorrelatedSamplerError):
            measure_edge_distance(0.0, 1 * PS, 200 * PS, ClockSpec(period=400 * PS), 100)
        check_uncorrelated(200 * PS * 100003 / 99991, 200 * PS)  # passes


class TestWaldenFom:
    def test_full_rate_reference_point(self):
        assert walden_fom(175e-3, 5.6, 20e9) * 1e12 == pytest.approx(0.18, abs=0.005)

    def test_slice_reference_point(self):
        assert walden_fom(8.6e-3, 5.9, 1.25e9) * 1e12 == pytest.approx(0.12, abs=0.005)

    def test_unit_sanity(self):
        assert walden_fom(1.0, 0.0, 1.0) == 1.0

    def test_nonpositive_inputs_rejected(self):
        with pytest.raises(ValueError):
            walden_fom(-1.0, 5.0, 1e9)
        with pytest.raises(ValueError):
            walden_fom(1.0, 5.0, 0.0)
