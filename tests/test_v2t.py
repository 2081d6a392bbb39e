import numpy as np
import pytest

from stochadc.errors import OverrangeError, UnderrangeError

from oracles import KeyedMismatch, fold, v2t_edge_time, v2t_pair

PS = 1e-12
VTH, VDD = 0.3, 0.9


def mismatched(slope_sigma, vth_sigma, instance):
    """(slope, threshold) of one converter instance around 1e9 V/s and VTH."""
    slope = KeyedMismatch(nominal=1e9, sigma_rel=slope_sigma, seed=2).sample_at(instance)
    vth = KeyedMismatch(nominal=VTH, sigma_rel=vth_sigma, seed=3).sample_at(instance)
    return float(slope), float(vth)


def pair(v_p, v_n, slope=1e9):
    """Edge times of a matched pair."""
    return v2t_pair(v_p, v_n, (slope, slope), (VTH, VTH), VDD)


class TestEdgeTime:
    def test_threshold_input_fires_at_discharge_start(self):
        assert v2t_edge_time(0.3, 1e9, VTH, VDD, t_phi2=123 * PS) == pytest.approx(
            123 * PS, abs=1e-24
        )

    def test_closed_form_example(self):
        assert v2t_edge_time(0.75, 1e9, 0.3, VDD) == pytest.approx(450 * PS, rel=1e-12)

    def test_monotone_in_sampled_voltage(self):
        slope, v_th = mismatched(0.05, 0.02, 0)
        rng = np.random.default_rng(4)
        pairs = rng.uniform(max(v_th, 0.35), 0.9, size=(10**4, 2))
        lo = pairs.min(axis=1)
        hi = pairs.max(axis=1)
        # spot-check the op directly, then the affine definition in bulk
        for v1, v2 in zip(lo[:100], hi[:100]):
            if v1 < v2:
                assert v2t_edge_time(v1, slope, v_th, VDD) < v2t_edge_time(v2, slope, v_th, VDD)
        t_lo = (lo - v_th) / slope
        t_hi = (hi - v_th) / slope
        distinct = lo < hi
        assert np.all(t_lo[distinct] < t_hi[distinct])

    def test_underrange_is_an_error(self):
        with pytest.raises(UnderrangeError):
            v2t_edge_time(0.25, 1e9, VTH, VDD)

    def test_overrange_is_an_error(self):
        with pytest.raises(OverrangeError):
            v2t_edge_time(0.95, 1e9, VTH, VDD)

    def test_affine_fit_residual_is_zero(self):
        slope, v_th = mismatched(0.1, 0.05, 1)
        v = np.linspace(0.4, 0.9, 101)
        t = np.array([v2t_edge_time(x, slope, v_th, VDD) for x in v])
        coeffs = np.polyfit(v, t, 1)
        residual = t - np.polyval(coeffs, v)
        assert np.max(np.abs(residual)) < 1e-12 * np.max(np.abs(t))


class TestPair:
    def test_equal_inputs_fire_together(self):
        t_inp, t_inn = pair(0.5, 0.5)
        assert t_inp == t_inn

    def test_half_range_example(self):
        t_inp, t_inn = pair(0.6375, 0.4125)  # dv = 0.225 V
        assert t_inp - t_inn == pytest.approx(225 * PS, rel=1e-12)

    def test_swapping_inputs_negates_delta(self):
        t1 = pair(0.7, 0.45)
        t2 = pair(0.45, 0.7)
        assert (t1[0] - t1[1]) == pytest.approx(-(t2[0] - t2[1]), rel=1e-12)

    def test_each_side_has_its_own_slope_and_threshold(self):
        slopes, thresholds = (1e9, 2e9), (0.3, 0.35)
        t_inp, t_inn = v2t_pair(0.75, 0.75, slopes, thresholds, VDD)
        assert t_inp == pytest.approx(450 * PS, rel=1e-12)
        assert t_inn == pytest.approx(200 * PS, rel=1e-12)
        # 0.32 V clears the p side's threshold but not the n side's
        v2t_pair(0.32, 0.5, slopes, thresholds, VDD)
        with pytest.raises(UnderrangeError):
            v2t_pair(0.5, 0.32, slopes, thresholds, VDD)


class TestFold:
    def test_tie_has_minimum_width_and_positive_sign_bit_clear(self):
        pulse = fold(1e-9, 1e-9, 100 * PS)
        assert pulse.sign is False
        assert pulse.width == pytest.approx(100 * PS, abs=1e-24)

    def test_positive_delta(self):
        pulse = fold(1e-9 + 225 * PS, 1e-9, 100 * PS)
        assert pulse.sign is False
        assert pulse.width == pytest.approx(325 * PS, rel=1e-12)

    def test_fold_symmetry(self):
        a, b = 1e-9, 1.3e-9
        p1 = fold(a, b, 100 * PS)
        p2 = fold(b, a, 100 * PS)
        assert p1.width == p2.width
        assert p1.sign != p2.sign

    def test_nonpositive_offset_rejected(self):
        with pytest.raises(ValueError):
            fold(0.0, 1e-9, 0.0)


def test_end_to_end_time_encoding_identity():
    rng = np.random.default_rng(8)
    for _ in range(200):
        v_p, v_n = rng.uniform(0.35, 0.85, size=2)
        pulse = fold(*pair(v_p, v_n), 100 * PS)
        expected = abs(v_p - v_n) / 1e9
        assert pulse.width - 100 * PS == pytest.approx(expected, rel=1e-12, abs=1e-22)
