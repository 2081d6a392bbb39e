import numpy as np
import pytest

from stochadc.core import MismatchModel
from stochadc.errors import OverrangeError, UnderrangeError

from oracles import (
    PhaseTiming,
    V2TConfig,
    fold,
    gen_sampling_phases,
    ideal_mismatch,
    v2t_edge_time,
    v2t_pair,
)

PS = 1e-12


def make_cfg(slope=1e9, vth=0.3, vdd=0.9, slope_sigma=0.0, vth_sigma=0.0, t_phi2=0.0):
    return V2TConfig(
        vdd=vdd,
        v_threshold=vth,
        discharge_slope=slope,
        slope_mismatch=MismatchModel(nominal=slope, sigma_rel=slope_sigma, seed=2),
        threshold_mismatch=MismatchModel(nominal=vth, sigma_rel=vth_sigma, seed=3),
        t_phi2=t_phi2,
    )


class TestSamplingPhases:
    def test_worked_example(self):
        timing = PhaseTiming(track=50 * PS, early=5 * PS, late=5 * PS)
        ps = gen_sampling_phases(0.0, timing)
        assert ps.phi1e == pytest.approx(45 * PS, abs=1e-24)
        assert ps.phi1 == pytest.approx(50 * PS, abs=1e-24)
        assert ps.phi2 == pytest.approx(50 * PS, abs=1e-24)
        assert ps.phi2l == pytest.approx(55 * PS, abs=1e-24)

    def test_zero_early_offset_rejected(self):
        with pytest.raises(ValueError):
            PhaseTiming(track=50 * PS, early=0.0, late=5 * PS)

    def test_zero_late_offset_rejected(self):
        with pytest.raises(ValueError):
            PhaseTiming(track=50 * PS, early=5 * PS, late=0.0)

    def test_translation_by_slice_period(self):
        timing = PhaseTiming(track=50 * PS, early=5 * PS, late=5 * PS)
        a = gen_sampling_phases(0.0, timing)
        b = gen_sampling_phases(800 * PS, timing)
        for name in ("phi1e", "phi1", "phi2", "phi2l"):
            assert getattr(b, name) - getattr(a, name) == pytest.approx(800 * PS, abs=1e-22)


class TestEdgeTime:
    def test_threshold_input_fires_at_discharge_start(self):
        cfg = make_cfg(t_phi2=123 * PS)
        assert v2t_edge_time(0.3, cfg) == pytest.approx(123 * PS, abs=1e-24)

    def test_closed_form_example(self):
        cfg = make_cfg(slope=1e9, vth=0.3, t_phi2=0.0)
        assert v2t_edge_time(0.75, cfg) == pytest.approx(450 * PS, rel=1e-12)

    def test_monotone_in_sampled_voltage(self):
        cfg = make_cfg(slope_sigma=0.05, vth_sigma=0.02)
        slope, v_th = cfg.instance_params(0)
        rng = np.random.default_rng(4)
        pairs = rng.uniform(max(v_th, 0.35), 0.9, size=(10**4, 2))
        lo = pairs.min(axis=1)
        hi = pairs.max(axis=1)
        # spot-check the op directly, then the affine definition in bulk
        for v1, v2 in zip(lo[:100], hi[:100]):
            if v1 < v2:
                assert v2t_edge_time(v1, cfg, 0) < v2t_edge_time(v2, cfg, 0)
        t_lo = (lo - v_th) / slope
        t_hi = (hi - v_th) / slope
        distinct = lo < hi
        assert np.all(t_lo[distinct] < t_hi[distinct])

    def test_underrange_is_an_error(self):
        cfg = make_cfg()
        with pytest.raises(UnderrangeError):
            v2t_edge_time(0.25, cfg)

    def test_overrange_is_an_error(self):
        cfg = make_cfg()
        with pytest.raises(OverrangeError):
            v2t_edge_time(0.95, cfg)

    def test_affine_fit_residual_is_zero(self):
        cfg = make_cfg(slope_sigma=0.1, vth_sigma=0.05)
        v = np.linspace(0.4, 0.9, 101)
        t = np.array([v2t_edge_time(x, cfg, 1) for x in v])
        coeffs = np.polyfit(v, t, 1)
        residual = t - np.polyval(coeffs, v)
        assert np.max(np.abs(residual)) < 1e-12 * np.max(np.abs(t))


class TestPair:
    def test_equal_inputs_fire_together(self):
        cfg = make_cfg()
        t_inp, t_inn = v2t_pair(0.5, 0.5, cfg)
        assert t_inp == t_inn

    def test_half_range_example(self):
        cfg = make_cfg(slope=1e9)
        t_inp, t_inn = v2t_pair(0.6375, 0.4125, cfg)  # dv = 0.225 V
        assert t_inp - t_inn == pytest.approx(225 * PS, rel=1e-12)

    def test_swapping_inputs_negates_delta(self):
        cfg = make_cfg()
        t1 = v2t_pair(0.7, 0.45, cfg)
        t2 = v2t_pair(0.45, 0.7, cfg)
        assert (t1[0] - t1[1]) == pytest.approx(-(t2[0] - t2[1]), rel=1e-12)


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
    cfg = make_cfg(slope=1e9)
    rng = np.random.default_rng(8)
    for _ in range(200):
        v_p, v_n = rng.uniform(0.35, 0.85, size=2)
        pulse = fold(*v2t_pair(v_p, v_n, cfg), 100 * PS)
        expected = abs(v_p - v_n) / 1e9
        assert pulse.width - 100 * PS == pytest.approx(expected, rel=1e-12, abs=1e-22)


def test_config_validation():
    with pytest.raises(ValueError):
        V2TConfig(
            vdd=0.9,
            v_threshold=0.5,  # not below vdd/2
            discharge_slope=1e9,
            slope_mismatch=ideal_mismatch(1e9),
            threshold_mismatch=ideal_mismatch(0.5),
        )
