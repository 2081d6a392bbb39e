from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from stochadc.core import CLAMP_FLOOR, keyed_uniform
from stochadc.errors import ChainUnderspanError, TrimConvergenceError
from stochadc.pi import (
    BLEND_STEPS,
    PI_CODES,
    DelayChain,
    code_table,
    inverted_segments,
    make_pi_chain,
    pi_output,
    pi_sweep,
    trim_paths,
)

from oracles import (
    EVEN_TO_ODD,
    ODD_TO_EVEN,
    apply_boundary_mixers,
    blend,
    detect_blender_inversion,
    encode,
    propagate_chain,
    ring_positions,
    rowwise_pi_chain,
    segment_endpoints,
    single_code_output,
)

PS = 1e-12
TD = 12.5 * PS
PERIOD = 200 * PS


def ideal_chain():
    return make_pi_chain(TD, PERIOD)


def skewed_chain(path_1based, amount_td):
    chain = ideal_chain()
    skews = chain.path_skews.copy()
    skews[path_1based - 1] += amount_td * TD
    return replace(chain, path_skews=skews)


class TestPropagate:
    def test_prefix_sums(self):
        taps, mux = propagate_chain(ideal_chain(), 0.0)
        assert np.allclose(taps, np.arange(1, 33) * TD, rtol=1e-12)
        assert np.array_equal(taps, mux)  # zero skew: identity

    def test_skew_and_trim_add_on_mux_inputs(self):
        chain = skewed_chain(5, 1.0)
        taps, mux = propagate_chain(chain, 0.0, np.full(32, 0.1 * TD))
        assert mux[4] - taps[4] == pytest.approx(1.1 * TD, rel=1e-12)
        assert mux[0] - taps[0] == pytest.approx(0.1 * TD, rel=1e-12)

    def test_determinism(self):
        a = make_pi_chain(TD, PERIOD, tap_sigma_rel=0.05, skew_sigma=0.1 * TD, seed=3)
        b = make_pi_chain(TD, PERIOD, tap_sigma_rel=0.05, skew_sigma=0.1 * TD, seed=3)
        assert np.array_equal(a.tap_delays, b.tap_delays)
        assert np.array_equal(a.path_skews, b.path_skews)


class TestArbitrate:
    def test_nominal_sizing(self):
        assert ideal_chain().n_delays == 16

    def test_short_period_rounds_up(self):
        assert make_pi_chain(TD, 195 * PS).n_delays == 16

    def test_underspan_error(self):
        with pytest.raises(ChainUnderspanError):
            make_pi_chain(TD, 410 * PS)

    def test_arbiter_consistency_across_seeds(self):
        for seed in range(50):
            chain = make_pi_chain(TD, PERIOD, tap_sigma_rel=0.05, seed=seed)
            n = chain.n_delays
            guard = 1e-9 * PERIOD
            accumulated = np.cumsum(chain.tap_delays)
            assert accumulated[n - 1] >= PERIOD - guard
            if n > 1:
                assert accumulated[n - 2] < PERIOD


class TestBoundaryMixers:
    def test_coincident_boundary_edge_unchanged(self):
        chain = ideal_chain()
        taps, _ = propagate_chain(chain, 0.0)
        n = chain.n_delays
        phases = apply_boundary_mixers(taps, 200 * PS, n, 200 * PS)
        assert phases[15] == pytest.approx(200 * PS, abs=1e-24)

    def test_late_boundary_tap_blends_halfway(self):
        taps = np.arange(1, 33) * TD
        taps[15] += 3 * PS  # boundary tap lands 3 ps after the next edge
        n = ideal_chain().n_delays
        phases = apply_boundary_mixers(taps, 200 * PS, n, 200 * PS)
        assert phases[15] - 200 * PS == pytest.approx(1.5 * PS, rel=1e-12)

    def test_phase_set_covers_one_period_monotonically(self):
        chain = ideal_chain()
        taps, _ = propagate_chain(chain, 0.0)
        n = chain.n_delays
        phases = apply_boundary_mixers(taps, 200 * PS, n, 200 * PS)
        assert np.all(np.diff(np.sort(phases)) >= -1e-24)
        assert phases.max() <= 200 * PS + 1e-24


class TestEncoder:
    def test_origin_mapping(self):
        n = ideal_chain().n_delays
        sel = encode(0, n)
        assert (sel.sel_odd, sel.sel_even, sel.blend_k, sel.direction) == (
            1, 2, 0, ODD_TO_EVEN,
        )

    def test_wraparound_adjacency(self):
        chain = ideal_chain()
        n = chain.n_delays
        phases = pi_sweep(chain)
        sel = encode(255, n)
        assert sel.blend_k == 15
        # one blend step below the code-0 phase one period later
        assert phases[0] + 200 * PS - phases[255] == pytest.approx(
            200 * PS / 256, rel=1e-9
        )

    def test_at_most_one_select_changes_per_code(self):
        # blend_k wraps 15 -> 0 at segment boundaries by construction; the
        # glitch-safety property is that the two mux selects never both move
        n = ideal_chain().n_delays
        prev = encode(0, n)
        for code in range(1, 256):
            cur = encode(code, n)
            changed = (prev.sel_odd != cur.sel_odd) + (prev.sel_even != cur.sel_even)
            assert changed <= 1
            if changed:
                assert cur.blend_k == 0 and prev.blend_k == 15
            prev = cur

    def test_leapfrog_alternates_direction(self):
        n = ideal_chain().n_delays
        directions = [encode(s << 4, n).direction for s in range(16)]
        assert directions[0::2] == [ODD_TO_EVEN] * 8
        assert directions[1::2] == [EVEN_TO_ODD] * 8

    def test_code_out_of_range(self):
        n = ideal_chain().n_delays
        with pytest.raises(ValueError):
            encode(256, n)


class TestBlend:
    def test_k_zero_returns_first_input_bitwise(self):
        t_a = 103.7e-12
        assert blend(t_a, 200e-12, 0) == t_a

    def test_midpoint(self):
        assert blend(0.0, 12.5 * PS, 8) == pytest.approx(6.25 * PS, rel=1e-12)

    def test_interpolation_example(self):
        assert blend(100 * PS, 112.5 * PS, 5) == pytest.approx(
            103.90625 * PS, rel=1e-12
        )

    def test_step_out_of_range(self):
        with pytest.raises(ValueError):
            blend(0.0, 1.0, 16)


class TestOutput:
    def test_uniform_steps_at_nominal_sizing(self):
        phases = pi_sweep(ideal_chain())
        steps = np.diff(phases)
        assert np.all(np.abs(steps - 0.78125 * PS) < 1e-18)

    def test_code_out_of_range(self):
        # a negative code must not read the code table from its end
        for code in (-1, -256, PI_CODES):
            with pytest.raises(ValueError):
                pi_output(code, ideal_chain())

    def test_full_sweep_strictly_monotone(self):
        phases = pi_sweep(ideal_chain())
        assert np.all(np.diff(phases) > 0)

    def test_off_nominal_period_remains_monotone(self):
        # proportional remapping of 16 logical onto N physical segments
        for period in (150 * PS, 175 * PS, 250 * PS, 325 * PS):
            phases = pi_sweep(make_pi_chain(TD, period))
            assert np.all(np.diff(phases) >= -1e-24), f"period {period}"


class TestDetection:
    def test_expected_order_passes(self):
        assert detect_blender_inversion(1.0, 2.0, ODD_TO_EVEN) is False
        assert detect_blender_inversion(2.0, 1.0, EVEN_TO_ODD) is False

    def test_contradiction_fires(self):
        assert detect_blender_inversion(2.0, 1.0, ODD_TO_EVEN) is True
        assert detect_blender_inversion(1.0, 2.0, EVEN_TO_ODD) is True

    def test_tie_fires(self):
        assert detect_blender_inversion(1.0, 1.0, ODD_TO_EVEN) is True

    def test_injected_skew_fires_on_segments_using_that_path(self):
        chain = skewed_chain(7, 1.5)
        firing = inverted_segments(chain)
        assert firing, "expected the skewed path to fire the detector"
        assert all(7 in seg for seg in firing)


class TestTrim:
    def test_ideal_chain_converges_immediately_with_zero_trim(self):
        result = trim_paths(ideal_chain(), 64)
        assert result.iterations == 1
        assert result.initial_inversions == 0
        assert np.all(result.adjustments == 0)

    def test_injected_skew_recovery(self):
        chain = skewed_chain(7, 1.5)
        result = trim_paths(chain, 64)
        assert result.initial_inversions >= 1
        phases = pi_sweep(result.chain)
        assert np.all(np.diff(phases) > 0)
        # the skewed path receives the largest (negative) correction
        assert int(np.argmin(result.adjustments)) == 6
        assert result.adjustments[6] < 0

    def test_monte_carlo_monotone_after_trim(self):
        for seed in range(20):
            chain = make_pi_chain(
                TD, PERIOD, tap_sigma_rel=0.05, skew_sigma=0.15 * TD, seed=seed
            )
            result = trim_paths(chain, 64)
            phases = pi_sweep(result.chain)
            assert np.all(np.diff(phases) > 0), f"seed {seed}"

    def test_unconvergent_trim_raises(self):
        chain = skewed_chain(7, 1.5)
        with pytest.raises(TrimConvergenceError):
            trim_paths(chain, max_iters=1)


def test_ring_positions_strictly_increasing_for_ideal_chain():
    chain = ideal_chain()
    positions, n = chain.positions, chain.n_delays
    assert positions.size == n + 1
    assert np.all(np.diff(positions) > 0)


def test_segment_endpoints_share_one_tap_between_neighbors():
    n = ideal_chain().n_delays
    prev = segment_endpoints(encode(0, n))
    for s in range(1, 16):
        cur = segment_endpoints(encode(s << 4, n))
        assert prev[1] == cur[0]
        prev = cur


# Post-trim step distribution under the default mismatch point (tap 5%,
# route skew 0.15 unit delays): mean stays near nominal, individual steps
# spread well beyond it.  Values produced by this code base, locked per seed.
STEP_DISTRIBUTION_LOCK = [
    (0, 0.7885006789395884, 0.49878986621212856, 1.2030738168366575),
    (1, 0.8014161841689988, 0.5101142390058324, 1.1635131318209284),
    (2, 0.824104751252328, 0.5183626632241738, 2.0332747868414454),
]


def test_step_distribution_regression_locked():
    for seed, mean_ps, min_ps, max_ps in STEP_DISTRIBUTION_LOCK:
        chain = make_pi_chain(TD, PERIOD, tap_sigma_rel=0.05, skew_sigma=0.15 * TD, seed=seed)
        steps = np.diff(pi_sweep(trim_paths(chain, 64).chain)) / PS
        assert steps.mean() == pytest.approx(mean_ps, abs=1e-9)
        assert steps.min() == pytest.approx(min_ps, abs=1e-9)
        assert steps.max() == pytest.approx(max_ps, abs=1e-9)
        # mean step tracks the nominal resolution even when single steps vary
        assert abs(steps.mean() - 0.78125) / 0.78125 < 0.06


def per_code_inverted_segments(chain, adjustments=None):
    """The per-code detector loop `inverted_segments` replaced, on the oracle's
    ring at the chain's period: the oracle."""
    positions, n = ring_positions(chain, chain.period, adjustments)
    firing = []
    seen = set()
    for code in range(PI_CODES):
        sel = encode(code, n)
        start_tap, end_tap = segment_endpoints(sel)
        if (start_tap, end_tap) in seen:
            continue
        seen.add((start_tap, end_tap))
        t_odd = positions[sel.sel_odd - 1]
        t_even = positions[sel.sel_even - 1]
        if detect_blender_inversion(t_odd, t_even, sel.direction):
            firing.append((start_tap, end_tap))
    return firing


@pytest.mark.parametrize("n", [1, 2, 7, 15, 16, 17, 31, 32])
def test_code_table_matches_encoder(n):
    table = code_table(n)
    for code in range(PI_CODES):
        sel = encode(code, n)
        assert (table.start_tap[code], table.start_tap[code] + 1) == segment_endpoints(sel)
        assert table.blend_k[code] == sel.blend_k
        assert table.weight[code] == sel.blend_k / BLEND_STEPS
        assert table.at_start[code] == (sel.blend_k == 0)
    assert table.start_tap[table.segment_codes].tolist() == list(range(1, n + 1))
    for array in (table.start_tap, table.weight, table.at_start):
        with pytest.raises(ValueError):
            array[0] = 1  # shared between callers, so read-only


def assert_same_chain(got: DelayChain, want: DelayChain):
    assert np.array_equal(got.tap_delays.view(np.uint64), want.tap_delays.view(np.uint64))
    assert np.array_equal(got.path_skews.view(np.uint64), want.path_skews.view(np.uint64))


# two taps at the mismatch clamp floor span this period, so every drawn chain does
SPANNED_PERIOD = 2 * CLAMP_FLOOR * TD


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    st.integers(-(2**63), 2**64 + 5),
    st.integers(2, 40),
    st.floats(1e-3, 0.5),
    st.floats(1e-3, 0.8),
)
def test_chain_draws_equal_one_draw_per_row(seed, n_taps, tap_sigma_rel, skew_rel):
    # taps and skews come from one two-row keyed draw
    args = (TD, SPANNED_PERIOD, n_taps, tap_sigma_rel, skew_rel * TD, seed)
    assert_same_chain(make_pi_chain(*args), rowwise_pi_chain(*args))


@pytest.mark.parametrize("tap_sigma_rel", [0.0, 0.2])
def test_chain_without_skew_draws_only_its_taps(tap_sigma_rel):
    args = (TD, PERIOD, 32, tap_sigma_rel, 0.0, 9)
    chain = make_pi_chain(*args)
    assert_same_chain(chain, rowwise_pi_chain(*args))
    assert not chain.path_skews.any()


@st.composite
def pi_cases(draw):
    """A mismatched chain at a period it spans, and trim adjustments below
    the unit delay (None for an untrimmed chain).

    The period is a fraction of the chain span, so N runs from about 12 up
    to every tap, where the ring wraps onto the next cycle's first tap.
    """
    seed = draw(st.integers(0, 2**32))
    # 32 taps of at least the clamp floor each always span one unit delay
    chain = make_pi_chain(
        TD,
        TD,
        tap_sigma_rel=draw(st.floats(0.0, 0.15)),
        skew_sigma=draw(st.floats(0.0, 0.8)) * TD,
        seed=seed,
    )
    chain = replace(chain, period=np.cumsum(chain.tap_delays)[-1] * draw(st.floats(0.37, 1.0)))
    adjustments = None
    trim_rel = draw(st.floats(0.0, 0.99))
    if trim_rel > 0.05:
        adjustments = (
            (keyed_uniform(seed + 2, np.arange(chain.n_taps)) * 2.0 - 1.0) * trim_rel * TD
        )
    return chain, adjustments


def trimmed(chain, adjustments):
    """The chain with `adjustments` added to its path skews, as a trim does."""
    if adjustments is None:
        return chain
    return replace(chain, path_skews=chain.path_skews + adjustments)


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(pi_cases())
def test_table_driven_sweep_and_detector_match_single_code_path(case):
    chain, adjustments = case
    expected = np.array(
        [single_code_output(code, chain, adjustments) for code in range(PI_CODES)]
    )
    got = pi_sweep(trimmed(chain, adjustments))
    assert got.dtype == np.float64
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
    one = np.array([pi_output(code, trimmed(chain, adjustments)) for code in range(PI_CODES)])
    assert np.array_equal(one.view(np.uint64), expected.view(np.uint64))
    assert inverted_segments(trimmed(chain, adjustments)) == per_code_inverted_segments(
        chain, adjustments
    )


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(pi_cases())
def test_chain_ring_equals_oracle_ring_with_skews_and_trims(case):
    # the ring a chain works out once equals the oracle's arithmetic on its
    # taps, skews and trim adjustments, N included, bit for bit
    chain, adjustments = case
    positions, n = ring_positions(chain, chain.period, adjustments)
    got = trimmed(chain, adjustments)
    assert got.n_delays == n
    assert np.array_equal(bits(got.positions), bits(positions))
    try:
        result = trim_paths(chain, 64)
    except TrimConvergenceError:
        # a skew beyond the trim range (every adjustment stays below the unit
        # delay) is refused, so this chain has no trimmed ring to check
        reject()
    positions, n = ring_positions(chain, chain.period, result.adjustments)
    assert result.chain.n_delays == n
    assert np.array_equal(bits(result.chain.positions), bits(positions))
    assert np.array_equal(bits(result.chain.path_skews), bits(chain.path_skews + result.adjustments))
    assert np.array_equal(bits(result.chain.tap_delays), bits(chain.tap_delays))
    # trims stay below the unit delay
    assert (np.abs(result.adjustments) < chain.unit_delay).all()


def test_chain_keeps_its_own_read_only_arrays():
    # the ring is worked out once, so the chain must not share arrays a
    # caller can still change
    taps = np.full(32, TD)
    skews = np.zeros(32)
    chain = DelayChain(unit_delay=TD, tap_delays=taps, path_skews=skews, period=PERIOD)
    before = chain.positions.copy()
    taps[:] = 2 * TD
    skews[6] = 1.5 * TD
    assert np.array_equal(chain.positions, before)
    assert chain.n_delays == 16
    for array in (chain.tap_delays, chain.path_skews, chain.positions):
        with pytest.raises(ValueError):
            array[0] = 0.0


def test_exact_tie_fires():
    # skew path 7 by exactly the tap-7-to-tap-8 delay: both blender inputs of
    # the segment (7, 8) arrive at the same instant (Sterbenz: exact in floats)
    chain = ideal_chain()
    skews = chain.path_skews.copy()
    accumulated = np.cumsum(chain.tap_delays)
    skews[6] = accumulated[7] - accumulated[6]
    chain = replace(chain, path_skews=skews)
    positions = chain.positions
    assert positions[6] == positions[7]
    assert inverted_segments(chain) == [(7, 8)]
    assert per_code_inverted_segments(chain) == [(7, 8)]
