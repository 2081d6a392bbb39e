import re

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from stochadc import interleaver as il
from stochadc.config import PiConfig, RunConfig, SystemConfig
from stochadc.core import (
    CLAMP_FLOOR,
    derive_seed,
    keyed_normal,
    keyed_uniform,
    mismatch_scale,
    seed_array,
)
from stochadc.errors import ChainUnderspanError, TrimConvergenceError
from stochadc.pi import (
    BLEND_STEPS,
    PI_CODES,
    SWEEP_ROWS,
    DelayChain,
    build_delay_chains,
    code_table,
    inverted_segments,
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
    rowwise_delay_chain,
    rowwise_pi_chain,
    segment_endpoints,
    single_code_output,
)

PS = 1e-12
TD = 12.5 * PS
PERIOD = 200 * PS


def ideal_chain():
    return rowwise_pi_chain(TD, PERIOD)


def one_chain(chain, path_skews) -> DelayChain:
    """`chain` with other path skews, built by the production builder's
    one-row case."""
    [built] = build_delay_chains(chain.unit_delay, chain.tap_delays[None], path_skews[None],
                                 chain.period)
    return built


def skewed_chain(path_1based, amount_td):
    chain = ideal_chain()
    skews = chain.path_skews.copy()
    skews[path_1based - 1] += amount_td * TD
    return one_chain(chain, skews)


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
        cfg = RunConfig(pi=PiConfig(tap_sigma_rel=0.05, skew_sigma_rel=0.1))
        a, b = il.pi_chains(cfg, [3, 3])
        assert np.array_equal(a.tap_delays, b.tap_delays)
        assert np.array_equal(a.path_skews, b.path_skews)


class TestArbitrate:
    def test_nominal_sizing(self):
        assert ideal_chain().n_delays == 16

    def test_short_period_rounds_up(self):
        assert rowwise_pi_chain(TD, 195 * PS).n_delays == 16

    def test_underspan_error(self):
        with pytest.raises(ChainUnderspanError):
            rowwise_pi_chain(TD, 410 * PS)

    def test_arbiter_consistency_across_seeds(self):
        for seed in range(50):
            chain = rowwise_pi_chain(TD, PERIOD, tap_sigma_rel=0.05, seed=seed)
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
            phases = pi_sweep(rowwise_pi_chain(TD, period))
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
            chain = rowwise_pi_chain(
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
        chain = rowwise_pi_chain(TD, PERIOD, tap_sigma_rel=0.05, skew_sigma=0.15 * TD, seed=seed)
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


@pytest.mark.parametrize("n", [1, 2, 7, 15, 16, 17, 31, 32, 256])
def test_code_table_matches_encoder(n):
    table = code_table(n)
    for code in range(PI_CODES):
        sel = encode(code, n)
        assert (table.start_tap[code], table.start_tap[code] + 1) == segment_endpoints(sel)
        assert table.blend_k[code] == sel.blend_k
        assert table.segment[code] == table.start_tap[code] - 1
        assert table.weight[code] == sel.blend_k / BLEND_STEPS
    # every segment is selected, so `inverted_segments` reads the ring alone
    assert np.unique(table.start_tap).tolist() == list(range(1, n + 1))
    for array in (table.segment, table.start_tap, table.weight):
        with pytest.raises(ValueError):
            array[0] = 1  # shared between callers, so read-only


def assert_same_chain(got: DelayChain, want: DelayChain):
    assert np.array_equal(got.tap_delays.view(np.uint64), want.tap_delays.view(np.uint64))
    assert np.array_equal(got.path_skews.view(np.uint64), want.path_skews.view(np.uint64))


# two taps at the mismatch clamp floor span this period, so every drawn chain does
SPANNED_PERIOD = 2 * CLAMP_FLOOR * TD


def config_chain_and_oracle(seed, **pi):
    """Group 0's chain of a run config with the `pi` fields given, as
    `pi-sweep` builds it, and the per-row oracle chain of the same seed."""
    cfg = RunConfig(
        pi=PiConfig(unit_delay=TD, **pi),
        system=SystemConfig(aggregate_rate=il.N_GROUPS / SPANNED_PERIOD),
    )
    [chain] = il.pi_chains(cfg, [seed])
    p = cfg.pi
    oracle = rowwise_pi_chain(
        TD, cfg.system.pi_clock_period, p.n_taps, p.tap_sigma_rel, p.skew_sigma,
        derive_seed(seed, "pi.instance", 0),
    )
    return cfg, chain, oracle


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    st.integers(-(2**63), 2**64 + 5),
    st.integers(2, 40),
    st.floats(1e-3, 0.5),
    st.floats(1e-3, 0.8),
)
def test_chain_draws_equal_one_draw_per_row(seed, n_taps, tap_sigma_rel, skew_rel):
    # the production builder draws taps and skews in one two-row keyed draw
    _, chain, oracle = config_chain_and_oracle(
        seed, n_taps=n_taps, tap_sigma_rel=tap_sigma_rel, skew_sigma_rel=skew_rel
    )
    assert_same_chain(chain, oracle)
    assert chain.period == oracle.period and chain.n_taps == n_taps


@pytest.mark.parametrize("tap_sigma_rel", [0.0, 0.2])
def test_chain_without_skew_draws_only_its_taps(tap_sigma_rel):
    cfg, chain, oracle = config_chain_and_oracle(9, tap_sigma_rel=tap_sigma_rel)
    assert_same_chain(chain, oracle)
    assert not chain.path_skews.any()
    [(row_seeds, length)] = il.pi_mismatch_seeds(cfg, seed_array([9]))
    assert (row_seeds.shape, length) == ((1, 1), 32)


@st.composite
def pi_cases(draw):
    """A mismatched chain at a period it spans, and trim adjustments below
    the unit delay (None for an untrimmed chain).

    The period is a fraction of the chain span, so N runs from 1 (the
    period inside the first tap) up to every tap, where the ring wraps onto
    the next cycle's first tap.
    """
    seed = draw(st.integers(0, 2**32))
    # 32 taps of at least the clamp floor each always span one unit delay
    chain = rowwise_pi_chain(
        TD,
        TD,
        tap_sigma_rel=draw(st.floats(0.0, 0.15)),
        skew_sigma=draw(st.floats(0.0, 0.8)) * TD,
        seed=seed,
    )
    period = np.cumsum(chain.tap_delays)[-1] * draw(st.floats(0.01, 1.0))
    chain = rowwise_delay_chain(chain.unit_delay, chain.tap_delays, chain.path_skews, period)
    adjustments = None
    trim_rel = draw(st.floats(0.0, 0.99))
    if trim_rel > 0.05:
        adjustments = (
            (keyed_uniform(seed + 2, np.arange(chain.n_taps)) * 2.0 - 1.0) * trim_rel * TD
        )
    return chain, adjustments


def trimmed(chain, adjustments):
    """The chain with `adjustments` added to its path skews, rebuilt as a
    trim does."""
    if adjustments is None:
        return chain
    return one_chain(chain, chain.path_skews + adjustments)


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
    [chain] = build_delay_chains(TD, taps[None], skews[None], PERIOD)
    before = chain.positions.copy()
    taps[:] = 2 * TD
    skews[6] = 1.5 * TD
    assert np.array_equal(chain.positions, before)
    assert chain.n_delays == 16
    assert not chain.path_skews.any() and (chain.tap_delays == TD).all()
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
    chain = one_chain(chain, skews)
    positions = chain.positions
    assert positions[6] == positions[7]
    assert inverted_segments(chain) == [(7, 8)]
    assert per_code_inverted_segments(chain) == [(7, 8)]


def test_an_exactly_cancelled_ring_position_is_plus_zero_and_blends_exactly():
    # skew path 7 by minus tap 7's accumulated delay: its ring position is
    # exactly +0.0, never -0.0, so the blend formula's weight-0 codes still
    # return their start endpoint bit for bit, here and on either side
    chain = ideal_chain()
    skews = chain.path_skews.copy()
    skews[6] = -np.cumsum(chain.tap_delays)[6]
    chain = one_chain(chain, skews)
    assert chain.positions[6] == 0.0 and not np.signbit(chain.positions[6])
    expected = np.array([single_code_output(code, chain) for code in range(PI_CODES)])
    assert (expected == 0.0).sum() == 1 and not np.signbit(expected).any()
    assert np.array_equal(bits(pi_sweep(chain)), bits(expected))
    one = [pi_output(code, chain) for code in range(PI_CODES)]
    assert np.array_equal(bits(one), bits(expected))
    assert inverted_segments(chain) == per_code_inverted_segments(chain) == [(6, 7)]


def test_segments_no_code_selects_never_fire():
    # with more segments than codes (N = 400 > 256) the encoder skips some:
    # segment (3, 4) is one, so its inversion is not the blender's to see
    delays = np.full(512, TD)
    skews = np.zeros(512)
    skews[2] = skews[4] = 1.5 * TD  # inverts segments (3, 4) and (5, 6)
    [chain] = build_delay_chains(TD, delays[None], skews[None], 400 * TD)
    assert chain.n_delays == 400
    table = code_table(chain.n_delays)
    assert 3 not in table.start_tap and 5 in table.start_tap
    assert inverted_segments(chain) == per_code_inverted_segments(chain) == [(5, 6)]
    expected = np.array([single_code_output(code, chain) for code in range(PI_CODES)])
    assert np.array_equal(bits(pi_sweep(chain)), bits(expected))


@st.composite
def chain_stacks(draw):
    """A stack of 1-64 mismatched rows of 2-64 taps, with or without skews,
    some rows with trim adjustments below the unit delay added, and a period
    every row spans: a fraction of the shortest row's span, or one of its
    accumulated tap delays within the arbiters' guard either side (on its
    last tap, that row's ring wraps)."""
    k, n_taps = draw(st.integers(1, 64)), draw(st.integers(2, 64))
    seeds = seed_array(draw(st.lists(st.integers(0, 2**64 - 1), min_size=k, max_size=k)))
    normals = keyed_normal(derive_seed(seeds, "pi.tap"), np.arange(n_taps))
    delays = mismatch_scale(TD, draw(st.sampled_from([0.0]) | st.floats(0.0, 0.3)), normals)
    skews = np.zeros((k, n_taps))
    skew_rel = draw(st.sampled_from([0.0]) | st.floats(0.0, 1.0))
    if skew_rel > 0:
        skews += keyed_normal(derive_seed(seeds, "pi.skew"), np.arange(n_taps)) * skew_rel * TD
    trims = np.array(draw(st.lists(st.booleans(), min_size=k, max_size=k)))
    adjust = keyed_uniform(derive_seed(seeds, "trim"), np.arange(n_taps)) * 2.0 - 1.0
    skews[trims] += adjust[trims] * draw(st.floats(0.0, 0.99)) * TD
    taps = np.cumsum(delays, axis=1)
    shortest = taps[np.argmin(taps[:, -1])]
    if draw(st.booleans()):
        tap = draw(st.sampled_from([n_taps - 1]) | st.integers(0, n_taps - 1))
        period = shortest[tap] * draw(st.sampled_from([1.0, 1.0 + 1e-12, 1.0 - 1e-12]))
    else:
        period = shortest[-1] * draw(st.floats(0.37, 1.0))
    return delays, skews, period


def mixed_stack():
    """150 rows of 32 taps at a period of 16 unit delays, more than two
    sweep blocks: nominal rows (N = 16) and rows of slightly longer and
    shorter taps (N = 15 and 17) mixed in the first two blocks, the last
    block all nominal; among them a zero-width segment (path 7 skewed onto
    tap 8), tap 4's position tied with tap 6's, a position cancelled to
    exactly +0.0, and a segment one ulp wide, whose blends round onto its
    start so the ring rises while the sweep does not."""
    k = 150
    scale = np.ones(k)
    scale[:128:3] = 16 / 15
    scale[1:128:3] = 16 / 17
    delays = TD * scale[:, None] * np.ones(32)
    skews = np.zeros((k, 32))
    taps = np.cumsum(delays, axis=1)
    skews[5, 6] = taps[5, 7] - taps[5, 6]
    skews[8, 3] = taps[8, 5] - taps[8, 3]
    skews[11, 6] = -taps[11, 6]
    skews[14, 7] = np.nextafter(taps[14, 6], np.inf) - taps[14, 7]
    return delays, skews, 16 * TD


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(chain_stacks())
@example(mixed_stack())
def test_stacked_build_equals_the_row_by_row_build(stack):
    # the one-pass build of a stack, N, the ring, the sweep and both
    # verdicts included, bit for bit against each row built alone and its
    # sweep and verdicts from the single-code models, in rows whose ring
    # wraps onto the next cycle's first tap and in rows whose ring does not
    delays, skews, period = stack
    chains = list(build_delay_chains(TD, delays, skews, period))
    assert len(chains) == delays.shape[0]
    for chain, row_delays, row_skews in zip(chains, delays, skews):
        want = rowwise_delay_chain(TD, row_delays, row_skews, period)
        assert type(chain.n_delays) is int and chain.n_delays == want.n_delays
        assert (chain.unit_delay, chain.period, chain.n_taps) == (TD, period, delays.shape[1])
        for name in ("tap_delays", "path_skews", "positions", "sweep"):
            got, expected = getattr(chain, name), getattr(want, name)
            assert got.shape == expected.shape
            assert np.array_equal(bits(got), bits(expected)), name
            assert not got.flags.writeable, name
        assert chain.sweep_rises is want.sweep_rises
        assert chain.ring_rises is want.ring_rises


def test_the_mixed_stack_holds_each_n_and_verdict():
    # what `mixed_stack` is there to reach: three N in each of the first two
    # sweep blocks, one in the last, and every pair of verdicts a chain can give
    delays, skews, period = mixed_stack()
    chains = list(build_delay_chains(TD, delays, skews, period))
    n = [chain.n_delays for chain in chains]
    for block in range(0, 128, SWEEP_ROWS):
        assert set(n[block : block + SWEEP_ROWS]) == {15, 16, 17}
    assert set(n[128:]) == {16} and len(chains) > 2 * SWEEP_ROWS
    verdicts = {(c.sweep_rises, c.ring_rises) for c in chains}
    assert verdicts == {(True, True), (False, False), (False, True)}
    assert [i for i, c in enumerate(chains) if not c.ring_rises] == [5, 8, 11]
    # at N = 15 a segment holds more codes than blend steps, so two codes
    # share a step and tie: that sweep is monotone, not strictly
    assert [i for i, c in enumerate(chains) if not c.sweep_rises] == [
        i for i, size in enumerate(n) if size == 15 or i in (5, 8, 11, 14)
    ]
    assert chains[5].positions[6] == chains[5].positions[7]
    assert chains[11].positions[6] == 0.0 and not np.signbit(chains[11].positions[6])


def test_a_stack_holds_wrapping_and_plain_rings():
    # equal taps spanning the period exactly quantize to N = n_taps (the ring
    # wraps from the first tap) within the arbiter guard; longer rows do not
    delays = np.full((3, 16), TD)
    delays[1] *= 1.25
    delays[2, 0] = 3 * TD
    chains = list(build_delay_chains(TD, delays, np.zeros_like(delays), 16 * TD))
    assert [c.n_delays for c in chains] == [16, 13, 14]
    assert [c.positions.size for c in chains] == [17, 14, 15]
    assert chains[0].positions[16] == 16 * TD + TD


NON_FINITE_ARGS = dict(unit_delay=TD, tap_delays=np.full((3, 32), TD), path_skews=np.zeros((3, 32)),
                       period=PERIOD)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_a_non_finite_tap_delay_is_refused_by_name(value):
    # unrefused, a NaN tap sweeps NaN phases and an inf one inf phases
    delays = NON_FINITE_ARGS["tap_delays"].copy()
    delays[2, 5] = value
    with pytest.raises(ValueError, match="tap_delays must be finite"):
        build_delay_chains(**{**NON_FINITE_ARGS, "tap_delays": delays})


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_a_non_finite_path_skew_is_refused_by_name(value):
    # unrefused, a NaN skew trims on to the iteration limit
    skews = NON_FINITE_ARGS["path_skews"].copy()
    skews[1, 0] = value
    with pytest.raises(ValueError, match="path_skews must be finite"):
        build_delay_chains(**{**NON_FINITE_ARGS, "path_skews": skews})


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_a_non_finite_unit_delay_is_refused_by_name(value):
    with pytest.raises(ValueError, match=f"unit_delay must be finite, got {value}"):
        build_delay_chains(**{**NON_FINITE_ARGS, "unit_delay": value})


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_a_non_finite_period_is_refused_by_name(value):
    # unrefused, a NaN period ends in an untyped IndexError
    with pytest.raises(ValueError, match=f"period must be finite, got {value}"):
        build_delay_chains(**{**NON_FINITE_ARGS, "period": value})


@pytest.mark.parametrize(
    "change, message",
    [
        ({"tap_delays": np.full((2, 1), TD), "path_skews": np.zeros((2, 1))},
         "tap_delays must hold at least two taps"),
        ({"tap_delays": np.full(32, TD), "path_skews": np.zeros(32)},
         "tap_delays must hold at least two taps"),
        ({"path_skews": np.zeros((3, 31))}, "path_skews must match tap_delays in length"),
        ({"tap_delays": np.where(np.arange(32) == 4, 0.0, np.full((3, 32), TD))},
         "all tap delays must be > 0"),
        ({"unit_delay": 0.0}, "unit_delay must be > 0"),
        ({"period": -PERIOD}, f"clock period must be > 0, got {-PERIOD}"),
    ],
)
def test_an_invalid_stack_keeps_its_message(change, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build_delay_chains(**{**NON_FINITE_ARGS, **change})


def test_the_first_row_that_does_not_span_the_period_is_named():
    delays = np.full((4, 32), TD)
    delays[1] *= 0.5
    delays[2] *= 0.25
    with pytest.raises(ChainUnderspanError, match=re.escape(
        f"chain spans {16 * TD:.4e} s, shorter than the clock period {300 * PS:.4e} s"
    )):
        build_delay_chains(TD, delays, np.zeros_like(delays), 300 * PS)
