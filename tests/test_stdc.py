import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from stochadc.stdc import (
    COUNT_DTYPE,
    MAX_TAPS,
    OffsetEstimate,
    adapt_offset,
    build_chains,
    count_edges_batch,
)

from oracles import (
    PulseSample,
    adder_tree_depth,
    adder_tree_sum,
    count_edges_in_pulse,
    histogram_offset_estimate,
    make_chain,
    rowwise_chain,
    stdc_convert,
    tap_edge_times,
    unfold,
)

PS = 1e-12


def searchsorted_count_edges_batch(chain, starts, widths):
    """The binary-search count `count_edges_batch` replaced: the oracle."""
    guard = chain.boundary_guard
    offsets = chain.edge_offsets
    lo = np.searchsorted(offsets, starts - guard, side="left")
    hi = np.searchsorted(offsets, starts + widths - guard, side="left")
    return (hi - lo).astype(np.int64)


class TestTapEdges:
    def test_ideal_chain_prefix_sums(self):
        chain = make_chain(10 * PS, 255, 0.0)
        edges = tap_edge_times(chain, 0.0)
        assert np.allclose(edges, np.arange(1, 256) * 10 * PS, rtol=1e-12)

    def test_determinism(self):
        a = tap_edge_times(make_chain(10 * PS, 255, 0.1, seed=5), 0.0)
        b = tap_edge_times(make_chain(10 * PS, 255, 0.1, seed=5), 0.0)
        assert np.array_equal(a, b)

    def test_mean_spacing_under_mismatch(self):
        chain = make_chain(10 * PS, 255, 0.1, seed=6)
        spacing = np.diff(tap_edge_times(chain, 0.0))
        assert abs(spacing.mean() - 10 * PS) < 0.2 * PS

    def test_edges_strictly_increasing(self):
        chain = make_chain(10 * PS, 255, 0.3, seed=7)
        assert np.all(np.diff(tap_edge_times(chain, 0.0)) > 0)


class TestCountEdges:
    def test_zero_width_counts_nothing(self):
        chain = make_chain(10 * PS, 255, 0.0)
        count, bits = count_edges_in_pulse(
            PulseSample(sign=False, width=0.0), 0.0, tap_edge_times(chain, 0.0)
        )
        assert count == 0
        assert not bits.any()

    def test_half_open_window_excludes_closing_edge(self):
        # edges at 10..2550 ps; [0, 100 ps) holds 10..90 -> 9 edges
        chain = make_chain(10 * PS, 255, 0.0)
        count, _ = count_edges_in_pulse(
            PulseSample(sign=False, width=100 * PS), 0.0, tap_edge_times(chain, 0.0)
        )
        assert count == 9

    def test_saturation_at_full_chain(self):
        chain = make_chain(10 * PS, 255, 0.0)
        count, _ = count_edges_in_pulse(
            PulseSample(sign=False, width=3e-9), 0.0, tap_edge_times(chain, 0.0)
        )
        assert count == 255

    def test_batch_matches_single_shot(self):
        chain = make_chain(4 * PS, 255, 0.15, seed=9)
        rng = np.random.default_rng(1)
        starts = rng.uniform(0, 500e-12, 500)
        widths = rng.uniform(0, 800e-12, 500)
        batch = count_edges_batch(chain, starts, widths)
        edges = tap_edge_times(chain, 0.0)
        for i in range(500):
            single, _ = count_edges_in_pulse(
                PulseSample(sign=False, width=widths[i]), starts[i], edges,
                guard=chain.boundary_guard,
            )
            assert single == batch[i]


@st.composite
def bucket_cases(draw):
    """A mismatched chain and windows aimed at its edges and its ends.

    Delays are clamped at 5% of the unit, as AdcSystem draws them; one tap
    at 1e-3 of the mean puts two edges in one bucket.
    """
    n_taps = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    sigma = draw(st.floats(0.0, 0.5))
    delays = np.maximum(4 * PS * (1.0 + sigma * rng.standard_normal(n_taps)), 0.05 * 4 * PS)
    if draw(st.booleans()):
        delays[rng.integers(n_taps)] = 1e-3 * delays.mean()
    chain = build_chains(delays[None])[0]
    offsets, guard = chain.edge_offsets, chain.boundary_guard
    span = offsets[-1]
    n = 64
    near = offsets[rng.integers(n_taps, size=n)] + rng.choice([-guard, 0.0, guard], size=n)
    # opening on an edge (+/- guard), with random widths
    starts = [near, rng.uniform(-0.2 * span, 1.2 * span, n)]
    widths = [rng.uniform(0.0, 1.2 * span, n), rng.uniform(0.0, 1.2 * span, n)]
    # closing on an edge (+/- guard)
    close = offsets[rng.integers(n_taps, size=n)] + rng.choice([-guard, 0.0, guard], size=n)
    open_ = close - rng.uniform(0.0, 1.0, n) * (close + 0.2 * span)
    starts.append(open_)
    widths.append(close - open_)
    # zero width, and starts below 0 or past the span
    starts.append(near)
    widths.append(np.zeros(n))
    outside = np.array([-span, -guard, -1e-30, 0.0, span, span + guard, 2 * span, 1e3 * span])
    starts.append(outside)
    widths.append(np.full(outside.size, 0.5 * span))
    starts.append(outside)
    widths.append(np.zeros(outside.size))
    return chain, np.concatenate(starts), np.concatenate(widths)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(bucket_cases())
def test_bucketed_count_matches_searchsorted_and_single_shot(case):
    chain, starts, widths = case
    got = count_edges_batch(chain, starts, widths)
    assert got.dtype == np.int16
    assert np.array_equal(got, searchsorted_count_edges_batch(chain, starts, widths))
    edges = tap_edge_times(chain, 0.0)
    for start, width, count in zip(starts, widths, got):
        single, _ = count_edges_in_pulse(
            PulseSample(sign=False, width=width), start, edges, guard=chain.boundary_guard
        )
        assert single == count
    assert chain.edge_buckets.below.size <= 4 * chain.n_taps + 2


def test_bucket_occupancy_above_one():
    delays = np.full(255, 4 * PS)
    delays[100] = 4e-3 * PS
    chain = build_chains(delays[None])[0]
    assert chain.edge_buckets.edges.shape[0] == 2
    offsets, guard = chain.edge_offsets, chain.boundary_guard
    starts = np.concatenate([offsets - guard, offsets, offsets + guard])
    widths = np.full(starts.size, 10 * PS)
    assert np.array_equal(
        count_edges_batch(chain, starts, widths),
        searchsorted_count_edges_batch(chain, starts, widths),
    )


@st.composite
def tap_arrays(draw):
    """A (chains, taps) array of tap delays clamped at 5% of the unit, as
    AdcSystem draws them, with some taps under a quarter of the mean so that
    a bucket holds two or more edges in some rows and one in others."""
    k = draw(st.integers(1, 16))
    n_taps = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    sigma = draw(st.sampled_from([0.0, 0.1, 0.5, 2.0]))
    delays = np.maximum(4 * PS * (1.0 + sigma * rng.standard_normal((k, n_taps))), 0.05 * 4 * PS)
    short = rng.random((k, n_taps)) < draw(st.sampled_from([0.0, 0.02, 0.3]))
    delays[short] = rng.uniform(1e-3, 0.25, int(short.sum())) * 4 * PS
    return delays


def assert_same_chain(got, want):
    assert np.array_equal(got.tap_delays, want.tap_delays)
    assert np.array_equal(got.edge_offsets, want.edge_offsets)
    assert got.boundary_guard == want.boundary_guard
    assert got.edge_buckets.inv_h == want.edge_buckets.inv_h
    for name in ("below", "edges"):
        a, b = getattr(got.edge_buckets, name), getattr(want.edge_buckets, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert np.array_equal(a, b), name


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(tap_arrays())
def test_stacked_build_equals_each_row_built_alone(delays):
    chains = build_chains(delays)
    assert len(chains) == delays.shape[0]
    for row, chain in zip(delays, chains):
        assert_same_chain(chain, rowwise_chain(row.copy()))


def test_each_stacked_index_is_as_deep_as_its_own_buckets():
    delays = np.full((3, 255), 4 * PS)
    delays[1, 100] = 4e-3 * PS  # two edges share a bucket
    delays[2, 100:102] = 4e-3 * PS  # three
    chains = build_chains(delays)
    assert [c.edge_buckets.edges.shape[0] for c in chains] == [1, 2, 3]
    for row, chain in zip(delays, chains):
        assert_same_chain(chain, rowwise_chain(row.copy()))


def test_stacked_build_validation():
    for bad in (np.full(4, PS), np.full((2, 0), PS), np.full((2, 2, 2), PS)):
        with pytest.raises(ValueError):
            build_chains(bad)
    with pytest.raises(ValueError):
        build_chains(np.array([[PS, PS], [PS, -PS]]))
    # a negative, NaN or infinite tap in a one-row build
    for bad in (-1e-12, np.nan, np.inf):
        with pytest.raises(ValueError):
            build_chains(np.array([[1e-12, bad]]))


def test_count_holds_no_extra_temporaries():
    # live at once at the peak, for n samples: both window ends (2n float64),
    # their buckets (2n intp), the running count (2n COUNT_DTYPE), one row's
    # gathered edges (2n float64) and the comparison mask (2n bool).  The
    # float bucket values are freed before the gathers
    chain = make_chain(4 * PS, 255, 0.1, seed=3)
    n = 10_000
    rng = np.random.default_rng(5)
    starts = rng.uniform(0.0, 0.5 * chain.total_delay, n)
    widths = rng.uniform(0.0, 0.5 * chain.total_delay, n)
    tracemalloc.start()
    try:
        count_edges_batch(chain, starts, widths)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    count = np.dtype(COUNT_DTYPE).itemsize
    assert peak < 2 * n * (8 + np.dtype(np.intp).itemsize + count + 8 + 1) + 4096


def test_a_chain_at_the_tap_bound_counts_every_tap():
    # the longest chain build_chains takes: a pulse that spans it counts all
    # MAX_TAPS taps in int16, as the searchsorted count does, with mismatch
    # or without; one tap more is refused
    for sigma in (0.0, 0.1):
        chain = make_chain(4 * PS, MAX_TAPS, sigma, seed=3)
        span = chain.total_delay
        starts = np.array([-span, 0.0, 0.0, 0.5 * span, span])
        widths = np.array([3 * span, 2 * span, span, span, span])
        got = count_edges_batch(chain, starts, widths)
        assert got.dtype == np.int16
        assert np.array_equal(got, searchsorted_count_edges_batch(chain, starts, widths))
        assert got[0] == got[1] == MAX_TAPS
    with pytest.raises(ValueError, match=f"at most {MAX_TAPS} taps"):
        build_chains(np.full((2, MAX_TAPS + 1), 4 * PS))


def test_bucket_table_size_bounded_by_taps():
    # four buckets per mean tap, whatever the spread of the taps
    for delays in ([1.0], [1e-3, 1.0, 1e3], np.geomspace(1e-15, 1e-9, 300)):
        chain = build_chains(np.asarray(delays)[None])[0]
        assert chain.edge_buckets.below.size <= 4 * chain.n_taps + 2


class TestAdderTree:
    def test_all_zeros(self):
        assert adder_tree_sum(np.zeros(255, dtype=bool)) == 0

    def test_all_ones(self):
        assert adder_tree_sum(np.ones(255, dtype=bool)) == 255

    def test_matches_popcount_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(10**4):
            bits = rng.integers(0, 2, size=255).astype(bool)
            assert adder_tree_sum(bits) == int(bits.sum())

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            adder_tree_sum(np.zeros(254, dtype=bool))

    def test_reduction_depth(self):
        assert adder_tree_depth(255) == 8
        assert adder_tree_depth(1) == 0


class TestUnfold:
    def test_raw_at_offset_gives_zero_either_sign(self):
        est = OffsetEstimate(offset_code=25, rank=1, window=10)
        assert unfold(25, est, sign=False).code == 0
        assert unfold(25, est, sign=True).code == 0

    def test_signed_subtraction(self):
        assert unfold(40, 25, sign=True).code == -15
        assert unfold(40, 25, sign=False).code == 15

    def test_raw_below_offset_clamps(self):
        assert unfold(20, 25, sign=True).code == 0

    def test_raw_is_preserved(self):
        assert unfold(40, 25, sign=True).raw == 40


class TestAdaptOffset:
    def test_constant_stream(self):
        est = adapt_offset([25] * 100, window=100, threshold=0.001)
        assert est.offset_code == 25
        assert est.window == 100
        assert (est.offset_code, est.rank) == histogram_offset_estimate([25] * 100, 100, 0.001)

    def test_determinism(self):
        stream = np.random.default_rng(3).integers(25, 150, size=10**4)
        a = adapt_offset(stream, 10**4, 0.001)
        b = adapt_offset(stream, 10**4, 0.001)
        assert a == b
        assert (a.offset_code, a.rank) == histogram_offset_estimate(stream, 10**4, 0.001)

    def test_larger_values_do_not_move_the_estimate(self):
        stream = [25] * 1000
        base = adapt_offset(stream, 10**4, 0.001).offset_code
        extended = adapt_offset(stream + [90] * 5000, 10**4, 0.001).offset_code
        assert extended == base

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError):
            adapt_offset([], 100, 0.001)

    @pytest.mark.parametrize("stream", [[25.0, 26.0], [25.5, 26.0], [True, False]])
    def test_stream_that_is_not_integer_rejected(self, stream):
        # the estimate selects on the counts as they come, with no cast that
        # could truncate a fractional one
        with pytest.raises(ValueError, match="must be integers"):
            adapt_offset(np.array(stream), 2, 0.5)

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            adapt_offset([1], 0, 0.001)
        with pytest.raises(ValueError):
            adapt_offset([1], 10, 0.0)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.integers(0, 2**32),
    st.integers(1, 400),
    st.integers(0, 300),
    st.floats(0.0, 2.0),
    st.sampled_from([0.001, 0.05, 1 / 3, 1.0]),
)
def test_adapt_offset_equals_the_cumulative_histogram(seed, size, top, window_ratio, threshold):
    # streams of few and of many distinct codes, windows shorter and longer
    # than the stream
    stream = np.random.default_rng(seed).integers(0, top + 1, size)
    window = max(1, int(window_ratio * size))
    est = adapt_offset(stream, window, threshold)
    assert (est.offset_code, est.rank) == histogram_offset_estimate(stream, window, threshold)
    assert est.window == min(window, size)


class TestConvert:
    def test_zero_width_zero_offset(self):
        chain = make_chain(10 * PS, 255, 0.0)
        code = stdc_convert(PulseSample(sign=False, width=0.0), 0.0, chain, 0)
        assert code.code == 0 and code.raw == 0

    def test_staircase_matches_closed_form(self):
        # ideal chain: raw(width) = ceil(width/tau) - 1 (half-open window)
        chain = make_chain(10 * PS, 255, 0.0)
        d_offset = 100 * PS
        offset_code = 9
        for k in range(0, 120):
            delta_t = k * 2.5 * PS + 1.1 * PS  # off-boundary sweep points
            width = delta_t + d_offset
            out = stdc_convert(PulseSample(sign=False, width=width), 0.0, chain, offset_code)
            expected = int(np.ceil(width / (10 * PS))) - 1 - offset_code
            assert out.code == max(expected, 0)

    def test_transfer_monotone_for_mismatched_chains(self):
        widths = np.linspace(0, 1.5e-9, 400)
        for seed in range(25):
            chain = make_chain(10 * PS, 255, 0.1, seed=seed)
            raws = count_edges_batch(chain, np.zeros_like(widths), widths)
            assert np.all(np.diff(raws) >= 0)


def test_quasi_uniform_edge_distribution():
    # with launch phase uniform relative to the chain, folded edge times are
    # uniform within the mean spacing
    chain = make_chain(10 * PS, 255, 0.1, seed=13)
    offsets = chain.edge_offsets
    mean_spacing = float(np.mean(chain.tap_delays))
    rng = np.random.default_rng(17)
    n_launches = 400  # 400 * 255 > 1e5 folded samples
    phases = rng.uniform(0, mean_spacing, n_launches)
    folded = ((offsets[None, :] + phases[:, None]) % mean_spacing) / mean_spacing
    stat = stats.kstest(folded.ravel(), "uniform").statistic
    assert stat < 0.05
