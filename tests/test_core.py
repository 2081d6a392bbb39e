import math
import re
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri as scipy_ndtri

from stochadc import core
from stochadc.core import (
    CLAMP_FLOOR,
    derive_seed,
    keyed_normal,
    keyed_u64,
    keyed_uniform,
    median,
    mismatch_scale,
    ndtri,
    normal_rows,
    percentile,
    seed_array,
    seed_int,
)

from oracles import substream


def test_zero_variance_returns_copies_of_nominal():
    samples = mismatch_scale(10e-12, 0.0, keyed_normal(3, np.arange(255)))
    assert samples.shape == (255,)
    assert np.all(samples == 10e-12)


def test_gaussian_moments_match_request():
    samples = mismatch_scale(10e-12, 0.1, keyed_normal(7, np.arange(10**5)))
    assert abs(samples.mean() - 10e-12) < 0.02e-12
    assert abs(samples.std() - 1e-12) < 0.02e-12


def test_sampling_is_deterministic():
    a = mismatch_scale(10e-12, 0.1, keyed_normal(7, np.arange(255)))
    b = mismatch_scale(10e-12, 0.1, keyed_normal(7, np.arange(255)))
    assert np.array_equal(a, b)


def test_instance_samples_independent_of_count():
    # sample i is a pure function of (seed, i): the first ten draws cannot
    # depend on how many other instances exist
    first = mismatch_scale(10e-12, 0.1, keyed_normal(11, np.arange(10)))
    assert np.array_equal(first, mismatch_scale(10e-12, 0.1, keyed_normal(11, np.arange(255)))[:10])


def test_clamp_floor_prevents_nonpositive_delays():
    normals = keyed_normal(1, np.arange(10**4))
    samples = mismatch_scale(10e-12, 5.0, normals)
    assert samples.min() == CLAMP_FLOOR * 10e-12
    # unclamped draws keep the scale arithmetic, bit for bit
    free = samples > CLAMP_FLOOR * 10e-12
    assert np.array_equal(samples[free], (10e-12 + normals * (5.0 * 10e-12))[free])
    # a non-positive nominal is not a physical delay and is not clamped
    assert np.array_equal(mismatch_scale(-1.0, 5.0, normals), -1.0 + normals * -5.0)


def test_negative_sigma_rejected():
    with pytest.raises(ValueError):
        mismatch_scale(1.0, -0.1, np.zeros(3))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.lists(
        st.sampled_from([0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan])
        | st.floats(allow_nan=False)
        | st.integers(-5, 5).map(float),
        min_size=1,
        max_size=12,
    ),
    st.lists(st.sampled_from([0, 5.0, 50, 95.0, 100]) | st.floats(0, 100), max_size=4),
)
def test_percentile_and_median_equal_numpy(values, percentiles):
    # the package's own percentile and median, which avoid numpy.ma, hold to
    # numpy's bit for bit: ties of 0.0 and -0.0 and NaN included
    values = np.array(values)
    with np.errstate(all="ignore"):
        for pct in percentiles:
            got, want = percentile(values, pct), float(np.percentile(values, pct))
            assert np.float64(got).view(np.uint64) == np.float64(want).view(np.uint64)
        got, want = median(values), float(np.median(values))
    assert np.float64(got).view(np.uint64) == np.float64(want).view(np.uint64)


def test_derive_seed_separates_labels_and_indices():
    seeds = {
        derive_seed(1, "a"),
        derive_seed(1, "b"),
        derive_seed(1, "a", 1),
        derive_seed(2, "a"),
    }
    assert len(seeds) == 4


def derive_seed_uint64(master_seed, label, index=0):
    """`derive_seed` in numpy uint64 scalars, one SplitMix64 step at a time:
    the oracle."""

    def finalize(x):
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return x ^ (x >> np.uint64(31))

    golden = np.uint64(0x9E3779B97F4A7C15)
    with np.errstate(over="ignore"):
        h = finalize(np.uint64(master_seed % (1 << 64)) + golden)
        h = finalize(h ^ np.uint64(zlib.crc32(label.encode())))
        h = finalize(h + np.uint64(index % (1 << 64)) * golden)
    return int(h)


@pytest.mark.parametrize("master_seed", [0, 1, -1, 2**63, -(2**63), 2**64 + 5])
@pytest.mark.parametrize("index", [0, 1, -1, 2**64 - 1])
@pytest.mark.parametrize("label", ["pi.instance", "stdc.tap.random", "", "sampling.jitter", "\u00b5"])
def test_derive_seed_matches_uint64_oracle(master_seed, label, index):
    assert derive_seed(master_seed, label, index) == derive_seed_uint64(master_seed, label, index)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(-(2**70), 2**70), st.text(max_size=8), st.integers(-(2**70), 2**70))
def test_derive_seed_matches_uint64_oracle_on_random_keys(master_seed, label, index):
    assert derive_seed(master_seed, label, index) == derive_seed_uint64(master_seed, label, index)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.lists(st.sampled_from([0, -1, 2**64 - 1, 2**64 + 5]) | st.integers(-(2**70), 2**70),
             max_size=8),
    st.text(max_size=8),
    st.integers(-(2**70), 2**70),
)
def test_derive_seed_over_a_seed_sequence_equals_each_scalar_derivation(seeds, label, index):
    derived = derive_seed(seeds, label, index)
    assert derived.dtype == np.uint64
    assert derived.tolist() == [derive_seed_uint64(s, label, index) for s in seeds]
    # a uint64 array of any shape derives element for element
    grid = derive_seed(seed_array(seeds).reshape(-1, 1).repeat(2, axis=1), label, index)
    assert np.array_equal(grid, np.stack([derived, derived], axis=1))


@pytest.mark.parametrize(
    "seed", [1.7, 1.0, np.float64(1.0), "1"], ids=["float", "integral-float", "numpy-float", "str"]
)
def test_a_seed_that_is_not_an_integer_is_refused(seed):
    # int() truncated a fractional seed to another seed's draws
    with pytest.raises(TypeError):
        seed_array([seed])
    with pytest.raises(TypeError):
        derive_seed([seed], "pi.tap")
    # a scalar is read as one seed, not iterated as a sequence of seeds
    message = re.escape(f"seed must be an integer, got {seed!r}")
    for call in (
        lambda: derive_seed(seed, "pi.tap"),
        lambda: keyed_u64(seed, np.arange(4)),
        lambda: keyed_uniform(seed, np.arange(4)),
        lambda: keyed_normal(seed, np.arange(4)),
    ):
        with pytest.raises(TypeError, match=message):
            call()


@pytest.mark.parametrize("seed", [True, False, np.True_], ids=["true", "false", "numpy-true"])
def test_a_bool_seed_is_refused_by_name(seed):
    # operator.index reads True as 1, so it would run seed 1's draws
    message = re.escape(f"seed must be an integer, got {seed!r}")
    for call in (
        lambda: seed_int(seed),
        lambda: seed_array([seed]),
        lambda: seed_array([3, seed]),
        lambda: derive_seed([seed], "pi.tap"),
        lambda: derive_seed(seed, "pi.tap"),
        lambda: keyed_u64(seed, np.arange(4)),
        lambda: keyed_uniform(seed, np.arange(4)),
        lambda: keyed_normal(seed, np.arange(4)),
    ):
        with pytest.raises(TypeError, match=message):
            call()


@pytest.mark.parametrize(
    "seed, same", [(np.int64(5), 5), (np.uint64(2**64 - 1), -1), (2**64 + 3, 3), (np.int8(-2), -2)]
)
def test_a_numpy_integer_seed_draws_as_its_int(seed, same):
    # an integer seed of any type wraps modulo 2^64 to the same draws
    indices = np.arange(-3, 5)
    assert np.array_equal(keyed_u64(seed, indices), keyed_u64(same, indices))
    assert np.array_equal(keyed_normal(seed, indices), keyed_normal(same, indices))
    assert np.array_equal(keyed_u64(seed, indices), keyed_u64([same], indices)[0])


def test_derive_seed_locked_values():
    assert derive_seed(0, "pi.instance", 0) == 11778319387992475664
    assert derive_seed(-1, "stdc.tap.random", 5) == 14313074778882951998
    assert derive_seed(2**64 + 5, "sampling.jitter", 2**64 - 1) == 946710452531488409


def test_keyed_normal_accepts_negative_indices():
    values = keyed_normal(3, np.arange(-5, 5))
    assert values.shape == (10,)
    assert np.all(np.isfinite(values))


KEYED_DRAWS = (keyed_u64, keyed_uniform, keyed_normal)
EDGE_SEEDS = [0, -1, 2**63, 2**64 - 1, 2**64 + 5]


def assert_rows_match_single_seed_draws(draw, seeds, indices):
    rows = draw(seeds, indices)
    assert rows.shape == (len(seeds), len(indices))
    for seed, row in zip(seeds, rows):
        single = draw(seed, indices)
        assert np.array_equal(row.view(np.uint64), single.view(np.uint64))


@pytest.mark.parametrize("draw", KEYED_DRAWS)
@pytest.mark.parametrize("seeds", [EDGE_SEEDS, [], [2**64 + 5]])
def test_seed_sequence_rows_equal_single_seed_draws(draw, seeds):
    assert_rows_match_single_seed_draws(draw, seeds, np.array([-(2**63), -7, -1, 0, 1, 2**63 - 1]))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from(KEYED_DRAWS),
    st.lists(st.sampled_from(EDGE_SEEDS) | st.integers(-(2**70), 2**70), max_size=6),
    st.lists(st.integers(-(2**63), 2**63 - 1), max_size=40),
)
def test_seed_sequence_rows_equal_single_seed_draws_on_random_keys(draw, seeds, indices):
    assert_rows_match_single_seed_draws(draw, seeds, np.array(indices, dtype=np.int64))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    st.lists(
        st.tuples(
            # enough seeds for 3 instances of the largest row shape
            st.lists(st.sampled_from(EDGE_SEEDS) | st.integers(-(2**70), 2**70), min_size=18,
                     max_size=18),
            st.sampled_from([(1,), (2,), (3, 2)]),
            st.integers(1, 5),
        ),
        min_size=1,
        max_size=4,
    ),
    st.integers(1, 3),
)
def test_normal_rows_equal_single_seed_draws(blocks, instances):
    # blocks of several row shapes and lengths, some sharing a length and so
    # one keyed draw; each block reads back, at instance i, instance i's rows
    blocks = [
        (seed_array(seeds[: instances * math.prod(shape)]).reshape((instances, *shape)), length)
        for seeds, shape, length in blocks
    ]
    drawn = normal_rows(blocks)
    assert len(drawn) == len(blocks)
    for (seeds, length), block in zip(blocks, drawn):
        assert block.shape == seeds.shape + (length,)
        for i in range(instances):
            for seed, row in zip(seeds[i].reshape(-1), block[i].reshape(-1, length)):
                want = keyed_normal(int(seed), np.arange(length))
                assert np.array_equal(row.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("block", [1, 7, 255, 256, 1000])
def test_keyed_normal_blocks_equal_one_whole_evaluation(monkeypatch, block):
    # blocks of part of a row, of whole rows, and of rows with a remainder:
    # every step is element-wise, so each value is the whole evaluation's
    seeds = EDGE_SEEDS + list(range(30))
    indices = np.arange(-40, 216).reshape(2, 128)
    want = ndtri(keyed_uniform(seeds, indices)), ndtri(keyed_uniform(5, indices))
    monkeypatch.setattr(core, "_NORMAL_BLOCK", block)
    got = keyed_normal(seeds, indices), keyed_normal(5, indices)
    for a, b in zip(got, want):
        assert a.shape == b.shape
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


def test_keyed_normal_peak_memory_is_its_output_plus_a_few_blocks():
    # acceptance criterion 1's draw, 10,000 seeds x 255 indices: evaluated
    # whole, its temporaries would peak at about six times its 19.5 MiB output
    seeds = derive_seed(list(range(10_000)), "stdc.tap.random")
    tracemalloc.start()
    try:
        out = keyed_normal(seeds, np.arange(255))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (10_000, 255)
    assert peak <= out.nbytes + 10 * core._NORMAL_BLOCK * out.itemsize


def test_scalar_seed_keeps_the_index_shape():
    assert keyed_normal(3, 5).shape == ()
    assert keyed_normal(3, np.arange(6).reshape(2, 3)).shape == (2, 3)
    assert keyed_normal([3, 4], np.arange(6).reshape(2, 3)).shape == (2, 2, 3)


def _unxorshift(y: int, shift: int) -> int:
    x = y
    for _ in range(64 // shift + 1):
        x = y ^ (x >> shift)
    return x


def index_for_output(seed: int, output: int) -> int:
    """The int64 index whose `keyed_u64(seed, index)` is ``output``: the
    SplitMix64 finalizer inverted step by step, then solved for the index."""
    mod = 1 << 64
    x = _unxorshift(output, 31)
    x = x * pow(0x94D049BB133111EB, -1, mod) % mod
    x = _unxorshift(x, 27)
    x = x * pow(0xBF58476D1CE4E5B9, -1, mod) % mod
    key = _unxorshift(x, 30)
    index = ((key - seed) * pow(0x9E3779B97F4A7C15, -1, mod) - 1) % mod
    return index - mod if index >= 1 << 63 else index


def test_top_keyed_value_stays_below_one():
    # the top 53-bit value, (2^53 - 1) * 2^-53 + 2^-54, rounds to 1.0
    # unclamped, whose inverse normal CDF is +inf
    index = -2157612136044327382
    assert index_for_output(12345, 2**64 - 1) == index
    assert keyed_u64(12345, [index])[0] == 2**64 - 1
    assert keyed_uniform(12345, [index])[0] == np.nextafter(1.0, 0.0)
    assert np.isfinite(keyed_normal(12345, [index])[0])


@pytest.mark.parametrize("top_bits", [0, 1, 2**52, 2**53 - 2, 2**53 - 1])
def test_keyed_uniform_is_half_step_centred_below_the_top_value(top_bits):
    # only the top value moves: bits 0 still map to 2^-54
    index = index_for_output(7, top_bits << 11)
    want = min(top_bits * 2.0**-53 + 2.0**-54, np.nextafter(1.0, 0.0))
    assert keyed_uniform(7, [index])[0] == want
    if top_bits == 0:
        assert want == 2.0**-54


def test_substreams_are_independent():
    a = substream(1, "x").normal(size=8)
    b = substream(1, "y").normal(size=8)
    assert not np.allclose(a, b)
    assert np.array_equal(a, substream(1, "x").normal(size=8))


# ndtri is held to scipy.special.ndtri, the oracle from the test extra.


def assert_ndtri_matches_scipy(u):
    u = np.asarray(u, dtype=np.float64)
    assert np.array_equal(ndtri(u).view(np.uint64), scipy_ndtri(u).view(np.uint64))


def ulps(x: float) -> list[float]:
    return [float(np.nextafter(x, 0.0)), x, float(np.nextafter(x, 1.0))]


# e^-2 splits the centre from the tails, on either side of 0.5; below e^-32
# (x = sqrt(-2 log y) >= 8) the far-tail coefficients apply, which the
# smallest keyed uniform 2^-54 reaches
NDTRI_BRANCH_POINTS = [
    *ulps(math.exp(-2)),
    *ulps(1.0 - math.exp(-2)),
    0.5,
    2.0**-54,
    float(np.nextafter(1.0, 0.0)),
    *ulps(math.exp(-32)),
]


@pytest.mark.parametrize("u", NDTRI_BRANCH_POINTS)
def test_ndtri_matches_scipy_at_branch_points(u):
    assert_ndtri_matches_scipy([u])


def test_smallest_keyed_uniform_reaches_the_far_tail():
    assert math.sqrt(-2.0 * math.log(2.0**-54)) >= 8.0
    assert ndtri(2.0**-54) == scipy_ndtri(2.0**-54)


def test_ndtri_matches_scipy_on_long_keyed_streams():
    for seed in (0, 1, 2**64 - 1):
        assert_ndtri_matches_scipy(keyed_uniform(seed, np.arange(200_000)))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from(EDGE_SEEDS) | st.integers(-(2**70), 2**70),
    st.lists(st.integers(-(2**63), 2**63 - 1), max_size=64),
)
def test_ndtri_matches_scipy_on_keyed_streams(seed, indices):
    assert_ndtri_matches_scipy(keyed_uniform(seed, np.array(indices, dtype=np.int64)))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**64 - 1), st.integers(0, 2**20), st.booleans())
def test_ndtri_matches_scipy_in_the_keyed_tails(seed, offset, upper):
    # the keyed uniforms within 2^20 steps of either end, by inverting the
    # stream: offsets below 114 from the bottom lie below e^-32
    top_bits = 2**53 - 1 - offset if upper else offset
    index = index_for_output(seed, top_bits << 11)
    assert_ndtri_matches_scipy(keyed_uniform(seed, [index]))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.floats(min_value=np.finfo(np.float64).tiny, max_value=float(np.nextafter(1.0, 0.0))))
def test_ndtri_matches_scipy_on_normal_doubles(u):
    assert_ndtri_matches_scipy([u])
