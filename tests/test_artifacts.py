"""Artifact format: the CSV column writer against a row-by-row oracle, and
golden digests of one artifact of every CSV and JSON kind from the shipped
configs and of a run with the per-slice LUTs on, checked with and without
numpy's AVX-512 dispatch."""

import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stochadc
from stochadc import digits, experiments
from stochadc import interleaver as il
from stochadc import pi as pimod
from stochadc.config import config_hash, load_config, parse_config
from stochadc.core import derive_seed, keyed_normal, mismatch_scale, seed_array
from stochadc.errors import TrimConvergenceError
from stochadc.experiments import CSV_BLOCK_ROWS, _write_csv, run_experiment
from stochadc.metrics import walden_fom

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _reference_fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def reference_csv(cfg_hash: str, seed: int, header, rows) -> bytes:
    """Row-by-row oracle: every cell through isinstance checks, one writerow per row."""
    buf = io.StringIO()
    buf.write(f"# config_hash={cfg_hash}\n# master_seed={seed}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_reference_fmt(v) for v in row])
    return buf.getvalue().encode("utf-8")


def assert_matches_oracle(tmp_path, columns):
    # the oracle reads a 2-D array column row after row, as the writer does
    path = tmp_path / "table.csv"
    _write_csv(path, "abc123", 7, columns)
    flat = (c.reshape(-1) if isinstance(c, np.ndarray) else c for c in columns.values())
    expected = reference_csv("abc123", 7, list(columns), zip(*flat))
    assert path.read_bytes() == expected


SPECIAL_FLOATS = [
    float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324, 1e16, 1e-5,
    0.1, -2.5e-12, 3.0e38,
]


def test_special_floats(tmp_path):
    values = np.array(SPECIAL_FLOATS)
    assert_matches_oracle(tmp_path, {
        "array": values,
        "float32": values.astype(np.float32),
        "list": SPECIAL_FLOATS,
        "scalars": list(values),
    })


def test_bools_and_ints(tmp_path):
    ints = [0, 1, -1, 127, -127, 2**62, -(2**63)]
    assert_matches_oracle(tmp_path, {
        "bool_array": np.array([True, False] * 3 + [True]),
        "np_bool": [np.bool_(v) for v in [True, False] * 3 + [True]],
        "py_bool": [True, False] * 3 + [True],
        "int64": np.array(ints, dtype=np.int64),
        "int8": np.array([0, 1, -1, 127, -127, 5, -5], dtype=np.int8),
        "uint64": np.array([0, 1, 2**64 - 1, 3, 4, 5, 6], dtype=np.uint64),
        "np_int": [np.int32(v % 1000) for v in ints],
        "py_int": ints,
    })


def test_labels_use_minimal_quoting(tmp_path):
    labels = ["plain", "a,b", 'say "hi"', "two\nlines", "", " padded ", "cr\rx"]
    assert_matches_oracle(tmp_path, {
        "label": labels,
        "value": np.arange(len(labels), dtype=np.float64) / 3,
    })


def test_single_column_empty_label(tmp_path):
    assert_matches_oracle(tmp_path, {"label": ["", "x", ""]})


@pytest.mark.parametrize("n_rows", [0, 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1])
def test_block_boundaries(tmp_path, n_rows):
    rng = np.random.default_rng(n_rows)
    k = np.arange(n_rows)
    assert_matches_oracle(tmp_path, {
        "index": k,
        "slice": k % 16,
        "seconds": rng.standard_normal(n_rows) * 1e-9,
        "flag": rng.random(n_rows) < 0.5,
    })


@pytest.mark.parametrize("n_rows", [0, 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1])
def test_block_boundaries_with_quoted_column(tmp_path, n_rows):
    k = np.arange(n_rows)
    assert_matches_oracle(tmp_path, {
        "label": [f"row,{i}" if i % 3 else f'q"{i}' for i in range(n_rows)],
        "index": k,
        "half": k / 2,
    })


INT_DTYPES = [np.int8, np.int16, np.uint8, np.int64, np.uint64]


@pytest.mark.parametrize("dtype", INT_DTYPES, ids=lambda d: np.dtype(d).name)
def test_narrow_int_blocks_at_the_dtype_extremes(tmp_path, dtype):
    # blocks spanning a few hundred values at both ends of the dtype, where
    # an offset taken in the column's own dtype wraps
    lo, hi = int(np.iinfo(dtype).min), int(np.iinfo(dtype).max)
    offsets = np.random.default_rng(3).integers(0, 256, (3, CSV_BLOCK_ROWS)).tolist()
    offsets[0][:2] = offsets[1][:2] = [0, 255]
    low = [lo + v for v in offsets[0]]
    high = [hi - v for v in offsets[1]]
    mid = [(lo + hi) // 2 - 127 + v for v in offsets[2]]
    assert_matches_oracle(tmp_path, {"value": np.array(low + high + mid, dtype=dtype)})


def test_int8_across_zero(tmp_path):
    # [-100, 100] in int8: 28 - (-100) wraps to -128 in int8
    values = np.resize(np.arange(-100, 101, dtype=np.int8), 603)
    assert_matches_oracle(tmp_path, {"value": values, "reversed": values[::-1].copy()})


def test_wide_int64_block_straddles_zero_and_the_extremes(tmp_path):
    # 2**63 - 1 and -2**63 in one block; 2**63 and 2**64 - 1 as uint64
    ints = np.array([-(2**63), 2**63 - 1, 0, -1, 1] * 4, dtype=np.int64)
    uints = np.array([2**63, 2**64 - 1, 2**63 - 1, 0, 1] * 4, dtype=np.uint64)
    straddle = np.array([2**63 - 1, 2**63] * 10, dtype=np.uint64)
    assert_matches_oracle(tmp_path, {"int64": ints, "uint64": uints, "straddle": straddle})


@pytest.mark.parametrize(
    "n_values",
    [1, CSV_BLOCK_ROWS // 2 - 1, CSV_BLOCK_ROWS // 2, CSV_BLOCK_ROWS // 2 + 1,
     CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS],
)
def test_int_block_ranges_around_the_table_cut(tmp_path, n_values):
    # one block spans exactly n_values distinct values (1 is a constant
    # column); the partial last block spans fewer
    rng = np.random.default_rng(n_values)
    block = rng.integers(0, n_values, CSV_BLOCK_ROWS) - 17
    block[:2] = [-17, n_values - 18]
    values = np.concatenate([block, block[: CSV_BLOCK_ROWS // 3]])
    assert_matches_oracle(tmp_path, {"value": values, "int16": values.astype(np.int16)})


def test_table_and_direct_blocks_alternate(tmp_path):
    # a narrow block, a block spanning every row, a narrow one again
    rng = np.random.default_rng(11)
    narrow = rng.integers(-127, 128, CSV_BLOCK_ROWS)
    wide = np.arange(CSV_BLOCK_ROWS) * 1000 - 5
    values = np.concatenate([narrow, wide, narrow[::-1], wide[:100]])
    assert_matches_oracle(tmp_path, {
        "int64": values,
        "int32": values.astype(np.int32),
        "uint64": (values - values.min()).astype(np.uint64) + np.uint64(2**63),
    })


# where the block encoder changes lanes: an int block inside (-2**31, 2**31)
# is worked in int32, a row of 10 digits as two halves split at 10**9, and
# any wider block (10**18 and 2**62 among it) goes to repr whole
INT_CUTS = [
    2**31 - 1, 2**31, -(2**31), -(2**31) - 1, 2**32 - 1, 2**32, 10**9 - 1, 10**9,
    10**18 - 1, 10**18, 2**62 - 1, 2**62, 2**62 + 1,
]


@pytest.mark.parametrize("dtype", [np.int32, np.uint32, np.int64, np.uint64],
                         ids=lambda d: np.dtype(d).name)
def test_int_blocks_at_the_lane_cuts(tmp_path, dtype):
    lo, hi = int(np.iinfo(dtype).min), int(np.iinfo(dtype).max)
    small = [v for v in (0, 1, 9, 10, -1, -10) if lo <= v <= hi]
    cuts = [v for v in INT_CUTS if lo <= v <= hi]
    # each cut alone in a one-block table with small values, and with its
    # neighbours and negation where they fit
    for i, cut in enumerate(cuts):
        near = [v for v in (cut - 1, cut + 1, -cut) if lo <= v <= hi]
        values = np.array([cut] + small + near, dtype=dtype)
        assert_matches_oracle(tmp_path, {"value": values, "reversed": values[::-1].copy()})
    # one block mixing every cut with narrow values
    mixed = np.array((cuts + small) * 3, dtype=dtype)
    assert_matches_oracle(tmp_path, {"value": mixed})


def test_a_block_of_narrow_values_around_one_wide_value(tmp_path):
    # an int32 block beside a wide block, which goes to repr whole, in one
    # table of three blocks
    narrow = np.arange(CSV_BLOCK_ROWS) % 2000 - 1000
    wide = narrow.copy()
    wide[[5, 77]] = [2**62 + 1, -(10**18) + 1]
    values = np.concatenate([narrow, wide, narrow[:300]])
    assert_matches_oracle(tmp_path, {"int64": values, "uint64": values.astype(np.uint64)})


def test_floats_whose_low_nine_digits_are_zero(tmp_path, monkeypatch):
    # repr's digits, padded with zeros to 17, split at 10**9 into a high half
    # of 8 digits and a low half of 0; then of 999999900 and 999999999
    values = [10.0**k for k in range(-8, -4)]
    values += [float(f"{m}e{k}") for m in (1.2345678, 9.9999999, 1.0000001, 5.0)
               for k in range(-8, -4)]
    nines = [float(f"{m}e{k}") for m in ("1.00000009999999", "1.0000000999999999")
             for k in range(-8, -4)]
    assert [repr_digits(v) for v in nines] == [15] * 4 + [17] * 4
    values = np.array(values + nines)
    assert in_window(values).all()
    seen = spy_text_rows(monkeypatch)
    assert_matches_oracle(tmp_path, {"value": values, "negated": -values})
    assert seen == []


def count_encodes(monkeypatch) -> list:
    """The blocks the encoder encodes, from now on."""
    encoded = []
    for name in ("_int_cells", "_float_cells"):
        def recording(x, cells=getattr(digits, name)):
            encoded.append(x)
            return cells(x)
        monkeypatch.setattr(digits, name, recording)
    return encoded


@pytest.mark.parametrize("dtype", [np.int64, np.float64], ids=lambda d: np.dtype(d).name)
def test_one_array_under_two_headers_is_encoded_once(tmp_path, monkeypatch, dtype):
    # a square (128, 128) array is two blocks; its transpose has its data
    # pointer, shape and dtype but not its strides, its unsigned view all
    # but its dtype, and a copy its values alone
    rng = np.random.default_rng(9)
    array = (rng.integers(-(10**6), 10**6, (128, 128)) * (1e-12 if dtype == np.float64 else 1)).astype(dtype)
    columns = {"value": array, "again": array, "view": array[:], "transposed": array.T,
               "copy": array.copy()}
    if dtype == np.int64:
        columns["unsigned"] = array.view(np.uint64)
    encoded = count_encodes(monkeypatch)
    assert_matches_oracle(tmp_path, columns)
    # value, again and view once per block, and each other column
    assert len(encoded) == 2 * (len(columns) - 2)


# values where the block encoder's float digits meet repr's: short decimals
# k * 10**e over the whole double range, powers of ten (where the decade and
# the notation switch: 1e-5, 1e16) and of two (an interval twice as wide
# above as below), each perhaps one ulp off, and any double at all
_DECIMALS = st.builds(
    lambda k, e: float(f"{k}e{e}"),
    st.one_of(st.integers(1, 10**15 - 1), st.integers(10**15, 10**17 - 1)),
    st.integers(-340, 308),
)
_POWERS = st.one_of(
    st.integers(-324, 308).map(lambda k: float(f"1e{k}")),
    st.integers(-1074, 1023).map(lambda e: math.ldexp(1.0, e)),
    st.sampled_from([1e-9, 1e-8, 1e-5, 1e-4, 1e16]),
)
_ULP_STEP = st.sampled_from([None, -math.inf, math.inf])
FLOATS = st.builds(
    lambda x, step, negate: (-1) ** negate * (x if step is None else math.nextafter(x, step)),
    st.one_of(st.floats(), _DECIMALS, _POWERS), _ULP_STEP, st.booleans(),
)
FLOAT32S = st.one_of(st.floats(width=32), st.floats(1e-9, 1e-4).map(lambda v: float(np.float32(v))))


@st.composite
def int_columns(draw):
    dtype = np.dtype(draw(st.sampled_from(INT_DTYPES + [np.int32, np.uint16, np.uint32])))
    lo, hi = int(np.iinfo(dtype).min), int(np.iinfo(dtype).max)
    edges = [lo, lo + 1, hi - 1, hi, 0, -1, 2**62 - 1, 2**62, -(2**62), -(2**62) + 1, 9, 10]
    values = st.one_of(st.sampled_from([v for v in edges if lo <= v <= hi]), st.integers(lo, hi))
    return np.array(draw(st.lists(values, min_size=1, max_size=40)), dtype=dtype)


NUMERIC_COLUMNS = st.one_of(
    st.lists(FLOATS, min_size=1, max_size=40).map(np.array),
    st.lists(FLOAT32S, min_size=1, max_size=40).map(lambda v: np.array(v, dtype=np.float32)),
    int_columns(),
    st.lists(st.booleans(), min_size=1, max_size=40).map(np.array),
)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    st.lists(NUMERIC_COLUMNS, min_size=1, max_size=4),
    st.one_of(
        st.integers(0, 60),
        st.sampled_from([CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1]),
    ),
)
def test_numeric_tables_match_the_oracle(tmp_path_factory, values, n_rows):
    # each column's values repeat down the rows, across the block boundaries
    columns = {f"c{i}": np.resize(v, n_rows) for i, v in enumerate(values)}
    assert_matches_oracle(tmp_path_factory.mktemp("table"), columns)


def test_every_power_of_ten_and_two_and_their_neighbours(tmp_path):
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)] + [
        math.ldexp(1.0, e) for e in range(-1074, 1024)
    ])
    values = np.concatenate([
        powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf), -powers,
    ])
    with np.errstate(over="ignore"):
        float32 = values.astype(np.float32)
    assert_matches_oracle(tmp_path, {"value": values, "float32": float32})


# the decades whose floats the block encoder writes digit by digit
WINDOW = range(-8, -4)


def in_window(values) -> np.ndarray:
    a = np.abs(np.asarray(values, np.float64))
    return (a >= 1e-8) & (a < 1e-4)


def repr_digits(value: float) -> int:
    return len(repr(value).split("e")[0].replace("-", "").replace(".", ""))


def spy_text_rows(monkeypatch) -> list:
    """Every value the block encoder leaves to repr, from now on."""
    seen = []

    def recording(values):
        seen.extend(values)
        return text_planes(values)

    text_planes = digits._text_planes
    monkeypatch.setattr(digits, "_text_planes", recording)
    return seen


def nearest_decimals_to_interval_ends(decade: int) -> tuple[list, list]:
    """Pairs of adjacent doubles (lo, hi) of the decade whose shared
    rounding-interval end, (lo + hi) / 2, lies as near a 16-digit decimal v
    as any can, within 7 * ulp / (2 * 5**t) either side, and the parities
    of lo's significand.

    An end is an odd multiple of 2**(q - 1), q <= -66 here, so its decimal
    has more than 60 significant digits and is never v itself.  With v = D
    / 10**t, t = 15 - decade, v / ulp = D * 2**sh / 5**t, sh = -(q + t), so
    v's place in the ulp grid is set by D * 2**sh mod 5**t, which cannot
    be the odd 5**t halved: the nearest are (5**t + i) / 2 for small odd i.
    """
    t = 15 - decade
    pairs, parities = [], []
    lowest, highest = Fraction(10) ** decade, Fraction(10) ** (decade + 1)
    for e in range(math.frexp(1e-8)[1], math.frexp(1e-4)[1] + 1):
        lo_v, hi_v = max(lowest, Fraction(2) ** (e - 1)), min(highest, Fraction(2) ** e)
        if lo_v >= hi_v:
            continue
        sh = -(e - 53 + t)
        for i in (-7, -5, -3, -1, 1, 3, 5, 7):
            target = (5**t + i) // 2
            residue = target * pow(2, -sh, 5**t) % 5**t
            first = math.ceil((lo_v * 10**t - residue) / 5**t)
            last = math.floor((hi_v * 10**t - residue - 1) / 5**t)
            for k in sorted({first, (first + last) // 2, last}):
                if k < first or k > last:
                    continue
                v = Fraction(residue + k * 5**t, 10**t)
                x = float(v)
                lo, hi = (x, math.nextafter(x, math.inf)) if x < v else (math.nextafter(x, 0), x)
                end = (Fraction(lo) + Fraction(hi)) / 2
                assert v - end == (Fraction(hi) - Fraction(lo)) * i / (2 * 5**t)
                pairs.append((lo, hi))
                parities.append(int(np.float64(lo).view(np.int64)) & 1)
    return pairs, parities


def test_sixteen_and_seventeen_digit_window(tmp_path, monkeypatch):
    # the block encoder's 16- and 17-digit rule, on the values where it
    # decides by the least: interval ends nearest a 16-digit decimal, for
    # both significand parities (an end rounds to x only for an even one), the
    # powers of two (whose interval is half as wide below), and the exact
    # midpoints between two candidates of 16 and of 17 digits
    values = []
    for decade in WINDOW:
        pairs, parities = nearest_decimals_to_interval_ends(decade)
        assert set(parities) == {0, 1}, decade
        values += [x for pair in pairs for x in pair]
    powers = [math.ldexp(1.0, e) for e in range(-26, -13)]
    values += powers + [math.nextafter(p, 0) for p in powers]
    values += [math.nextafter(p, 1) for p in powers]
    midpoints = {16: [], 17: []}
    for decade in WINDOW:
        for digits in midpoints:
            # x * 10**t = j / 2 for odd j, t = digits - 1 - decade
            t = digits - 1 - decade
            lowest = math.floor(10.0**decade * 2 ** (t + 1))
            for j in range(lowest | 1, math.ceil(10.0 ** (decade + 1) * 2 ** (t + 1)) + 1, 2):
                x = math.ldexp(j, -t - 1)
                if 1e-8 <= x < 1e-4:
                    midpoints[digits].append(x)
    # midpoints exist in the window, and some are repr'd at their own digit
    # count, so a tie between two equally near candidates is decided there
    for digits, xs in midpoints.items():
        assert any(repr_digits(x) == digits for x in xs), digits
    values += midpoints[16] + midpoints[17]
    values = np.array(values)
    assert in_window(values).all()
    seen = spy_text_rows(monkeypatch)
    assert_matches_oracle(tmp_path, {"value": values, "negated": -values})
    assert seen == []


def test_exact_split_shifts_stay_defined_across_the_window():
    # numpy's shift by 64 or more is not the same on every platform (x86
    # masks the count), so each binade meeting the window must keep
    # 1 <= sh and 40 * 2**sh, the 16-digit candidates' span, below 2**63;
    # and the split is exact there
    rng = np.random.default_rng(23)
    for e in range(math.frexp(1e-8)[1], math.frexp(1e-4)[1] + 1):
        for decade in WINDOW:
            if not (2.0 ** (e - 1) < 10.0 ** (decade + 1) and 10.0**decade < 2.0**e):
                continue
            t = 16 - decade
            sh = -(e - 53 + t)
            assert 1 <= sh and sh + 6 <= 63, (e, decade)
            m = [2**52, 2**52 + 1, 2**53 - 1] + rng.integers(2**52, 2**53, 8).tolist()
            d, r, shift = digits._exact_split(
                np.array(m, np.uint64), np.full(len(m), e - 53), np.full(len(m), t)
            )
            assert shift.tolist() == [sh] * len(m)
            assert list(zip(d.tolist(), r.tolist())) == [divmod(v * 5**t, 2**sh) for v in m]


def capture_columns() -> dict:
    """A 2**18-row table shaped like an adc-sine capture dump."""
    n = 2**18
    k = np.arange(n)
    rng = np.random.default_rng(5)
    codes = rng.integers(-124, 125, n)
    return {
        "sample_index": k,
        "slice": k % 16,
        "instant_seconds": (k + 0.05 * rng.standard_normal(n)) * 50e-12,
        "raw_count": codes + 150,
        "signed_code": codes,
        "corrected_code": np.clip(codes + rng.integers(-2, 3, n), -124, 124),
    }


def test_a_capture_sized_table_is_written_in_blocks(tmp_path):
    # the writer's peak allocation stays a small part of the file, so a
    # dump never sits in memory as one string
    columns = capture_columns()
    path = tmp_path / "capture.csv"
    tracemalloc.start()
    try:
        _write_csv(path, "abc123", 7, columns)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    written = path.read_bytes()
    assert written.count(b"\n") == len(columns["sample_index"]) + 3
    assert written == reference_csv("abc123", 7, list(columns), zip(*columns.values()))


def test_a_capture_leaves_no_window_instant_to_repr(tmp_path, monkeypatch):
    columns = capture_columns()
    instants = columns["instant_seconds"]
    window = instants[in_window(instants)]
    # the table has window instants of 16 and 17 digits, and instants of
    # other decades, which do go to repr
    assert {16, 17} <= {repr_digits(x) for x in window[:2000].tolist()}
    seen = spy_text_rows(monkeypatch)
    _write_csv(tmp_path / "capture.csv", "abc123", 7, columns)
    assert seen and not in_window(seen).any()
    # and no int: each int column is written digit by digit
    assert all(type(v) is float for v in seen)


def test_a_block_is_whole_capture_rows():
    # the writer cuts a 2-D column's block as whole rows of it, so an
    # (n, 16) capture view needs the slice count to divide the block
    assert CSV_BLOCK_ROWS % il.N_SLICES == 0


def test_a_2d_column_is_written_row_after_row(tmp_path):
    # two full blocks and a part block, from views of (16, n) arrays as a
    # capture holds them, against the same table flat
    n = 2 * CSV_BLOCK_ROWS + 3 * 16
    flat = capture_columns()
    flat = {name: column[:n] for name, column in flat.items()}
    views = {
        name: np.ascontiguousarray(column.reshape(-1, 16).T).T for name, column in flat.items()
    }
    assert all(not v.flags.c_contiguous for v in views.values())
    _write_csv(tmp_path / "table.csv", "abc123", 7, views)
    assert (tmp_path / "table.csv").read_bytes() == reference_csv(
        "abc123", 7, list(flat), zip(*flat.values())
    )


def test_a_2d_column_must_divide_the_block(tmp_path):
    with pytest.raises(ValueError, match="must divide"):
        _write_csv(tmp_path / "t.csv", "h", 0, {"a": np.zeros((6, 3))})


def adc_sine_capture(tmp_path, monkeypatch, cfg):
    """Run adc-sine on cfg, which takes one capture: (that capture, the
    columns it writes to capture.csv)."""
    captures, tables = [], {}
    capture, write = il.run_capture, experiments._write_csv

    def captured(*args, **kwargs):
        captures.append(capture(*args, **kwargs))
        return captures[-1]

    def written(path, *args):
        tables[path.name] = args[-1]
        write(path, *args)

    monkeypatch.setattr(il, "run_capture", captured)
    monkeypatch.setattr(experiments, "_write_csv", written)
    run_experiment("adc-sine", cfg, out_dir=tmp_path)
    [capture] = captures
    return capture, tables["capture.csv"]


def test_capture_csv_writes_the_capture_arrays_in_place(tmp_path, monkeypatch):
    cfg = load_config(CONFIG_DIR / "ideal.yaml")
    capture, columns = adc_sine_capture(tmp_path, monkeypatch, cfg)
    for name, array in [
        ("instant_seconds", capture.instants), ("raw_count", capture.raw),
        ("signed_code", capture.codes), ("corrected_code", capture.corrected),
    ]:
        assert np.shares_memory(columns[name], array), name


def test_a_capture_shorter_than_a_block_writes_its_flat_table(tmp_path, monkeypatch):
    # a capture of 4096 samples, half a block, written as the flat
    # per-sample columns of its arrays
    cfg = parse_config(
        (CONFIG_DIR / "ideal.yaml").read_text(encoding="utf-8").replace(
            "n_samples: 8192", "n_samples: 4096"
        )
    )
    assert cfg.capture.n_samples % CSV_BLOCK_ROWS
    capture, _ = adc_sine_capture(tmp_path, monkeypatch, cfg)
    k = np.arange(cfg.capture.n_samples)
    flat = {
        "sample_index": k,
        "slice": k % il.N_SLICES,
        "instant_seconds": capture.instants.T.reshape(-1),
        "raw_count": capture.raw.T.reshape(-1),
        "signed_code": capture.codes.T.reshape(-1),
        "corrected_code": capture.corrected.T.reshape(-1),
    }
    assert (tmp_path / "capture.csv").read_bytes() == reference_csv(
        config_hash(cfg), cfg.master_seed, list(flat), zip(*flat.values())
    )


def test_unequal_columns_rejected(tmp_path):
    with pytest.raises(ValueError, match="unequal length"):
        _write_csv(tmp_path / "t.csv", "h", 0, {"a": np.arange(3), "b": np.arange(4)})


def test_fom_yaml_ints_print_as_ints(tmp_path):
    cfg = parse_config(
        "fom:\n  entries:\n"
        "    - {label: 'x,\"y\"', power: 1, enob: 6, rate: 20}\n"
        "    - {label: plain, power: 0.5, enob: 5.5, rate: 2.0e+9}\n"
    )
    run_experiment("fom", cfg, out_dir=tmp_path)
    rows = []
    for e in cfg.fom.entries:
        value = walden_fom(e.power, e.enob, e.rate)
        rows.append((e.label, e.power, e.enob, e.rate, value, value * 1e12))
    header = ["label", "power_watts", "enob", "rate_sps", "fom_joules", "fom_pj_per_step"]
    text = (tmp_path / "fom.csv").read_text(encoding="utf-8")
    assert '"x,""y""",1,6,20,' in text
    assert (tmp_path / "fom.csv").read_bytes() == reference_csv(
        config_hash(cfg), cfg.master_seed, header, rows
    )


@pytest.mark.parametrize(
    "experiment,config",
    [("fom", "fom.yaml"), ("pi-trim", "pi_trim_injected.yaml"), ("calibrate", "ideal.yaml")],
)
def test_every_artifact_goes_through_the_module_writers(tmp_path, monkeypatch, experiment, config):
    # the writers are looked up when called, so wrapping them (as the
    # benchmark's traced runs do) sees every file, the calibration file included
    seen = []

    def recording(writer):
        def write(path, *args):
            seen.append(str(path))
            writer(path, *args)
        return write

    for name in ("_write_csv", "_write_json"):
        monkeypatch.setattr(experiments, name, recording(getattr(experiments, name)))
    result = run_experiment(experiment, load_config(CONFIG_DIR / config), out_dir=tmp_path)
    assert seen == result.files
    assert sorted(seen) == sorted(str(p) for p in tmp_path.iterdir())


# sha256 of one artifact of every CSV and JSON kind, the CSVs recorded with the
# row-by-row writer; a formatting change that drifts the same way on every rerun
# shows here.  Regime's adc_sine.json and montecarlo.json are left out: their
# sndr_db goes through np.log10, whose last bit depends on the SIMD dispatch.
# Recorded under Python 3.11.7 and numpy 2.4.6: the simulated values depend on
# bit-exact draws (core.ndtri, whose tail logs go through the C library) and the
# FFT, so a mismatch under other library versions may be numeric rather than a
# formatting regression.
GOLDEN = [
    ("slice-transfer", "ideal.yaml", "slice_transfer.csv",
     "6d4ebd7450e0aac77d1e7d665c9ea69ced97af0ea772a29e57ffbccc6c8a9adf"),
    ("pi-sweep", "pi_trim_injected.yaml", "pi_sweep.csv",
     "32dc713839054a07982e7faafa39f3bbe5127c3c31b563b82d4941091705144d"),
    ("pi-trim", "pi_trim_injected.yaml", "pi_trim_sweep.csv",
     "c82bcbfdb0e2fb0798ae1152ea8b71d242d3d08f20ea9457caa9f85c5d2540a5"),
    ("adc-sine", "skewcal.yaml", "capture.csv",
     "73766519b5ec60e5685b6d896be5c7f9aa84495c2bc1e0ad863ab62c30d3ba9a"),
    ("adc-sine", "regime.yaml", "linearity.csv",
     "79be40c0bedd67c253fd2831953567a4030539ceb7354fe39cbb7540e3030780"),
    ("fom", "fom.yaml", "fom.csv",
     "c86879148ac92f3980be8865c11e188c25a859cd7983e2cf83212cc27f495d1b"),
    ("montecarlo", "pi_mc.yaml", "montecarlo.csv",
     "c619e74b1f726c34e16ccfa26a98c452da79af9c94090e61a695a79654171d75"),
    ("slice-transfer", "ideal.yaml", "slice_transfer.json",
     "7f8f64050f0adf6da14d17450a93949c84c8b9c91893f43712addd25e3c4d078"),
    ("pi-sweep", "pi_trim_injected.yaml", "pi_sweep.json",
     "4201b9966bba0d9f225d024f8ab948492eadf0703bc6c7eaf4efbc5e83faa559"),
    ("pi-trim", "pi_trim_injected.yaml", "pi_trim.json",
     "b178bd59c739ff67eec5d52b4e29e7f42f0e9b1f24430753d7a9e1ae1dbd767e"),
    ("calibrate", "skewcal.yaml", "calibration.json",
     "194903574687f38e9721cde5d49c269dacba160ab91cc9f8c7e742f6d4ecc0e1"),
    ("adc-sine", "skewcal.yaml", "adc_sine.json",
     "a7034734259c93db523dbe68e2ebbef4a591b64846fa5a62c9978e2a571418d0"),
    ("adc-sine", "regime.yaml", "linearity.json",
     "c854e3707936a5abcd4b78faa1c812cff5e622ae7554204540bc1ff3f21661f6"),
    ("fom", "fom.yaml", "fom.json",
     "b84bc27630ccafcce3efc46e48f6dd9d1a218d9031ec1d1d098837e1c2f21d3e"),
    ("montecarlo", "pi_mc.yaml", "montecarlo.json",
     "89f12cd3a116797fa7964b51f20feb916724db09b6aca13cb342789897279978"),
]


# The per-slice LUTs, which no shipped config enables, on a small
# mismatched design with the skew calibration and the linearity capture on
LUT_CONFIG = """
master_seed: 1
adc:
  tap_sigma_random: 0.05
  slope_sigma: 0.01
  adaptation:
    window: 2000
stimulus:
  coherent_bin: 101
  amplitude: 0.45
  common_mode: 0.525
capture:
  n_samples: 4096
  linearity: true
  linearity_samples: 32768
system:
  skew_injection: [0.0, 2.0e-12, 0.0, -1.0e-12]
  calibration:
    lut: true
    lut_capture_samples: 16384
    lut_min_hits: 1
    skew: true
"""

# sha256 of the LUT run's artifacts that hold at every dispatch level;
# adc_sine.json is left out, its sndr_db going through np.log10
LUT_LOCK = [
    ("calibrate", LUT_CONFIG, "calibration.json",
     "117161213935074823ebc032cf2f915463ace2d3033c3919b60d7efd687926a7"),
    ("adc-sine", LUT_CONFIG, "capture.csv",
     "dc740c259f1b369037afe02cd0a4294061f4a175a9d4bbbf40e7b7e3d80024d8"),
    ("adc-sine", LUT_CONFIG, "linearity.csv",
     "ac77e4b71618e2089b205edb6ec8fd98de7391371bab5ee745ddcb34fb45bff5"),
]

# configs/pi_mc.yaml at a path-skew sigma of 0.35 unit delays and 400 trials:
# 146 of its trials at seed 0 trim (the shipped config trims none), so these
# digests reach chains a trim rebuilds inside a Monte Carlo.  Recorded with
# each chain built row by row.
PI_TRIM_MC_CONFIG = """
master_seed: 0
pi:
  tap_sigma_rel: 0.05
  skew_sigma_rel: 0.35
  trim_enabled: true
  trim_max_iters: 64
montecarlo:
  trials: 400
  experiment: pi-trim
  workers: 1
"""

PI_TRIM_MC_LOCK = [
    ("montecarlo", PI_TRIM_MC_CONFIG, "montecarlo.csv",
     "5e9bbf738f88ee0f37d84c4578755cd84dda6ed12af1b6fa31f4e3409bb4bcdd"),
    ("montecarlo", PI_TRIM_MC_CONFIG, "montecarlo.json",
     "77e32de06c15f994d56eec3b95a0bb048571d237e91ccbb56ede1a81822748fb"),
]
LOCKS = GOLDEN + LUT_LOCK + PI_TRIM_MC_LOCK


def _config(config: str):
    """A shipped config by file name, or an inline YAML config."""
    return parse_config(config) if "\n" in config else load_config(CONFIG_DIR / config)


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    """The output directory of one experiment on one config, run once."""
    dirs = {}

    def run(experiment, config):
        if (experiment, config) not in dirs:
            out = tmp_path_factory.mktemp("golden")
            run_experiment(experiment, _config(config), out_dir=out)
            dirs[experiment, config] = out
        return dirs[experiment, config]

    return run


# one run of each experiment that writes a CSV file, on its first GOLDEN config
CSV_RUNS = list({e: c for e, c, artifact, _ in reversed(GOLDEN) if artifact.endswith(".csv")}.items())


@pytest.mark.parametrize("experiment,config", CSV_RUNS)
def test_no_written_int_goes_to_repr(tmp_path, monkeypatch, experiment, config):
    # every int column an experiment writes is a code, a count, an index or
    # a flag, which the block encoder writes digit by digit in int32: repr
    # takes an int block only outside (-2**31, 2**31)
    seen = spy_text_rows(monkeypatch)
    result = run_experiment(experiment, _config(config), out_dir=tmp_path)
    assert any(name.endswith(".csv") for name in result.files)
    assert [v for v in seen if type(v) is not float] == []


@pytest.mark.parametrize(
    "experiment,config,artifact,digest",
    LOCKS,
    ids=[g[2] for g in GOLDEN] + [f"lut-{g[2]}" for g in LUT_LOCK]
    + [f"pi-trim-mc-{g[2]}" for g in PI_TRIM_MC_LOCK],
)
def test_golden_digest(golden_run, experiment, config, artifact, digest):
    out = golden_run(experiment, config)
    assert hashlib.sha256((out / artifact).read_bytes()).hexdigest() == digest


def test_the_trimming_pi_monte_carlo_trims(golden_run):
    path = golden_run("montecarlo", PI_TRIM_MC_CONFIG) / "montecarlo.csv"
    rows = list(csv.DictReader(path.read_text(encoding="utf-8").splitlines()[2:]))
    assert len(rows) == 400
    assert sum(int(row["iterations"]) > 1 for row in rows) == 146


TD = 12.5e-12


@st.composite
def finite_stacks(draw):
    """1-8 rows of 32 finite tap delays and path skews that span 16 unit
    delays: nominal taps or keyed mismatched ones, keyed skews or none, and
    up to four paths set to 0.0, -0.0, +-TD (on nominal taps that ties two
    ring positions exactly) or anything within two unit delays."""
    k = draw(st.integers(1, 8))
    seeds = seed_array(draw(st.lists(st.integers(0, 2**64 - 1), min_size=k, max_size=k)))
    normals = keyed_normal(derive_seed(seeds, "pi.tap"), np.arange(32))
    delays = mismatch_scale(TD, draw(st.sampled_from([0.0]) | st.floats(0.0, 0.3)), normals)
    skews = keyed_normal(derive_seed(seeds, "pi.skew"), np.arange(32)) * TD
    skews *= draw(st.sampled_from([0.0]) | st.floats(0.0, 1.0))
    value = st.sampled_from([0.0, -0.0, TD, -TD]) | st.floats(-2 * TD, 2 * TD)
    for row, path, skew in draw(st.lists(
        st.tuples(st.integers(0, k - 1), st.integers(0, 31), value), max_size=4
    )):
        skews[row, path] = skew
    return delays, skews


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(finite_stacks())
def test_the_monotone_flags_give_the_difference_verdict(stack):
    # `pre_trim_monotone` and `post_trim_monotone` are the builder's
    # `sweep_rises`: that must be the verdict of every step of `np.diff` of
    # the sweep being > 0, and `ring_rises` the same verdict on the ring,
    # each a plain bool.  The builder refuses non-finite input, so the
    # stacks are finite
    delays, skews = stack
    cfg = parse_config("pi:\n  trim_max_iters: 64\n")
    for chain in pimod.build_delay_chains(TD, delays, skews, 16 * TD):
        want = bool((np.diff(chain.sweep) > 0).all())
        assert chain.sweep_rises is want
        assert chain.ring_rises is bool((np.diff(chain.positions) > 0).all())
        try:
            metrics, _ = experiments.run_pi_trim(cfg, chain)
        except TrimConvergenceError:
            continue
        assert metrics["pre_trim_monotone"] is want


# Every numeric artifact value names its unit: a time ends in _seconds, a
# frequency in _hz and a voltage in _volts, or the name is listed here as
# dimensionless.  A montecarlo or run summary value is named by its metric
# (`sndr_db_median`, `percentiles.sndr_db.p95` are `sndr_db`).
UNIT_SUFFIXES = ("_seconds", "_hz", "_volts")
DIMENSIONLESS = {
    "codes": {"code", "signed_code", "corrected_code", "offset_code", "offset_codes",
              "code_min", "code_max", "pi_codes", "pi_corrections", "luts"},
    "counts, indices and 0/1 flags": {
        "sample_index", "slice", "raw_count", "fundamental_bin", "missing_codes", "trials",
        "iterations", "inversions", "initial_inversions", "n_delays_per_cycle", "version",
        "inversion_flag", "monotone", "pre_trim_monotone", "post_trim_monotone"},
    "seeds": {"seed", "master_seed"},
    "ratios in LSB": {"dnl", "inl", "dnl_lsb", "inl_lsb", "dnl_max", "inl_max"},
    # spur_list holds (FFT bin, level in dBc) pairs; ENOB is SINAD in bits
    "ratios in dB": {"sndr_db", "dominant_family_spur_dbc", "enob", "spur_list"},
    # fom tabulates the paper's power, rate and energy: config data, not
    # simulated, so nothing scales them
    "fom config data": {"power_watts", "rate_sps", "fom_joules", "fom_pj_per_step",
                        "fom_pj_single_slice", "fom_pj_interleaved_20gsps"},
}
SUMMARY_KEYS = {"mean", "p5", "p50", "p95"}


def _numeric_names(path: Path) -> set:
    """The name of every numeric value an artifact holds: a CSV column whose
    cells are numbers, or the JSON key of a number or bool."""
    if path.suffix == ".csv":
        lines = path.read_text(encoding="utf-8").splitlines()[2:]
        rows = list(csv.reader(lines))
        names = set()
        for i, name in enumerate(rows[0]):
            try:
                [float(row[i]) for row in rows[1:]]
            except ValueError:
                continue
            names.add(name)
        return names
    names = set()

    def walk(value, name):
        if isinstance(value, dict):
            for key, item in value.items():
                walk(item, name if key in SUMMARY_KEYS else key.removesuffix("_median"))
        elif isinstance(value, list):
            for item in value:
                walk(item, name)
        elif isinstance(value, (int, float)):
            names.add(name)

    walk(json.loads(path.read_text(encoding="utf-8")), None)
    return names


def test_artifact_names_carry_units(golden_run):
    # one run of every experiment, and the regime Monte Carlo, whose
    # montecarlo.csv has the most columns of the shipped matrix
    runs = {(experiment, config) for experiment, config, *_ in GOLDEN + LUT_LOCK}
    kinds, names = set(), set()
    for run in sorted(runs | {("montecarlo", "regime.yaml")}):
        for path in golden_run(*run).iterdir():
            kinds.add(path.name)
            names |= _numeric_names(path)
    assert len(kinds) == 15
    unitless = {name for name in names if not name.endswith(UNIT_SUFFIXES)}
    listed = set().union(*DIMENSIONLESS.values())
    assert unitless - listed == set()
    assert listed - unitless == set()  # every listed name is written


# numpy dispatches some float64 kernels (np.log10 among them) to AVX-512
# code whose last bit differs from the baseline kernels, so the digests are
# checked again with that dispatch switched off
SIMD_OFF = "X86_V4 AVX512_ICL AVX512_SPR"

GOLDEN_CHILD = """
import hashlib, json, sys, tempfile
from pathlib import Path
from numpy._core._multiarray_umath import __cpu_features__
from stochadc.config import load_config, parse_config
from stochadc.experiments import run_experiment

# a silently ignored NPY_DISABLE_CPU_FEATURES must not pass
assert not __cpu_features__["AVX512_ICL"], "AVX-512 dispatch is still on"
digests = []
with tempfile.TemporaryDirectory() as root:
    for experiment, config, artifact, _ in json.loads(sys.argv[1]):
        out = Path(root) / experiment / hashlib.sha256(config.encode()).hexdigest()
        if not out.exists():
            inline = "\\n" in config
            cfg = parse_config(config) if inline else load_config(Path(sys.argv[2]) / config)
            run_experiment(experiment, cfg, out_dir=out)
        digests.append(hashlib.sha256((out / artifact).read_bytes()).hexdigest())
print(json.dumps(digests))
"""


def test_golden_digests_without_avx512_dispatch():
    env = dict(
        os.environ,
        NPY_DISABLE_CPU_FEATURES=SIMD_OFF,
        PYTHONPATH=str(Path(stochadc.__file__).resolve().parents[1]),
    )
    proc = subprocess.run(
        [sys.executable, "-c", GOLDEN_CHILD, json.dumps(LOCKS), str(CONFIG_DIR)],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [digest for *_, digest in LOCKS]
