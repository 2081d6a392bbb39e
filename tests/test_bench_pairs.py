"""bench/pairs.py: the summary of alternating parent/change benchmark runs,
and the record it keeps of them."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PAIRS = ROOT / "bench" / "pairs.py"
END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]


@pytest.fixture
def pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", PAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result_line(wall_s, rate, correct=True, failed=0):
    """A perfbench/run.py result line with two end-to-end metrics."""
    return {"correct": correct, "attempted": 4, "failed": failed, "metrics": {
        "wall_s": {"value": wall_s, "unit": "s"},
        "trials_per_s": {"value": rate, "unit": "1/s"},
    }}


CANNED = [
    (result_line(0.140, 7.0), result_line(0.120, 8.0)),
    (result_line(0.150, 6.0), result_line(0.150, 6.0)),  # a tie counts for neither
    (result_line(0.130, 7.5), result_line(0.135, 7.4)),
    (result_line(0.145, 6.8), result_line(0.125, 7.9)),
]


def test_summary_of_canned_runs(pairs):
    rows = {row["metric"]: row for row in pairs.summarize(CANNED, END_TO_END)}
    # metrics no run reports (msps, peak_rss_mb, setup_s) are left out
    assert list(rows) == ["wall_s", "trials_per_s"]
    wall, rate = rows["wall_s"], rows["trials_per_s"]
    assert (wall["better"], wall["unit"], wall["pairs"]) == ("lower", "s", 4)
    assert wall["parent"] == pytest.approx(0.1425) and wall["change"] == pytest.approx(0.130)
    assert wall["wins"] == 2
    # quartiles of 0.130, 0.140, 0.145, 0.150: 0.1375 and 0.14625
    assert wall["parent_iqr"] == pytest.approx(0.00875)
    assert rate["better"] == "higher" and rate["wins"] == 2
    assert rate["parent"] == pytest.approx(6.9) and rate["change"] == pytest.approx(7.65)
    text = pairs.report(list(rows.values()))
    assert "wall_s (s, lower is better): 0.1425 -> 0.13" in text
    assert "change better in 2 of 4" in text
    # 8.8% better, inside a parent IQR of 6.1% of its median
    assert wall["verdict"] == "within bound" and wall["worse_by"] == pytest.approx(-0.0125 / 0.1425)
    assert "  no regression: within bound (median 8.8% better, bound 25%, parent IQR 6.1% of its median)" in text


def spread_pairs(parent: list, change: list) -> list:
    """Pairs of result lines with these wall_s values, and a rate of 1."""
    return [(result_line(p, 1.0), result_line(c, 1.0)) for p, c in zip(parent, change)]


# the parent's quartiles of 0.08, 0.10, 0.14, 0.16 are 0.095 and 0.145: an
# IQR of 42% of its 0.12 median, wider than the 25% bound
WIDE = [0.08, 0.10, 0.14, 0.16]


@pytest.mark.parametrize("parent,change,verdict", [
    # 30% worse in the median
    ([0.100, 0.101, 0.099, 0.100], [0.130, 0.131, 0.129, 0.130], "worse"),
    # 24% worse: within the bound
    ([0.100, 0.101, 0.099, 0.100], [0.124, 0.125, 0.123, 0.124], "within bound"),
    # worse by more than the bound beats a wide spread
    (WIDE, [0.16, 0.17, 0.15, 0.16], "worse"),
    # the same median as the parent's, but the parent spread too wide to tell
    (WIDE, [0.11, 0.12, 0.12, 0.13], "unresolved"),
    # every change run is better than every parent run
    (WIDE, [0.05, 0.06, 0.06, 0.07], "within bound"),
    # one change run ties the parent's best
    (WIDE, [0.05, 0.06, 0.06, 0.08], "unresolved"),
], ids=["worse", "within", "worse-wide", "unresolved", "beats-every-run", "ties-one-run"])
def test_no_regression_verdict(pairs, parent, change, verdict):
    [wall, _] = pairs.summarize(spread_pairs(parent, change), END_TO_END)
    assert wall["verdict"] == verdict
    assert f"no regression: {verdict} (" in pairs.report([wall])


def test_a_higher_is_better_metric_is_worse_when_lower(pairs):
    runs = [(result_line(0.1, rate), result_line(0.1, 0.7 * rate)) for rate in (9.0, 10.0, 11.0)]
    [_, rate] = pairs.summarize(runs, END_TO_END)
    assert rate["worse_by"] == pytest.approx(0.3) and rate["verdict"] == "worse"
    assert "no regression: worse (median 30.0% worse, bound 25%" in pairs.report([rate])


def test_one_pair_has_no_spread(pairs):
    [row, _] = pairs.summarize(CANNED[:1], END_TO_END)
    assert row["parent_iqr"] == 0.0 and row["wins"] == 1


@pytest.mark.parametrize("correct,failed,good", [(True, 0, True), (False, 0, False),
                                                  (True, 1, False), (None, 0, False)])
def test_a_wrong_or_failed_run_is_bad(pairs, correct, failed, good):
    assert pairs.is_good(result_line(0.1, 1.0, correct, failed)) is good


# what git answers in a checkout with no uncommitted change
GIT = {"rev-parse": "f00d\n", "status": ""}


def fake_runs(results: list, calls: list, returncode: int = 0):
    """A `subprocess.run` answering like perfbench/run.py with each of
    `results` in turn, noting each call's checkout, and like git in a clean
    checkout."""
    answers = iter(results)

    def run(args, cwd, **kwargs):
        if args[0] == "git":
            return subprocess.CompletedProcess(args, 0, stdout=GIT[args[1]], stderr="")
        calls.append(Path(cwd))
        stdout = json.dumps({"spread": {}}) + "\n" + json.dumps(next(answers)) + "\n"
        return subprocess.CompletedProcess(args, returncode, stdout=stdout, stderr="")

    return run


def test_sides_alternate_and_a_wrong_run_exits_one(pairs, monkeypatch, tmp_path, capsys):
    calls = []
    runs = [result_line(0.1, 1.0)] * 3 + [result_line(0.1, 1.0, correct=False)]
    monkeypatch.setattr(pairs.subprocess, "run", fake_runs(runs, calls))
    monkeypatch.setattr("sys.argv", ["pairs.py", str(tmp_path), "--workload", "pi-mc",
                                     "--pairs", "2", "--seconds", "1"])
    assert pairs.main() == 1
    assert calls == [tmp_path, pairs.ROOT, pairs.ROOT, tmp_path]
    out = capsys.readouterr().out
    assert "pair 1 (parent first)" in out and "pair 2 (change first)" in out
    assert "1 runs reported correct other than true" in out


def test_good_runs_exit_zero(pairs, monkeypatch, tmp_path):
    monkeypatch.setattr(pairs.subprocess, "run", fake_runs([result_line(0.1, 1.0)] * 2, []))
    monkeypatch.setattr("sys.argv", ["pairs.py", str(tmp_path), "--workload", "pi-mc",
                                     "--pairs", "1"])
    assert pairs.main() == 0


def record(pairs, monkeypatch, tmp_path, runs, workload="pi-mc", calls=None, returncode=0):
    """`pairs.main()` over two pairs recorded into tmp_path/BENCH.json."""
    monkeypatch.setattr(pairs.subprocess, "run", fake_runs(runs, [] if calls is None else calls,
                                                           returncode))
    monkeypatch.setattr("sys.argv", ["pairs.py", str(tmp_path), "--workload", workload,
                                     "--pairs", "2", "--seconds", "1", "--record",
                                     str(tmp_path / "BENCH.json")])
    return pairs.main()


def test_a_record_keeps_every_pair_in_run_order(pairs, monkeypatch, tmp_path):
    runs = [result_line(0.1 + i / 100, 1.0) for i in range(4)]
    assert record(pairs, monkeypatch, tmp_path, runs) == 0
    entry = json.loads((tmp_path / "BENCH.json").read_text())["workloads"]["pi-mc"]
    assert (entry["seed"], entry["seconds"]) == (0, 1.0)
    # the parent ran first in pair 1, the change in pair 2
    assert entry["pairs"] == [
        [{"side": "parent", "result": runs[0]}, {"side": "change", "result": runs[1]}],
        [{"side": "change", "result": runs[2]}, {"side": "parent", "result": runs[3]}],
    ]
    assert entry["summary"] == pairs.summarize([(runs[0], runs[1]), (runs[3], runs[2])], END_TO_END)
    assert [row["verdict"] for row in entry["summary"]] == ["within bound"] * 2
    for side in entry["sides"].values():
        assert (side["revision"], side["dirty"]) == ("f00d", False)
        assert len(side["source_sha256"]) == 64
    # the sha256 tells this tree's src/ from an empty one
    assert entry["sides"]["change"]["source_sha256"] != entry["sides"]["parent"]["source_sha256"]


def test_a_second_workload_joins_the_record_and_a_kept_one_is_refused(pairs, monkeypatch, tmp_path):
    runs = [result_line(0.1, 1.0)] * 4
    assert record(pairs, monkeypatch, tmp_path, runs, "pi-mc") == 0
    assert record(pairs, monkeypatch, tmp_path, runs, "regime-mc") == 0
    kept = (tmp_path / "BENCH.json").read_text()
    assert sorted(json.loads(kept)["workloads"]) == ["pi-mc", "regime-mc"]
    calls = []
    with pytest.raises(SystemExit, match="already holds pi-mc; nothing recorded"):
        record(pairs, monkeypatch, tmp_path, runs, "pi-mc", calls)
    assert calls == [] and (tmp_path / "BENCH.json").read_text() == kept


@pytest.mark.parametrize("correct,failed", [(False, 1), (False, 0), (True, 2)])
def test_wrong_bytes_or_failed_runs_stop_the_record(pairs, monkeypatch, tmp_path, correct, failed):
    # run.py exits 0 when it reports "correct": false, so its exit code alone
    # would let a wrong-bytes run into BENCH_<pr>.json
    runs = [result_line(0.1, 1.0)] * 3 + [result_line(0.1, 1.0, correct, failed)]
    with pytest.raises(SystemExit, match="nothing recorded"):
        record(pairs, monkeypatch, tmp_path, runs)
    assert not (tmp_path / "BENCH.json").exists()


def test_nonzero_exit_stops_the_record(pairs, monkeypatch, tmp_path):
    with pytest.raises(SystemExit, match="failed"):
        record(pairs, monkeypatch, tmp_path, [result_line(0.1, 1.0)] * 4, returncode=1)
    assert not (tmp_path / "BENCH.json").exists()
