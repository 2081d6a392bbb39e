"""bench/record.py keeps no record of a run whose artifacts were wrong."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

RECORD = Path(__file__).resolve().parent.parent / "bench" / "record.py"


@pytest.fixture
def record():
    spec = importlib.util.spec_from_file_location("bench_record", RECORD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fake_run(result: dict, returncode: int = 0):
    """A `subprocess.run` that answers like perfbench/run.py ending with `result`."""
    stdout = json.dumps({"spread": {}}) + "\n" + json.dumps(result) + "\n"

    def run(args, **kwargs):
        return subprocess.CompletedProcess(args, returncode, stdout=stdout, stderr="")

    return run


def result_line(correct, failed):
    return {"correct": correct, "attempted": 5, "failed": failed,
            "metrics": {"wall_s": {"value": 0.25}}}


def test_correct_run_is_recorded(record, monkeypatch, tmp_path):
    monkeypatch.setattr(record.subprocess, "run", fake_run(result_line(True, 0)))
    entry = record.run_workload(tmp_path, "pi-mc", 1.0)
    assert entry == {"detail": {"spread": {}}, "result": result_line(True, 0)}


@pytest.mark.parametrize("correct,failed", [(False, 1), (False, 0), (True, 2)])
def test_wrong_bytes_or_failed_runs_stop_the_record(record, monkeypatch, tmp_path, correct, failed):
    # run.py exits 0 when it reports "correct": false, so its exit code alone
    # would let a wrong-bytes run into BENCH_<pr>.json
    monkeypatch.setattr(record.subprocess, "run", fake_run(result_line(correct, failed)))
    with pytest.raises(SystemExit, match="nothing recorded"):
        record.run_workload(tmp_path, "regime-mc", 1.0)


def test_nonzero_exit_stops_the_record(record, monkeypatch, tmp_path):
    monkeypatch.setattr(record.subprocess, "run", fake_run(result_line(True, 0), returncode=1))
    with pytest.raises(SystemExit, match="failed"):
        record.run_workload(tmp_path, "capture-dump", 1.0)
