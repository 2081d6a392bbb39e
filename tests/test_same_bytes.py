"""bench/same_bytes.py reports every artifact, stream and exit code that
differs between two runs of the shipped matrix, and nothing else."""

import importlib.util
from pathlib import Path

import pytest

SAME_BYTES = Path(__file__).resolve().parent.parent / "bench" / "same_bytes.py"


@pytest.fixture
def same_bytes():
    spec = importlib.util.spec_from_file_location("bench_same_bytes", SAME_BYTES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_run(root: Path, config: str, name: str, artifact: bytes, stderr: bytes = b"",
              exit_code: int = 0) -> None:
    """One run as `run_matrix` leaves it, printing the path it wrote."""
    run = root / config / name
    (run / "out").mkdir(parents=True)
    (run / "out" / "capture.csv").write_bytes(artifact)
    (run / "stdout").write_text(f"{name} seed=3: ok\n  wrote {run / 'out' / 'capture.csv'}\n")
    (run / "stderr").write_bytes(stderr)
    (run / "exit_code").write_text(f"{exit_code}\n")


def test_the_same_runs_under_other_roots_do_not_differ(same_bytes, tmp_path):
    # each tree prints its own output paths, which the comparison masks
    for tree in ("a", "b"):
        write_run(tmp_path / tree, "ideal", "adc-sine", b"1,2\n")
        write_run(tmp_path / tree, "fom", "adc-sine", b"", b"config error: x\n", 2)
    assert same_bytes.differences(tmp_path / "a", tmp_path / "b") == []


def test_every_difference_is_reported(same_bytes, tmp_path):
    write_run(tmp_path / "a", "ideal", "adc-sine", b"1,2\n")
    write_run(tmp_path / "b", "ideal", "adc-sine", b"1,3\n")
    write_run(tmp_path / "a", "fom", "adc-sine", b"", b"config error: x\n", 2)
    write_run(tmp_path / "b", "fom", "adc-sine", b"", b"config error: y\n", 2)
    write_run(tmp_path / "a", "regime", "calibrate", b"", b"", 3)
    write_run(tmp_path / "b", "regime", "calibrate", b"", b"", 0)
    write_run(tmp_path / "a", "skewcal", "fom", b"")
    assert same_bytes.differences(tmp_path / "a", tmp_path / "b") == [
        "differs: fom/adc-sine/stderr",
        "differs: ideal/adc-sine/out/capture.csv",
        "differs: regime/calibrate/exit_code",
        "only in this tree: skewcal/fom/exit_code",
        "only in this tree: skewcal/fom/out/capture.csv",
        "only in this tree: skewcal/fom/stderr",
        "only in this tree: skewcal/fom/stdout",
    ]


def test_a_path_is_masked_only_in_stdout_and_stderr(same_bytes, tmp_path):
    # an artifact that holds its own path differs: the runs wrote other bytes
    for tree in ("a", "b"):
        write_run(tmp_path / tree, "ideal", "adc-sine", str(tmp_path / tree).encode())
    assert same_bytes.differences(tmp_path / "a", tmp_path / "b") == [
        "differs: ideal/adc-sine/out/capture.csv",
    ]
