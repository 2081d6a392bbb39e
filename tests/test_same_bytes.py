"""bench/same_bytes.py reports every artifact, stream and exit code that
differs between two runs of the shipped matrix, and nothing else."""

import csv
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


def test_the_variants_run_the_memos_miss_and_bypass_paths_and_trim_rebuilds(
    same_bytes, tmp_path, monkeypatch
):
    # a checkout holding only configs/regime.yaml and configs/pi_mc.yaml, run
    # through montecarlo alone: the matrix's two runs and the three variants
    checkout = tmp_path / "checkout"
    (checkout / "configs").mkdir(parents=True)
    (checkout / "src").symlink_to(SAME_BYTES.parent.parent / "src")
    shipped = {}
    for name in ("regime.yaml", "pi_mc.yaml"):
        shipped[name] = (SAME_BYTES.parent.parent / "configs" / name).read_text(encoding="utf-8")
        (checkout / "configs" / name).write_text(shipped[name], encoding="utf-8")
    monkeypatch.setattr(same_bytes, "experiment_names", lambda checkout, env: ["montecarlo"])
    assert same_bytes.run_matrix(checkout, tmp_path / "runs") == 5
    rows = {}
    for name in ("regime", "regime-pi-mismatch", "regime-jitter", "pi_mc", "pi-mc-trims"):
        run = tmp_path / "runs" / name / "montecarlo"
        assert (run / "exit_code").read_text() == "0\n", (run / "stderr").read_text()
        rows[name] = (run / "out" / "montecarlo.csv").read_bytes()
    # each variant's config is its base config with its one field set, and
    # moves the trials
    configs = {
        name: (tmp_path / "runs" / name / "montecarlo" / "config.yaml").read_text()
        for name in same_bytes.VARIANTS
    }
    regime = shipped["regime.yaml"]
    assert configs["regime-pi-mismatch"] == regime + "pi:\n  tap_sigma_rel: 0.05\n"
    assert configs["regime-jitter"] == regime + "system:\n  sampling_jitter: 2.0e-13\n"
    assert configs["pi-mc-trims"] == shipped["pi_mc.yaml"].replace(
        "  skew_sigma_rel: 0.15\n", "  skew_sigma_rel: 0.35\n"
    )
    assert len(set(rows.values())) == 5
    # the shipped PI Monte Carlo trims no trial at this seed; the variant 35
    trims = {}
    for name in ("pi_mc", "pi-mc-trims"):
        text = rows[name].decode().splitlines()[2:]
        trims[name] = sum(int(row["iterations"]) > 1 for row in csv.DictReader(text))
    assert trims == {"pi_mc": 0, "pi-mc-trims": 35}


CONFIG = """# a comment
a: 1
pi:
  tap_sigma_rel: 0.05  # a trailing comment
  trim_enabled: true
output:
  dir: out
"""


@pytest.mark.parametrize(
    "dotted, value, want",
    [
        # a key the config has: its line is rewritten
        ("pi.tap_sigma_rel", "0.1", CONFIG.replace("0.05  # a trailing comment", "0.1")),
        ("pi.trim_enabled", "false", CONFIG.replace("true", "false")),
        # a section the config lacks is appended
        ("system.sampling_jitter", "2.0e-13", CONFIG + "system:\n  sampling_jitter: 2.0e-13\n"),
    ],
    ids=["a-commented-line", "a-plain-line", "a-missing-section"],
)
def test_a_variant_sets_one_field_of_its_config(same_bytes, dotted, value, want):
    assert same_bytes.with_field(CONFIG, dotted, value) == want


def test_a_section_without_the_key_is_refused(same_bytes):
    # the key of another section (`output.dir`) is not this section's
    with pytest.raises(ValueError, match="section has no dir"):
        same_bytes.with_field(CONFIG, "pi.dir", "x")
