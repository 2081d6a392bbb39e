"""Compare every shipped run of this tree with another checkout, byte for byte.

    python3 bench/same_bytes.py ../parent

Runs each checkout's shipped matrix, every `configs/*.yaml` through every
experiment of its `EXPERIMENT_NAMES`, and the `VARIANTS` Monte Carlo runs,
through its own command line at `--seed 3` with `PYTHONWARNINGS=error`, each
run in a directory of its own under a temporary root.  Then it compares the
two trees file by file: every artifact, each run's stdout and stderr (with
the temporary root masked, so the output paths the runs print do not count)
and its exit code.  Every difference is printed, and the exit code is 1 if
there is any, else 0.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 3
# Monte Carlo runs of configs/regime.yaml with one section appended (the file
# has neither): PI mismatch gives each trial its own sampling grid, and
# sampling jitter bypasses the trials' shared-grid memo, so the memo's miss
# and bypass paths are compared as well as the shared grid the matrix runs
VARIANTS = {
    "regime-pi-mismatch": "pi:\n  tap_sigma_rel: 0.05\n",
    "regime-jitter": "system:\n  sampling_jitter: 2.0e-13\n",
}


def experiment_names(checkout: Path, env: dict) -> list[str]:
    code = "from stochadc.experiments import EXPERIMENT_NAMES; print(*EXPERIMENT_NAMES)"
    return subprocess.run(
        [sys.executable, "-c", code], cwd=checkout, env=env, check=True,
        capture_output=True, text=True,
    ).stdout.split()


def run_matrix(checkout: Path, root: Path) -> int:
    """Run the checkout's shipped matrix and `VARIANTS` into `root`, as
    `<config>/<experiment>/{out/, stdout, stderr, exit_code}`, a variant's
    config written next to them as `config.yaml`; return the number of runs."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), PYTHONWARNINGS="error",
               PYTHONDONTWRITEBYTECODE="1")
    runs = [
        (config, name, root / config.stem / name)
        for config in sorted((checkout / "configs").glob("*.yaml"))
        for name in experiment_names(checkout, env)
    ]
    regime = (checkout / "configs" / "regime.yaml").read_text(encoding="utf-8")
    for variant, section in VARIANTS.items():
        run = root / variant / "montecarlo"
        run.mkdir(parents=True)
        (run / "config.yaml").write_text(regime + section, encoding="utf-8")
        runs.append((run / "config.yaml", "montecarlo", run))
    for config, name, run in runs:
        run.mkdir(parents=True, exist_ok=True)
        proc = subprocess.run(
            [sys.executable, "-m", "stochadc.cli", name, "--config", str(config),
             "--seed", str(SEED), "--out", str(run / "out")],
            cwd=checkout, env=env, capture_output=True,
        )
        (run / "stdout").write_bytes(proc.stdout)
        (run / "stderr").write_bytes(proc.stderr)
        (run / "exit_code").write_text(f"{proc.returncode}\n")
    return len(runs)


def _files(root: Path) -> dict[str, bytes]:
    """Every file under `root` by its relative path, stdout and stderr with
    `root` masked."""
    files = {}
    for path in (p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name in ("stdout", "stderr"):
            data = data.replace(str(root).encode(), b"<root>")
        files[path.relative_to(root).as_posix()] = data
    return files


def differences(a: Path, b: Path) -> list[str]:
    """One line per file that is in one tree only or differs between them."""
    files_a, files_b = _files(a), _files(b)
    lines = []
    for name in sorted(files_a.keys() | files_b.keys()):
        if name not in files_b:
            lines.append(f"only in this tree: {name}")
        elif name not in files_a:
            lines.append(f"only in the other checkout: {name}")
        elif files_a[name] != files_b[name]:
            lines.append(f"differs: {name}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", type=Path, help="the checkout to compare with, e.g. the parent")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        here, there = Path(tmp) / "this", Path(tmp) / "other"
        runs = run_matrix(ROOT, here)
        run_matrix(args.checkout.resolve(), there)
        artifacts = sum(1 for p in here.glob("*/*/out/**/*") if p.is_file())
        lines = differences(here, there)
    for line in lines:
        print(line)
    print(f"{runs} runs, {artifacts} artifacts: "
          f"{len(lines)} difference{'s' * (len(lines) != 1)} in artifacts, stdout, stderr "
          "and exit codes")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
