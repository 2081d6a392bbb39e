"""Record the artifact digests the benchmark checks against.

Usage (from the root of a checkout): python3 perfbench/reference.py [N_SEEDS]

Runs every workload once for each seed in range(N_SEEDS) (default 100),
through the same fresh-interpreter repetition the benchmark times, and
writes the sha256 of every artifact of every cli.main call to
perfbench/reference.json.  Rerun it only at a commit whose artifacts are
known to be right: a later run is judged against these digests.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    n_seeds = int(sys.argv[1]) if len(sys.argv) > 1 else 100
    run.WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="reference-", dir=run.WORK_DIR))
    reference = {}
    failures = []
    try:
        for name, workload in run.WORKLOADS.items():
            config_path = work / workload.config
            run.write_config(workload, config_path)
            reference[name] = {}
            for seed in range(n_seeds):
                rep_dir = work / f"{name}-{seed}"
                argvs = run.op_argvs(workload, config_path, seed, rep_dir)
                result, op_digests = run.run_child(argvs, rep_dir, False, work / "spans.jsonl")
                if result is None or any(op["rc"] != 0 for op in result["ops"]):
                    failures.append(f"{name} seed {seed}")
                    continue
                reference[name][str(seed)] = op_digests
            print(f"{name}: {len(reference[name])} seeds recorded", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if failures:
        print("failed: " + ", ".join(failures), file=sys.stderr)
        return 1
    run.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
