"""Record one benchmark run of a checkout into BENCH_<pr>.json.

    python3 bench/record.py --pr N --label change
    python3 bench/record.py --pr N --label parent --checkout ../parent

Runs `perfbench/run.py` of the checkout (default: this one) on every
workload in its BENCHMARK.json, at seed 0 (its artifacts have reference
digests) and for BENCHMARK.json's `run_seconds`, so every record is as
long as the benchmark's own runs.  The record goes under `records.<label>`
of BENCH_<pr>.json at the root of this repository, next to any records
already there.  Per workload it holds the two lines run.py ends with:
`detail` (the spread of every metric, the raw `unscaled_wall_s`, the host
speed reference times `ref_s` and the machine fingerprint) and `result`
(correct, attempted, failed and the rescaled metrics).  The record also names the checkout's git revision,
whether its tree differs from that revision, and the sha256 of its
`src/` files, which tells two uncommitted trees apart.  A workload whose
artifacts miss the reference digests, or with any failed run, stops the
record before anything is written.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 0


def git(checkout: Path, *args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=checkout, check=True, capture_output=True, text=True
    ).stdout.strip()


def source_digest(checkout: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((checkout / "src").rglob("*.py")):
        digest.update(str(path.relative_to(checkout)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_workload(checkout: Path, workload: str, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit(f"perfbench/run.py --workload {workload} failed ({proc.returncode}): "
                 f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    # run.py exits 0 even when its artifacts miss the reference digests
    if result["correct"] is not True or result["failed"] > 0:
        sys.exit(f"perfbench/run.py --workload {workload} reported correct={result['correct']} "
                 f"with {result['failed']} failed runs; nothing recorded")
    return {"detail": json.loads(lines[-2]), "result": result}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True, help="names the file BENCH_<pr>.json")
    parser.add_argument("--label", required=True, help="record name, e.g. parent or change")
    parser.add_argument("--checkout", type=Path, default=ROOT, help="tree to benchmark")
    args = parser.parse_args()

    checkout = args.checkout.resolve()
    spec = json.loads((checkout / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    record = {
        "revision": git(checkout, "rev-parse", "HEAD"),
        "dirty": bool(git(checkout, "status", "--porcelain", "--untracked-files=no")),
        "source_sha256": source_digest(checkout),
        "seed": SEED,
        "seconds": seconds,
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        record["workloads"][workload] = run_workload(checkout, workload, seconds)
        result = record["workloads"][workload]["result"]
        print(f"{args.label} {workload}: correct={result['correct']} "
              f"wall_s={result['metrics']['wall_s']['value']:.4f}", flush=True)

    out = ROOT / f"BENCH_{args.pr}.json"
    bench = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {"pr": args.pr, "records": {}}
    bench["records"][args.label] = record
    out.write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out.relative_to(ROOT)} records {sorted(bench['records'])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
