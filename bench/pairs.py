"""Benchmark another checkout against this tree in alternating pairs.

    python3 bench/pairs.py ../parent --workload capture-dump --pairs 10 --seconds 3

Each pair runs `perfbench/run.py --workload W --seed SEED --seconds S
--trace 0` once in the other checkout (the parent) and once in this tree,
each from its own directory.  Which side runs first swaps every pair, the
parent first in the odd-numbered ones, because the first of two runs back
to back reads differently.  Each pair's end-to-end metrics are printed as
it ends; then, per metric of BENCHMARK.json's `end_to_end` list, the
parent's and this tree's medians, the distance between the parent's
quartiles, and in how many pairs this tree read better (a tie counts for
neither side), with a `no regression` line.  That line reads "worse" when
this tree's median is worse than the parent's by more than the metric's
`bound`, a fraction of the parent's median; "unresolved" when the parent's
quartile distance is wider than the bound, unless every run of this tree
reads better than every run of the parent; else "within bound".  The exit
code is 1 if any run reported `correct` other than true or a failed
operation, else 0.

    python3 bench/pairs.py ../parent --workload pi-mc --record BENCH_36.json

With --record FILE (at the root of this tree) the run is kept under
`workloads.<workload>` of FILE, next to the workloads already there: the
seed and run length, each side's git revision, whether its tree differs
from that revision and the sha256 of its `src/` files (which tells two
uncommitted trees apart), every pair's two result lines in the order they
ran, and the summary rows above.  A workload FILE already holds is refused
before anything runs, and a run that is not `correct` or has a failed
operation stops the record before anything is written.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_side(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line (correct, attempted, failed, metrics) of one
    `perfbench/run.py` run of the checkout."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{checkout}: perfbench/run.py --workload {workload} failed "
                 f"({proc.returncode}): {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def git(checkout: Path, *args: str) -> str | None:
    """The output of a git command in the checkout, None outside a work tree."""
    proc = subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def side_record(checkout: Path) -> dict:
    digest = hashlib.sha256()
    for path in sorted((checkout / "src").rglob("*.py")):
        digest.update(str(path.relative_to(checkout)).encode() + b"\0" + path.read_bytes())
    status = git(checkout, "status", "--porcelain", "--untracked-files=no")
    return {"revision": git(checkout, "rev-parse", "HEAD"),
            "dirty": None if status is None else bool(status),
            "source_sha256": digest.hexdigest()}


def is_good(result: dict) -> bool:
    return result["correct"] is True and result["failed"] == 0


def _iqr(values: list) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarize(pairs: list, end_to_end: list) -> list[dict]:
    """Per metric of `end_to_end` (BENCHMARK.json's list) that every run
    reports: both medians, the parent's quartile distance, the pairs in
    which the change read better, how much worse the change's median is
    (`worse_by`, a fraction of the parent's) and the no-regression verdict.
    `pairs` holds (parent, change) result lines."""
    rows = []
    for spec in end_to_end:
        name = spec["name"]
        if not all(name in side["metrics"] for pair in pairs for side in pair):
            continue
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        sign = -1 if spec["better"] == "lower" else 1
        row = {
            "metric": name, "unit": spec["unit"], "better": spec["better"],
            "bound": spec["bound"],
            "parent": statistics.median(parent), "change": statistics.median(change),
            "parent_iqr": _iqr(parent),
            "wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
            "pairs": len(pairs),
        }
        # the change's median against the parent's, as a fraction of the
        # parent's: above 0 is worse
        row["worse_by"] = sign * (row["parent"] - row["change"]) / row["parent"]
        if row["worse_by"] > spec["bound"]:
            row["verdict"] = "worse"
        elif row["parent_iqr"] / row["parent"] > spec["bound"] and not all(
            sign * (c - p) > 0 for c in change for p in parent
        ):
            row["verdict"] = "unresolved"
        else:
            row["verdict"] = "within bound"
        rows.append(row)
    return rows


def report(rows: list) -> str:
    return "\n".join(
        f"{r['metric']} ({r['unit']}, {r['better']} is better): {r['parent']:.6g} -> "
        f"{r['change']:.6g} [parent IQR {r['parent_iqr']:.3g}], "
        f"change better in {r['wins']} of {r['pairs']}\n"
        f"  no regression: {r['verdict']} (median {abs(r['worse_by']):.1%} "
        f"{'worse' if r['worse_by'] > 0 else 'better'}, bound {r['bound']:.0%}, "
        f"parent IQR {r['parent_iqr'] / r['parent']:.1%} of its median)"
        for r in rows
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="the checkout to compare this tree with")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=3.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--record", type=Path, help="a BENCH_<pr>.json to keep the run in")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sides = {"parent": args.parent.resolve(), "change": ROOT}
    record = ROOT / args.record if args.record else None
    kept = json.loads(record.read_text(encoding="utf-8")) if record and record.exists() else {}
    if args.workload in kept.get("workloads", {}):
        sys.exit(f"{args.record} already holds {args.workload}; nothing recorded")
    pairs, runs, bad = [], [], 0
    for i in range(args.pairs):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        results = {side: run_side(sides[side], args.workload, args.seed, args.seconds)
                   for side in order}
        bad += sum(not is_good(result) for result in results.values())
        if bad and record:
            sys.exit(f"pair {i + 1}: a run reported correct other than true or a failed "
                     "operation; nothing recorded")
        pairs.append((results["parent"], results["change"]))
        runs.append([{"side": side, "result": results[side]} for side in order])
        shown = "  ".join(
            f"{name} {results['parent']['metrics'][name]['value']:.6g} -> "
            f"{results['change']['metrics'][name]['value']:.6g}"
            for name in results["parent"]["metrics"] if name in results["change"]["metrics"]
        )
        print(f"pair {i + 1} ({order[0]} first): {shown}", flush=True)
    print(f"{args.workload}, {args.pairs} pairs, seed {args.seed}, --seconds {args.seconds}: "
          "median parent -> change")
    rows = summarize(pairs, spec["end_to_end"])
    print(report(rows))
    if record:
        kept.setdefault("workloads", {})[args.workload] = {
            "seed": args.seed, "seconds": args.seconds,
            "sides": {side: side_record(checkout) for side, checkout in sides.items()},
            "pairs": runs, "summary": rows,
        }
        record.write_text(json.dumps(kept, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {args.workload} to {args.record}")
    if bad:
        print(f"{bad} runs reported correct other than true or a failed operation")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
