"""stochadc benchmark: three CLI workloads, host time end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload regime-mc --seed 0 --seconds 35 --trace 0

Each repetition is a fresh interpreter (perfbench/child.py) that times
`import stochadc.cli` and then makes the workload's `cli.main` calls, one at
a time (a closed loop with one client).  Repetitions run until --seconds
have passed.  The times (setup_s, wall_s and the rates made from it) are
first rescaled by the host speed reference that the child times around its
calls (speedref.py).  wall_s reports the lower quartile over the
repetitions, its rates the upper quartile, every other metric the median.
Every call's artifacts are checked against sha256 digests recorded at the
commit that introduced the benchmark (perfbench/reference.json), or, for a seed
without a reference, against the first repetition.  --trace 1 alternates
untraced and traced repetitions and reports the per-layer metrics instead.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it gives the spread of every
metric and the machine fingerprint.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import yaml

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".perfbench"
REFERENCE_PATH = BENCH_DIR / "reference.json"
MIN_REPS = 3
CHILD_TIMEOUT_S = 120
ADAPTATION_WINDOW = 10_000  # AdaptationConfig.window when a config leaves it out
PI_CODES = 256


def _get(cfg: dict, dotted: str, default=None):
    for key in dotted.split("."):
        if not isinstance(cfg, dict) or key not in cfg:
            return default
        cfg = cfg[key]
    return cfg


def _window(cfg: dict) -> int:
    return _get(cfg, "adc.adaptation.window", ADAPTATION_WINDOW)


@dataclass(frozen=True)
class Workload:
    config: str  # shipped config under configs/
    overrides: dict  # dotted key -> value; the only fields changed
    ops: tuple  # one argv tail per cli.main call; {cal} is op 0's calibration file
    trials: object  # cfg -> trials completed per repetition
    samples: object  # cfg -> simulated samples per repetition
    fires: frozenset  # hooks that fire in the traced run; no other hook may
    exact: dict  # per-layer metric -> cfg -> exact expected count


CAPTURE_HOOKS = frozenset({
    "stdc.count_edges_batch", "stdc.adapt_offset", "interleaver.AdcSystem",
    "interleaver.schedule_sampling", "interleaver.convert_pair_arrays",
    "interleaver.run_capture", "interleaver.adapt_offsets", "interleaver.align_outputs",
    "stimulus.SineStimulus", "pi.pi_output", "core.keyed_normal", "metrics.sndr_enob",
    "config.load_config", "experiments.write_artifacts", "experiments.run_experiment",
})

N_CAPTURE = 2**18


def _regime_samples(cfg):
    per_trial = 16 * _window(cfg) + _get(cfg, "capture.n_samples") + _get(cfg, "capture.linearity_samples")
    return _get(cfg, "montecarlo.trials") * per_trial


def _capture_samples(cfg):
    return (16 * _window(cfg) + _get(cfg, "system.calibration.skew_capture_samples")
            + _get(cfg, "capture.n_samples"))


WORKLOADS = {
    # 20 mismatch trials of adc-sine with a linearity capture: STDC count and
    # offset warmup dominate, almost nothing is written.
    "regime-mc": Workload(
        config="regime.yaml",
        overrides={},
        ops=(("montecarlo",),),
        trials=lambda cfg: _get(cfg, "montecarlo.trials"),
        samples=_regime_samples,
        fires=CAPTURE_HOOKS | {"metrics.code_density_linearity"},
        exact={"stdc.count_edges_batch.samples": _regime_samples},
    ),
    # PI trim Monte Carlo: only the interpolator and the keyed draws, never a
    # capture.  Simulated samples are the PI phases of the pre- and post-trim
    # sweeps of every trial.
    "pi-mc": Workload(
        config="pi_mc.yaml",
        overrides={"montecarlo.trials": 400},
        ops=(("montecarlo",),),
        trials=lambda cfg: _get(cfg, "montecarlo.trials"),
        samples=lambda cfg: 2 * PI_CODES * _get(cfg, "montecarlo.trials"),
        fires=frozenset({
            "pi.pi_sweep", "pi.trim_paths", "pi.inverted_segments", "core.keyed_normal",
            "config.load_config", "experiments.write_artifacts", "experiments.run_experiment",
        }),
        exact={"pi.trim_paths.calls": lambda cfg: _get(cfg, "montecarlo.trials")},
    ),
    # One calibrated converter, then a long capture resumed from the
    # persisted calibration: writer, align, large FFT and memory show here.
    # One calibrate + measure pair is one trial.
    "capture-dump": Workload(
        config="skewcal.yaml",
        overrides={"capture.n_samples": N_CAPTURE, "stimulus.coherent_bin": 1433 * N_CAPTURE // 4096 + 1},
        ops=(("calibrate",), ("adc-sine", "--calibration", "{cal}")),
        trials=lambda cfg: 1,
        samples=_capture_samples,
        fires=CAPTURE_HOOKS | {"interleaver.calibrate_skew"},
        exact={"stdc.count_edges_batch.samples": _capture_samples},
    ),
}


def write_config(workload: Workload, path: Path) -> dict:
    cfg = yaml.safe_load((ROOT / "configs" / workload.config).read_text(encoding="utf-8"))
    for dotted, value in workload.overrides.items():
        *parents, key = dotted.split(".")
        node = cfg
        for part in parents:
            node = node.setdefault(part, {})
        node[key] = value
    path.write_text(yaml.safe_dump(cfg, sort_keys=True), encoding="utf-8")
    return cfg


def op_argvs(workload: Workload, config_path: Path, seed: int, rep_dir: Path) -> list:
    argvs = []
    for i, (experiment, *extra) in enumerate(workload.ops):
        extra = [arg.format(cal=rep_dir / "op0" / "calibration.json") for arg in extra]
        argvs.append([experiment, "--config", str(config_path), "--seed", str(seed),
                      "--out", str(rep_dir / f"op{i}"), *extra])
    return argvs


def digests(directory: Path) -> dict:
    if not directory.is_dir():
        return {}
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir())}


def run_child(argvs: list, rep_dir: Path, trace: bool, spans_path: Path):
    """One repetition in a fresh interpreter; returns (result or None, digests per op)."""
    rep_dir.mkdir(parents=True)
    request = {
        "ops": argvs,
        "trace": trace,
        "package_dir": str(ROOT / "src" / "stochadc"),
        "result_path": str(rep_dir / "result.json"),
        "spans_path": str(spans_path),
    }
    request_path = rep_dir / "request.json"
    request_path.write_text(json.dumps(request), encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["TMPDIR"] = str(rep_dir)
    result = None
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "child.py"), str(request_path)],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            timeout=CHILD_TIMEOUT_S, text=True,
        )
        if proc.returncode == 0:
            result = json.loads((rep_dir / "result.json").read_text(encoding="utf-8"))
        else:
            print(f"repetition exited with {proc.returncode}: {proc.stderr[-2000:]}", file=sys.stderr)
    except subprocess.TimeoutExpired:
        print(f"repetition exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
    op_digests = [digests(rep_dir / f"op{i}") for i in range(len(argvs))]
    shutil.rmtree(rep_dir)
    return result, op_digests


def check_trace(name: str, workload: Workload, cfg: dict, trace: dict, values: dict) -> None:
    """Fail loudly when a hook fires against the prediction or a count is off."""
    errors = []
    for hook, stat in trace["layers"].items():
        if (stat["calls"] > 0) != (hook in workload.fires):
            state = "never fires" if hook in workload.fires else "fires unexpectedly"
            errors.append(f"{hook} {state} ({stat['calls']} calls)")
    for metric, expected in workload.exact.items():
        if values[metric] != expected(cfg):
            errors.append(f"{metric} = {values[metric]}, config arithmetic gives {expected(cfg)}")
    if errors:
        sys.exit(f"traced run of {name} disagrees with its hooks: " + "; ".join(errors))


COUNT_STATS = {"samples", "draws", "bytes", "iterations"}

# The work of a repetition is fixed and runs single-threaded, and its CPU time
# equals its wall time, so a slower repetition was slowed by other load on
# the host.  Each repetition's times are multiplied by REF_NOMINAL_S over the
# host speed reference timed in the same child, which gives the seconds the
# repetition would take on a host where the reference takes REF_NOMINAL_S
# (about its time on a 2-vCPU Xeon host in a quiet phase).
REF_NOMINAL_S = 0.100


def speed_scale(result: dict) -> float:
    return REF_NOMINAL_S / statistics.mean(result["ref_s"])


# A slow phase that starts or ends inside a repetition is only partly seen by
# the reference timed around it, and such repetitions mostly read slow.  The
# lower quartile of the rescaled wall_s (upper for the rates made from it)
# moved least between quiet and busy spells of the host; every other metric
# is the median.
def lower_quartile(values: list) -> float:
    return statistics.quantiles(values, n=4)[0]


def upper_quartile(values: list) -> float:
    return statistics.quantiles(values, n=4)[2]


ESTIMATE = {"wall_s": lower_quartile, "trials_per_s": upper_quartile, "msps": upper_quartile}


def layer_values(names: list, trace: dict) -> dict:
    """Per-layer metric values of one traced repetition, by metric name."""
    layers = trace["layers"]
    values = {}
    for metric in names:
        hook, stat = metric.rsplit(".", 1)
        if hook == "trace":
            continue
        if metric == "interleaver.warmup_share":
            total = layers["interleaver.run_capture"]["count"]
            values[metric] = layers["interleaver.adapt_offsets"]["count"] / total if total else 0.0
        elif stat == "msps":
            busy = layers[hook]["busy_s"]
            values[metric] = layers[hook]["count"] / busy / 1e6 if busy else 0.0
        else:
            values[metric] = layers[hook]["count" if stat in COUNT_STATS else stat]
    return values


def spread(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"n": len(values), "min": min(values), "q1": q1, "median": median,
            "q3": q3, "max": max(values)}


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for needed in (ROOT / "src" / "stochadc" / "cli.py", ROOT / "configs", ROOT / "BENCHMARK.json"):
        if not needed.exists():
            sys.exit(f"{needed} not found: run from the root of a stochadc checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    workload = WORKLOADS[args.workload]
    reference = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
    expected = reference.get(args.workload, {}).get(str(args.seed))
    digests_from = "first repetition" if expected is None else REFERENCE_PATH.name

    WORK_DIR.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    spans_path = WORK_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    attempted = failed = lost = 0
    reps = {False: [], True: []}
    try:
        config_path = run_dir / workload.config
        cfg = write_config(workload, config_path)
        deadline = None
        n = 0
        while True:
            # repetition 0 warms the bytecode and file caches and is not timed
            traced = bool(args.trace) and n % 2 == 0 and n > 0
            rep_dir = run_dir / f"rep{n}"
            result, op_digests = run_child(
                op_argvs(workload, config_path, args.seed, rep_dir), rep_dir, traced, spans_path
            )
            if expected is None:
                expected = op_digests
            for i, op_digest in enumerate(op_digests):
                attempted += 1
                ok = result is not None and result["ops"][i]["rc"] == 0 and op_digest == expected[i]
                failed += not ok
            if n == 0:
                if result is None:
                    sys.exit("the warm-up repetition failed: see the error above")
                deadline = time.perf_counter() + args.seconds
            elif result is not None:
                reps[traced].append(result)
            else:
                lost += 1
            n += 1
            enough = all(len(reps[mode]) >= MIN_REPS for mode in {False, bool(args.trace)})
            if time.perf_counter() >= deadline and (enough or lost):
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if not all(len(reps[mode]) >= MIN_REPS for mode in {False, bool(args.trace)}):
        sys.exit(f"fewer than {MIN_REPS} repetitions completed: see the errors above")
    untraced = reps[False]
    walls = {mode: [sum(op["wall_s"] for op in r["ops"]) for r in reps[mode]] for mode in reps}
    scaled = {mode: [w * speed_scale(r) for w, r in zip(walls[mode], reps[mode])] for mode in reps}
    samples = {}
    if args.trace:
        for r in reps[True]:
            values = layer_values([m["name"] for m in wanted], r["trace"])
            check_trace(args.workload, workload, cfg, r["trace"], values)
            values["trace.coverage"] = r["trace"]["coverage"]
            for name, value in values.items():
                samples.setdefault(name, []).append(value)
        samples["trace.overhead_s"] = [statistics.median(scaled[True]) - statistics.median(scaled[False])]
    else:
        samples = {
            "setup_s": [r["setup_s"] * speed_scale(r) for r in untraced],
            "wall_s": scaled[False],
            "trials_per_s": [workload.trials(cfg) / w for w in scaled[False]],
            "msps": [workload.samples(cfg) / w / 1e6 for w in scaled[False]],
            "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
        }
    missing = [m["name"] for m in wanted if m["name"] not in samples]
    if missing:
        sys.exit(f"no measurement for metrics {missing}")
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "repetitions": {"untraced": len(untraced), "traced": len(reps[True])},
        "digests_from": digests_from,
        "unscaled_wall_s": spread(walls[False]),
        "ref_s": spread([statistics.mean(r["ref_s"]) for r in untraced]),
        "fingerprint": {"cpu": cpu_model(), "nproc": os.cpu_count(), **untraced[0]["versions"]},
        "spread": {m["name"]: spread(samples[m["name"]]) for m in wanted},
    }
    print(json.dumps(detail))
    metrics = {
        m["name"]: {"value": ESTIMATE.get(m["name"], statistics.median)(samples[m["name"]]), "unit": m["unit"]}
        for m in wanted
    }
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
