"""The traced benchmark's hooks still fit the package.

`perfbench/hooks.py` patches named functions of the package and counts each
call's work from its arguments or its result (`.codes`, `.iterations`,
`.window`, an array's size).  A renamed function fails its install; a
return value that loses a field the count reads, or a call path that no
longer goes through a hooked name, shows here as a hook that does not fire
or counts nothing.  Each run is a fresh interpreter, since installing the
tracer patches the package for good.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, sys
import stochadc, stochadc.cli as cli
import hooks

tracer = hooks.Tracer()
tracer.install(stochadc)
rc = tracer.span(hooks.ROOT_SPAN, cli.main, sys.argv[1:])
layers = hooks.layer_stats(tracer.spans)["layers"]
counted = [name for name, (_, count) in hooks.HOOKS.items() if count is not None]
print(json.dumps({"rc": rc, "layers": layers, "counted": counted}))
"""

FRAME = {"config.load_config", "experiments.write_artifacts", "experiments.run_experiment"}
PI_TRIM = FRAME | {"pi.pi_sweep", "pi.trim_paths", "pi.inverted_segments", "core.keyed_normal"}
ADC_SINE = FRAME | {
    "stdc.count_edges_batch", "stdc.adapt_offset", "interleaver.AdcSystem",
    "interleaver.schedule_sampling", "interleaver.convert_pair_arrays",
    "interleaver.run_capture", "interleaver.adapt_offsets", "interleaver.align_outputs",
    "interleaver.calibrate_skew", "stimulus.SineStimulus", "pi.pi_output",
    "core.keyed_normal", "metrics.sndr_enob",
}


def traced_layers(tmp_path, argv) -> tuple[dict, list]:
    """The per-layer stats of one traced `cli.main` call in a fresh
    interpreter, and the hooks that count work."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, *argv, "--out", str(tmp_path / "out")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["rc"] == 0
    return result["layers"], result["counted"]


@pytest.mark.parametrize(
    "experiment, config, expected",
    [("pi-trim", "pi_trim_injected.yaml", PI_TRIM), ("adc-sine", "skewcal.yaml", ADC_SINE)],
    ids=["pi-trim", "adc-sine"],
)
def test_every_expected_hook_fires_and_counts(tmp_path, experiment, config, expected):
    layers, counted = traced_layers(
        tmp_path, [experiment, "--config", str(ROOT / "configs" / config)]
    )
    assert {name for name, entry in layers.items() if entry["calls"]} == expected
    for name in expected & set(counted):
        assert layers[name]["count"] > 0, name
    if experiment == "adc-sine":
        # the hook patches AdcSystem's record constructor, which the one
        # builder calls once per converter
        assert layers["interleaver.AdcSystem"]["calls"] == 1


def test_the_pi_monte_carlo_holds_the_benchmarks_traced_gate(tmp_path):
    # the `pi-mc` workload as perfbench/run.py writes its config: the hooks
    # that fire are the workload's `fires`, and `pi.trim_paths` is called
    # once per trial, as its exact gate requires
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = run  # its dataclasses look their module up
    try:
        spec.loader.exec_module(run)
    finally:
        del sys.modules[spec.name]
    workload = run.WORKLOADS["pi-mc"]
    cfg = run.write_config(workload, tmp_path / "config.yaml")
    assert cfg["montecarlo"]["trials"] == 400
    [argv] = workload.ops
    layers, counted = traced_layers(tmp_path, [*argv, "--config", str(tmp_path / "config.yaml")])
    assert {name for name, entry in layers.items() if entry["calls"]} == workload.fires
    for name in workload.fires & set(counted):
        assert layers[name]["count"] > 0, name
    for metric, expected in workload.exact.items():
        name, stat = metric.rsplit(".", 1)
        assert layers[name][stat] == expected(cfg), metric
    assert layers["pi.trim_paths"]["calls"] == cfg["montecarlo"]["trials"]
