"""The traced benchmark's hooks still fit the package.

`perfbench/hooks.py` patches named functions of the package and counts each
call's work from its arguments or its result (`.codes`, `.iterations`,
`.window`, an array's size).  A renamed function fails its install; a
return value that loses a field the count reads, or a call path that no
longer goes through a hooked name, shows here as a hook that does not fire
or counts nothing.  Each run is a fresh interpreter, since installing the
tracer patches the package for good.
"""

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


@pytest.mark.parametrize(
    "experiment, config, expected",
    [("pi-trim", "pi_trim_injected.yaml", PI_TRIM), ("adc-sine", "skewcal.yaml", ADC_SINE)],
    ids=["pi-trim", "adc-sine"],
)
def test_every_expected_hook_fires_and_counts(tmp_path, experiment, config, expected):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    argv = [experiment, "--config", str(ROOT / "configs" / config), "--out", str(tmp_path)]
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["rc"] == 0
    layers = result["layers"]
    assert {name for name, entry in layers.items() if entry["calls"]} == expected
    for name in expected & set(result["counted"]):
        assert layers[name]["count"] > 0, name
    if experiment == "adc-sine":
        # the hook patches AdcSystem's record constructor, which the one
        # builder calls once per converter
        assert layers["interleaver.AdcSystem"]["calls"] == 1
