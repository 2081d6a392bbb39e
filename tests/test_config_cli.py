import dataclasses
import json
import os
import pickle
import re
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import stochadc
import stochadc.interleaver as il
import stochadc.pi as pimod
from stochadc.cli import main
from stochadc.config import (
    FomConfig,
    FomEntry,
    MonteCarloConfig,
    RunConfig,
    config_hash,
    config_to_dict,
    load_config,
    parse_config,
)
from stochadc.errors import (
    ConfigError,
    OverrangeError,
    PreconditionError,
    TrimConvergenceError,
)
from stochadc.experiments import CalibrationState, run_experiment, run_pi_trim
from stochadc.metrics import code_density_linearity
from stochadc.stdc import MAX_TAPS
from stochadc.stimulus import SineStimulus

from oracles import converter
from test_artifacts import LUT_CONFIG

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

MINIMAL_SINE = """
master_seed: 1
stimulus:
  type: sine
  coherent_bin: 101
  amplitude: 0.45
  common_mode: 0.525
capture:
  n_samples: 8192
"""

# a value other than the default for each field that feeds no result
PINNED_VALUES = {
    "system.track": 1.0e-12,
    "system.early": 4.0e-12,
    "system.late": 6.0e-12,
    "output.formats": ["csv"],
    "sweep.seeds": 2,
    "montecarlo.workers": 2,
    "stimulus.type": "ramp",
    "system.latencies": [3] * 16,
}

# fields held above 0 in each section's constructor
POSITIVE_FIELDS = ["adc.full_scale", "adc.unit_delay", "adc.d_offset", "pi.unit_delay"]

# every field a section's constructor holds in a numeric range
RANGE_FIELDS = POSITIVE_FIELDS + [
    "adc.tap_sigma_systematic",
    "adc.tap_sigma_random",
    "adc.slope_sigma",
    "adc.threshold_sigma",
    "adc.launch_lead_taps",
    "adc.adaptation.threshold",
    "pi.tap_sigma_rel",
    "pi.skew_sigma_rel",
    "system.sampling_jitter",
]

NAN, INF = float("nan"), float("inf")
FOM_ENTRY = {"label": "a", "power": 0.1, "enob": 5.6, "rate": 2.0e10}


def forbid_converter_builds(monkeypatch):
    """Fail the test on any mismatch draw or converter build."""

    def unbuilt(*args):
        raise AssertionError("a converter was drawn or built")

    monkeypatch.setattr(il, "normal_rows", unbuilt)
    monkeypatch.setattr(il, "_converter", unbuilt)


def config_sections() -> dict:
    """Every config section by the path its errors name, as a valid instance:
    those reached from the defaults, and one fom entry."""
    found = {}

    def walk(path, section):
        found[path] = section
        for f in dataclasses.fields(section):
            value = getattr(section, f.name)
            if dataclasses.is_dataclass(value):
                walk(f"{path}.{f.name}" if path else f.name, value)

    walk("", RunConfig())
    found["fom.entries[]"] = FomEntry(**FOM_ENTRY)
    return found


def wrong_values(valid) -> list:
    """Values of another kind than the valid value `valid`, and the
    non-finite numbers; every unset (None) field is a number."""
    if dataclasses.is_dataclass(valid):
        return [5, "abc", True, NAN]
    if isinstance(valid, bool):
        return ["false", 1, NAN, INF]
    if isinstance(valid, str):
        return [5, True, NAN, INF, -INF]
    if isinstance(valid, tuple):
        return ["abc", True, NAN, INF]
    return [True, "abc", NAN, INF, -INF]


def wrong_field_values() -> list:
    """(section path, field, wrong value, index of the list item it replaces
    or None) for every field of every section."""
    cases = []
    for path, section in config_sections().items():
        for f in dataclasses.fields(section):
            valid = getattr(section, f.name)
            cases += [(path, f.name, bad, None) for bad in wrong_values(valid)]
            if isinstance(valid, tuple) and valid:
                cases += [(path, f.name, bad, 0) for bad in wrong_values(valid[0])]
    return cases


WRONG_FIELD_VALUES = wrong_field_values()


def skewcal_with(skews: str) -> str:
    """configs/skewcal.yaml with its injected group skews replaced."""
    text = (CONFIG_DIR / "skewcal.yaml").read_text(encoding="utf-8")
    shipped = "skew_injection: [0.0, 5.0e-12, -5.0e-12, 5.0e-12]"
    assert shipped in text
    return text.replace(shipped, f"skew_injection: {skews}")


def shipped(name: str) -> str:
    return (CONFIG_DIR / name).read_text(encoding="utf-8")


# the configs whose calibration file a malformed case corrupts
CALIBRATED = {
    "minimal": MINIMAL_SINE,
    "ideal": shipped("ideal.yaml"),
    "adapt-off": MINIMAL_SINE + "system:\n  calibration:\n    adapt_offsets: false\n",
    "lut": LUT_CONFIG,
    "skewcal": shipped("skewcal.yaml"),
}


def _with(**fields):
    """A corruption of a calibration file that sets `fields`."""
    return lambda text, payload: json.dumps({**payload, **fields})


# (config, corruption of its calibration file, the message it exits 2 with);
# each rule's case runs on a config where no earlier rule refuses it
MALFORMED = [
    pytest.param("minimal", lambda text, payload: text[: len(text) // 2], "not valid JSON",
                 id="truncated"),
    pytest.param("minimal", lambda text, payload: "[1, 2]", "JSON object", id="not-an-object"),
    pytest.param("minimal", lambda text, payload: json.dumps({"version": 1}),
                 "missing config_hash", id="missing-keys"),
    pytest.param("minimal", _with(master_seed=2), "does not match this config/seed",
                 id="other-seed"),
    # true and 1.0 equal the integers 1 that `calibrate` writes: each used to exit 0
    pytest.param("minimal", _with(version=True), "calibration version must be an integer",
                 id="version-true"),
    pytest.param("minimal", _with(version=1.0), "calibration version must be an integer",
                 id="version-float"),
    pytest.param("minimal", _with(master_seed=True),
                 "calibration master_seed must be an integer", id="master-seed-true"),
    pytest.param("minimal", _with(master_seed=1.0),
                 "calibration master_seed must be an integer", id="master-seed-float"),
    # json.loads keeps a repeated key's last value, so the leading seed 7 was ignored
    pytest.param("minimal", lambda text, payload: '{"master_seed": 7, ' + text.lstrip()[1:],
                 "calibration file repeats the keys ['master_seed']", id="repeated-key"),
    pytest.param("minimal", _with(offset_codes=[25] * 15),
                 "offset_codes must be integers of shape (16,)", id="15-offset-codes"),
    pytest.param("minimal", _with(offset_codes=[1.5] * 16),
                 "offset_codes must be integers of shape (16,)", id="float-offset-codes"),
    pytest.param("minimal", _with(offset_codes=None),
                 "offset_codes must be integers of shape (16,)", id="null-offset-codes"),
    # this used to exit 0 with signed codes -192..192 and ENOB 2.10
    pytest.param("minimal", _with(offset_codes=[-40] * 16), "offset_codes must lie in [0, 255]",
                 id="negative-offset-codes"),
    # above any raw count: this used to exit 3 after the capture ("no noise power")
    pytest.param("ideal", _with(offset_codes=[300] * 16), "offset_codes must lie in [0, 255]",
                 id="offset-codes-above-n-taps"),
    # without the warmup every slice converts at the nominal code
    pytest.param("adapt-off", _with(offset_codes=[26] * 16), "offset_codes must lie in [25, 25]",
                 id="offset-codes-off-nominal"),
    pytest.param("minimal", _with(luts=[[0] * 256] * 16),
                 "luts must be null with system.calibration.lut off", id="luts-with-lut-off"),
    # this used to exit 0 with ENOB 6.82, where the fused run gives 8.01
    pytest.param("ideal", _with(pi_corrections=[3, -3, 10, -3]),
                 "pi_corrections must be null with system.calibration.skew off",
                 id="pi-corrections-with-skew-off"),
    pytest.param("lut", _with(luts=None), "luts must not be null with system.calibration.lut on",
                 id="no-luts-with-lut-on"),
    # this used to exit 0 with ENOB 2.15, where the fused run gives 6.64
    pytest.param("skewcal", _with(pi_corrections=None),
                 "pi_corrections must not be null with system.calibration.skew on",
                 id="no-pi-corrections-with-skew-on"),
    pytest.param("lut", _with(luts=[list(range(256))] * 15),
                 "luts must be integers of shape (16, 256)", id="15-luts"),
    pytest.param("lut", _with(luts=[list(range(255))] * 16),
                 "luts must be integers of shape (16, 256)", id="short-lut"),
    # in range, descending from entry 1 on
    pytest.param("lut", _with(luts=[[0, *range(127, -128, -1)]] * 16),
                 "luts must not fall from entry 1 on", id="non-monotone-lut"),
    # monotone, but mapping codes to 100..355: this used to exit 0,
    # writing corrected codes 228, 238, 248, ... and ENOB 8.005
    pytest.param("lut", _with(luts=[list(range(100, 356))] * 16),
                 "luts must lie in [-127, 127]", id="lut-out-of-range"),
    pytest.param("skewcal", _with(pi_corrections=[0, 0, 0]),
                 "pi_corrections must be integers of shape (4,)", id="3-pi-corrections"),
    # the two ends of the PI code range: these used to exit 3 after the
    # converter was built
    pytest.param("skewcal", _with(pi_corrections=[0, 0, 0, 32]),
                 "move the PI codes to [32, 96, 160, 256], outside [0, 255]",
                 id="pi-code-above-255"),
    pytest.param("skewcal", _with(pi_corrections=[0, -97, 0, 0]),
                 "move the PI codes to [32, -1, 160, 224], outside [0, 255]",
                 id="pi-code-below-0"),
]


@pytest.fixture(scope="module")
def calibrated(tmp_path_factory):
    """(config path, calibration file text) of a CALIBRATED config, from one
    `calibrate` run each."""
    made = {}

    def get(key):
        if key not in made:
            out = tmp_path_factory.mktemp(key)
            path = out / "run.yaml"
            path.write_text(CALIBRATED[key], encoding="utf-8")
            assert main(["calibrate", "--config", str(path), "--out", str(out)]) == 0
            made[key] = path, (out / "calibration.json").read_text()
        return made[key]

    return get


class TestConfigParsing:
    def test_default_config_constructs(self):
        cfg = RunConfig()
        assert cfg.adc.n_taps == 255

    def test_roundtrip_is_idempotent(self):
        def dump(cfg):
            return yaml.safe_dump(config_to_dict(cfg), sort_keys=True)

        cfg = parse_config(MINIMAL_SINE)
        text = dump(cfg)
        again = parse_config(text)
        assert again == cfg
        assert dump(again) == text
        assert config_hash(again) == config_hash(cfg)

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            parse_config("master_seed: 1\nwidget: 3\n")

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ConfigError, match="adc.*unknown keys"):
            parse_config("adc:\n  n_taps: 255\n  flux: 1\n")

    def test_non_coherent_sine_rejected_at_load(self):
        bad = MINIMAL_SINE.replace("coherent_bin: 101", "frequency: 1.0e+8")
        with pytest.raises(ConfigError, match="coherent"):
            parse_config(bad)

    def test_stimulus_below_threshold_rejected(self):
        bad = MINIMAL_SINE.replace("common_mode: 0.525", "common_mode: 0.4")
        with pytest.raises(ConfigError, match="threshold"):
            parse_config(bad)

    def test_exponent_without_decimal_point_accepted(self):
        cfg = parse_config("adc:\n  d_offset: 100e-12\n")
        assert cfg.adc.d_offset == pytest.approx(100e-12)

    def test_float_fields_take_ints_and_optional_fields_take_null(self):
        cfg = parse_config(MINIMAL_SINE + "adc:\n  vdd: 1\nsystem:\n  front_end_bandwidth: null\n")
        assert cfg.adc.vdd == 1
        assert cfg.system.front_end_bandwidth is None

    def test_shipped_configs_parse(self):
        for path in sorted(CONFIG_DIR.glob("*.yaml")):
            load_config(path)

    def test_hash_needs_no_hashable_config_and_survives_pickling(self):
        # the hash is computed from the serialized config, never keyed by config equality
        listed = RunConfig(montecarlo=MonteCarloConfig(percentiles=[5.0, 95.0]))
        tupled = RunConfig(montecarlo=MonteCarloConfig(percentiles=(5.0, 95.0)))
        assert config_hash(listed) == config_hash(tupled)
        assert config_hash(pickle.loads(pickle.dumps(listed))) == config_hash(listed)
        # a list of sections too
        entry = FomEntry(**FOM_ENTRY)
        assert config_hash(RunConfig(fom=FomConfig(entries=[entry]))) == config_hash(
            RunConfig(fom=FomConfig(entries=(entry,)))
        )

    @pytest.mark.parametrize(
        "skews,ok",
        [
            ("[0.0, -71.4e-12, 0.0, 0.0]", True),
            ("[0.0, -71.5e-12, 0.0, 0.0]", False),
            ("[10.0e-12, 81.4e-12, 10.0e-12, 10.0e-12]", True),
            ("[10.0e-12, 10.0e-12, 10.0e-12, 81.5e-12]", False),
        ],
    )
    def test_skew_beyond_half_the_skew_tone_period_rejected(self, skews, ok):
        # the skewcal skew tone is 1433/4096 of 20 GS/s: half a period is 71.46 ps
        text = skewcal_with(skews)
        if ok:
            parse_config(text)
        else:
            with pytest.raises(ConfigError, match="half the skew-tone period"):
                parse_config(text)
        # without the skew calibration nothing measures the skew
        parse_config(text.replace("skew: true", "skew: false"))

    def test_hash_tracks_content(self):
        a = parse_config(MINIMAL_SINE)
        b = parse_config(MINIMAL_SINE.replace("master_seed: 1", "master_seed: 2"))
        assert config_hash(a) != config_hash(b)


@pytest.mark.parametrize(
    "seed", [1.7, 1.0, True, np.float64(1.0), "1"],
    ids=["float", "integral-float", "bool", "numpy-float", "str"],
)
def test_run_experiment_refuses_a_seed_that_is_not_an_int(seed):
    # int() ran each of these as seed 1; a config file's master_seed is
    # refused at load for the same reason
    with pytest.raises(ConfigError, match="seed"):
        run_experiment("pi-trim", RunConfig(), seed=seed)


class TestCli:
    def write(self, tmp_path, text):
        p = tmp_path / "run.yaml"
        p.write_text(text, encoding="utf-8")
        return p

    def test_fom_experiment(self, tmp_path, capsys):
        code = main([
            "fom", "--config", str(CONFIG_DIR / "fom.yaml"), "--out", str(tmp_path)
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "fom" in out
        payload = json.loads((tmp_path / "fom.json").read_text())
        assert payload["metrics"]["fom_pj_interleaved_20gsps"] == pytest.approx(0.18, abs=0.005)

    def test_config_error_exit_code(self, tmp_path):
        p = self.write(tmp_path, "master_seed: 1\nbogus: true\n")
        assert main(["pi-sweep", "--config", str(p), "--out", str(tmp_path)]) == 2

    def test_n_taps_past_the_int16_bound_rejected_at_load(self, tmp_path, capsys):
        # counts and codes are int16: a chain longer than stdc.MAX_TAPS would
        # wrap its LUT address, so it is refused before any converter is built
        text = MINIMAL_SINE + f"adc:\n  n_taps: {MAX_TAPS + 1}\n"
        p = self.write(tmp_path, text)
        assert main(["slice-transfer", "--config", str(p), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"adc.n_taps must be an integer in [1, {MAX_TAPS}], got {MAX_TAPS + 1}" in err
        assert parse_config(MINIMAL_SINE + f"adc:\n  n_taps: {MAX_TAPS}\n").adc.n_taps == MAX_TAPS

    def test_precondition_exit_code(self, tmp_path):
        # the config passes load-time validation, but the LUT calibration
        # capture is too short to give every code its 100-hit floor
        p = self.write(
            tmp_path,
            MINIMAL_SINE
            + "system:\n  calibration:\n    lut: true\n    lut_capture_samples: 16384\n",
        )
        assert main(["calibrate", "--config", str(p), "--out", str(tmp_path)]) == 3

    def test_slice_transfer_runs_only_the_offset_warmup(self, tmp_path):
        # the sweep reads slice 0's offset code alone; it used to run the
        # whole calibration, so a LUT capture too short for coverage exited 3
        tables = []
        for lut in ("false", "true"):
            out = tmp_path / lut
            p = self.write(
                tmp_path,
                MINIMAL_SINE + "system:\n  calibration:\n    adapt_offsets: true\n"
                f"    lut: {lut}\n    lut_capture_samples: 16384\n",
            )
            assert main(["slice-transfer", "--config", str(p), "--out", str(out)]) == 0
            # the first line holds the config hash, which the lut flag moves
            tables.append((out / "slice_transfer.csv").read_bytes().split(b"\n", 1))
        assert tables[0][0] != tables[1][0]
        assert tables[0][1] == tables[1][1]

    def test_warmup_only_runs_need_no_tone(self, tmp_path, capsys):
        # the warmup tone's frequency is the golden fraction of the slice
        # rate, whatever the stimulus says; slice-transfer and calibrate on a
        # config without a tone used to exit 2 asking for one
        tables = []
        for tone in ("", "  coherent_bin: 101\n"):
            out = tmp_path / ("tone" if tone else "none")
            p = self.write(tmp_path, "master_seed: 1\nstimulus:\n  amplitude: 0.45\n" + tone)
            assert main(["slice-transfer", "--config", str(p), "--out", str(out)]) == 0
            tables.append((out / "slice_transfer.csv").read_bytes().split(b"\n", 1))
        assert tables[0][0] != tables[1][0]
        assert tables[0][1] == tables[1][1]
        p = self.write(tmp_path, "master_seed: 1\n")
        assert main(["calibrate", "--config", str(p), "--out", str(tmp_path / "cal")]) == 0
        capsys.readouterr()
        # the measurement still needs one
        assert main(["adc-sine", "--config", str(p), "--out", str(tmp_path)]) == 2
        assert (
            "config error: this experiment needs stimulus.frequency or stimulus.coherent_bin"
            in capsys.readouterr().err
        )

    def test_toneless_swing_below_threshold_rejected_at_load(self, tmp_path, capsys):
        # the warmup applies the stimulus amplitude with or without a tone
        text = "stimulus:\n  common_mode: 0.4\n"
        with pytest.raises(ConfigError, match="below the V2T threshold at stimulus.amplitude"):
            parse_config(text)
        p = self.write(tmp_path, text)
        assert main(["slice-transfer", "--config", str(p), "--out", str(tmp_path)]) == 2
        assert "below the V2T threshold" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old, new",
        [
            ("output:", "sweep:\n  span_rel: 3.0\noutput:"),
            ("adc:", "adc:\n  full_scale: 1.35"),
            # only the upper endpoint, 0.975 V, lies outside
            ("amplitude: 0.45\n  common_mode: 0.525", "amplitude: 0.1\n  common_mode: 0.75"),
        ],
        ids=["span-rel-3", "full-scale-1.35", "above-the-supply"],
    )
    def test_sweep_beyond_the_v2t_range_rejected_at_load(
        self, tmp_path, monkeypatch, capsys, old, new
    ):
        # slice-transfer exited 3 (UnderrangeError, v_p = -0.15 V) only after
        # the 160k-sample offset warmup
        import stochadc.interleaver as il

        captures = []
        # the offset warmup converts without a capture
        for stage in ("run_capture", "adapt_offsets"):
            monkeypatch.setattr(il, stage, lambda *args, **kwargs: captures.append(args))
        text = (CONFIG_DIR / "ideal.yaml").read_text(encoding="utf-8")
        assert old in text
        p = self.write(tmp_path, text.replace(old, new))
        assert main(["slice-transfer", "--config", str(p), "--out", str(tmp_path)]) == 2
        assert "config error: sweep.span_rel " in capsys.readouterr().err
        assert captures == []
        # the shipped sweep ends on the threshold, 0.525 - 0.45 / 2 V, and loads
        parse_config(text)

    @pytest.mark.parametrize("experiment", ["adc-sine", "calibrate"])
    def test_skew_tone_below_half_scale_rejected_at_load(
        self, tmp_path, monkeypatch, capsys, experiment
    ):
        # calibrate_skew refused it only after the 160k-sample offset warmup
        forbid_converter_builds(monkeypatch)
        text = (CONFIG_DIR / "skewcal.yaml").read_text(encoding="utf-8")
        assert "amplitude: 0.44\n" in text
        p = self.write(tmp_path, text.replace("amplitude: 0.44\n", "amplitude: 0.2\n"))
        assert main([experiment, "--config", str(p), "--out", str(tmp_path)]) == 2
        assert (
            "config error: stimulus.amplitude 0.2 is below half of adc.full_scale"
            in capsys.readouterr().err
        )
        assert not list(tmp_path.glob("*.json"))

    @pytest.mark.parametrize("experiment", ["calibrate", "pi-sweep"])
    def test_skew_calibration_without_tone_rejected_at_load(
        self, tmp_path, monkeypatch, capsys, experiment
    ):
        # the skew tone is derived from the measurement tone: calibrate ran
        # the whole offset warmup before it asked for one
        forbid_converter_builds(monkeypatch)
        text = "system:\n  calibration:\n    skew: true\n"
        with pytest.raises(ConfigError, match="system.calibration.skew needs a tone"):
            parse_config(text)
        p = self.write(tmp_path, text)
        assert main([experiment, "--config", str(p), "--out", str(tmp_path)]) == 2
        assert "config error: system.calibration.skew needs a tone" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.json"))

    @pytest.mark.parametrize(
        "text, field",
        [
            (MINIMAL_SINE.replace("n_samples: 8192", "n_samples: 8200"), "capture.n_samples"),
            (MINIMAL_SINE + "  linearity: true\n  linearity_samples: 1000\n",
             "capture.linearity_samples"),
            (MINIMAL_SINE + "system:\n  calibration:\n    lut: true\n"
             "    lut_capture_samples: 1000\n", "system.calibration.lut_capture_samples"),
            (MINIMAL_SINE + "system:\n  calibration:\n    skew: true\n"
             "    skew_capture_samples: 4100\n", "system.calibration.skew_capture_samples"),
        ],
        ids=["n_samples", "linearity_samples", "lut_capture_samples", "skew_capture_samples"],
    )
    def test_capture_sizes_off_a_multiple_of_16_rejected_at_load(
        self, tmp_path, monkeypatch, capsys, text, field
    ):
        # each slice takes every 16th sample: a LUT or linearity capture of
        # 1000 failed after the warmup and the measurement capture, naming
        # no field
        forbid_converter_builds(monkeypatch)
        with pytest.raises(ConfigError, match=f"{field} must be a multiple of 16"):
            parse_config(text)
        p = self.write(tmp_path, text)
        assert main(["adc-sine", "--config", str(p), "--out", str(tmp_path)]) == 2
        assert f"config error: {field} must be a multiple of 16" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment", ["slice-transfer", "adc-sine", "calibrate"])
    def test_injected_skews_refuse_the_converter_before_any_draw(
        self, tmp_path, monkeypatch, capsys, experiment
    ):
        # a per-path skew belongs to the one chain pi-sweep and pi-trim model
        forbid_converter_builds(monkeypatch)
        p = CONFIG_DIR / "pi_trim_injected.yaml"
        assert main([experiment, "--config", str(p), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            "config error: pi.injected_skews applies only to pi-sweep and pi-trim; "
            "remove it to build the full converter\n"
        )

    def test_linearity_capture_below_the_histogram_floor_rejected_at_load(
        self, tmp_path, monkeypatch, capsys
    ):
        # the code-density histogram needs 100 samples for each of the 255
        # codes: 4096 used to exit 3 after the offset warmup and the
        # measurement capture
        forbid_converter_builds(monkeypatch)
        text = MINIMAL_SINE + "  linearity: true\n  linearity_samples: 4096\n"
        p = self.write(tmp_path, text)
        assert main(["adc-sine", "--config", str(p), "--out", str(tmp_path)]) == 2
        assert (
            "config error: capture.linearity_samples must be at least 25500 (100 per code) "
            "with capture.linearity on, got 4096"
        ) in capsys.readouterr().err
        # 25,504 is the smallest multiple of 16 at the floor, and without the
        # linearity capture the size is unused
        parse_config(text.replace("4096", "25504"))
        parse_config(text.replace("linearity: true", "linearity: false"))
        with pytest.raises(ConfigError, match="capture.linearity_samples must be at least"):
            parse_config(text.replace("4096", "25488"))
        # the floor is the metric's own
        hist = np.full(255, 100)
        code_density_linearity(hist, "ramp")
        hist[1] -= 1
        with pytest.raises(PreconditionError, match="need at least 25500"):
            code_density_linearity(hist, "ramp")

    def test_stimulus_over_supply_rejected_at_load(self, tmp_path):
        q = self.write(
            tmp_path,
            MINIMAL_SINE.replace("amplitude: 0.45", "amplitude: 0.8").replace(
                "common_mode: 0.525", "common_mode: 0.45"
            ),
        )
        assert main(["adc-sine", "--config", str(q), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "text",
        [
            MINIMAL_SINE.replace("amplitude: 0.45", "amplitude: -0.9"),
            MINIMAL_SINE.replace("amplitude: 0.45", "amplitude: 0.0"),
            MINIMAL_SINE + "  linearity: true\n  linearity_amplitude: 0.0\n",
            MINIMAL_SINE + "  linearity: true\n  linearity_amplitude: -0.2\n",
            MINIMAL_SINE + "  linearity: true\n  linearity_amplitude: 0.6\n",
        ],
        ids=[
            "amplitude-negative",
            "amplitude-zero",
            "linearity-amplitude-zero",
            "linearity-amplitude-negative",
            "linearity-amplitude-below-threshold",
        ],
    )
    def test_bad_amplitudes_rejected_at_load(self, tmp_path, capsys, text):
        # -0.9 passed the signed swing check and stopped mid-run (exit 3); a
        # linearity amplitude of 0 read as unset, and 0.6 swung below the V2T
        # threshold in the linearity capture only
        p = self.write(tmp_path, text)
        assert main(["adc-sine", "--config", str(p), "--out", str(tmp_path)]) == 2
        assert "amplitude" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["1.5", "true", "abc"])
    def test_master_seed_must_be_an_integer(self, tmp_path, capsys, value):
        # 1.5 used to run seed 1's draws under another config hash (exit 0)
        p = self.write(tmp_path, MINIMAL_SINE.replace("master_seed: 1", f"master_seed: {value}"))
        assert main(["pi-sweep", "--config", str(p), "--out", str(tmp_path)]) == 2
        assert "master_seed" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("widget: 3\n", "config: unknown keys ['widget']"),
            ("adc:\n  flux: 1\n", "adc: unknown keys ['flux']"),
            ("system:\n  calibration:\n    flux: 1\n",
             "system.calibration: unknown keys ['flux']"),
            ("fom:\n  entries:\n    - {label: a, power: 0.1, enob: 5.6, rate: 2.0e+10, flux: 1}\n",
             "fom.entries[]: unknown keys ['flux']"),
            # keys of mixed types used to end in sorted()'s TypeError traceback (exit 1)
            ("1: 2\nfoo: 3\n", "config: unknown keys [1, 'foo']"),
            ("adc:\n  1: 2\n  foo: 3\n", "adc: unknown keys [1, 'foo']"),
            ("[1, 2]\n", "config: expected a mapping, got list"),
            ("adc: 5\n", "adc: expected a mapping, got int"),
            ("system:\n  calibration: [1]\n", "system.calibration: expected a mapping, got list"),
            ("fom:\n  entries: [5]\n", "fom.entries[]: expected a mapping, got int"),
            # a repeated key used to load with its last value
            ("master_seed: 1\nmaster_seed: 2\n", "key 'master_seed' repeated on line 2"),
            ("adc:\n  n_taps: 255\n  n_taps: 254\n", "key 'n_taps' repeated on line 3"),
            ("adc: {n_taps: 255, n_taps: 254}\n", "key 'n_taps' repeated on line 1"),
        ],
        ids=[
            "unknown-root", "unknown-adc", "unknown-calibration", "unknown-fom-entry",
            "mixed-unknown-root", "mixed-unknown-adc", "list-root", "int-adc",
            "list-calibration", "int-fom-entry", "repeated-root", "repeated-nested",
            "repeated-flow",
        ],
    )
    def test_load_errors_name_the_section_path(self, tmp_path, capsys, text, message):
        # a section's errors name its declared path, as its fields' errors do;
        # they used to name config.adc where a field's named adc.n_taps
        p = self.write(tmp_path, text)
        assert main(["pi-sweep", "--config", str(p), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize("value", ["5", "null", "[5]", "{label: a}"])
    def test_fom_entries_must_be_a_list_of_mappings(self, tmp_path, capsys, value):
        # checked at load, whatever the experiment: `entries: 5` used to end
        # in a TypeError traceback (exit 1) and `entries: null` loaded as empty
        p = self.write(tmp_path, f"fom:\n  entries: {value}\n")
        assert main(["pi-sweep", "--config", str(p), "--out", str(tmp_path)]) == 2
        assert "fom.entries" in capsys.readouterr().err

    def test_unconvergent_trim_exit_code(self, tmp_path):
        p = self.write(
            tmp_path,
            "master_seed: 0\npi:\n  injected_skews: [[7, 1.5]]\n  trim_max_iters: 1\n",
        )
        assert main(["pi-trim", "--config", str(p), "--out", str(tmp_path)]) == 4

    @pytest.mark.parametrize("value", ["0", "-1", "2.5", "true"])
    def test_trim_max_iters_below_one_rejected_at_load(self, tmp_path, value):
        # a zero limit used to report an unconvergent trim (exit 4) even on a
        # chain with no inversions
        p = self.write(tmp_path, f"master_seed: 0\npi:\n  trim_max_iters: {value}\n")
        assert main(["pi-trim", "--config", str(p), "--out", str(tmp_path)]) == 2

    def test_adc_sine_honours_trim_max_iters(self, tmp_path):
        # the group chains need 3, 2, 8 and 1 trim iterations; adc-sine used
        # to trim with the default 64 and exit 0
        p = self.write(
            tmp_path,
            MINIMAL_SINE
            + "pi:\n  tap_sigma_rel: 0.05\n  skew_sigma_rel: 0.6\n"
            "  trim_enabled: true\n  trim_max_iters: 1\n",
        )
        assert main(["pi-trim", "--config", str(p), "--out", str(tmp_path)]) == 4
        assert main(["adc-sine", "--config", str(p), "--out", str(tmp_path)]) == 4

    @pytest.mark.parametrize("experiment", ["adc-sine", "calibrate", "slice-transfer", "montecarlo"])
    def test_injected_skews_rejected_on_full_converter(self, tmp_path, experiment):
        # a per-path skew has no meaning across the four group chains; it
        # used to be dropped silently
        p = self.write(
            tmp_path,
            MINIMAL_SINE
            + "pi:\n  injected_skews: [[7, 1.5]]\n"
            + "montecarlo:\n  trials: 2\n  experiment: adc-sine\n",
        )
        assert main([experiment, "--config", str(p), "--out", str(tmp_path)]) == 2

    def test_injected_skews_still_apply_to_pi_trim(self, tmp_path):
        p = self.write(tmp_path, MINIMAL_SINE + "pi:\n  injected_skews: [[7, 1.5]]\n")
        assert main(["pi-trim", "--config", str(p), "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "pi_trim.json").read_text())
        assert payload["metrics"]["initial_inversions"] >= 1

    @pytest.mark.parametrize(
        "name, trims", [("pi_mc.yaml", False), ("pi_trim_injected.yaml", True)]
    )
    def test_pi_trim_sweeps_once_and_reads_the_chains_verdicts(self, monkeypatch, name, trims):
        # a chain carries its sweep and verdicts: a trial reads the sweep
        # once, of the chain trim_paths hands back (the chain itself when
        # nothing fires), and its monotone flags are the two chains' verdicts
        calls = []
        sweep = pimod.pi_sweep
        monkeypatch.setattr(pimod, "pi_sweep", lambda chain: calls.append(chain) or sweep(chain))
        cfg = load_config(CONFIG_DIR / name)
        chain = next(il.pi_chains(cfg, [3]))
        metrics, _ = run_pi_trim(cfg, chain)
        assert (metrics["iterations"] > 1) == trims
        assert len(calls) == 1 and (calls[0] is chain) == (not trims)
        assert metrics["pre_trim_monotone"] is chain.sweep_rises is (not trims)
        assert metrics["post_trim_monotone"] is calls[0].sweep_rises is True
        assert (metrics["max_trim_seconds"] > 0) == trims

    @pytest.mark.parametrize(
        "section",
        [
            "system:\n  sampling_jitter: .nan\n",
            "system:\n  sampling_jitter: -1.0e-12\n",
            "system:\n  sampling_jitter: .inf\n",
            "system:\n  skew_injection: [0.0, .nan, 0.0, 0.0]\n",
            "adc:\n  unit_delay: .inf\n",
            "adc:\n  d_offset: nan\n",
            "pi:\n  tap_sigma_rel: -.inf\n",
            "pi:\n  injected_skews: [[7, .nan]]\n",
            "montecarlo:\n  percentiles: [5, .nan]\n",
        ],
        ids=[
            "jitter-nan",
            "jitter-negative",
            "jitter-inf",
            "skew-injection-nan",
            "unit-delay-inf",
            "d-offset-nan-string",
            "pi-sigma-minus-inf",
            "injected-skew-nan",
            "percentile-nan",
        ],
    )
    def test_non_finite_or_negative_jitter_rejected_at_load(self, tmp_path, section):
        # a NaN jitter fails "> 0" and used to be skipped (ENOB 8.005, exit 0)
        p = self.write(tmp_path, MINIMAL_SINE + section)
        assert main(["adc-sine", "--config", str(p), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "text,field",
        [
            (MINIMAL_SINE + "adc:\n  tap_sigma_random: true\n", "adc.tap_sigma_random"),
            (MINIMAL_SINE + "adc:\n  full_scale: true\n", "adc.full_scale"),
            (MINIMAL_SINE.replace("coherent_bin: 101", "coherent_bin: true"),
             "stimulus.coherent_bin"),
            (MINIMAL_SINE + "system:\n  calibration:\n    skew: 'false'\n",
             "system.calibration.skew"),
            (MINIMAL_SINE + "output:\n  dir: 5\n", "output.dir"),
            (MINIMAL_SINE.replace("coherent_bin: 101", "coherent_bin: 100"),
             "stimulus.coherent_bin"),
            (MINIMAL_SINE + "sweep:\n  span_rel: 0\n", "sweep.span_rel"),
            (MINIMAL_SINE + "sweep:\n  span_rel: -1\n", "sweep.span_rel"),
        ],
        ids=[
            "sigma-bool", "full-scale-bool", "coherent-bin-bool", "skew-string", "dir-int",
            "coherent-bin-even", "span-rel-zero", "span-rel-negative",
        ],
    )
    def test_values_must_match_their_annotation(self, tmp_path, monkeypatch, capsys, text, field):
        # each used to load: true ran as sigma 1.0 (ENOB 3.25) and as a 1 V
        # full scale, a coherent_bin of true measured bin 1 and the string
        # 'false' ran the skew calibration, all exit 0; a numeric output dir
        # ended in a TypeError traceback (exit 1); a sweep span of 0 wrote
        # one point 5 times and a negative span the sweep in descending order
        monkeypatch.chdir(tmp_path)
        p = self.write(tmp_path, text)
        assert main(["adc-sine", "--config", str(p)]) == 2
        assert field in capsys.readouterr().err

    def test_stdc_window_checked_on_every_slice(self, tmp_path, capsys):
        # only slice 0 used to be checked: at seed 4 slice 3 needs 1.6013 ns
        # for the widest pulse plus its chain spread against a 1.6 ns divided
        # period, and the run reported ENOB 4.42 (exit 0)
        p = self.write(
            tmp_path,
            MINIMAL_SINE + "adc:\n  divided_ratio: 2\n  n_taps: 195\n  tap_sigma_random: 0.3\n",
        )
        assert main(["adc-sine", "--config", str(p), "--seed", "4", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "slice 3 at seed 4" in err
        # at seed 0 every slice fits the window, so the run reaches the count
        # check, which refuses slice 3's 776.2 ps chain: its widest pulse
        # closes at 778.3 ps
        assert main(["adc-sine", "--config", str(p), "--seed", "0", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "slice 3 at seed 0 needs its chain to reach 7.7833e-10 s" in err

    def test_divided_period_below_the_window_rejected(self, tmp_path, capsys):
        # a ratio of 1 used to end in a ValueError traceback (exit 1)
        p = self.write(tmp_path, MINIMAL_SINE + "adc:\n  divided_ratio: 1\n")
        assert main(["adc-sine", "--config", str(p), "--out", str(tmp_path)]) == 2
        assert "slice 0 at seed 1" in capsys.readouterr().err

    def test_stdc_window_uses_each_slices_own_widest_pulse(self, tmp_path, capsys):
        # the check used the nominal widest pulse: at seed 0 slice 4's
        # mismatched V2T gives 0.854 ns, which with its 0.760 ns chain
        # overflows the 1.6 ns divided period, and the run exited 0 (ENOB 2.93)
        text = (CONFIG_DIR / "ideal.yaml").read_text(encoding="utf-8")
        assert "\nadc:\n" in text and "amplitude: 0.45\n" in text
        p = self.write(tmp_path, text.replace(
            "\nadc:\n",
            "\nadc:\n  divided_ratio: 2\n  n_taps: 190\n  slope_sigma: 0.05\n"
            "  threshold_sigma: 0.05\n",
        ).replace("amplitude: 0.45\n", "amplitude: 0.4\n"))
        assert main(["adc-sine", "--config", str(p), "--seed", "0", "--out", str(tmp_path)]) == 2
        assert "slice 4 at seed 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "adc, closes, last_edge",
        [
            ("n_taps: 100", "7.7833e-10", "4e-10"),
            ("n_taps: 150", "7.7833e-10", "6e-10"),
            ("unit_delay: 1.0e-30", "1e-10", "2.55e-28"),
        ],
    )
    def test_stdc_count_saturation_refused(self, tmp_path, capsys, adc, closes, last_edge):
        # a chain shorter than the widest pulse stops counting at adc.n_taps:
        # 100 taps ran to ENOB 3.47 with codes capped at +-75, 150 taps capped
        # them at +-125 (both exit 0), and a 1e-30 s unit delay ended in an
        # OverflowError traceback from a nominal offset code of about 1e20
        p = self.write(tmp_path, MINIMAL_SINE + f"adc:\n  {adc}\n")
        assert main(["adc-sine", "--config", str(p), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            f"config error: slice 0 at seed 1 needs its chain to reach {closes} s, where its "
            f"widest pulse closes, but its last edge fires at {last_edge} s and counts would "
            "saturate at adc.n_taps; raise adc.n_taps\n"
        )
        assert not list(tmp_path.glob("*.csv"))

    def test_stdc_count_check_edge_on_the_ideal_design(self):
        # the widest pulse of the ideal design closes 1 ps (launch lead) +
        # 100 ps (folder offset) + 677.3 ps (0.6 V at the discharge slope)
        # after the launch: 195 taps of 4 ps reach it and 194 do not
        text = (CONFIG_DIR / "ideal.yaml").read_text(encoding="utf-8")
        assert "\nadc:\n" in text
        for n_taps, fits in ((195, True), (194, False)):
            cfg = parse_config(text.replace("\nadc:\n", f"\nadc:\n  n_taps: {n_taps}\n"))
            if fits:
                converter(cfg, 1)
            else:
                with pytest.raises(ConfigError, match=r"^slice 0 at seed 1 needs its chain"):
                    converter(cfg, 1)

    @pytest.mark.parametrize("experiment", ["slice-transfer", "calibrate"])
    def test_underspanning_pi_fails_when_the_converter_is_built(
        self, tmp_path, capsys, experiment
    ):
        # 8 taps of 12.5 ps cannot span the 200 ps PI clock period; these two
        # experiments never read a PI phase, so they used to exit 0, and
        # calibrate wrote a file that a resumed adc-sine then refused
        p = self.write(
            tmp_path,
            MINIMAL_SINE + "pi:\n  n_taps: 8\nsystem:\n  calibration:\n    adapt_offsets: false\n",
        )
        assert main([experiment, "--config", str(p), "--out", str(tmp_path)]) == 3
        assert (
            "chain spans 1.0000e-10 s, shorter than the clock period 2.0000e-10 s"
            in capsys.readouterr().err
        )
        assert not list(tmp_path.glob("*.json"))

    @pytest.mark.parametrize(
        "experiment, text, message",
        [
            # 16 taps of 1e307 s reach the 1.6e308 s PI clock period, and the
            # boundary mixer's midpoint sums past the largest double
            (
                "pi-sweep", "pi:\n  unit_delay: 1.0e+307\nsystem:\n  aggregate_rate: 2.5e-308\n",
                "chain 0's delay to tap 16 overflows float64 (inf s)",
            ),
            ("slice-transfer", "adc:\n  unit_delay: 1.0e+306\n", "chain 0's delay to tap 180 overflows"),
        ],
        ids=["pi-ring", "stdc-chain"],
    )
    def test_a_chain_that_overflows_float64_is_refused_before_any_artifact(
        self, tmp_path, capsys, experiment, text, message
    ):
        # the config loads, but the accumulated delays overflow: the PI sweep
        # wrote a CSV of inf and NaN and then exited 1, the STDC build exited 1
        out = tmp_path / "out"
        assert main([experiment, "--config", str(self.write(tmp_path, text)), "--out", str(out)]) == 3
        assert message in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "text, record",
        [
            (
                MINIMAL_SINE.replace("coherent_bin: 101", "coherent_bin: 41").replace(
                    "n_samples: 8192", "n_samples: 8000"
                ),
                "capture.n_samples: n_samples must be a power of two >= 4096, got 8000",
            ),
            (
                (CONFIG_DIR / "skewcal.yaml").read_text(encoding="utf-8").replace(
                    "skew_capture_samples: 4096", "skew_capture_samples: 4000"
                ),
                "system.calibration.skew_capture_samples: n_samples must be a power of two",
            ),
            (
                # J = 41 + 5e-7: inside the old load-time tolerance of 1e-6,
                # outside the metric's 1e-9 * J
                MINIMAL_SINE.replace("coherent_bin: 101", "frequency: 100097657.47070312"),
                "capture.n_samples: fin=100097657.47070312 Hz is not coherent",
            ),
            # an odd bin at or above Nyquist, or below 1, was called not odd
            # and the same frequency was suggested back
            (
                MINIMAL_SINE.replace("coherent_bin: 101", "coherent_bin: 4097"),
                "capture.n_samples: fin=10002441406.25 Hz is not coherent with n=8192 at "
                "fs=20000000000.0 Hz (J=4097.000000 must be an odd integer in 1 <= J < 4096); "
                "nearest coherent fin = 9997558593.75 Hz (J=4095)\n",
            ),
            (
                MINIMAL_SINE.replace("coherent_bin: 101", "coherent_bin: -3"),
                "capture.n_samples: fin=-7324218.75 Hz is not coherent with n=8192 at "
                "fs=20000000000.0 Hz (J=-3.000000 must be an odd integer in 1 <= J < 4096); "
                "nearest coherent fin = 2441406.25 Hz (J=1)\n",
            ),
        ],
        ids=["record-8000", "skew-record-4000", "j-off-by-5e-7", "j-above-nyquist", "j-negative"],
    )
    def test_incoherent_records_rejected_at_load(self, tmp_path, capsys, text, record):
        # the load check and the run-time rule disagreed: each config loaded,
        # ran the warmup and the capture, then exited 3
        p = self.write(tmp_path, text)
        assert main(["adc-sine", "--config", str(p), "--out", str(tmp_path)]) == 2
        assert f"config error: {record}" in capsys.readouterr().err

    def test_nan_phase_rejected_at_load(self, tmp_path):
        # NaN voltages used to pass the range checks and end in a misleading
        # "no noise power" (exit 3)
        p = self.write(tmp_path, MINIMAL_SINE.replace("capture:", "  phase: .nan\ncapture:"))
        assert main(["adc-sine", "--config", str(p), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("experiment", ["adc-sine", "slice-transfer"])
    @pytest.mark.parametrize(
        "section",
        [
            "adc:\n  n_taps: 2.5\n",
            "adc:\n  n_taps: 0\n",
            "adc:\n  n_taps: true\n",
            "adc:\n  launch_lead_taps: -1\n",
            "sweep:\n  points: 0\n",
            "sweep:\n  points: 2.5\n",
            "system:\n  aggregate_rate: 0\n",
            "system:\n  front_end_bandwidth: 0\n",
            "system:\n  front_end_bandwidth: -5.0e+9\n",
            "system:\n  front_end_stages: 0\n",
            "system:\n  front_end_stages: -2\n",
            "system:\n  front_end_stages: 1.5\n",
            "adc:\n  divided_ratio: 8.5\n",
            "system:\n  track: 1.0e-12\n",
            "system:\n  latencies: [2.5, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2]\n",
            "system:\n  skew_injection: [0.0, abc, 0.0, 0.0]\n",
            "adc:\n  slope_sigma: -0.01\n",
            "pi:\n  n_taps: 2.5\n",
            "pi:\n  n_taps: 1\n",
            "pi:\n  unit_delay: 0\n",
            "pi:\n  tap_sigma_rel: -0.1\n",
            "pi:\n  skew_sigma_rel: -0.1\n",
        ],
        ids=[
            "taps-fraction",
            "taps-zero",
            "taps-bool",
            "lead-negative",
            "points-zero",
            "points-fraction",
            "aggregate-rate-zero",
            "bandwidth-zero",
            "bandwidth-negative",
            "stages-zero",
            "stages-negative",
            "stages-fraction",
            "divided-ratio-fraction",
            "track-below-early",
            "latency-fraction",
            "skew-injection-text",
            "slope-sigma-negative",
            "pi-taps-fraction",
            "pi-taps-one",
            "pi-unit-delay-zero",
            "pi-tap-sigma-negative",
            "pi-skew-sigma-negative",
        ],
    )
    def test_bad_sizing_rejected_at_load(self, tmp_path, section, experiment):
        # n_taps 2.5 used to run adc-sine to ENOB -0.80 and a lead of -1 to
        # ENOB 6.71, both exit 0; n_taps 0 and points 0 ended in tracebacks.
        # A zero rate or bandwidth divided by zero and a track below early
        # raised a ValueError (exit 1); a negative bandwidth flipped the phase
        # lag, stages of -2 amplified the tone and a fractional divided ratio
        # ran, all exit 0.  A fractional latency was truncated (exit 0);
        # pi.n_taps 2.5 and a negative PI sigma ended in tracebacks
        p = self.write(tmp_path, MINIMAL_SINE + section)
        assert main([experiment, "--config", str(p), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("field", PINNED_VALUES)
    def test_pinned_field_refused_at_load(self, tmp_path, capsys, field):
        # these fields feed no result: another value used to load and move
        # only the config hash (workers above 1 ran the same trials in a
        # process pool)
        section, name = field.split(".")
        value = PINNED_VALUES[field]
        data = yaml.safe_load(MINIMAL_SINE)
        data.setdefault(section, {})[name] = value
        p = self.write(tmp_path, yaml.safe_dump(data))
        assert main(["adc-sine", "--config", str(p), "--out", str(tmp_path)]) == 2
        assert f"{section}.{name} feeds no result" in capsys.readouterr().err
        cls = type(getattr(RunConfig(), section))
        with pytest.raises(ConfigError, match=f"{section}.{name} feeds no result"):
            cls(**{name: tuple(value) if isinstance(value, list) else value})
        # the default itself loads, with the hash of a config that omits it
        data[section][name] = config_to_dict(RunConfig())[section][name]
        assert config_hash(parse_config(yaml.safe_dump(data))) == config_hash(
            parse_config(MINIMAL_SINE)
        )

    @pytest.mark.parametrize("value", [1.0, True])
    def test_pinned_field_refuses_its_default_as_another_type(self, value):
        # 1.0 and True equal the default 1, but would move the config hash
        with pytest.raises(ConfigError, match="montecarlo.workers feeds no result"):
            MonteCarloConfig(workers=value)

    @pytest.mark.parametrize(
        "field, value",
        [
            (field, value)
            for field in POSITIVE_FIELDS
            for value in (0, -1.0e-12)
        ] + [("system.sampling_jitter", -1.0e-12)],
    )
    def test_bad_range_names_its_field_at_load(self, tmp_path, capsys, field, value):
        # "adc full_scale, unit_delay and d_offset must be > 0" named no one field
        section, name = field.split(".")
        data = yaml.safe_load(MINIMAL_SINE)
        data.setdefault(section, {})[name] = value
        p = self.write(tmp_path, yaml.safe_dump(data))
        assert main(["adc-sine", "--config", str(p), "--out", str(tmp_path)]) == 2
        assert f"config error: {field} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [float("nan"), "1e-12"], ids=["nan", "string"])
    @pytest.mark.parametrize("field", RANGE_FIELDS)
    def test_range_field_built_in_python_refuses_nan_and_strings(self, field, value):
        # a NaN passed the comparisons with 0 and a string raised a TypeError
        *path, name = field.split(".")
        section = RunConfig()
        for part in path:
            section = getattr(section, part)
        with pytest.raises(ConfigError, match=f"{field} must "):
            type(section)(**{name: value})

    @pytest.mark.parametrize(
        "path, name, bad, item",
        WRONG_FIELD_VALUES,
        ids=[
            f"{path}{'.' if path else ''}{name}{'' if item is None else f'[{item}]'}={bad!r}"
            for path, name, bad, item in WRONG_FIELD_VALUES
        ],
    )
    def test_every_field_refuses_a_wrong_type_or_a_non_finite_value(
        self, tmp_path, capsys, path, name, bad, item
    ):
        # a section built in Python used to be held only to the types its
        # range checks tested: AdcConfig(vdd=True), OutputConfig(dir=5),
        # CalibrationConfig(skew="false") and SystemConfig(aggregate_rate=inf)
        # all built
        section = config_sections()[path]
        value = bad
        if item is not None:
            value = tuple(bad if i == item else v for i, v in enumerate(getattr(section, name)))
        field = f"{path}.{name}" if path else name
        with pytest.raises(ConfigError, match=re.escape(field)) as built:
            dataclasses.replace(section, **{name: value})
        # the error starts with the field's path, from Python and from YAML
        assert str(built.value).startswith(field)
        data = yaml.safe_load(MINIMAL_SINE)
        if path == "fom.entries[]":
            node = dict(FOM_ENTRY)
            data["fom"] = {"entries": [node]}
        else:
            node = data
            for part in filter(None, path.split(".")):
                node = node.setdefault(part, {})
        node[name] = list(value) if isinstance(value, tuple) else value
        p = self.write(tmp_path, yaml.safe_dump(data))
        assert main(["pi-sweep", "--config", str(p), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {field}")

    @pytest.mark.parametrize("value", ["[[0, 1.5]]", "[[40, 1.5]]", "[[7]]"])
    def test_bad_injected_skews_rejected_at_load(self, tmp_path, value):
        # path 0 used to skew path 32 silently (exit 0); path 40 ended in an
        # IndexError traceback
        p = self.write(tmp_path, f"master_seed: 0\npi:\n  injected_skews: {value}\n")
        assert main(["pi-trim", "--config", str(p), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("experiment", ["calibrate", "slice-transfer"])
    @pytest.mark.parametrize("kind", ["ramp", "dc"])
    def test_non_sine_stimulus_rejected_at_load(self, tmp_path, experiment, kind):
        # no experiment applies a ramp or DC tone; both used to exit 0 here
        p = self.write(tmp_path, MINIMAL_SINE.replace("type: sine", f"type: {kind}"))
        assert main([experiment, "--config", str(p), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "experiment,text",
        [
            ("montecarlo", MINIMAL_SINE + "montecarlo:\n  trials: 2.5\n  experiment: pi-trim\n"),
            ("adc-sine", MINIMAL_SINE.replace("n_samples: 8192", "n_samples: 8192.0")),
            ("adc-sine", MINIMAL_SINE + "  linearity: true\n  linearity_samples: 65536.0\n"),
            ("adc-sine", MINIMAL_SINE + "adc:\n  adaptation:\n    window: 1000.0\n"),
            ("calibrate", MINIMAL_SINE + "system:\n  calibration:\n    lut: true\n"
             "    lut_capture_samples: 16384.0\n"),
            ("calibrate", MINIMAL_SINE + "system:\n  calibration:\n    lut: true\n"
             "    lut_min_hits: 0\n"),
            ("calibrate", MINIMAL_SINE + "system:\n  calibration:\n    skew: true\n"
             "    skew_capture_samples: 4096.0\n"),
            ("fom", "fom:\n  entries:\n    - {label: a, power: 0, enob: 5.6, rate: 2.0e+10}\n"),
            ("fom", "fom:\n  entries:\n    - {label: a, power: 0.1, enob: 5.6, rate: -1.0}\n"),
        ],
        ids=[
            "trials-fraction",
            "n-samples-float",
            "linearity-samples-float",
            "adaptation-window-float",
            "lut-capture-samples-float",
            "lut-min-hits-zero",
            "skew-capture-samples-float",
            "fom-power-zero",
            "fom-rate-negative",
        ],
    )
    def test_bad_counts_rejected_at_load(self, tmp_path, experiment, text):
        # a count given as a float reached range() or an array shape, and a
        # zero power or a negative rate reached walden_fom, all as tracebacks
        # (exit 1); a zero LUT hit floor turned the coverage check off (exit 0)
        p = self.write(tmp_path, text)
        assert main([experiment, "--config", str(p), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "entry, fom",
        [
            ("power: 0.175, enob: 2000, rate: 2.0e+10", "0.0"),
            ("power: 0.175, enob: -2000, rate: 2.0e+10", "inf"),
            ("power: 1.0e+300, enob: 5.6, rate: 1.0e-300", "inf"),
        ],
        ids=["enob-2000", "enob-minus-2000", "fom-infinite"],
    )
    def test_fom_that_is_not_finite_refused_at_load(self, tmp_path, capsys, entry, fom):
        # enob 2000 ended in an OverflowError traceback and -2000 in a
        # ZeroDivisionError (exit 1); the infinite figure of merit ran to
        # exit 0 and wrote `Infinity` into fom.json, which is not JSON
        p = self.write(tmp_path, "fom:\n  entries:\n    - {label: ref, power: 0.1, enob: 5.6, "
                       f"rate: 1.0e+9}}\n    - {{label: bad, {entry}}}\n")
        assert main(["fom", "--config", str(p), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            "config error: fom.entries[] 'bad': the figure of merit power / (2^enob * rate) "
            f"must be a finite number > 0 in J and in pJ, got {fom} J\n"
        )
        assert not list(tmp_path.glob("fom.*"))

    def test_json_artifacts_refuse_nan_and_infinity(self, tmp_path):
        from stochadc.experiments import _write_json

        for value in (float("nan"), float("inf"), np.float64(-np.inf)):
            with pytest.raises(ValueError, match="not JSON compliant"):
                _write_json(tmp_path / "a.json", "0" * 16, 0, {"metrics": {"x": value}})

    def test_smallest_sizing_loads(self):
        cfg = parse_config(
            MINIMAL_SINE + "adc:\n  n_taps: 1\n  launch_lead_taps: 0\nsweep:\n  points: 1\n"
        )
        assert (cfg.adc.n_taps, cfg.adc.launch_lead_taps, cfg.sweep.points) == (1, 0, 1)

    @pytest.mark.parametrize(
        "value", ["[5, 150]", "[-1, 50]", "[5, abc]", "[.nan]", "[true]", "[[5]]", "50"]
    )
    def test_bad_percentiles_rejected_at_load(self, tmp_path, value):
        # [5, 150] used to run every trial, then die in np.percentile (exit 1)
        p = self.write(
            tmp_path,
            "montecarlo:\n  trials: 2\n  experiment: pi-trim\n"
            f"  percentiles: {value}\n",
        )
        assert main(["montecarlo", "--config", str(p), "--out", str(tmp_path)]) == 2

    def test_pi_sweep_step_column_is_constant_at_zero_mismatch(self, tmp_path):
        p = self.write(tmp_path, "master_seed: 0\n")
        assert main(["pi-sweep", "--config", str(p), "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "pi_sweep.csv").read_text().splitlines()[3:]
        steps = np.array([float(r.split(",")[2]) for r in rows])
        assert np.all(np.abs(steps - 0.78125e-12) < 1e-18)

    def test_adc_sine_ideal_mode_report(self, tmp_path):
        code = main([
            "adc-sine", "--config", str(CONFIG_DIR / "ideal.yaml"), "--out", str(tmp_path)
        ])
        assert code == 0
        payload = json.loads((tmp_path / "adc_sine.json").read_text())
        assert payload["metrics"]["enob"] >= 7.8

    def test_seed_override(self, tmp_path):
        p = self.write(tmp_path, "master_seed: 5\n")
        main(["pi-sweep", "--config", str(p), "--out", str(tmp_path), "--seed", "9"])
        text = (tmp_path / "pi_sweep.csv").read_text()
        assert "# master_seed=9" in text

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = self.write(tmp_path, MINIMAL_SINE)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["adc-sine", "--config", str(cfg), "--out", str(out)]) == 0
        for name in ("adc_sine.json", "capture.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    @pytest.mark.parametrize(
        "cfg_text",
        [
            MINIMAL_SINE + (
                "system:\n  calibration:\n    adapt_offsets: true\n    skew: true\n"
                "    skew_capture_samples: 4096\n"
            ),
            LUT_CONFIG,
            shipped("ideal.yaml"),
            shipped("regime.yaml"),
            shipped("skewcal.yaml"),
        ],
        ids=["offsets-skew", "lut-skew-linearity", "ideal", "regime", "skewcal"],
    )
    def test_calibrate_then_measure_matches_fused_run(self, tmp_path, cfg_text):
        cfg = self.write(tmp_path, cfg_text)
        cal_dir = tmp_path / "cal"
        assert main(["calibrate", "--config", str(cfg), "--out", str(cal_dir)]) == 0
        resumed = tmp_path / "resumed"
        fused = tmp_path / "fused"
        assert main([
            "adc-sine", "--config", str(cfg), "--out", str(resumed),
            "--calibration", str(cal_dir / "calibration.json"),
        ]) == 0
        assert main(["adc-sine", "--config", str(cfg), "--out", str(fused)]) == 0
        names = sorted(p.name for p in fused.iterdir())
        assert names == sorted(p.name for p in resumed.iterdir())
        for name in names:
            assert (resumed / name).read_bytes() == (fused / name).read_bytes()

    def test_shipped_skewcal_corrections(self, tmp_path):
        assert main([
            "calibrate", "--config", str(CONFIG_DIR / "skewcal.yaml"), "--out", str(tmp_path)
        ]) == 0
        payload = json.loads((tmp_path / "calibration.json").read_text())
        assert payload["pi_corrections"] == [3, -3, 10, -3]

    @pytest.mark.parametrize("experiment", ["calibrate", "adc-sine"])
    @pytest.mark.parametrize(
        "skews,expected,corrections",
        [
            # against the median group, group 0 needs -38 codes on base code
            # 32, which would clip at 0 (this used to exit 0 with ENOB 3.10);
            # a common shift of +6 keeps every group in range
            ("[30.0e-12, 0.0, 0.0, 0.0]", 0, [-32, 6, 6, 6]),
            # beyond half the 7 GHz skew-tone period the phase wraps: this
            # used to exit 0 with a correction of +81 where about -102 is due
            ("[0.0, 80.0e-12, 0.0, 0.0]", 2, None),
            # group 3 has the headroom for the same skew
            ("[0.0, 0.0, 0.0, 30.0e-12]", 0, [0, 0, 0, -38]),
            # the codes would span 282, more than any shift fits into [0, 255]
            ("[70.0e-12, 0.0, 0.0, 0.0]", 3, None),
        ],
        ids=[
            "group0-plus30ps-clips",
            "group1-plus80ps-wraps",
            "group3-plus30ps-applies",
            "group0-plus70ps-spans",
        ],
    )
    def test_skewcal_skew_out_of_reach(self, tmp_path, experiment, skews, expected, corrections):
        p = self.write(tmp_path, skewcal_with(skews))
        assert main([experiment, "--config", str(p), "--out", str(tmp_path)]) == expected
        if experiment == "calibrate":
            path = tmp_path / "calibration.json"
            assert path.exists() == (expected == 0)
            if corrections is not None:
                assert json.loads(path.read_text())["pi_corrections"] == corrections

    @pytest.mark.parametrize(
        "experiment", ["slice-transfer", "pi-sweep", "pi-trim", "calibrate", "fom", "montecarlo"]
    )
    def test_calibration_file_rejected_outside_adc_sine(self, tmp_path, experiment):
        # only adc-sine resumes from a calibration file; the others used to
        # ignore the option, even for a file that does not exist, and exit 0
        p = self.write(tmp_path, MINIMAL_SINE)
        out = tmp_path / "out"
        assert main([
            experiment, "--config", str(p), "--out", str(out),
            "--calibration", str(tmp_path / "missing.json"),
        ]) == 2
        assert not out.exists()

    def test_calibration_from_other_config_rejected(self, tmp_path):
        cfg = self.write(tmp_path, MINIMAL_SINE)
        cal_dir = tmp_path / "cal"
        main(["calibrate", "--config", str(cfg), "--out", str(cal_dir)])
        other = tmp_path / "other.yaml"
        other.write_text(MINIMAL_SINE.replace("master_seed: 1", "master_seed: 2"))
        code = main([
            "adc-sine", "--config", str(other), "--out", str(tmp_path / "x"),
            "--calibration", str(cal_dir / "calibration.json"),
        ])
        assert code == 2

    @pytest.mark.parametrize("config,corrupt,named", MALFORMED)
    def test_malformed_calibration_exit_code(
        self, tmp_path, capsys, monkeypatch, calibrated, config, corrupt, named
    ):
        cfg, text = calibrated(config)
        cal = tmp_path / "calibration.json"
        cal.write_text(corrupt(text, json.loads(text)))
        built = []
        real = il._converter

        def spy(cfg, seed, rows):
            built.append(seed)
            return real(cfg, seed, rows)

        monkeypatch.setattr(il, "_converter", spy)
        capsys.readouterr()
        code = main([
            "adc-sine", "--config", str(cfg), "--out", str(tmp_path / "x"),
            "--calibration", str(cal),
        ])
        assert code == 2
        assert named in capsys.readouterr().err
        # refused when the file is read, before any converter is built
        assert built == []

    def test_pi_code_range_ends_are_read(self, calibrated):
        # the corrections that move the PI codes onto 0 and 255 are in range
        cfg, text = calibrated("skewcal")
        payload = {**json.loads(text), "pi_corrections": [-32, 0, 0, 31]}
        state = CalibrationState.from_json(json.dumps(payload), load_config(cfg), 3)
        assert (il.NOMINAL_PI_CODES + state.pi_corrections).tolist() == [0, 96, 160, 255]


class TestMonteCarlo:
    def test_montecarlo_aggregates_and_orders_by_seed(self, tmp_path):
        cfg = parse_config(
            "master_seed: 4\n"
            "pi:\n  tap_sigma_rel: 0.05\n  skew_sigma_rel: 0.15\n  trim_enabled: true\n"
            "montecarlo:\n  trials: 5\n  experiment: pi-trim\n  workers: 1\n"
        )
        result = run_experiment("montecarlo", cfg, out_dir=tmp_path)
        assert result.metrics["trials"] == 5
        lines = (tmp_path / "montecarlo.csv").read_text().splitlines()
        seeds = [int(row.split(",")[0]) for row in lines[3:]]
        assert seeds == sorted(seeds)
        payload = json.loads((tmp_path / "montecarlo.json").read_text())
        assert "iterations" in payload["percentiles"]

    def test_adc_sine_columns_follow_the_metrics_order(self, tmp_path):
        # the columns are the trial metrics in the order sndr_enob and the
        # linearity capture add them; regime's Monte Carlo has no digest lock
        text = (CONFIG_DIR / "regime.yaml").read_text(encoding="utf-8")
        assert "trials: 20\n" in text and "linearity: true\n" in text
        cfg = parse_config(text.replace("trials: 20\n", "trials: 2\n"))
        result = run_experiment("montecarlo", cfg, out_dir=tmp_path)
        lines = (tmp_path / "montecarlo.csv").read_text().splitlines()
        assert lines[2] == (
            "seed,sndr_db,enob,fundamental_bin,dominant_family_spur_dbc,"
            "dnl_max,inl_max,missing_codes"
        )
        assert [row.split(",")[0] for row in lines[3:]] == ["0", "1"]
        assert list(result.metrics)[2:] == [
            f"{key}_median" for key in lines[2].split(",")[1:]
        ]

    def test_trials_build_no_artifact_bodies(self, tmp_path, monkeypatch):
        # only the montecarlo's own files are written, so no trial builds
        # the sweep table of its pi_trim_sweep.csv
        import stochadc.experiments as exp

        tables = []
        real = exp._sweep_table
        monkeypatch.setattr(exp, "_sweep_table", lambda *args: tables.append(1) or real(*args))
        cfg = parse_config(
            "pi:\n  tap_sigma_rel: 0.05\n  trim_enabled: true\n"
            "montecarlo:\n  trials: 4\n  experiment: pi-trim\n"
        )
        result = run_experiment("montecarlo", cfg, out_dir=tmp_path / "mc")
        assert result.metrics["trials"] == 4 and tables == []
        assert sorted(p.name for p in (tmp_path / "mc").iterdir()) == [
            "montecarlo.csv", "montecarlo.json",
        ]
        run_experiment("pi-trim", cfg, out_dir=tmp_path / "one")
        assert len(tables) == 1

    def test_pool_is_handed_one_draw_chunk_at_a_time(self, monkeypatch):
        # each DRAW_NORMALS chunk of trials is drawn only after the previous
        # chunk's trials have returned, so a run holds one chunk's mismatch
        # rows and not every trial's
        import stochadc.experiments as exp
        import stochadc.interleaver as il
        from stochadc.core import seed_array

        cfg = parse_config(
            "pi:\n  tap_sigma_rel: 0.05\n  skew_sigma_rel: 0.15\n"
            "montecarlo:\n  trials: 6\n  experiment: pi-trim\n"
        )
        per_trial = sum(s.size * n for s, n in il.pi_mismatch_seeds(cfg, seed_array([0])))
        monkeypatch.setattr(il, "DRAW_NORMALS", 2 * per_trial)
        events = []
        draw, (trial, source) = il.normal_rows, exp._EXPERIMENTS["pi-trim"]

        def drawn(blocks):
            events.append("draw")
            return draw(blocks)

        def returned(*args, **kwargs):
            result = trial(*args, **kwargs)
            events.append("trial")
            return result

        monkeypatch.setattr(il, "normal_rows", drawn)
        monkeypatch.setitem(exp._EXPERIMENTS, "pi-trim", (returned, source))
        assert run_experiment("montecarlo", cfg).metrics["trials"] == 6
        assert events == ["draw", "trial", "trial"] * 3

    def test_montecarlo_cannot_wrap_itself(self):
        cfg = parse_config("montecarlo:\n  trials: 2\n  experiment: montecarlo\n")
        with pytest.raises(ConfigError):
            run_experiment("montecarlo", cfg)


def small_regime_text(trials=3, **sections) -> str:
    """configs/regime.yaml with short windows; `sections` update its sections."""
    data = yaml.safe_load((CONFIG_DIR / "regime.yaml").read_text(encoding="utf-8"))
    data["adc"]["adaptation"]["window"] = 2000
    data["capture"].update(n_samples=4096, linearity_samples=32768)
    data["montecarlo"]["trials"] = trials
    for section, values in sections.items():
        data.setdefault(section, {}).update(values)
    return yaml.safe_dump(data)


def small_regime(trials=3, **sections) -> RunConfig:
    return parse_config(small_regime_text(trials, **sections))


def trial_metrics(cfg: RunConfig, out: Path) -> dict:
    """seed -> numeric adc-sine metrics of one Monte Carlo, read from its CSV."""
    run_experiment("montecarlo", cfg, out, seed=0)
    lines = (out / "montecarlo.csv").read_text(encoding="utf-8").splitlines()[2:]
    header, *rows = (line.split(",") for line in lines)
    return {int(r[0]): dict(zip(header[1:], map(float, r[1:]))) for r in rows}


def stand_alone_metrics(cfg: RunConfig, seed: int, keys) -> dict:
    metrics = run_experiment("adc-sine", cfg, seed=seed).metrics
    return {k: float(metrics[k]) for k in keys}


class TestSharedToneSwings:
    """Monte Carlo trials on one grid share its instants and each tone's half
    swing and extremes."""

    @pytest.fixture
    def spy(self, monkeypatch):
        """Per capture or offset warmup: the open memo, its grid, its tone
        entry count and whether every held array (instants, swings and their
        extremes) is read-only; plus the count of row evaluations, and each
        `schedule_sampling` call's system, codes, length and instants."""
        import stochadc.interleaver as il

        seen = {"captures": [], "rows": 0, "schedules": []}
        real_half_swing = SineStimulus.half_swing
        real_schedule = il.schedule_sampling

        def capture(stage):
            def spied(*args, **kwargs):
                result = stage(*args, **kwargs)
                memo = il._tone_swings
                seen["captures"].append(
                    (memo, None, 0, True) if memo is None else
                    (memo, memo.grid, len(memo.swings),
                     all(not a.flags.writeable for a in memo.instants.values())
                     and all(not a.flags.writeable for entry in memo.swings.values()
                             for a in entry))
                )
                return result
            return spied

        def half_swing(tone, t):
            seen["rows"] += 1
            return real_half_swing(tone, t)

        def schedule(system, pi_codes, n_cycles):
            instants = real_schedule(system, pi_codes, n_cycles)
            seen["schedules"].append((system, pi_codes, n_cycles, instants))
            return instants

        monkeypatch.setattr(il, "run_capture", capture(il.run_capture))
        monkeypatch.setattr(il, "adapt_offsets", capture(il.adapt_offsets))
        monkeypatch.setattr(il, "schedule_sampling", schedule)
        monkeypatch.setattr(SineStimulus, "half_swing", half_swing)
        seen["fresh"] = real_schedule
        return seen

    @staticmethod
    def assert_fresh_instants(spy, cfg, seeds):
        """Every instants array `schedule_sampling` made inside the run is
        read-only and equals, bit for bit, a fresh one of each trial's
        converter when the grid is shared (`seeds`), else of its own."""
        for system, pi_codes, n_cycles, instants in spy["schedules"]:
            assert not instants.flags.writeable
            for other in [converter(cfg, seed) for seed in seeds] or [system]:
                assert instants.tobytes() == spy["fresh"](other, pi_codes, n_cycles).tobytes()

    def test_shared_grid_matches_stand_alone_runs(self, tmp_path, spy):
        cfg = small_regime()
        trials = trial_metrics(cfg, tmp_path)
        captures = list(spy["captures"])
        # warmup, capture and linearity tones, each sampled once for 3 trials
        assert spy["rows"] == 3 * 16
        assert [n for _, _, n, _ in captures] == [1, 2, 3] + [3] * 6
        assert len({grid for _, grid, _, _ in captures}) == 1
        assert all(read_only for *_, read_only in captures)
        # and their instants scheduled once per length, not once per trial
        assert [n for _, _, n, _ in spy["schedules"]] == [2000, 256, 2048]
        self.assert_fresh_instants(spy, cfg, trials)
        for seed, metrics in trials.items():
            assert stand_alone_metrics(cfg, seed, metrics) == metrics

    def test_pi_mismatch_misses_and_holds_one_grid(self, tmp_path, spy):
        cfg = small_regime(pi={"tap_sigma_rel": 0.05})
        trials = trial_metrics(cfg, tmp_path)
        captures = list(spy["captures"])
        # each trial's PI moves the grid: every tone is sampled anew and the
        # previous trial's entries are dropped
        assert spy["rows"] == 3 * 3 * 16
        assert [n for _, _, n, _ in captures] == [1, 2, 3] * 3
        grids = [grid for _, grid, _, _ in captures]
        assert len(set(grids)) == 3
        assert all(grids[i] == grids[i - i % 3] for i in range(len(grids)))
        assert all(read_only for *_, read_only in captures)
        assert [n for _, _, n, _ in spy["schedules"]] == [2000, 256, 2048] * 3
        self.assert_fresh_instants(spy, cfg, [])
        for seed, metrics in trials.items():
            assert stand_alone_metrics(cfg, seed, metrics) == metrics

    def test_sampling_jitter_bypasses_the_memo(self, tmp_path, spy):
        cfg = small_regime(system={"sampling_jitter": 2.0e-13})
        trials = trial_metrics(cfg, tmp_path)
        assert spy["rows"] == 3 * 3 * 16
        assert all(memo is not None and n == 0 for memo, _, n, _ in spy["captures"])
        assert all(memo.instants == {} for memo, *_ in spy["captures"])
        assert [n for _, _, n, _ in spy["schedules"]] == [2000, 256, 2048] * 3
        for seed, metrics in trials.items():
            assert stand_alone_metrics(cfg, seed, metrics) == metrics

    def test_memo_is_scoped_to_the_montecarlo(self, spy):
        import stochadc.interleaver as il

        cfg = small_regime(trials=2)
        run_experiment("montecarlo", cfg, seed=0)
        memo = spy["captures"][0][0]
        assert il._tone_swings is None
        assert memo.grid is None and memo.instants == {} and memo.swings == {}
        # a single run samples every tone itself
        spy["captures"].clear()
        run_experiment("adc-sine", cfg, seed=0)
        assert all(memo is None for memo, *_ in spy["captures"])

    def test_a_dip_under_one_slices_threshold_is_refused_as_in_a_stand_alone_run(
        self, tmp_path, capsys
    ):
        # at seed 0 slice 5's v_p side holds the highest V2T threshold, about
        # 0.30399 V, and the next is 0.30382 V: a tone whose floor is 0.3039 V
        # dips under slice 5 alone.  The Monte Carlo reads the dip from the
        # memo's extremes, the stand-alone run from the arrays
        p = tmp_path / "dip.yaml"
        p.write_text(small_regime_text(
            stimulus={"common_mode": 0.5289}, capture={"linearity_amplitude": 0.45}
        ), encoding="utf-8")
        errors = []
        for name in ("montecarlo", "adc-sine"):
            assert main([name, "--config", str(p), "--seed", "0", "--out", str(tmp_path / name)]) == 3
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert errors[0].startswith("precondition violated: slice 5 cycle ")

    def test_a_tone_over_the_supply_is_refused_as_in_a_stand_alone_run(self):
        # a loaded config keeps every tone under adc.vdd, so the supply is
        # lowered past the tone's peak after load
        cfg = small_regime()
        cfg = dataclasses.replace(cfg, adc=dataclasses.replace(cfg.adc, vdd=0.7749))
        messages = []
        for name in ("montecarlo", "adc-sine"):
            with pytest.raises(OverrangeError) as refused:
                run_experiment(name, cfg, seed=0)
            messages.append(str(refused.value))
        assert messages[0] == messages[1]
        assert re.match(r"slice \d+ cycle \d+: input above supply", messages[0])

    def test_other_stimuli_bypass_the_memo(self):
        import stochadc.interleaver as il

        def level(t):
            half = np.full(np.shape(t), 0.1)
            return 0.55 + half, 0.55 - half

        system = converter(small_regime(), 0)
        with il.shared_tone_swings() as memo:
            capture = il.run_capture(system, level, 256)
            assert memo.instants == {} and memo.swings == {}
        assert np.array_equal(capture.raw, il.run_capture(system, level, 256).raw)


def test_cli_import_loads_neither_scipy_nor_a_process_pool(tmp_path):
    # scipy is only the tests' oracle, and the Monte Carlo runs its trials
    # in process; both would cost import time on every run.  numpy.ma
    # (imported by np.median and np.percentile) stays out of a Monte Carlo and
    # a skew calibration too
    code = (
        "import sys, stochadc.cli as cli; "
        "print(sorted(m for m in ('scipy', 'concurrent.futures') if m in sys.modules)); "
        f"cli.main(['montecarlo', '--config', {str(CONFIG_DIR / 'pi_mc.yaml')!r}]); "
        f"cli.main(['calibrate', '--config', {str(CONFIG_DIR / 'skewcal.yaml')!r}]); "
        "print(sorted(m for m in ('scipy', 'numpy.ma', 'concurrent.futures') "
        "if m in sys.modules))"
    )
    src = str(Path(stochadc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=120, cwd=tmp_path,
    )
    lines = proc.stdout.strip().splitlines()
    assert (lines[0], lines[-1]) == ("[]", "[]")


def test_every_benchmark_hook_target_exists():
    # the traced benchmark patches the names in perfbench/hooks.py after
    # `import stochadc.cli`, as perfbench/child.py does; install fails on a
    # missing name, which no other test would notice
    src = str(Path(stochadc.__file__).resolve().parents[1])
    perfbench = str(Path(__file__).resolve().parents[1] / "perfbench")
    code = "import stochadc.cli, stochadc, hooks; hooks.Tracer().install(stochadc)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, perfbench]))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", code], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_unknown_experiment_rejected():
    with pytest.raises(ConfigError):
        run_experiment("frobnicate", RunConfig())


def test_every_capture_tone_models_the_front_end(monkeypatch):
    # the LUT, skew and linearity tones used to skip the front end, so with
    # a bandwidth set they measured a different converter from the main tone
    import stochadc.interleaver as il

    cfg = parse_config(
        MINIMAL_SINE.replace("n_samples: 8192", "n_samples: 4096")
        + "  linearity: true\n  linearity_samples: 32768\n"
        "adc:\n  adaptation:\n    window: 2000\n"
        "system:\n  front_end_bandwidth: 8.0e+9\n  front_end_stages: 2\n"
        "  calibration:\n    lut: true\n    lut_capture_samples: 16384\n"
        "    lut_min_hits: 1\n    skew: true\n"
    )
    tones = []

    def recording(stage):
        def recorded(system, stimulus, *args, **kwargs):
            tones.append(stimulus)
            return stage(system, stimulus, *args, **kwargs)
        return recorded

    monkeypatch.setattr(il, "run_capture", recording(il.run_capture))
    monkeypatch.setattr(il, "adapt_offsets", recording(il.adapt_offsets))
    run_experiment("adc-sine", cfg, seed=1)
    # offset warmup, LUT, skew estimate, measurement, linearity histogram
    assert len(tones) == 5
    assert all((t.bandwidth, t.filter_stages) == (8.0e9, 2) for t in tones)


# each shipped config with an experiment that runs a capture or a PI sweep on
# it; each pair exits 0 in .github/shipped_exit_codes.txt
FIRST_STAGE_RUNS = {
    "fom.yaml": "pi-sweep",
    "ideal.yaml": "adc-sine",
    "pi_mc.yaml": "montecarlo",
    "pi_trim_injected.yaml": "pi-trim",
    "regime.yaml": "montecarlo",
    "skewcal.yaml": "adc-sine",
}
MISSING = object()  # a mutation that deletes the key or list item


class FirstStage(Exception):
    """Raised by a run's first capture, offset warmup or PI sweep."""


@contextmanager
def first_stages_stopped(stop):
    """Every first stage of a run replaced by `stop`: a capture, the offset
    warmup (which converts without a capture) and a PI sweep."""
    with (
        mock.patch.object(il, "run_capture", stop),
        mock.patch.object(il, "adapt_offsets", stop),
        mock.patch.object(pimod, "pi_sweep", stop),
    ):
        yield


def config_nodes(node, path=()):
    """(path, value) of every mapping entry and list item under `node`."""
    for key, value in node.items() if isinstance(node, dict) else enumerate(node):
        yield path + (key,), value
        if isinstance(value, (dict, list)):
            yield from config_nodes(value, path + (key,))


def mutations(value) -> list:
    """Field-wise mutations of one value: out of range, zero, fractional,
    off-multiple, wrong type and missing."""
    if isinstance(value, bool):
        return ["false", 1, MISSING]
    if isinstance(value, int):
        return [-value - 1, 0, value + 0.5, value + 1, "abc", True, MISSING]
    if isinstance(value, float):
        return [-abs(value) - 1.0, abs(value) * 1e3 + 1.0, 0.0, "abc", True, MISSING]
    if value is None:  # an unset number
        return [-1.0, 0, 0.5, "abc", MISSING]
    if isinstance(value, str):
        return [5, True, MISSING]
    return [5, "abc", MISSING]  # a list or a mapping


@st.composite
def mutated_configs(draw):
    """(shipped config name, YAML text of one mutation of it)."""
    name = draw(st.sampled_from(sorted(FIRST_STAGE_RUNS)))
    tree = config_to_dict(load_config(CONFIG_DIR / name))
    nodes = list(config_nodes(tree))
    # value mutations are the many; the two key mutations refuse every config alike
    kind = draw(st.sampled_from(["value"] * 4 + ["repeated key", "unknown keys"]))
    if kind == "repeated key":
        lines = yaml.safe_dump(tree).splitlines()
        i = draw(st.sampled_from([i for i, line in enumerate(lines) if re.match(r" *\w+:", line)]))
        return name, "\n".join(lines[: i + 1] + lines[i:]), kind
    if kind == "unknown keys":
        mapping = draw(st.sampled_from([tree] + [v for _, v in nodes if isinstance(v, dict)]))
        mapping.update({1: 2, "foo": 3})
    else:
        path, value = draw(st.sampled_from(nodes))
        parent = tree
        for key in path[:-1]:
            parent = parent[key]
        new = draw(st.sampled_from(mutations(value)))
        if new is MISSING:
            del parent[path[-1]]
        else:
            parent[path[-1]] = new
    return name, yaml.safe_dump(tree), kind


def deleted(name: str, key: str) -> tuple:
    """The case of shipped config `name` with its top-level `key` deleted."""
    tree = config_to_dict(load_config(CONFIG_DIR / name))
    del tree[key]
    return name, yaml.safe_dump(tree), "value"


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(mutated_configs())
@example(deleted("ideal.yaml", "stimulus"))
def test_every_refusal_comes_before_the_first_stage(case):
    # a config is refused at load, or its run reaches its first capture,
    # offset warmup or PI sweep unless a listed check stops it first: one
    # that depends on the data (the STDC window of the drawn converter, a
    # precondition, an unconvergent trim) or on the experiment (adc-sine on a
    # config without a tone, which other experiments run)
    name, text, kind = case
    try:
        cfg = parse_config(text)
    except ConfigError:
        return
    assert kind == "value", f"a config with {kind} loaded"
    stop = mock.Mock(side_effect=FirstStage)
    with first_stages_stopped(stop):
        try:
            run_experiment(FIRST_STAGE_RUNS[name], cfg)
        except (FirstStage, PreconditionError, TrimConvergenceError):
            return
        except ConfigError as exc:
            refusals = r"^slice \d+ at seed \d+ needs|^this experiment needs stimulus\.frequency"
            assert re.search(refusals, str(exc)), str(exc)
            return
    raise AssertionError(f"{name} ran without a capture, a warmup or a PI sweep")


SHIPPED_REFUSALS = [
    line.split()[:2]
    for line in (CONFIG_DIR.parent / ".github" / "shipped_exit_codes.txt").read_text().splitlines()
    if line.split()[2] == "2"
]


@pytest.mark.parametrize(
    "config, experiment", SHIPPED_REFUSALS, ids=[f"{c}-{e}" for c, e in SHIPPED_REFUSALS]
)
def test_every_shipped_refusal_comes_before_the_first_stage(config, experiment):
    # each shipped run that exits 2 is refused before its first capture,
    # offset warmup or PI sweep: adc-sine and montecarlo on a config without a tone (fom, pi_mc)
    # used to convert a 160,000-sample offset warmup first
    cfg = load_config(CONFIG_DIR / config)
    stop = mock.Mock(side_effect=FirstStage)
    with first_stages_stopped(stop):
        with pytest.raises(ConfigError):
            run_experiment(experiment, cfg, seed=3)
    assert not stop.called
