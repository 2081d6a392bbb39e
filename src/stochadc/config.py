"""Run configuration: strict YAML schema, validation, hashing.

One human-editable YAML file describes an experiment end to end, and its
`adc`, `pi` and `system` sections are the one description of the converter
design: `AdcSystem` and the PI chain of `pi-sweep` and `pi-trim` are drawn
from them by `interleaver`, which alone decides which keyed-draw rows become
which instance, and the derived quantities (slice period, discharge slope,
PI step, ...) are properties of the section they read.  Parsing is strict:
unknown keys anywhere in the tree and non-finite numbers are rejected.  Each
section checks its own value ranges when it is constructed, from YAML or in
Python; value types are checked at YAML load (`_value`), and in Python only
by the checks that test them (`_check_counts`, `_check_positive`,
`_check_sigmas`, `_check_pinned` and a few others), so `AdcConfig(vdd=True)`
builds; a field
that feeds no result takes only its default (`_check_pinned`).
`parse_config` adds the checks that span sections (tone coherence, stimulus
swing, the skew tone's presence and amplitude and the skew range the
calibration can measure).  The four tones of a run are derived here, each
through `sine_tone`.  Physically meaningful values have no hidden defaults
beyond the documented design sizing.  Loading then re-serializing a config
is idempotent.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import numbers
import typing
from dataclasses import dataclass, field, fields
from pathlib import Path

import yaml

from .errors import CoherenceError, ConfigError
from .interleaver import CODE_MAX, N_GROUPS, N_SLICES
from .metrics import coherent_bin
from .stimulus import SineStimulus


def _build(cls, data, path: str):
    """Construct a section dataclass from a mapping, rejecting unknown keys.

    Each value is read through its field's annotation (see `_value`).
    """
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(data).__name__}")
    unknown = sorted(set(data) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigError(f"{path}: unknown keys {unknown}")
    hints = typing.get_type_hints(cls)
    kwargs = {name: _value(hints[name], value, f"{path}.{name}") for name, value in data.items()}
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _value(hint, value, path: str):
    """One YAML value as the annotation `hint` reads it.

    A section type builds that section, a list becomes a tuple of the
    annotation's item type, a scalar must match its annotation (see
    `_SCALARS`; `X | None` also takes null), and nan or inf is rejected at
    any depth.
    """
    if dataclasses.is_dataclass(hint):
        return _build(hint, value, path)
    args = typing.get_args(hint)
    if isinstance(value, str) and float in (hint, *args):
        # YAML 1.1 parses exponent literals without a decimal point as
        # strings; accept them rather than failing on "100e-12"
        try:
            value = float(value)
        except ValueError as exc:
            raise ConfigError(f"{path}: expected a number, got {value!r}") from exc
    kinds = [t for t in (hint, *args) if t in _SCALARS]
    unset = value is None and type(None) in args
    if kinds and not unset and not any(_SCALARS[t][0](value) for t in kinds):
        raise ConfigError(f"{path}: expected {_SCALARS[kinds[0]][1]}, got {value!r}")
    if isinstance(value, list):
        item = (args or (None,))[0]
        return tuple(_value(item, v, f"{path}[]") for v in value)
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{path}: numbers must be finite, got {value!r}")
    return value


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


# annotation -> (accepts the YAML value, what the error says it expected);
# a bool is not a number here, and an int is a valid float
_SCALARS = {
    bool: (lambda v: isinstance(v, bool), "true or false"),
    int: (_is_int, "an integer"),
    float: (_is_real, "a number"),
    str: (lambda v: isinstance(v, str), "a string"),
}


def _check_sigmas(section, path: str, *names: str) -> None:
    for name in names:
        value = getattr(section, name)
        if not _is_real(value) or not value >= 0:
            raise ConfigError(f"{path}.{name} must be >= 0")


def _check_counts(section, path: str, *names: str) -> None:
    for name in names:
        value = getattr(section, name)
        if not _is_int(value) or value < 1:
            raise ConfigError(f"{path}.{name} must be an integer >= 1, got {value!r}")


def _check_captures(section, path: str, *names: str) -> None:
    """Aggregate capture sizes: a capture takes the same number of samples
    from each of the N_SLICES slices."""
    for name in names:
        value = getattr(section, name)
        if value % N_SLICES:
            raise ConfigError(f"{path}.{name} must be a multiple of {N_SLICES}, got {value}")


def _check_pinned(section, path: str, *names: str) -> None:
    """Fields that feed no result take only their dataclass default, of its
    type, so a config that loads hashes as if they were not set."""
    defaults = {f.name: f.default for f in fields(section)}
    for name in names:
        value, default = getattr(section, name), defaults[name]
        if type(value) is not type(default) or value != default:
            raise ConfigError(
                f"{path}.{name} feeds no result and takes only its default "
                f"{default!r}, got {value!r}"
            )


def _check_positive(section, path: str, *names: str) -> None:
    for name in names:
        value = getattr(section, name)
        if not _is_real(value) or not value > 0:
            raise ConfigError(f"{path}.{name} must be a number > 0, got {value!r}")


@dataclass(frozen=True)
class AdaptationConfig:
    window: int = 10_000
    threshold: float = 0.001

    def __post_init__(self):
        _check_counts(self, "adc.adaptation", "window")
        if not _is_real(self.threshold) or not 0 < self.threshold <= 1:
            raise ConfigError(
                f"adc.adaptation.threshold must lie in (0, 1], got {self.threshold!r}"
            )


@dataclass(frozen=True)
class AdcConfig:
    vdd: float = 0.9
    v_threshold: float = 0.3
    full_scale: float = 0.45  # differential full scale: max |v_p - v_n|, volts
    d_offset: float = 100e-12
    unit_delay: float = 4e-12
    n_taps: int = 255
    launch_lead_taps: float = 0.25
    divided_ratio: int = 8
    tap_sigma_systematic: float = 0.0
    tap_sigma_random: float = 0.0
    slope_sigma: float = 0.0
    threshold_sigma: float = 0.0
    adaptation: AdaptationConfig = field(default_factory=AdaptationConfig)

    def __post_init__(self):
        _check_counts(self, "adc", "n_taps", "divided_ratio")
        # a negative lead opens the pulse window before the STDC launch edge
        if not _is_real(self.launch_lead_taps) or not self.launch_lead_taps >= 0:
            raise ConfigError(
                f"adc.launch_lead_taps must be a number >= 0, got {self.launch_lead_taps!r}"
            )
        if not (0 < self.v_threshold < self.vdd / 2):
            raise ConfigError("adc.v_threshold must lie in (0, vdd/2)")
        _check_positive(self, "adc", "full_scale", "unit_delay", "d_offset")
        _check_sigmas(self, "adc", "tap_sigma_systematic", "tap_sigma_random",
                      "slope_sigma", "threshold_sigma")

    @property
    def discharge_slope(self) -> float:
        # Full-scale |dv| maps to CODE_MAX counts above the offset code.
        return self.full_scale / (CODE_MAX * self.unit_delay)

    @property
    def launch_lead(self) -> float:
        return self.launch_lead_taps * self.unit_delay

    @property
    def nominal_offset_code(self) -> int:
        return int(round(self.d_offset / self.unit_delay))


@dataclass(frozen=True)
class PiConfig:
    unit_delay: float = 12.5e-12
    n_taps: int = 32
    tap_sigma_rel: float = 0.0
    skew_sigma_rel: float = 0.0  # in units of unit_delay
    trim_enabled: bool = False
    trim_max_iters: int = 64
    injected_skews: tuple = ()  # (path index 1-based, skew in unit delays) pairs

    def __post_init__(self):
        _check_counts(self, "pi", "trim_max_iters")
        _check_positive(self, "pi", "unit_delay")
        if not _is_int(self.n_taps) or self.n_taps < 2:
            raise ConfigError(f"pi.n_taps must be an integer >= 2, got {self.n_taps!r}")
        _check_sigmas(self, "pi", "tap_sigma_rel", "skew_sigma_rel")
        for entry in self.injected_skews:
            if not (
                isinstance(entry, (tuple, list))
                and len(entry) == 2
                and _is_int(entry[0])
                and 1 <= entry[0] <= self.n_taps
                and _is_real(entry[1])
            ):
                raise ConfigError(
                    f"pi.injected_skews entries must be [path in 1..{self.n_taps}, "
                    f"skew in unit delays], got {entry!r}"
                )

    @property
    def skew_sigma(self) -> float:
        return self.skew_sigma_rel * self.unit_delay


@dataclass(frozen=True)
class CalibrationConfig:
    adapt_offsets: bool = True
    lut: bool = False
    skew: bool = False
    lut_capture_samples: int = 1_048_576  # aggregate; 100-hit floor needs ~2^20
    lut_min_hits: int = 100
    skew_capture_samples: int = 4_096

    def __post_init__(self):
        _check_counts(self, "system.calibration", "lut_capture_samples",
                      "skew_capture_samples", "lut_min_hits")
        _check_captures(self, "system.calibration", "lut_capture_samples",
                        "skew_capture_samples")


@dataclass(frozen=True)
class SystemConfig:
    aggregate_rate: float = 20e9
    skew_injection: tuple = (0.0,) * N_GROUPS
    latencies: tuple = (2,) * N_SLICES
    sampling_jitter: float = 0.0
    front_end_bandwidth: float | None = None
    front_end_stages: int = 1
    track: float = 50e-12
    early: float = 5e-12
    late: float = 5e-12
    calibration: CalibrationConfig = field(default_factory=CalibrationConfig)

    def __post_init__(self):
        _check_positive(self, "system", "aggregate_rate")
        if len(self.skew_injection) != N_GROUPS or not all(map(_is_real, self.skew_injection)):
            raise ConfigError(f"system.skew_injection needs {N_GROUPS} numbers")
        if len(self.latencies) != N_SLICES:
            raise ConfigError(f"system.latencies needs {N_SLICES} entries")
        if not all(_is_int(lat) and lat >= 0 for lat in self.latencies):
            raise ConfigError("system.latencies must be integers >= 0")
        _check_sigmas(self, "system", "sampling_jitter")
        # a bandwidth <= 0 divides by zero or flips the sign of the phase lag,
        # and a stage count below one (or fractional) amplifies the tone
        if self.front_end_bandwidth is not None:
            _check_positive(self, "system", "front_end_bandwidth")
        _check_counts(self, "system", "front_end_stages")
        _check_pinned(self, "system", "track", "early", "late")

    @property
    def slice_rate(self) -> float:
        return self.aggregate_rate / N_SLICES

    @property
    def slice_period(self) -> float:
        return N_SLICES / self.aggregate_rate

    @property
    def pi_clock_period(self) -> float:
        return N_GROUPS / self.aggregate_rate

    @property
    def pi_step(self) -> float:
        return self.pi_clock_period / 256.0


@dataclass(frozen=True)
class StimulusConfig:
    type: str = "sine"  # the only stimulus any experiment applies
    frequency: float | None = None
    coherent_bin: int | None = None
    amplitude: float = 0.45
    common_mode: float = 0.525
    phase: float = 0.0

    def __post_init__(self):
        _check_pinned(self, "stimulus", "type")
        # a negative amplitude would pass the swing check at load
        _check_positive(self, "stimulus", "amplitude")
        if self.coherent_bin is not None and self.coherent_bin % 2 == 0:
            raise ConfigError("coherent_bin must be odd")


@dataclass(frozen=True)
class CaptureConfig:
    n_samples: int = 8_192
    linearity: bool = False
    linearity_samples: int = 65_536
    linearity_amplitude: float | None = None

    def __post_init__(self):
        _check_counts(self, "capture", "n_samples", "linearity_samples")
        _check_captures(self, "capture", "n_samples", "linearity_samples")
        # unset means the stimulus amplitude; 0 must not read as unset
        if self.linearity_amplitude is not None:
            _check_positive(self, "capture", "linearity_amplitude")


@dataclass(frozen=True)
class SweepConfig:
    points: int = 511
    span_rel: float = 1.0  # fraction of full scale swept on each side
    seeds: int = 1

    def __post_init__(self):
        _check_counts(self, "sweep", "points")
        _check_pinned(self, "sweep", "seeds")


@dataclass(frozen=True)
class MonteCarloConfig:
    trials: int = 20
    experiment: str = "adc-sine"
    workers: int = 1
    percentiles: tuple = (5.0, 50.0, 95.0)

    def __post_init__(self):
        _check_counts(self, "montecarlo", "trials")
        _check_pinned(self, "montecarlo", "workers")
        if not isinstance(self.percentiles, (tuple, list)) or not all(
            _is_real(p) and 0 <= p <= 100 for p in self.percentiles
        ):
            raise ConfigError(
                f"montecarlo percentiles must be a list of numbers in [0, 100], "
                f"got {self.percentiles!r}"
            )


@dataclass(frozen=True)
class FomEntry:
    label: str
    power: float
    enob: float
    rate: float

    def __post_init__(self):
        # the figure of merit divides by both
        _check_positive(self, "fom.entries[]", "power", "rate")


@dataclass(frozen=True)
class FomConfig:
    entries: tuple[FomEntry, ...] = ()

    def __post_init__(self):
        if not isinstance(self.entries, tuple) or not all(
            isinstance(entry, FomEntry) for entry in self.entries
        ):
            raise ConfigError(f"fom.entries must be a list of mappings, got {self.entries!r}")


@dataclass(frozen=True)
class OutputConfig:
    dir: str = "out"
    formats: tuple = ("csv", "json")

    def __post_init__(self):
        _check_pinned(self, "output", "formats")


@dataclass(frozen=True)
class RunConfig:
    master_seed: int = 0
    adc: AdcConfig = field(default_factory=AdcConfig)
    pi: PiConfig = field(default_factory=PiConfig)
    system: SystemConfig = field(default_factory=SystemConfig)
    stimulus: StimulusConfig = field(default_factory=StimulusConfig)
    capture: CaptureConfig = field(default_factory=CaptureConfig)
    sweep: SweepConfig = field(default_factory=SweepConfig)
    montecarlo: MonteCarloConfig = field(default_factory=MonteCarloConfig)
    fom: FomConfig = field(default_factory=FomConfig)
    output: OutputConfig = field(default_factory=OutputConfig)

    def __post_init__(self):
        # derive_seed would truncate a fractional seed to another run's draws
        if not _is_int(self.master_seed):
            raise ConfigError(f"master_seed must be an integer, got {self.master_seed!r}")

    @functools.cached_property
    def digest(self) -> str:
        """`config_hash`, serialized once per instance (the config is frozen)."""
        canonical = json.dumps(config_to_dict(self), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _validate(cfg: RunConfig) -> RunConfig:
    """The checks that span sections; each section has checked itself."""
    st = cfg.stimulus
    has_tone = st.frequency is not None or st.coherent_bin is not None
    if has_tone:
        # the rule the spectral metric and the skew estimate apply at run time
        fs = cfg.system.aggregate_rate
        records = {"capture.n_samples": (measurement_tone(cfg), cfg.capture.n_samples)}
        if cfg.system.calibration.skew:
            records["system.calibration.skew_capture_samples"] = (
                skew_tone(cfg), cfg.system.calibration.skew_capture_samples,
            )
        for name, (tone, n) in records.items():
            try:
                coherent_bin(tone.frequency, fs, n)
            except CoherenceError as exc:
                raise ConfigError(f"{name}: {exc}") from exc
    # the offset warmup applies the stimulus amplitude whether or not a
    # measurement tone is set; unset, the linearity amplitude is that one
    amplitudes = dict([("stimulus.amplitude", st.amplitude), _linearity_amplitude(cfg)])
    for name, amplitude in amplitudes.items():
        if st.common_mode - amplitude / 2.0 < cfg.adc.v_threshold:
            raise ConfigError(
                f"stimulus swings below the V2T threshold at {name} {amplitude}; "
                "raise common_mode"
            )
        if st.common_mode + amplitude / 2.0 > cfg.adc.vdd:
            raise ConfigError(f"stimulus swings above the supply at {name} {amplitude}")
    if cfg.system.calibration.skew:
        # the skew tone is the measurement tone moved to the skew capture's grid
        if not has_tone:
            raise ConfigError(
                "system.calibration.skew needs a tone: set stimulus.frequency or "
                "stimulus.coherent_bin"
            )
        if st.amplitude < cfg.adc.full_scale / 2.0:
            raise ConfigError(
                f"stimulus.amplitude {st.amplitude} is below half of adc.full_scale "
                f"{cfg.adc.full_scale}; the skew calibration tone must be at least half scale"
            )
        _check_skew_unwraps(cfg)
    return cfg


def _check_skew_unwraps(cfg: RunConfig) -> None:
    """The estimator reads each group's skew against group 0 as a tone phase,
    so an injected skew of half a tone period or more wraps to the wrong sign."""
    frequency = skew_tone(cfg).frequency
    skews = cfg.system.skew_injection
    for g, skew in enumerate(skews):
        if abs(skew - skews[0]) >= 0.5 / frequency:
            raise ConfigError(
                f"system.skew_injection[{g}] is {(skew - skews[0]) * 1e12:+.1f} ps from "
                f"group 0, at or beyond half the skew-tone period "
                f"({0.5e12 / frequency:.1f} ps at {frequency / 1e9:.3f} GHz)"
            )


# The offset warmup's tone advances each slice's phase by the golden fraction
# of a cycle per sample.  A tone coherent with the capture gives each slice
# only n/16 distinct phases, so whether any sample lands on the minimum code
# is a parity accident; the golden fraction fills the phase circle maximally
# uniformly, which guarantees histogram mass at the true minimum for any
# adaptation window a few thousand samples long.
GOLDEN_FRACTION = 0.6180339887498949


def sine_tone(cfg: RunConfig, frequency: float, amplitude: float) -> SineStimulus:
    """A test tone as the converter receives it: the stimulus section's common
    mode and phase, through the system's front-end bandwidth and stages."""
    return SineStimulus(
        frequency=frequency,
        amplitude=amplitude,
        common_mode=cfg.stimulus.common_mode,
        phase=cfg.stimulus.phase,
        bandwidth=cfg.system.front_end_bandwidth,
        filter_stages=cfg.system.front_end_stages,
    )


def measurement_tone(cfg: RunConfig) -> SineStimulus:
    """The configured tone `adc-sine` measures: its coherent bin of the
    capture, else its frequency."""
    st = cfg.stimulus
    if st.coherent_bin is not None:
        frequency = st.coherent_bin * cfg.system.aggregate_rate / cfg.capture.n_samples
    elif st.frequency is not None:
        frequency = float(st.frequency)
    else:
        raise ConfigError("this experiment needs stimulus.frequency or stimulus.coherent_bin")
    return sine_tone(cfg, frequency, st.amplitude)


def warmup_tone(cfg: RunConfig) -> SineStimulus:
    """The offset warmup's zero-mean tone at the stimulus amplitude; it needs
    no configured frequency."""
    return sine_tone(cfg, GOLDEN_FRACTION * cfg.system.slice_rate, cfg.stimulus.amplitude)


def _linearity_amplitude(cfg: RunConfig) -> tuple[str, float]:
    """The code-density tone's amplitude and the field it is read from:
    `capture.linearity_amplitude` when set, else the stimulus amplitude."""
    if cfg.capture.linearity_amplitude is None:
        return "stimulus.amplitude", cfg.stimulus.amplitude
    return "capture.linearity_amplitude", cfg.capture.linearity_amplitude


def linearity_tone(cfg: RunConfig) -> SineStimulus:
    """The code-density tone of the LUT capture and the linearity capture:
    the warmup's frequency at the linearity amplitude."""
    return sine_tone(cfg, GOLDEN_FRACTION * cfg.system.slice_rate, _linearity_amplitude(cfg)[1])


def skew_tone(cfg: RunConfig) -> SineStimulus:
    """The skew estimate's tone at the stimulus amplitude: the odd bin of the
    skew capture nearest the measurement tone."""
    n_skew = cfg.system.calibration.skew_capture_samples
    fs = cfg.system.aggregate_rate
    j = int(round(measurement_tone(cfg).frequency * n_skew / fs))
    if j % 2 == 0:
        j += 1
    return sine_tone(cfg, j * fs / n_skew, cfg.stimulus.amplitude)


def load_config(path) -> RunConfig:
    text = Path(path).read_text(encoding="utf-8")
    return parse_config(text)


def parse_config(text: str) -> RunConfig:
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed YAML: {exc}") from exc
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    return _validate(_build(RunConfig, data, "config"))


def config_to_dict(cfg) -> dict:
    if dataclasses.is_dataclass(cfg):
        return {
            f.name: config_to_dict(getattr(cfg, f.name)) for f in fields(cfg)
        }
    if isinstance(cfg, tuple):
        return [config_to_dict(v) for v in cfg]
    return cfg


def dump_config(cfg: RunConfig) -> str:
    return yaml.safe_dump(config_to_dict(cfg), sort_keys=True)


def config_hash(cfg: RunConfig) -> str:
    """First 16 hex digits of the sha256 of the canonical JSON of the config."""
    return cfg.digest
