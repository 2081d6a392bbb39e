"""Run configuration: strict YAML schema, validation, hashing.

One human-editable YAML file describes an experiment end to end, and its
`adc`, `pi` and `system` sections are the one description of the converter
design: `AdcSystem` and the PI chain of `pi-sweep` and `pi-trim` are drawn
from them by `interleaver`, which alone decides which keyed-draw rows become
which instance, and the derived quantities (slice period, discharge slope,
PI step, ...) are properties of the section they read.

A section is declared once, on its class line:
`class SystemConfig(_Section, path="system", pinned=("latencies", ...)):`.
Its fields are annotated attributes, and a range sits on the annotation as
an `Annotated[type, (test, text)]` alias such as `Positive`, `Count` or
`Capture`.  `path` places the section in a config (`system.calibration`,
`fom.entries[]`; "" at the root, whose key errors say `config`), and every
error about the section names it, from YAML or in Python.  `pinned` lists
the fields that feed no result (`system.latencies`, `track`, `early` and
`late`, `output.formats`, `sweep.seeds`, `montecarlo.workers` and
`stimulus.type`), which take only their default.  `_Section` makes each
section a frozen record (`core.Record`) whose constructor calls `_check`
(the pinned fields, then each field's type, see `_SCALARS`, finiteness and
range; `X | None` also takes None, a tuple a list) and then `_rules`, the
rules between the section's own fields where it has any.  Loading adds
strictness (unknown keys anywhere in the tree, and a key repeated in one
mapping, are rejected; `_value` only nests sections, turns lists into
tuples and reads YAML 1.1's "100e-12" as a number) and `parse_config` the
checks that span sections (tone coherence, the stimulus swing and the
slice-transfer sweep inside the V2T input range, the skew tone's presence
and amplitude and the skew range the calibration can measure).  The four
tones of a run are derived here, each through `sine_tone`.  Physically
meaningful values have no hidden defaults beyond the documented design
sizing.  Loading then re-serializing a config (`yaml.safe_dump` of
`config_to_dict`) is idempotent, a tested property.

The package reads a config's YAML itself (`_Reader`), with no YAML library:
block mappings and sequences (a key's sequence may sit at the key's indent,
as PyYAML writes it), flow sequences and mappings, comments, and plain,
quoted and null scalars.  A plain scalar takes the type PyYAML 6's safe
loader gives it under YAML 1.1, so `5.0e-12` and `.inf` are floats while
`100e-12` and `1.0e5` stay strings (`_value` reads those as numbers where a
number is expected).  Every other construct is refused with a
`ConfigError` naming its line: YAML 1.1's other booleans, integers in other
bases or with `_` or `:`, timestamps, anchors, aliases, merge keys, tags,
document markers, block scalars, multi-line scalars, `?` keys and tabs in
indentation.  The tests hold the reader to PyYAML.

Annotations are evaluated when each class is created (no postponed
annotations), so `_check` reads each `Field.type` as it is;
`typing.get_type_hints` on every section would slow the first load.
"""

import contextlib
import functools
import hashlib
import json
import math
import numbers
import re
import typing
from dataclasses import field, fields
from pathlib import Path
from typing import Annotated

from .core import Record
from .errors import CoherenceError, ConfigError
from .interleaver import CODE_MAX, N_CODES, N_GROUPS, N_SLICES, PI_CODES
from .metrics import MIN_HITS_PER_CODE, coherent_bin, walden_fom
from .stdc import MAX_TAPS
from .stimulus import SineStimulus


def _build(cls, data):
    """Construct section `cls` from a mapping, rejecting unknown keys; errors
    name the section's path, `config` at the root.

    Each value is read through its field's annotation (see `_value`).
    """
    path = cls._path or "config"
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(data).__name__}")
    hints = {f.name: f.type for f in fields(cls)}
    # a YAML key need not be a string, so the keys sort by their text
    unknown = sorted(data.keys() - hints.keys(), key=str)
    if unknown:
        raise ConfigError(f"{path}: unknown keys {unknown}")
    kwargs = {name: _value(hints[name], value) for name, value in data.items()}
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _value(hint, value):
    """One YAML value as the annotation `hint` reads it: a section type builds
    that section, a list becomes a tuple of the annotation's items, and a
    string where a number is expected becomes one if it reads as one (YAML 1.1
    parses "100e-12", an exponent without a decimal point, as a string).  The
    section's `_check` then holds the result to `hint`."""
    hint = _parts(hint)[0]
    if isinstance(hint, type) and issubclass(hint, _Section):
        return _build(hint, value)
    if isinstance(value, list):
        item = (typing.get_args(hint) or (None,))[0]
        return tuple(_value(item, v) for v in value)
    if isinstance(value, str) and hint is float:
        with contextlib.suppress(ValueError):
            return float(value)
    return value


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


# annotation -> (accepts the value, what the error says it must be);
# a bool is not a number here, and an int is a valid float
_SCALARS = {
    bool: (lambda v: isinstance(v, bool), "true or false"),
    int: (_is_int, "an integer"),
    float: (_is_real, "a number"),
    str: (lambda v: isinstance(v, str), "a string"),
}

Positive = Annotated[float, (lambda v: v > 0, "a number > 0")]
NonNegative = Annotated[float, (lambda v: v >= 0, "a number >= 0")]
Count = Annotated[int, (lambda v: v >= 1, "an integer >= 1")]
# an aggregate capture size: a capture takes the same number of samples from
# each of the N_SLICES slices
Capture = Annotated[
    int, (lambda v: v >= 1 and v % N_SLICES == 0, f"a multiple of {N_SLICES} above 0")
]


@functools.cache
def _parts(hint) -> tuple:
    """An annotation as (type, range rule or None, whether it takes None)."""
    args = typing.get_args(hint)
    optional = type(None) in args
    if optional:
        hint = args[0]
    if typing.get_origin(hint) is Annotated:
        return hint.__origin__, hint.__metadata__[0], optional
    return hint, None, optional


def _check(section) -> None:
    """Hold each field of `section` to its annotation, naming it by its
    class's `_path`: first the `_pinned` fields, which feed no result and so
    take only their dataclass default, of its type (a config that loads then
    hashes as if they were not set); then every field's type, finiteness and
    range."""
    prefix = f"{section._path}." if section._path else ""
    for name in section._pinned:
        value, default = getattr(section, name), section.__dataclass_fields__[name].default
        if type(value) is not type(default) or value != default:
            raise ConfigError(
                f"{prefix}{name} feeds no result and takes only its default "
                f"{default!r}, got {value!r}"
            )
    for f in fields(section):
        _check_value(f.type, getattr(section, f.name), prefix + f.name)


def _check_value(hint, value, path: str) -> None:
    """Hold one value to its annotation: type, finiteness, then range."""
    kind, rule, optional = _parts(hint)
    if value is None and optional:
        return
    if typing.get_origin(kind) is tuple:
        if not isinstance(value, (tuple, list)):
            raise ConfigError(f"{path} must be a list, got {value!r}")
        item = typing.get_args(kind)[0]
        for i, v in enumerate(value):
            _check_value(item, v, f"{path}[{i}]")
    elif kind in _SCALARS:
        accepts, text = _SCALARS[kind]
        if not accepts(value):
            raise ConfigError(f"{path} must be {text}, got {value!r}")
        if kind is float and not (_is_int(value) or math.isfinite(value)):
            raise ConfigError(f"{path} must be finite, got {value!r}")
    elif not isinstance(value, kind):
        raise ConfigError(f"{path} must be a section ({kind.__name__}), got {value!r}")
    if rule is not None and not rule[0](value):
        raise ConfigError(f"{path} must be {rule[1]}, got {value!r}")


class _Section(Record):
    """A config section, declared on its class line with its `path` and its
    `pinned` fields (see the module docstring).  Each subclass is a frozen
    record whose constructor holds it to its annotations, then to its
    `_rules`."""

    def __init_subclass__(cls, path: str, pinned: tuple = ()):
        cls._path, cls._pinned = path, pinned
        super().__init_subclass__()

    def __post_init__(self):
        _check(self)
        self._rules()

    def _rules(self):
        """The rules between this section's own fields, after `_check`."""


class AdaptationConfig(_Section, path="adc.adaptation"):
    """The offset warmup: its window of counts and the robust-minimum threshold."""

    window: Count = 10_000
    threshold: Annotated[float, (lambda v: 0 < v <= 1, "a number in (0, 1]")] = 0.001


class AdcConfig(_Section, path="adc"):
    """One slice's design: supply, V2T, STDC chain and their mismatch."""

    vdd: float = 0.9
    v_threshold: float = 0.3
    full_scale: Positive = 0.45  # differential full scale: max |v_p - v_n|, volts
    d_offset: Positive = 100e-12
    unit_delay: Positive = 4e-12
    # counts and codes are int16: a LUT address, a code plus 128, must fit
    n_taps: Annotated[int, (lambda v: 1 <= v <= MAX_TAPS, f"an integer in [1, {MAX_TAPS}]")] = 255
    # a negative lead opens the pulse window before the STDC launch edge
    launch_lead_taps: NonNegative = 0.25
    divided_ratio: Count = 8
    tap_sigma_systematic: NonNegative = 0.0
    tap_sigma_random: NonNegative = 0.0
    slope_sigma: NonNegative = 0.0
    threshold_sigma: NonNegative = 0.0
    adaptation: AdaptationConfig = field(default_factory=AdaptationConfig)

    def _rules(self):
        if not (0 < self.v_threshold < self.vdd / 2):
            raise ConfigError("adc.v_threshold must lie in (0, vdd/2)")

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


class PiConfig(_Section, path="pi"):
    """The phase interpolator's chain, its mismatch, injected skews and trim."""

    unit_delay: Positive = 12.5e-12
    n_taps: Annotated[int, (lambda v: v >= 2, "an integer >= 2")] = 32
    tap_sigma_rel: NonNegative = 0.0
    skew_sigma_rel: NonNegative = 0.0  # in units of unit_delay
    trim_enabled: bool = False
    trim_max_iters: Count = 64
    # (path index 1-based, skew in unit delays) pairs
    injected_skews: tuple[tuple[float, ...], ...] = ()

    def _rules(self):
        for entry in self.injected_skews:
            if not (len(entry) == 2 and _is_int(entry[0]) and 1 <= entry[0] <= self.n_taps):
                raise ConfigError(
                    f"pi.injected_skews entries must be [path in 1..{self.n_taps}, "
                    f"skew in unit delays], got {entry!r}"
                )

    @property
    def skew_sigma(self) -> float:
        return self.skew_sigma_rel * self.unit_delay


class CalibrationConfig(_Section, path="system.calibration"):
    """Which calibrations run, and their capture sizes."""

    adapt_offsets: bool = True
    lut: bool = False
    skew: bool = False
    lut_capture_samples: Capture = 1_048_576  # aggregate; 100-hit floor needs ~2^20
    lut_min_hits: Count = 100
    skew_capture_samples: Capture = 4_096


class SystemConfig(_Section, path="system", pinned=("latencies", "track", "early", "late")):
    """The interleaved converter: rate, group skews, jitter, front end, calibration."""

    aggregate_rate: Positive = 20e9
    skew_injection: Annotated[
        tuple[float, ...], (lambda v: len(v) == N_GROUPS, f"a list of {N_GROUPS} numbers")
    ] = (0.0,) * N_GROUPS
    # the aligner removes exactly the retime it models
    latencies: tuple[int, ...] = (2,) * N_SLICES
    sampling_jitter: NonNegative = 0.0
    # a bandwidth <= 0 divides by zero or flips the sign of the phase lag,
    # and a stage count below one (or fractional) amplifies the tone
    front_end_bandwidth: Positive | None = None
    front_end_stages: Count = 1
    track: float = 50e-12
    early: float = 5e-12
    late: float = 5e-12
    calibration: CalibrationConfig = field(default_factory=CalibrationConfig)

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
        return self.pi_clock_period / PI_CODES


class StimulusConfig(_Section, path="stimulus", pinned=("type",)):
    """The measurement tone and the common mode and phase of every tone."""

    type: str = "sine"  # the only stimulus any experiment applies
    frequency: float | None = None
    coherent_bin: Annotated[int, (lambda v: v % 2 == 1, "odd")] | None = None
    # a negative amplitude would pass the swing check at load
    amplitude: Positive = 0.45
    common_mode: float = 0.525
    phase: float = 0.0


class CaptureConfig(_Section, path="capture"):
    """The measurement capture and the code-density linearity capture."""

    n_samples: Capture = 8_192
    linearity: bool = False
    linearity_samples: Capture = 65_536
    # unset means the stimulus amplitude; 0 must not read as unset
    linearity_amplitude: Positive | None = None

    def _rules(self):
        # the code-density histogram needs MIN_HITS_PER_CODE samples per code
        floor = MIN_HITS_PER_CODE * N_CODES
        if self.linearity and self.linearity_samples < floor:
            raise ConfigError(
                f"capture.linearity_samples must be at least {floor} "
                f"({MIN_HITS_PER_CODE} per code) with capture.linearity on, "
                f"got {self.linearity_samples}"
            )


class SweepConfig(_Section, path="sweep", pinned=("seeds",)):
    """The slice-transfer sweep."""

    points: Count = 511
    span_rel: Positive = 1.0  # fraction of full scale swept on each side
    seeds: int = 1


Percentile = Annotated[float, (lambda v: 0 <= v <= 100, "a number in [0, 100]")]


class MonteCarloConfig(_Section, path="montecarlo", pinned=("workers",)):
    """The Monte Carlo: its trial count, experiment and summary percentiles."""

    trials: Count = 20
    experiment: str = "adc-sine"
    workers: int = 1
    percentiles: tuple[Percentile, ...] = (5.0, 50.0, 95.0)


class FomEntry(_Section, path="fom.entries[]"):
    """One converter of the figure-of-merit table, from its published numbers."""

    label: str
    power: Positive  # the figure of merit divides by both
    enob: float
    rate: Positive

    def _rules(self):
        # fom writes the figure of merit in J and in pJ, so both must be finite and > 0
        try:
            fom = walden_fom(self.power, self.enob, self.rate)
        except OverflowError:  # 2^enob overflows, so the quotient underflows
            fom = 0.0
        except ZeroDivisionError:  # 2^enob underflows to 0, so the quotient overflows
            fom = math.inf
        if not (fom > 0 and math.isfinite(fom * 1e12)):
            raise ConfigError(
                f"fom.entries[] {self.label!r}: the figure of merit power / (2^enob * rate) "
                f"must be a finite number > 0 in J and in pJ, got {fom!r} J"
            )


class FomConfig(_Section, path="fom"):
    """The figure-of-merit table."""

    entries: tuple[FomEntry, ...] = ()


class OutputConfig(_Section, path="output", pinned=("formats",)):
    """Where the artifacts are written."""

    dir: str = "out"
    formats: tuple[str, ...] = ("csv", "json")


class RunConfig(_Section, path=""):
    """A whole run: the master seed and every section."""

    # derive_seed would truncate a fractional seed to another run's draws
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
    # the slice-transfer sweep's differential endpoints, as the run forms them
    half_span = cfg.sweep.span_rel * cfg.adc.full_scale / 2.0
    low, high = st.common_mode - half_span, st.common_mode + half_span
    if low < cfg.adc.v_threshold or high > cfg.adc.vdd:
        raise ConfigError(
            f"sweep.span_rel {cfg.sweep.span_rel} sweeps the V2T inputs over "
            f"[{low:g}, {high:g}] V, outside adc.v_threshold {cfg.adc.v_threshold} "
            f"to adc.vdd {cfg.adc.vdd} V"
        )
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


# The config reader: the YAML subset the configs use, read as PyYAML 6's safe
# loader reads it, and any other construct refused with its line.  A token is
# taken from one line; `plain` is what PyYAML scans as a one-line plain
# scalar, less a '?', ',', '[', ']', '{' or '}' in it and a ':' before one
# (refused, as is a plain scalar that starts with '?' or ':').
_TOKEN = re.compile(r"""(?x)
    (?P<space>[ ]+) | (?P<comment>\#.*)
  | '(?P<single>(?:[^']|'')*)' | "(?P<double>(?:[^"\\]|\\.)*)"
  | (?P<indicator>[-:](?=[ ]|$) | [\[\]{},])
  | (?P<plain>(?:[^-?:,\[\]{}\#&*!|>'"%@`\s] | -(?=[^\s,\[\]{}]))
      (?:[^\s,\[\]{}:?] | :(?=[^\s,\[\]{}]) | [ ]+(?=[^\s\#,\[\]{}:?]))*)""")
_REFUSED = {"&": "an anchor", "*": "an alias", "!": "a tag", "|": "a block scalar",
            ">": "a block scalar", "%": "a directive", "?": "a '?' key", "\t": "a tab",
            "'": "a multi-line quoted scalar", '"': "a multi-line quoted scalar"}
_ESCAPE = r"\\(x[0-9A-Fa-f]{2}|u[0-9A-Fa-f]{4}|U[0-9A-Fa-f]{8}|.)"  # compiled on first use
_ESCAPES = dict(zip('0abt\tnvfre "/\\N_LP', '\0\a\b\t\t\n\v\f\r\x1b "/\\\x85\xa0\u2028\u2029'))
_WORDS = {"~": None, "null": None, "Null": None, "NULL": None, "true": True, "True": True,
          "TRUE": True, "false": False, "False": False, "FALSE": False,
          **{s + w: float(s + "inf") for s in ("", "+", "-") for w in (".inf", ".Inf", ".INF")},
          **dict.fromkeys((".nan", ".NaN", ".NAN"), math.nan)}
_NUMBER = re.compile(r"[-+]?(?:0|[1-9][0-9]*)|(?P<float>[-+]?[0-9]+\.[0-9]*(?:[eE][-+][0-9]+)?"
                     r"|\.[0-9]+(?:[eE][-+][0-9]+)?)")
# PyYAML's other implicit types (yaml/resolver.py), refused: its words, and
# its numbers and timestamps (these widened to any scalar that starts with a
# date), which start with a sign, a point or a digit; `re` compiles their
# pattern on first use, which no string of a shipped config makes
_YAML11_WORDS = {**dict.fromkeys("yes Yes YES no No NO on On ON off Off OFF".split(), "boolean"),
                 "<<": "merge key", "=": "value key"}
_YAML11_NUMBERS = (
    r"(?P<integer>[-+]?(?:0b[0-1_]+|0[0-7_]+|0|[1-9][0-9_]*|0x[0-9a-fA-F_]+"
    r"|[1-9][0-9_]*(?::[0-5]?[0-9])+))"
    r"|(?P<float>[-+]?[0-9][0-9_]*\.[0-9_]*(?:[eE][-+][0-9]+)?|\.[0-9][0-9_]*(?:[eE][-+][0-9]+)?"
    r"|[-+]?[0-9][0-9_]*(?::[0-5]?[0-9])+\.[0-9_]*)"
    r"|(?P<timestamp>[0-9]{4}-[0-9]{1,2}-[0-9]{1,2}(?:[Tt ].*)?)"
)


def _fail(line: int, what: str):
    raise ConfigError(f"YAML line {line}: {what}")


def _plain(text: str, line: int):
    """A plain scalar as PyYAML's safe loader types it, or refused."""
    if text in _WORDS:
        return _WORDS[text]
    if number := _NUMBER.fullmatch(text):
        return float(text) if number["float"] else int(text)
    kind = _YAML11_WORDS.get(text)
    if kind is None and text[0] in "-+.0123456789":
        kind = (other := re.fullmatch(_YAML11_NUMBERS, text)) and other.lastgroup
    if kind:
        _fail(line, f"{text!r}, a YAML 1.1 {kind}, is not supported")
    return text


def _unescape(text: str, line: int) -> str:
    def one(match):
        code = match[1]
        return _ESCAPES[code] if len(code) == 1 else chr(int(code[1:], 16))

    try:
        return re.sub(_ESCAPE, one, text)
    except (KeyError, ValueError):
        _fail(line, "an unknown escape in a double-quoted scalar is not supported")


_READ = {"single": lambda text, line: text.replace("''", "'"), "double": _unescape,
         "plain": _plain, "indicator": lambda text, line: text}


def _tokens(text: str):
    """(kind, value, line, column, first on its line) of each token; a
    scalar's kind is "scalar", and an indicator is its own kind and value."""
    text = text.replace("\r\n", "\n")
    # refuses what PyYAML's reader refuses, the \x85, \u2028 and \u2029 its
    # scanner takes as line breaks, the BOM it skips, and a few it reads
    if not text.replace("\t", " ").replace("\n", " ").isprintable():
        at = next(i for i, c in enumerate(text) if c not in "\t\n" and not c.isprintable())
        _fail(text.count("\n", 0, at) + 1, f"the character {text[at]!r} is not supported")
    for line, row in enumerate(text.split("\n"), 1):
        col, first = len(row) - len(row.lstrip(" ")), True
        if row[col:col + 1] == "\t":
            _fail(line, "a tab in indentation is not supported")
        if row[:3] in ("---", "...") and row[3:4] in ("", " ", "\t"):
            _fail(line, "a document marker ('---' or '...') is not supported")
        while col < len(row):
            if (match := _TOKEN.match(row, col)) is None:
                _fail(line, f"{_REFUSED.get(row[col], repr(row[col]))} is not supported")
            kind, value, start, col = match.lastgroup, match[match.lastgroup], col, match.end()
            if kind in _READ:
                value = _READ[kind](value, line)
                yield (value if kind == "indicator" else "scalar"), value, line, start, first
                first = False


class _Reader:
    """Reads one config document from its tokens: block mappings and
    sequences (a key's sequence may sit at the key's indent), flow
    collections on one or more lines, and scalars.  A key repeated in one
    mapping is refused, where PyYAML would keep its last value."""

    def __init__(self, text: str):
        self.tokens = [*_tokens(text), ("end", None, text.count("\n") + 1, -1, True)]
        self.i = 0

    def peek(self, ahead: int = 0):  # nothing takes the end token
        return self.tokens[self.i + ahead]

    def expect(self, kinds: tuple, want: str):
        kind, value, line, *_ = token = self.peek()
        if kind not in kinds:
            _fail(line, f"expected {want}, found {'the end' if kind == 'end' else repr(value)}")
        self.i += 1
        return token

    def stray(self, col: int):  # refuses the token after a value of the block at `col`
        _, _, line, at, first = self.peek()
        if first and at > col:
            _fail(line, "a line indented under a value (a multi-line scalar) is not supported")
        self.expect((), "the end of the value")

    def document(self):
        value = None if self.peek()[0] == "end" else self.node(block=True)
        if self.peek()[0] != "end":
            self.stray(self.tokens[0][3])
        return value

    def node(self, block: bool):
        kind, _, _, col, _ = self.peek()
        if block and (kind == "-" or (kind == "scalar" and self.peek(1)[0] == ":")):
            return self.block(col, seq=kind == "-")
        kind, value, *_ = self.expect(("scalar", "[", "{"), "a value")
        if kind == "scalar":
            return value
        close, out = ("]", []) if kind == "[" else ("}", {})
        while self.peek()[0] != close:
            if kind == "[":
                out.append(self.node(block=False))
            else:
                key = self.key(out)
                out[key] = None if self.peek()[0] in (",", "}") else self.node(block=False)
            if self.peek()[0] != close:
                self.expect((",",), f"',' or '{close}'")
        self.i += 1
        return out

    def key(self, mapping: dict):
        _, key, line, col, _ = self.expect(("scalar",), "a key")
        _, _, colon_line, colon, _ = self.expect((":",), f"':' after key {key!r}")
        if colon_line != line or colon - col > 1024:  # PyYAML's simple-key limits
            _fail(line, "a key split from its ':' or over 1024 characters is not supported")
        if key in mapping:
            raise ConfigError(f"key {key!r} repeated on line {line}")
        return key

    def block(self, col: int, seq: bool):
        """The block sequence (`seq`) or mapping at `col`: a value is on its
        entry's line, on deeper lines, or a sequence at `col` after a key."""
        out = {}  # a sequence's items by their index
        while True:
            if seq:
                self.i += 1  # its '-'
            key = len(out) if seq else self.key(out)
            kind, _, _, at, first = self.peek()
            if not first or at > col or (at == col and kind == "-" and not seq):
                out[key] = self.node(block=seq or first)
            else:
                out[key] = None
            kind, _, _, at, first = self.peek()
            if first and (at < col or (at == col and seq and kind != "-")):  # the end is at -1
                return [*out.values()] if seq else out
            if not (first and at == col and kind == ("-" if seq else "scalar")):
                self.stray(col)


def parse_config(text: str) -> RunConfig:
    try:
        data = _Reader(text).document()
    except RecursionError:  # a flow collection nested about a thousand deep
        raise ConfigError("YAML nested too deeply") from None
    return _validate(_build(RunConfig, {} if data is None else data))


def config_to_dict(cfg) -> dict:
    if isinstance(cfg, _Section):
        return {f.name: config_to_dict(getattr(cfg, f.name)) for f in fields(cfg)}
    if isinstance(cfg, (tuple, list)):
        return [config_to_dict(v) for v in cfg]
    return cfg


def config_hash(cfg: RunConfig) -> str:
    """First 16 hex digits of the sha256 of the canonical JSON of the config."""
    canonical = json.dumps(config_to_dict(cfg), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]
