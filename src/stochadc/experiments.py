"""Named experiments: deterministic batch runs producing CSV/JSON artifacts.

Every output file embeds the config hash and the master seed, and nothing
time-dependent is ever written, so a rerun with the same config and seed is
byte-identical.  Each experiment returns its metrics and a function that
builds its artifact bodies; `run_experiment` is the one frame around them,
and every file goes through `_write_artifacts` there.  `_write_csv` hands
each block of an all-numeric table to `digits.encode_block`, which alone
knows how its cells are written.  The calibrate
experiment persists its state to a versioned JSON file, whose format lives
here alone, from which a later measurement run resumes bit-exactly.
"""

from __future__ import annotations

import csv
import json
from collections.abc import Callable
from functools import partial
from operator import itemgetter
from pathlib import Path

import numpy as np

from . import interleaver as il
from . import metrics as met
from . import pi as pimod
from .config import RunConfig, config_hash, linearity_tone, measurement_tone, skew_tone, warmup_tone
from .core import Record, median, percentile
from .digits import encode_block
from .errors import ConfigError

# the calibration file format; `from_json` refuses any other
CALIBRATION_VERSION = 1


class ExperimentResult(Record):
    """One run of a named experiment: its metrics and the files it wrote."""

    name: str
    seed: int
    config_hash: str
    metrics: dict
    files: list


# a run_*'s metrics and the function that builds its {file name: body} artifacts
Run = tuple[dict, Callable[[], dict]]


# rows formatted and written at a time: bounds the bytes held in memory
CSV_BLOCK_ROWS = 8192


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(path: Path, cfg_hash: str, seed: int, columns: dict) -> None:
    """Write a table given as {header: column}.

    Format: two `#` lines with the config hash and master seed, the header,
    then one row per index; `\\n` line ends, ints in decimal, floats as their
    shortest round-trip repr, bools as 1/0, strings with csv minimal quoting.
    A table of numeric arrays alone (no cell needs quoting) is encoded
    `CSV_BLOCK_ROWS` rows at a time by `digits.encode_block`; any other goes
    through the csv module row by row.  A 2-D array column is written row
    after row, each block cut from it alone, so a capture's (n, 16) views
    need no flat copy; its width must divide `CSV_BLOCK_ROWS`.  Columns that
    are the same array (data pointer, shape, strides and dtype) are cut
    and encoded once per block; equal values in distinct arrays are not
    looked for.
    """
    cols = list(columns.values())
    n_rows = _rows(cols[0]) if cols else 0
    if any(_rows(c) != n_rows for c in cols):
        raise ValueError(f"CSV columns of unequal length for {path.name}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# config_hash={cfg_hash}\n# master_seed={seed}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(columns))
        if not all(isinstance(c, np.ndarray) and c.dtype.kind in "biuf" for c in cols):
            flat = (c.reshape(-1) if isinstance(c, np.ndarray) else c for c in cols)
            writer.writerows(zip(*(map(_fmt, c) for c in flat)))
            return
        # the blocks are bytes: past the text layer, once its buffer is out
        fh.flush()
        keys = [(c.__array_interface__["data"][0], c.shape, c.strides, c.dtype) for c in cols]
        arrays = dict(zip(keys, cols))
        for start in range(0, n_rows, CSV_BLOCK_ROWS):
            cut = {key: _block(c, start) for key, c in arrays.items()}
            fh.buffer.write(encode_block([cut[key] for key in keys]))


def _rows(column) -> int:
    """A column's CSV rows: a 2-D array gives its every entry, row after
    row, and its width must divide CSV_BLOCK_ROWS so that `_block` cuts
    whole rows."""
    if isinstance(column, np.ndarray) and column.ndim == 2:
        if CSV_BLOCK_ROWS % column.shape[1]:
            raise ValueError(f"a 2-D CSV column's width must divide {CSV_BLOCK_ROWS}")
        return column.size
    return len(column)


def _block(column: np.ndarray, start: int) -> np.ndarray:
    """The CSV_BLOCK_ROWS rows from `start`, a multiple of it, of a numeric
    column as a 1-D array, copying no more than the block."""
    if column.ndim == 1:
        return column[start : start + CSV_BLOCK_ROWS]
    width = column.shape[1]
    return column[start // width : (start + CSV_BLOCK_ROWS) // width].reshape(-1)


def _plain(value):
    """A numpy scalar or array as the plain Python value JSON writes."""
    if isinstance(value, (np.generic, np.ndarray)):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _write_json(path: Path, cfg_hash: str, seed: int, payload: dict) -> None:
    """Write the config hash, master seed and payload as one sorted-key JSON object."""
    body = {"config_hash": cfg_hash, "master_seed": seed, **payload}
    # NaN and Infinity are not JSON: a run that would write one fails instead
    text = json.dumps(body, sort_keys=True, indent=2, default=_plain, allow_nan=False)
    path.write_text(text + "\n", encoding="utf-8")


def _write_artifacts(out: Path, cfg_hash: str, seed: int, bodies: dict) -> list[str]:
    """Write each {file name: body} into out, a `.csv` body as a column table
    and any other as a JSON payload; returns the paths in the order written."""
    paths = []
    for name, body in bodies.items():
        path = out / name
        # looked up at call time, so a wrapped writer sees every artifact
        write = _write_csv if name.endswith(".csv") else _write_json
        write(path, cfg_hash, seed, body)
        paths.append(str(path))
    return paths


class CalibrationState(Record):
    """Persisted calibration: offsets, LUTs and PI corrections."""

    offset_codes: np.ndarray
    luts: np.ndarray | None  # (16, LUT_SIZE) COUNT_DTYPE, read-only
    pi_corrections: np.ndarray | None

    @classmethod
    def from_json(cls, text: str, cfg: RunConfig, seed: int) -> CalibrationState:
        """Parse a calibration file for a run of `cfg` at `seed`: its one check.
        What a `calibrate` run of them cannot write raises ConfigError naming
        the field (README lists the rules); an offset code in range passes."""
        try:
            payload = json.loads(text, object_pairs_hook=_unique_keys)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"calibration file is not valid JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise ConfigError("calibration file must hold a JSON object")
        if payload.get("version") != CALIBRATION_VERSION:
            raise ConfigError(f"unsupported calibration version {payload.get('version')!r}")
        keys = ("config_hash", "master_seed", "offset_codes", "luts", "pi_corrections")
        missing = [k for k in keys if k not in payload]
        if missing:
            raise ConfigError(f"calibration file is missing {', '.join(missing)}")
        # true and 1.0 equal 1, but `calibrate` writes neither
        for key in ("version", "master_seed"):
            if type(payload[key]) is not int:
                raise ConfigError(f"calibration {key} must be an integer, got {payload[key]!r}")
        file, run = (payload["config_hash"], payload["master_seed"]), (config_hash(cfg), seed)
        if file != run:
            raise ConfigError(
                "calibration file does not match this config/seed "
                f"(file: {file[0]}/{file[1]}, run: {run[0]}/{seed})"
            )
        cal, adc = cfg.system.calibration, cfg.adc
        bounds = (0, adc.n_taps) if cal.adapt_offsets else (adc.nominal_offset_code,) * 2
        offsets = _int_table(payload, "offset_codes", (il.N_SLICES,), *bounds)
        shape = (il.N_SLICES, il.LUT_SIZE)
        luts = _int_table(
            payload, "luts", shape, il.CODE_MIN, il.CODE_MAX, cal.lut, il.COUNT_DTYPE
        )
        if luts is not None and np.any(np.diff(luts[:, 1:]) < 0):  # as build_lut makes them
            raise ConfigError("calibration luts must not fall from entry 1 on")
        corrections = _int_table(payload, "pi_corrections", (il.N_GROUPS,), switch=cal.skew)
        if corrections is not None:
            codes = il.NOMINAL_PI_CODES + corrections
            if codes.min() < 0 or codes.max() >= pimod.PI_CODES:
                raise ConfigError(
                    f"calibration pi_corrections move the PI codes to {codes.tolist()}, "
                    f"outside [0, {pimod.PI_CODES - 1}]"
                )
        return cls(offsets, luts, corrections)


def _unique_keys(pairs: list) -> dict:
    """A JSON object from its pairs, refusing a repeated key (json.loads
    would keep its last value)."""
    keys = [key for key, _ in pairs]
    repeated = sorted({key for key in keys if keys.count(key) > 1})
    if repeated:
        raise ConfigError(f"calibration file repeats the keys {repeated}")
    return dict(pairs)


_SWITCHES = {"luts": "lut", "pi_corrections": "skew"}


def _int_table(
    payload: dict, name: str, shape: tuple, low=None, high=None, switch=None, dtype=np.int64
):
    """Calibration field `name` as a read-only array of `shape` inside
    [low, high], or ConfigError; given its switch, null exactly when it is
    off.  It is cast to `dtype` (int64 unless given: the LUTs are
    `COUNT_DTYPE`, like the codes they map) only once its range is checked."""
    value = payload[name]
    if switch is not None:
        if (value is None) == switch:
            raise ConfigError(
                f"calibration {name} must {'not ' * switch}be null with "
                f"system.calibration.{_SWITCHES[name]} {'on' if switch else 'off'}"
            )
        if value is None:
            return None
    try:
        table = np.asarray(value)
    except ValueError:  # ragged nesting
        table = None
    if table is None or table.shape != shape or table.dtype.kind != "i":
        raise ConfigError(f"calibration {name} must be integers of shape {shape}")
    if low is not None and (table.min() < low or table.max() > high):
        raise ConfigError(f"calibration {name} must lie in [{low}, {high}]")
    table = table.astype(dtype, copy=False)
    table.flags.writeable = False
    return table


def _offset_codes(cfg: RunConfig, system: il.AdcSystem) -> np.ndarray:
    """Per-slice offset codes: adapted in the warmup, else the nominal code."""
    if not cfg.system.calibration.adapt_offsets:
        return np.full(il.N_SLICES, cfg.adc.nominal_offset_code, dtype=np.int64)
    offsets, _ = il.adapt_offsets(
        system, warmup_tone(cfg), window=cfg.adc.adaptation.window,
        threshold=cfg.adc.adaptation.threshold,
    )
    return offsets


def compute_calibration(cfg: RunConfig, system: il.AdcSystem) -> CalibrationState:
    """Offset adaptation, LUT construction and skew correction per config."""
    cal = cfg.system.calibration
    offsets = _offset_codes(cfg, system)
    luts = None
    if cal.lut:
        lut_tone = linearity_tone(cfg)
        capture = il.run_capture(
            system, lut_tone, cal.lut_capture_samples, offset_codes=offsets
        )
        amplitude_code = lut_tone.amplitude / (cfg.adc.full_scale / il.CODE_MAX)
        luts = il.build_luts(capture, amplitude_code, cal.lut_min_hits)
    corrections = None
    if cal.skew:
        corrections = il.calibrate_skew(
            system, skew_tone(cfg), cal.skew_capture_samples, offset_codes=offsets
        )
    return CalibrationState(offsets, luts, corrections)


def run_slice_transfer(cfg: RunConfig, system: il.AdcSystem) -> Run:
    adc = cfg.adc
    # the sweep reads slice 0's offset code alone, so no LUT or skew capture runs
    offset = int(_offset_codes(cfg, system)[0])
    span = cfg.sweep.span_rel * adc.full_scale
    dv = np.linspace(-span, span, cfg.sweep.points)
    cm = cfg.stimulus.common_mode
    raw, sign, code = il.slice_transfer(system, 0, dv, cm, offset)
    # compared, not differenced: a difference of two int16 codes may not fit int16
    monotone = bool(np.all(code[1:] >= code[:-1]))
    metrics = {
        "offset_code": offset,
        "monotone": monotone,
        "lsb_volts": adc.full_scale / il.CODE_MAX,
        "code_min": int(code.min()),
        "code_max": int(code.max()),
    }
    return metrics, lambda: {
        "slice_transfer.csv": {
            "delta_t_seconds": dv / adc.discharge_slope, "raw_count": raw, "signed_code": code,
        },
        "slice_transfer.json": {"experiment": "slice-transfer", "metrics": metrics},
    }


def _sweep_table(phases: np.ndarray, period: float, flags: np.ndarray) -> dict:
    """The PI sweep CSV columns; the last step wraps to code 0 of the next period."""
    steps = np.empty(pimod.PI_CODES)
    steps[:-1] = np.diff(phases)
    steps[-1] = phases[0] + period - phases[-1]
    return {
        "code": np.arange(pimod.PI_CODES),
        "phase_seconds": phases,
        "step_seconds": steps,
        "inversion_flag": flags,
    }


def run_pi_sweep(cfg: RunConfig, chain: pimod.DelayChain) -> Run:
    period = cfg.system.pi_clock_period
    if cfg.pi.trim_enabled:
        chain = pimod.trim_paths(chain, cfg.pi.trim_max_iters).chain
    phases = pimod.pi_sweep(chain)
    firing_starts = [start for start, _ in pimod.inverted_segments(chain)]
    flags = np.isin(pimod.code_table(chain.n_delays).start_tap, firing_starts)
    table = _sweep_table(phases, period, flags)
    steps = table["step_seconds"]
    metrics = {
        "n_delays_per_cycle": chain.n_delays,
        "mean_step_seconds": float(steps.mean()),
        "min_step_seconds": float(steps.min()),
        "max_step_seconds": float(steps.max()),
        "nominal_step_seconds": period / pimod.PI_CODES,
        "monotone": bool(np.all(steps > 0)),
        "inversions": int(flags.sum()),
    }
    return metrics, lambda: {
        "pi_sweep.csv": table,
        "pi_sweep.json": {"experiment": "pi-sweep", "metrics": metrics},
    }


def run_pi_trim(cfg: RunConfig, chain: pimod.DelayChain) -> Run:
    result = pimod.trim_paths(chain, cfg.pi.trim_max_iters)
    trimmed = result.chain
    post_sweep = pimod.pi_sweep(trimmed)
    metrics = {
        "iterations": result.iterations,
        "initial_inversions": result.initial_inversions,
        "pre_trim_monotone": chain.sweep_rises,
        "post_trim_monotone": trimmed.sweep_rises,
        # nothing trimmed: trim_paths hands back the chain and all-zero adjustments
        "max_trim_seconds": 0.0 if trimmed is chain else float(np.abs(result.adjustments).max()),
    }
    return metrics, lambda: {
        "pi_trim.json": {
            "experiment": "pi-trim",
            "metrics": metrics,
            "trims_seconds": result.adjustments,
        },
        "pi_trim_sweep.csv": _sweep_table(
            post_sweep, cfg.system.pi_clock_period, np.zeros(pimod.PI_CODES, dtype=bool)
        ),
    }


def run_calibrate(cfg: RunConfig, system: il.AdcSystem) -> Run:
    state = compute_calibration(cfg, system)
    metrics = {
        "offset_codes": state.offset_codes.tolist(),
        "has_luts": state.luts is not None,
        "pi_corrections": None
        if state.pi_corrections is None
        else state.pi_corrections.tolist(),
    }
    return metrics, lambda: {
        "calibration.json": {
            "version": CALIBRATION_VERSION,
            "offset_codes": state.offset_codes,
            "luts": state.luts,
            "pi_corrections": state.pi_corrections,
        },
    }


def run_adc_sine(
    cfg: RunConfig, system: il.AdcSystem, calibration: CalibrationState | None = None
) -> Run:
    """Measure the configured tone, calibrating first unless `calibration`
    (already checked against this config and seed) is given."""
    # a config without a tone is refused before any capture
    tone = measurement_tone(cfg)
    if calibration is None:
        calibration = compute_calibration(cfg, system)
    fs = cfg.system.aggregate_rate
    n = cfg.capture.n_samples
    pi_codes = il.NOMINAL_PI_CODES
    if calibration.pi_corrections is not None:
        pi_codes = pi_codes + calibration.pi_corrections
    capture = il.run_capture(
        system, tone, n,
        offset_codes=calibration.offset_codes,
        luts=calibration.luts,
        pi_codes=pi_codes,
    )
    aligned = il.aligned_capture(system, capture)
    metrics, spur_list = met.sndr_enob(aligned.codes, fs, tone.frequency)
    lin = None
    if cfg.capture.linearity:
        lin_capture = il.run_capture(
            system, linearity_tone(cfg), cfg.capture.linearity_samples,
            offset_codes=calibration.offset_codes,
            luts=calibration.luts,
            pi_codes=pi_codes,
        )
        # a histogram ignores order, and aligning drops no sample
        hist = il.code_histogram(lin_capture.corrected)
        lin = met.code_density_linearity(hist, "sine")
        metrics["dnl_max"] = lin["dnl_max"]
        metrics["inl_max"] = lin["inl_max"]
        metrics["missing_codes"] = len(lin["missing_codes"])

    def bodies():
        # sample 16*m + s is entry [m, s] of each per-slice array's transpose
        files = {
            "adc_sine.json": {
                "experiment": "adc-sine",
                "metrics": metrics,
                "spur_list": spur_list,
                "offset_codes": calibration.offset_codes,
                "pi_codes": pi_codes,
                "fin_hz": tone.frequency,
                "fs_hz": fs,
            },
            "capture.csv": {
                "sample_index": np.arange(n),
                "slice": np.broadcast_to(np.arange(il.N_SLICES), (n // il.N_SLICES, il.N_SLICES)),
                "instant_seconds": capture.instants.T,
                "raw_count": capture.raw.T,
                "signed_code": capture.codes.T,
                "corrected_code": capture.corrected.T,
            },
        }
        if lin is not None:
            files["linearity.csv"] = {
                "code": lin["codes"], "dnl_lsb": lin["dnl"], "inl_lsb": lin["inl"],
            }
            files["linearity.json"] = {
                "experiment": "adc-sine/linearity",
                **{k: v for k, v in lin.items() if k != "codes"},
            }
        return files

    return metrics, bodies


def run_fom(cfg: RunConfig, seed: int) -> Run:
    if not cfg.fom.entries:
        raise ConfigError("fom experiment needs fom.entries in the config")
    entries = cfg.fom.entries
    values = [met.walden_fom(e.power, e.enob, e.rate) for e in entries]
    metrics = {f"fom_pj_{e.label}": v * 1e12 for e, v in zip(entries, values)}
    return metrics, lambda: {
        "fom.csv": {
            "label": [e.label for e in entries],
            "power_watts": [e.power for e in entries],
            "enob": [e.enob for e in entries],
            "rate_sps": [e.rate for e in entries],
            "fom_joules": values,
            "fom_pj_per_step": [v * 1e12 for v in values],
        },
        "fom.json": {"experiment": "fom", "metrics": metrics},
    }


def _trials(name: str, cfg: RunConfig, seeds: list[int], **resume):
    """Each seed's Run of experiment `name`, lazily in order, handing the run
    that seed's instance from its source, or the seed when it has none: the
    one loop of single runs and Monte Carlo trials.  It holds no instance
    once its run has returned."""
    run, instances = _EXPERIMENTS[name]
    return map(partial(run, cfg, **resume), seeds if instances is None else instances(cfg, seeds))


def run_montecarlo(cfg: RunConfig, seed: int) -> Run:
    name = cfg.montecarlo.experiment
    if name not in _EXPERIMENTS or name == "montecarlo":
        raise ConfigError(f"montecarlo cannot wrap experiment {name!r}")
    seeds = [seed + i for i in range(cfg.montecarlo.trials)]
    # trials on one sampling grid sample each tone once.  No trial builds its
    # artifact bodies, and none is held while the next trial runs
    with il.shared_tone_swings():
        results = list(map(itemgetter(0), _trials(name, cfg, seeds)))
    numeric_keys = [
        k
        for k, v in results[0].items()
        if isinstance(v, (int, float, np.integer, np.floating))
        and not isinstance(v, bool)
    ]
    summary = {}
    metrics = {"trials": len(seeds), "experiment": name}
    for key in numeric_keys:
        values = np.array([m[key] for m in results], dtype=np.float64)
        summary[key] = {
            f"p{pct:g}": percentile(values, pct) for pct in cfg.montecarlo.percentiles
        }
        summary[key]["mean"] = float(values.mean())
        metrics[f"{key}_median"] = median(values)

    def bodies():
        columns = {"seed": seeds}
        columns.update({k: [m[k] for m in results] for k in numeric_keys})
        return {
            "montecarlo.csv": columns,
            "montecarlo.json": {
                "experiment": "montecarlo",
                "wrapped": name,
                "trials": len(seeds),
                "percentiles": summary,
                "metrics": metrics,
            },
        }

    return metrics, bodies


# name -> (run function, its `interleaver` instance source or None), in the
# order the command line lists them
_EXPERIMENTS = {
    "slice-transfer": (run_slice_transfer, il.converters),
    "adc-sine": (run_adc_sine, il.converters),
    "pi-sweep": (run_pi_sweep, il.pi_chains),
    "pi-trim": (run_pi_trim, il.pi_chains),
    "montecarlo": (run_montecarlo, None),
    "calibrate": (run_calibrate, il.converters),
    "fom": (run_fom, None),
}
EXPERIMENT_NAMES = tuple(_EXPERIMENTS)


def run_experiment(
    name: str,
    cfg: RunConfig,
    out_dir=None,
    seed: int | None = None,
    calibration_path=None,
) -> ExperimentResult:
    """Run one named experiment; artifacts land in out_dir when given.

    The one frame around every experiment: it hashes the config, reads a
    calibration file, makes the output directory and builds and writes the
    artifact bodies only when it has one.
    """
    if name not in _EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment {name!r}; choose from {', '.join(EXPERIMENT_NAMES)}"
        )
    if calibration_path is not None and name != "adc-sine":
        # every other experiment calibrates itself or needs no calibration
        raise ConfigError(f"--calibration applies only to adc-sine, not to {name}")
    if seed is not None and type(seed) is not int:
        # int() would run a fractional or boolean seed as another seed's draws
        raise ConfigError(f"seed must be an integer, got {seed!r}")
    run_seed = cfg.master_seed if seed is None else seed
    h = config_hash(cfg)
    out = None
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
    resume = {}
    if calibration_path is not None:
        text = Path(calibration_path).read_text(encoding="utf-8")
        resume["calibration"] = CalibrationState.from_json(text, cfg, run_seed)
    [(metrics, bodies)] = _trials(name, cfg, [run_seed], **resume)
    files = [] if out is None else _write_artifacts(out, h, run_seed, bodies())
    return ExperimentResult(name, run_seed, h, metrics, files)
