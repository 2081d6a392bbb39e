"""Named experiments: deterministic batch runs producing CSV/JSON artifacts.

Every output file embeds the config hash and the master seed, and nothing
time-dependent is ever written, so a rerun with the same config and seed is
byte-identical.  The calibrate experiment persists its state to a versioned
JSON file from which a later measurement run resumes bit-exactly.
"""

from __future__ import annotations

import csv
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import interleaver as il
from . import metrics as met
from . import pi as pimod
from .config import RunConfig, build_stimulus, config_hash, sine_tone, skew_tone_frequency
from .core import ClockSpec
from .errors import ConfigError
from .stimulus import SineStimulus, adaptation_tone


@dataclass
class ExperimentResult:
    name: str
    seed: int
    config_hash: str
    metrics: dict
    files: list


# rows formatted and written at a time: bounds the text held in memory
CSV_BLOCK_ROWS = 8192


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _is_numeric(column) -> bool:
    return isinstance(column, np.ndarray) and column.dtype.kind in "biuf"


def _cells(chunk) -> list[str]:
    """One block of a column as CSV cells: a bool, int or float array in one
    pass, anything else cell by cell through `_fmt`.

    An int block spanning fewer than half as many values as it has cells
    formats each value in its range once and gathers the cells from that
    table; past about three quarters the table costs more than formatting
    every cell, so wider blocks (a sample index) are formatted cell by cell.
    """
    if not _is_numeric(chunk):
        return [_fmt(v) for v in chunk]
    kind = chunk.dtype.kind
    if kind == "b":
        return ["1" if v else "0" for v in chunk.tolist()]
    if kind in "iu" and chunk.size:
        lo, hi = int(chunk.min()), int(chunk.max())
        if hi - lo < chunk.size // 2:
            # offsets from lo in 64 bits: in a narrow dtype, chunk - lo wraps
            wide = np.uint64 if kind == "u" else np.int64
            index = (chunk.astype(wide) - wide(lo)).astype(np.intp)
            text = np.array(list(map(str, range(lo, hi + 1))), dtype=object)
            return text[index].tolist()
    return list(map(repr if kind == "f" else str, chunk.tolist()))


def _write_csv(path: Path, cfg_hash: str, seed: int, columns: dict) -> None:
    """Write a table given as {header: column}, streamed in blocks of rows.

    Format: two `#` lines with the config hash and master seed, the header,
    then one row per index; `\\n` line ends, ints in decimal, floats as their
    shortest round-trip repr, bools as 1/0, strings with csv minimal quoting.
    """
    cols = list(columns.values())
    n_rows = len(cols[0]) if cols else 0
    if any(len(c) != n_rows for c in cols):
        raise ValueError(f"CSV columns of unequal length for {path.name}")
    # numeric cells never need quoting, so only a table with other columns
    # goes through the csv module row by row; the plain join writes the
    # 1.5 M-cell capture.csv about 0.2 s faster than writer.writerows
    quoted = not all(_is_numeric(c) for c in cols)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# config_hash={cfg_hash}\n# master_seed={seed}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(columns))
        for start in range(0, n_rows, CSV_BLOCK_ROWS):
            rows = zip(*(_cells(c[start : start + CSV_BLOCK_ROWS]) for c in cols))
            if quoted:
                writer.writerows(rows)
            else:
                fh.write("\n".join(map(",".join, rows)) + "\n")


def _write_json(path: Path, cfg_hash: str, seed: int, payload: dict) -> None:
    body = {"config_hash": cfg_hash, "master_seed": seed}
    body.update(payload)
    path.write_text(json.dumps(body, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _jsonable(value):
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    return value


def _warmup_tone(cfg: RunConfig) -> SineStimulus:
    return adaptation_tone(build_stimulus(cfg), cfg.system.slice_rate)


def compute_calibration(cfg: RunConfig, seed: int, system: il.AdcSystem | None = None) -> il.CalibrationState:
    """Offset adaptation, LUT construction and skew correction per config."""
    if system is None:
        system = il.AdcSystem(cfg, seed)
    cal = cfg.system.calibration
    warm = _warmup_tone(cfg)
    if cal.adapt_offsets:
        offsets, _ = il.adapt_offsets(
            system, warm, window=cfg.adc.adaptation.window,
            threshold=cfg.adc.adaptation.threshold,
        )
    else:
        offsets = np.full(il.N_SLICES, cfg.adc.nominal_offset_code, dtype=np.int64)
    luts = None
    if cal.lut:
        amp = cfg.capture.linearity_amplitude or cfg.stimulus.amplitude
        lut_tone = sine_tone(cfg, warm.frequency, amp)
        capture = il.run_capture(
            system, lut_tone, cal.lut_capture_samples, offset_codes=offsets
        )
        amplitude_code = amp / (cfg.adc.full_scale / il.CODE_MAX)
        luts = il.build_luts(capture, amplitude_code, cal.lut_min_hits)
    corrections = None
    if cal.skew:
        skew_tone = sine_tone(cfg, skew_tone_frequency(cfg), cfg.stimulus.amplitude)
        corrections = il.calibrate_skew(
            system, skew_tone, cal.skew_capture_samples, offset_codes=offsets
        )
    return il.CalibrationState(
        version=1,
        config_hash=config_hash(cfg),
        master_seed=seed,
        offset_codes=offsets,
        luts=luts,
        pi_corrections=corrections,
    )


def _applied_pi_codes(system: il.AdcSystem, state: il.CalibrationState) -> np.ndarray:
    codes = system.nominal_pi_codes()
    if state.pi_corrections is not None:
        codes = il.corrected_pi_codes(codes, state.pi_corrections)
    return codes


def run_slice_transfer(cfg: RunConfig, seed: int, out: Path | None) -> ExperimentResult:
    system = il.AdcSystem(cfg, seed)
    adc = cfg.adc
    h = config_hash(cfg)
    state = compute_calibration(cfg, seed, system)
    offset = int(state.offset_codes[0])
    span = cfg.sweep.span_rel * adc.full_scale
    dv = np.linspace(-span, span, cfg.sweep.points)
    cm = cfg.stimulus.common_mode
    raw, sign, code = il.slice_transfer(system, 0, dv, cm, offset)
    delta_t = dv / adc.discharge_slope
    monotone = bool(np.all(np.diff(code) >= 0))
    metrics = {
        "offset_code": offset,
        "monotone": monotone,
        "lsb_volts": adc.full_scale / il.CODE_MAX,
        "code_min": int(code.min()),
        "code_max": int(code.max()),
    }
    files = []
    if out is not None:
        p = out / "slice_transfer.csv"
        _write_csv(
            p, h, seed,
            {"delta_t_seconds": delta_t, "raw_count": raw, "signed_code": code},
        )
        pj = out / "slice_transfer.json"
        _write_json(pj, h, seed, {"experiment": "slice-transfer", "metrics": _jsonable(metrics)})
        files = [str(p), str(pj)]
    return ExperimentResult("slice-transfer", seed, h, metrics, files)


def _sweep_table(phases: np.ndarray, period: float, flags: np.ndarray) -> dict:
    """The PI sweep CSV columns; the last step wraps to code 0 of the next period."""
    steps = np.empty(256)
    steps[:-1] = np.diff(phases)
    steps[-1] = phases[0] + period - phases[255]
    return {
        "code": np.arange(256),
        "phase_seconds": phases,
        "step_seconds": steps,
        "inversion_flag": flags,
    }


def run_pi_sweep(cfg: RunConfig, seed: int, out: Path | None) -> ExperimentResult:
    h = config_hash(cfg)
    chain = cfg.pi.chain(seed, 0)
    clock = ClockSpec(period=cfg.system.pi_clock_period)
    trim = None
    if cfg.pi.trim_enabled:
        trim = pimod.trim_paths(chain, clock, cfg.pi.trim_max_iters).trim
    phases = pimod.pi_sweep(chain, clock, trim)
    n_delays = pimod.arbitrate_period(chain, clock)
    firing_starts = [start for start, _ in pimod.inverted_segments(chain, clock, trim)]
    flags = np.isin(pimod.code_table(n_delays).start_tap, firing_starts)
    table = _sweep_table(phases, clock.period, flags)
    steps = table["step_seconds"]
    metrics = {
        "n_delays_per_cycle": n_delays,
        "mean_step_seconds": float(steps.mean()),
        "min_step_seconds": float(steps.min()),
        "max_step_seconds": float(steps.max()),
        "nominal_step_seconds": clock.period / 256.0,
        "monotone": bool(np.all(steps > 0)),
        "inversions": int(flags.sum()),
    }
    files = []
    if out is not None:
        p = out / "pi_sweep.csv"
        _write_csv(p, h, seed, table)
        pj = out / "pi_sweep.json"
        _write_json(pj, h, seed, {"experiment": "pi-sweep", "metrics": _jsonable(metrics)})
        files = [str(p), str(pj)]
    return ExperimentResult("pi-sweep", seed, h, metrics, files)


def run_pi_trim(cfg: RunConfig, seed: int, out: Path | None) -> ExperimentResult:
    h = config_hash(cfg)
    chain = cfg.pi.chain(seed, 0)
    clock = ClockSpec(period=cfg.system.pi_clock_period)
    pre_sweep = pimod.pi_sweep(chain, clock)
    result = pimod.trim_paths(chain, clock, cfg.pi.trim_max_iters)
    post_sweep = pimod.pi_sweep(chain, clock, result.trim)
    metrics = {
        "iterations": result.iterations,
        "initial_inversions": result.initial_inversions,
        "pre_trim_monotone": bool(np.all(np.diff(pre_sweep) > 0)),
        "post_trim_monotone": bool(np.all(np.diff(post_sweep) > 0)),
        "max_trim_seconds": float(np.max(np.abs(result.trim.adjustments))),
    }
    files = []
    if out is not None:
        p = out / "pi_trim.json"
        _write_json(
            p, h, seed,
            {
                "experiment": "pi-trim",
                "metrics": _jsonable(metrics),
                "trims_seconds": _jsonable(result.trim.adjustments),
            },
        )
        pc = out / "pi_trim_sweep.csv"
        _write_csv(pc, h, seed, _sweep_table(post_sweep, clock.period, np.zeros(256, dtype=bool)))
        files = [str(p), str(pc)]
    return ExperimentResult("pi-trim", seed, h, metrics, files)


def run_calibrate(cfg: RunConfig, seed: int, out: Path | None) -> ExperimentResult:
    h = config_hash(cfg)
    state = compute_calibration(cfg, seed)
    metrics = {
        "offset_codes": state.offset_codes.tolist(),
        "has_luts": state.luts is not None,
        "pi_corrections": None
        if state.pi_corrections is None
        else state.pi_corrections.tolist(),
    }
    files = []
    if out is not None:
        p = out / "calibration.json"
        p.write_text(state.to_json(), encoding="utf-8")
        files = [str(p)]
    return ExperimentResult("calibrate", seed, h, metrics, files)


def run_adc_sine(
    cfg: RunConfig,
    seed: int,
    out: Path | None,
    calibration: il.CalibrationState | None = None,
) -> ExperimentResult:
    system = il.AdcSystem(cfg, seed)
    h = config_hash(cfg)
    if calibration is None:
        calibration = compute_calibration(cfg, seed, system)
    elif calibration.config_hash != h or calibration.master_seed != seed:
        raise ConfigError(
            "calibration file does not match this config/seed "
            f"(file: {calibration.config_hash}/{calibration.master_seed}, "
            f"run: {h}/{seed})"
        )
    tone = build_stimulus(cfg)
    fs = cfg.system.aggregate_rate
    n = cfg.capture.n_samples
    pi_codes = _applied_pi_codes(system, calibration)
    capture = il.run_capture(
        system, tone, n,
        offset_codes=calibration.offset_codes,
        luts=calibration.luts,
        pi_codes=pi_codes,
    )
    aligned = il.aligned_capture(system, capture)
    report = met.sndr_enob(aligned.codes, fs, tone.frequency)
    metrics = {
        "sndr_db": report.sndr_db,
        "enob": report.enob,
        "fundamental_bin": report.fundamental_bin,
        "dominant_family_spur_dbc": met.dominant_family_spur_db(report),
    }
    lin = None
    if cfg.capture.linearity:
        amp = cfg.capture.linearity_amplitude or tone.amplitude
        lin_tone = sine_tone(cfg, _warmup_tone(cfg).frequency, amp)
        lin_capture = il.run_capture(
            system, lin_tone, cfg.capture.linearity_samples,
            offset_codes=calibration.offset_codes,
            luts=calibration.luts,
            pi_codes=pi_codes,
        )
        # a histogram ignores order, and aligning drops no sample
        hist = il.code_histogram(lin_capture.corrected)
        lin = met.code_density_linearity(hist, "sine")
        metrics["dnl_max"] = lin.dnl_max
        metrics["inl_max"] = lin.inl_max
        metrics["missing_codes"] = len(lin.missing_codes)
    files = []
    if out is not None:
        pj = out / "adc_sine.json"
        payload = {
            "experiment": "adc-sine",
            "metrics": _jsonable(metrics),
            "spur_list": _jsonable(report.spur_list),
            "offset_codes": _jsonable(calibration.offset_codes),
            "pi_codes": _jsonable(pi_codes),
            "fin_hz": tone.frequency,
            "fs_hz": fs,
        }
        _write_json(pj, h, seed, payload)
        files.append(str(pj))
        pc = out / "capture.csv"
        # sample 16*m + s is entry [s, m] of each per-slice array
        k = np.arange(n)
        _write_csv(
            pc, h, seed,
            {
                "sample_index": k,
                "slice": k % il.N_SLICES,
                "instant_seconds": capture.instants.T.reshape(-1),
                "raw_count": capture.raw.T.reshape(-1),
                "signed_code": capture.codes.T.reshape(-1),
                "corrected_code": capture.corrected.T.reshape(-1),
            },
        )
        files.append(str(pc))
        if lin is not None:
            pl = out / "linearity.csv"
            _write_csv(
                pl, h, seed,
                {"code": lin.codes, "dnl_lsb": lin.dnl, "inl_lsb": lin.inl},
            )
            plj = out / "linearity.json"
            _write_json(
                plj, h, seed,
                {
                    "experiment": "adc-sine/linearity",
                    "dnl_max": lin.dnl_max,
                    "inl_max": lin.inl_max,
                    "missing_codes": _jsonable(lin.missing_codes),
                    "reference": lin.reference,
                    "dnl": _jsonable(lin.dnl),
                    "inl": _jsonable(lin.inl),
                },
            )
            files.extend([str(pl), str(plj)])
    return ExperimentResult("adc-sine", seed, h, metrics, files)


def run_fom(cfg: RunConfig, seed: int, out: Path | None) -> ExperimentResult:
    h = config_hash(cfg)
    if not cfg.fom.entries:
        raise ConfigError("fom experiment needs fom.entries in the config")
    entries = cfg.fom.entries
    values = [met.walden_fom(e.power, e.enob, e.rate) for e in entries]
    metrics = {f"fom_pj_{e.label}": v * 1e12 for e, v in zip(entries, values)}
    files = []
    if out is not None:
        p = out / "fom.csv"
        _write_csv(
            p, h, seed,
            {
                "label": [e.label for e in entries],
                "power_watts": [e.power for e in entries],
                "enob": [e.enob for e in entries],
                "rate_sps": [e.rate for e in entries],
                "fom_joules": values,
                "fom_pj_per_step": [v * 1e12 for v in values],
            },
        )
        pj = out / "fom.json"
        _write_json(pj, h, seed, {"experiment": "fom", "metrics": _jsonable(metrics)})
        files = [str(p), str(pj)]
    return ExperimentResult("fom", seed, h, metrics, files)


def _mc_trial(args) -> tuple[int, dict]:
    cfg, name, seed = args
    result = _DISPATCH[name](cfg, seed, None)
    return seed, result.metrics


def run_montecarlo(cfg: RunConfig, seed: int, out: Path | None) -> ExperimentResult:
    h = config_hash(cfg)
    name = cfg.montecarlo.experiment
    if name not in _DISPATCH or name == "montecarlo":
        raise ConfigError(f"montecarlo cannot wrap experiment {name!r}")
    seeds = [seed + i for i in range(cfg.montecarlo.trials)]
    jobs = [(cfg, name, s) for s in seeds]
    # trials on one sampling grid sample each tone once; a forked worker
    # inherits the open, empty memo, a spawned one runs without it
    with il.shared_tone_swings():
        if cfg.montecarlo.workers > 1:
            with ProcessPoolExecutor(max_workers=cfg.montecarlo.workers) as pool:
                results = list(pool.map(_mc_trial, jobs))
        else:
            results = [_mc_trial(job) for job in jobs]
    results.sort(key=lambda item: item[0])
    numeric_keys = [
        k
        for k, v in results[0][1].items()
        if isinstance(v, (int, float, np.integer, np.floating))
        and not isinstance(v, bool)
    ]
    summary = {}
    for key in numeric_keys:
        values = np.array([m[key] for _, m in results], dtype=np.float64)
        summary[key] = {
            f"p{pct:g}": float(np.percentile(values, pct))
            for pct in cfg.montecarlo.percentiles
        }
        summary[key]["mean"] = float(values.mean())
    metrics = {"trials": len(seeds), "experiment": name}
    for key in numeric_keys:
        metrics[f"{key}_median"] = float(
            np.median([m[key] for _, m in results])
        )
    files = []
    if out is not None:
        p = out / "montecarlo.csv"
        columns = {"seed": [s for s, _ in results]}
        columns.update({k: [m[k] for _, m in results] for k in numeric_keys})
        _write_csv(p, h, seed, columns)
        pj = out / "montecarlo.json"
        _write_json(
            pj, h, seed,
            {
                "experiment": "montecarlo",
                "wrapped": name,
                "trials": len(seeds),
                "percentiles": _jsonable(summary),
                "metrics": _jsonable(metrics),
            },
        )
        files = [str(p), str(pj)]
    return ExperimentResult("montecarlo", seed, h, metrics, files)


# in the order the command line lists them
_DISPATCH = {
    "slice-transfer": run_slice_transfer,
    "adc-sine": run_adc_sine,
    "pi-sweep": run_pi_sweep,
    "pi-trim": run_pi_trim,
    "montecarlo": run_montecarlo,
    "calibrate": run_calibrate,
    "fom": run_fom,
}
EXPERIMENT_NAMES = tuple(_DISPATCH)


def run_experiment(
    name: str,
    cfg: RunConfig,
    out_dir=None,
    seed: int | None = None,
    calibration_path=None,
) -> ExperimentResult:
    """Run one named experiment; artifacts land in out_dir when given."""
    if name not in _DISPATCH:
        raise ConfigError(
            f"unknown experiment {name!r}; choose from {', '.join(EXPERIMENT_NAMES)}"
        )
    if calibration_path is not None and name != "adc-sine":
        # every other experiment calibrates itself or needs no calibration
        raise ConfigError(f"--calibration applies only to adc-sine, not to {name}")
    run_seed = cfg.master_seed if seed is None else int(seed)
    out = None
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
    if calibration_path is not None:
        state = il.CalibrationState.from_json(Path(calibration_path).read_text(encoding="utf-8"))
        return run_adc_sine(cfg, run_seed, out, calibration=state)
    return _DISPATCH[name](cfg, run_seed, out)
