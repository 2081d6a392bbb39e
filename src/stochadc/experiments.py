"""Named experiments: deterministic batch runs producing CSV/JSON artifacts.

Every output file embeds the config hash and the master seed, and nothing
time-dependent is ever written, so a rerun with the same config and seed is
byte-identical.  Each experiment returns its metrics and a function that
builds its artifact bodies; `run_experiment` is the one frame around them,
and every file goes through `_write_artifacts` there.  The calibrate
experiment persists its state to a versioned JSON file, whose format lives
here alone, from which a later measurement run resumes bit-exactly.
"""

from __future__ import annotations

import csv
import json
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import interleaver as il
from . import metrics as met
from . import pi as pimod
from .config import RunConfig, config_hash, linearity_tone, measurement_tone, skew_tone, warmup_tone
from .core import median, normal_rows, percentile, seed_array
from .errors import ConfigError

# the calibration file format; `from_json` refuses any other
CALIBRATION_VERSION = 1


@dataclass
class ExperimentResult:
    name: str
    seed: int
    config_hash: str
    metrics: dict
    files: list


# a run_*'s metrics and the function that builds its {file name: body} artifacts
Run = tuple[dict, Callable[[], dict]]


# rows formatted and written at a time: bounds the bytes held in memory
CSV_BLOCK_ROWS = 8192

# a cell the block encoder cannot write digit by digit is formatted by Python
# into a slot this wide: a float's repr has at most 24 characters, an int's 20
_TEXT_WIDTH = 24
# |int| below this is written digit by digit
_INT_DIGITS_BOUND = 2**62
# the double nearest 10**k, k = -9..-4: a double is at least the one for k
# exactly when its shortest decimal is at least 10**k
_DECADE_STARTS = np.array([1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4])
# 10**s, s = 19..22, each an exact double
_EXACT_POW10 = np.array([1e19, 1e20, 1e21, 1e22])
_DIGIT = ord("0")


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


def _text_rows(values: list) -> np.ndarray:
    """The repr of each Python int or float, padded with spaces (which no
    such repr holds): (len(values), _TEXT_WIDTH) uint8."""
    text = (f"%-{_TEXT_WIDTH}r" * len(values)) % tuple(values)
    return np.frombuffer(text.encode(), np.uint8).reshape(-1, _TEXT_WIDTH)


def _digit_planes(q: np.ndarray, width: int) -> np.ndarray:
    """The last `width` decimal digits of each non-negative int64 of q as
    ASCII, most significant first: (width, len(q)) uint8."""
    planes = np.empty((width, q.size), np.uint8)
    for j in range(width - 1, -1, -1):
        nxt = q // 10
        planes[j] = q - nxt * 10
        q = nxt
    planes += _DIGIT
    return planes


def _int_cells(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A bool or int block as (planes, the rows left to `_text_rows`)."""
    if x.dtype.kind == "b":
        return (x.astype(np.uint8) + _DIGIT)[None], np.empty(0, np.intp)
    if x.dtype.kind == "u":
        wide = x >= _INT_DIGITS_BOUND
        v = np.where(wide, 0, x).astype(np.int64)
    else:
        v = x.astype(np.int64)
        wide = (v <= -_INT_DIGITS_BOUND) | (v >= _INT_DIGITS_BOUND)
        v[wide] = 0
    a = np.abs(v)
    width = len(str(a.max()))
    digits = _digit_planes(a, width)
    # no leading zeros: the digit of 10**k shows when a >= 10**k, the units always
    for j in range(width - 1):
        digits[j] *= a >= 10 ** (width - 1 - j)
    negative = v < 0
    parts = [negative.astype(np.uint8)[None] * ord("-"), digits] if negative.any() else [digits]
    slow = np.flatnonzero(wide)
    if slow.size:
        parts.append(np.zeros((_TEXT_WIDTH - sum(map(len, parts)), x.size), np.uint8))
    return np.concatenate(parts), slow


def _float_cells(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A float block as (planes, the rows left to `_text_rows`).

    A value of decade -8 to -5, which repr writes as `d[.ddd]e-0X`, is
    written from N = rint(|x| * 10**s), s = 14 - decade, when 1e14 <= N <
    1e15 and N / 10**s == |x|.  That quotient of two exact doubles is
    correctly rounded, so N's 15-digit decimal round-trips; decimals of 15
    digits or fewer lie further apart than a double's rounding interval is
    wide, so no other one does, and N without its trailing zeros is repr's
    digits.  Every other value (16 or 17 digits, another decade, ±0,
    subnormal, inf, nan) is left to repr.  The decade only picks the
    candidate: a wrong guess fails the check.
    """
    x = x.astype(np.float64, copy=False)
    a = np.abs(x)
    # a value outside the window (huge, inf, a signalling nan) may raise a
    # floating-point flag on the way; it is left to repr all the same
    with np.errstate(all="ignore"):
        # a's decade, clipped to -10..-4; outside -8..-5 the candidate
        # misses [1e14, 1e15)
        decade = np.searchsorted(_DECADE_STARTS, a, side="right") - 10
        s = np.clip(14 - decade, 19, 22)
        p = _EXACT_POW10[s - 19]
        n = np.rint(a * p)
        fast = (n >= 1e14) & (n < 1e15) & (n / p == a)
    digits = _digit_planes(np.where(fast, n, 0).astype(np.int64), 15)
    # trailing zeros go, and the point with them when one digit is left
    shown = np.zeros(x.size, bool)
    for row in digits[:0:-1]:
        shown |= row != _DIGIT
        row *= shown
    planes = np.zeros((_TEXT_WIDTH, x.size), np.uint8)
    planes[0] = np.signbit(x) * ord("-")
    planes[1] = digits[0]
    planes[2] = shown * ord(".")
    planes[3:17] = digits[1:]
    planes[17:20] = np.frombuffer(b"e-0", np.uint8)[:, None]
    planes[20] = _DIGIT + s - 14
    return planes, np.flatnonzero(~fast)


def _encode_block(chunks: list) -> bytes:
    """One block of an all-numeric table as CSV bytes.

    Each column becomes a stack of uint8 planes, one per byte position of
    its cells, with 0 where a cell is shorter, and a `,` or `\\n` plane
    follows it.  The stack is transposed to rows, the cells a column leaves
    to `_text_rows` take a whole _TEXT_WIDTH slot from it, and dropping the
    0 bytes and the text's space padding leaves the CSV text.
    """
    cells = [(_float_cells if c.dtype.kind == "f" else _int_cells)(c) for c in chunks]
    n_rows = len(chunks[0])
    planes = []
    for column, _ in cells:
        planes += [column, np.full((1, n_rows), ord(","), np.uint8)]
    planes[-1] = np.full((1, n_rows), ord("\n"), np.uint8)
    block = np.concatenate(planes).T.copy()
    at = 0
    for chunk, (column, slow) in zip(chunks, cells):
        if slow.size:
            block[slow, at : at + _TEXT_WIDTH] = _text_rows(chunk[slow].tolist())
        at += len(column) + 1
    return block.tobytes().translate(None, b"\0 ")


def _write_csv(path: Path, cfg_hash: str, seed: int, columns: dict) -> None:
    """Write a table given as {header: column}.

    Format: two `#` lines with the config hash and master seed, the header,
    then one row per index; `\\n` line ends, ints in decimal, floats as their
    shortest round-trip repr, bools as 1/0, strings with csv minimal quoting.
    A table of numeric arrays alone (no cell needs quoting) is encoded
    `CSV_BLOCK_ROWS` rows at a time by `_encode_block`; any other goes
    through the csv module row by row.
    """
    cols = list(columns.values())
    n_rows = len(cols[0]) if cols else 0
    if any(len(c) != n_rows for c in cols):
        raise ValueError(f"CSV columns of unequal length for {path.name}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# config_hash={cfg_hash}\n# master_seed={seed}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(columns))
        if not all(_is_numeric(c) for c in cols):
            writer.writerows(zip(*(map(_fmt, c) for c in cols)))
            return
        # the blocks are bytes: past the text layer, once its buffer is out
        fh.flush()
        for start in range(0, n_rows, CSV_BLOCK_ROWS):
            fh.buffer.write(_encode_block([c[start : start + CSV_BLOCK_ROWS] for c in cols]))


def _plain(value):
    """A numpy scalar or array as the plain Python value JSON writes."""
    if isinstance(value, (np.generic, np.ndarray)):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _write_json(path: Path, cfg_hash: str, seed: int, payload: dict) -> None:
    """Write the config hash, master seed and payload as one sorted-key JSON object."""
    body = {"config_hash": cfg_hash, "master_seed": seed, **payload}
    text = json.dumps(body, sort_keys=True, indent=2, default=_plain)
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


@dataclass
class CalibrationState:
    """Persisted calibration: offsets, LUTs and PI corrections of one config and seed."""

    config_hash: str
    master_seed: int
    offset_codes: np.ndarray
    luts: list[il.Lut] | None
    pi_corrections: np.ndarray | None

    @classmethod
    def from_json(cls, text: str) -> CalibrationState:
        """Parse a calibration file; malformed content raises ConfigError."""
        try:
            payload = json.loads(text)
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
        luts = payload["luts"]
        if luts is not None:
            table = _int_table(luts, (il.N_SLICES, il.LUT_SIZE), "luts")
            try:
                luts = [il.Lut(mapping=m) for m in table]
            except ValueError as exc:
                raise ConfigError(f"calibration luts: {exc}") from None
        corrections = payload["pi_corrections"]
        return cls(
            config_hash=payload["config_hash"],
            master_seed=payload["master_seed"],
            offset_codes=_int_table(payload["offset_codes"], (il.N_SLICES,), "offset_codes"),
            luts=luts,
            pi_corrections=None
            if corrections is None
            else _int_table(corrections, (il.N_GROUPS,), "pi_corrections"),
        )


def _int_table(value, shape: tuple, name: str) -> np.ndarray:
    """An integer array of exactly `shape` from a calibration field, else ConfigError."""
    try:
        table = np.asarray(value)
    except ValueError:  # ragged nesting
        table = None
    if table is None or table.shape != shape or table.dtype.kind != "i":
        raise ConfigError(f"calibration {name} must be integers of shape {shape}")
    return table.astype(np.int64, copy=False)


def _offset_codes(cfg: RunConfig, system: il.AdcSystem) -> np.ndarray:
    """Per-slice offset codes: adapted in the warmup, else the nominal code."""
    if not cfg.system.calibration.adapt_offsets:
        return np.full(il.N_SLICES, cfg.adc.nominal_offset_code, dtype=np.int64)
    offsets, _ = il.adapt_offsets(
        system, warmup_tone(cfg), window=cfg.adc.adaptation.window,
        threshold=cfg.adc.adaptation.threshold,
    )
    return offsets


def compute_calibration(cfg: RunConfig, seed: int, system: il.AdcSystem) -> CalibrationState:
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
    return CalibrationState(config_hash(cfg), seed, offsets, luts, corrections)


def run_slice_transfer(cfg: RunConfig, seed: int, normals) -> Run:
    system = il.AdcSystem(cfg, seed, normals)
    adc = cfg.adc
    # the sweep reads slice 0's offset code alone, so no LUT or skew capture runs
    offset = int(_offset_codes(cfg, system)[0])
    span = cfg.sweep.span_rel * adc.full_scale
    dv = np.linspace(-span, span, cfg.sweep.points)
    cm = cfg.stimulus.common_mode
    raw, sign, code = il.slice_transfer(system, 0, dv, cm, offset)
    monotone = bool(np.all(np.diff(code) >= 0))
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


def run_pi_sweep(cfg: RunConfig, seed: int, normals) -> Run:
    period = cfg.system.pi_clock_period
    chain = il.pi_chain(cfg, *normals)
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


def _rising(a: np.ndarray) -> bool:
    """Whether `a` strictly rises; the same verdict as `np.diff(a) > 0` for
    every double, NaN and inf included, without the difference array."""
    return bool((a[1:] > a[:-1]).all())


def run_pi_trim(cfg: RunConfig, seed: int, normals) -> Run:
    chain = il.pi_chain(cfg, *normals)
    pre_sweep = pimod.pi_sweep(chain)
    result = pimod.trim_paths(chain, cfg.pi.trim_max_iters)
    post_sweep = pimod.pi_sweep(result.chain)
    metrics = {
        "iterations": result.iterations,
        "initial_inversions": result.initial_inversions,
        "pre_trim_monotone": _rising(pre_sweep),
        "post_trim_monotone": _rising(post_sweep),
        "max_trim_seconds": float(np.max(np.abs(result.adjustments))),
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


def run_calibrate(cfg: RunConfig, seed: int, normals) -> Run:
    state = compute_calibration(cfg, seed, il.AdcSystem(cfg, seed, normals))
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
            "luts": None if state.luts is None else [lut.mapping for lut in state.luts],
            "pi_corrections": state.pi_corrections,
        },
    }


def run_adc_sine(
    cfg: RunConfig, seed: int, normals, calibration: CalibrationState | None = None
) -> Run:
    """Measure the configured tone, calibrating first unless `calibration`
    (already checked against this config and seed) is given."""
    system = il.AdcSystem(cfg, seed, normals)
    if calibration is None:
        calibration = compute_calibration(cfg, seed, system)
    tone = measurement_tone(cfg)
    fs = cfg.system.aggregate_rate
    n = cfg.capture.n_samples
    pi_codes = system.nominal_pi_codes()
    if calibration.pi_corrections is not None:
        pi_codes = il.corrected_pi_codes(pi_codes, calibration.pi_corrections)
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
        lin_capture = il.run_capture(
            system, linearity_tone(cfg), cfg.capture.linearity_samples,
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

    def bodies():
        # sample 16*m + s is entry [s, m] of each per-slice array
        k = np.arange(n)
        files = {
            "adc_sine.json": {
                "experiment": "adc-sine",
                "metrics": metrics,
                "spur_list": report.spur_list,
                "offset_codes": calibration.offset_codes,
                "pi_codes": pi_codes,
                "fin_hz": tone.frequency,
                "fs_hz": fs,
            },
            "capture.csv": {
                "sample_index": k,
                "slice": k % il.N_SLICES,
                "instant_seconds": capture.instants.T.reshape(-1),
                "raw_count": capture.raw.T.reshape(-1),
                "signed_code": capture.codes.T.reshape(-1),
                "corrected_code": capture.corrected.T.reshape(-1),
            },
        }
        if lin is not None:
            files["linearity.csv"] = {"code": lin.codes, "dnl_lsb": lin.dnl, "inl_lsb": lin.inl}
            files["linearity.json"] = {
                "experiment": "adc-sine/linearity",
                "dnl_max": lin.dnl_max,
                "inl_max": lin.inl_max,
                "missing_codes": lin.missing_codes,
                "reference": lin.reference,
                "dnl": lin.dnl,
                "inl": lin.inl,
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


# standard normals a Monte Carlo draws at a time: bounds the mismatch rows
# held in memory (about 56 converter or 4,096 PI chain instances per draw)
DRAW_NORMALS = 1 << 18


def _instance_chunks(name: str, cfg: RunConfig, seeds: list[int]):
    """Yield the seeds in order, in chunks, each with its seeds' mismatch rows
    for experiment `name` (None each for an experiment without a mismatch
    instance).

    The one draw of single runs and Monte Carlo trials: a chunk's rows come
    from one `core.normal_rows` draw of at most about DRAW_NORMALS normals,
    and each seed's equal its single-seed draw bit for bit.
    """
    row_seeds = _EXPERIMENTS[name][1]
    if row_seeds is None:
        yield seeds, [None] * len(seeds)
        return
    per_seed = sum(s.size * length for s, length in row_seeds(cfg, seed_array(seeds[:1])))
    step = max(1, DRAW_NORMALS // per_seed)
    for start in range(0, len(seeds), step):
        chunk = seeds[start : start + step]
        yield chunk, normal_rows(row_seeds(cfg, seed_array(chunk)))


def _run(name: str, cfg: RunConfig, seed: int, normals, **resume) -> Run:
    """Run experiment `name`, handing it its mismatch rows if it has any."""
    if normals is not None:
        resume["normals"] = normals
    return _EXPERIMENTS[name][0](cfg, seed, **resume)


def run_montecarlo(cfg: RunConfig, seed: int) -> Run:
    name = cfg.montecarlo.experiment
    if name not in _EXPERIMENTS or name == "montecarlo":
        raise ConfigError(f"montecarlo cannot wrap experiment {name!r}")
    seeds = [seed + i for i in range(cfg.montecarlo.trials)]
    # trials on one sampling grid sample each tone once; a chunk's trials
    # return before the next chunk is drawn, so a run never holds more than
    # two chunks' rows.  No trial builds its artifact bodies
    with il.shared_tone_swings():
        results = [
            _run(name, cfg, trial_seed, rows)[0]
            for chunk, normals in _instance_chunks(name, cfg, seeds)
            for trial_seed, rows in zip(chunk, normals)
        ]
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


# name -> (run function, the keyed-draw rows of its mismatch instance or
# None), in the order the command line lists them; a run with rows takes its
# seed's as `normals`
_EXPERIMENTS = {
    "slice-transfer": (run_slice_transfer, il.mismatch_seeds),
    "adc-sine": (run_adc_sine, il.mismatch_seeds),
    "pi-sweep": (run_pi_sweep, il.pi_mismatch_seeds),
    "pi-trim": (run_pi_trim, il.pi_mismatch_seeds),
    "montecarlo": (run_montecarlo, None),
    "calibrate": (run_calibrate, il.mismatch_seeds),
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

    The one frame around every experiment: it hashes the config, refuses a
    calibration file from another config or seed, makes the output
    directory and builds and writes the artifact bodies only when it has one.
    """
    if name not in _EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment {name!r}; choose from {', '.join(EXPERIMENT_NAMES)}"
        )
    if calibration_path is not None and name != "adc-sine":
        # every other experiment calibrates itself or needs no calibration
        raise ConfigError(f"--calibration applies only to adc-sine, not to {name}")
    run_seed = cfg.master_seed if seed is None else int(seed)
    h = config_hash(cfg)
    out = None
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
    resume = {}
    if calibration_path is not None:
        state = CalibrationState.from_json(Path(calibration_path).read_text(encoding="utf-8"))
        if state.config_hash != h or state.master_seed != run_seed:
            raise ConfigError(
                "calibration file does not match this config/seed "
                f"(file: {state.config_hash}/{state.master_seed}, run: {h}/{run_seed})"
            )
        resume["calibration"] = state
    [(_, (normals,))] = _instance_chunks(name, cfg, [run_seed])
    metrics, bodies = _run(name, cfg, run_seed, normals, **resume)
    files = [] if out is None else _write_artifacts(out, h, run_seed, bodies())
    return ExperimentResult(name, run_seed, h, metrics, files)
