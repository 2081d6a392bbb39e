"""Acceptance suite: one test per release criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines.  Regression-locked values were produced by this code base and pin
the seeded results exactly; the two external reference points (0.7 ps
measured interpolator resolution, 0.96 LSB / 5.6 ENOB characterized
linearity) are printed as comparison lines, not asserted as tolerances.
"""

import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from stochadc.config import GOLDEN_FRACTION, AdcConfig, RunConfig, SystemConfig, load_config
from stochadc.core import ClockSpec
from stochadc.experiments import run_experiment
from stochadc.interleaver import (
    AdcSystem,
    adapt_offsets,
    aligned_capture,
    calibrate_skew,
    run_capture,
    slice_transfer,
)
from stochadc.metrics import (
    dominant_family_spur_db,
    measure_pi_transfer_uncorrelated,
    sndr_enob,
    uncorrelated_sampler,
    walden_fom,
)
from stochadc.pi import inverted_segments, make_pi_chain, pi_sweep, trim_paths
from stochadc.stdc import count_edges_batch
from stochadc.stimulus import SineStimulus

from oracles import adder_tree_sum, make_chain, substream, tap_edge_times

PS = 1e-12
FS = 20e9
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

# Reference resolution of the characterized silicon interpolator, printed
# alongside criterion 4 for comparison (not a tolerance).
REFERENCE_MEASURED_STEP = 0.7 * PS
# Characterized silicon linearity/ENOB reference points for criterion 9.
REFERENCE_DNL_LSB = 0.96
REFERENCE_INL_LSB = 2.39
REFERENCE_ENOB = 5.6

# Criterion 7 lock: (seed, pre-cal spur dBc, post-cal spur dBc).
SKEW_CAL_LOCK = [
    (0, -17.7599749869888, -45.725850539209134),
    (1, -25.175845666465, -49.2850684705283),
    (2, -17.758544513659714, -45.7055691404028),
    (3, -25.179173272359524, -49.211336912081336),
    (4, -17.75658676190471, -45.95940331469134),
    (5, -17.76025909707032, -45.701678983977914),
    (6, -15.576226504409153, -45.687811880261094),
    (7, -17.757202029109457, -45.71271249777921),
    (8, -17.759131707313294, -45.896756833721135),
    (9, -17.751460743094817, -45.93511417377784),
    (10, -17.757011355848594, -45.78100548912371),
    (11, -17.757741311933625, -45.71028358927778),
    (12, -17.760047403701098, -45.74201862692712),
    (13, -25.1664203914485, -49.22976976788989),
    (14, -17.763122364411938, -45.79095872189119),
    (15, -17.760534939168988, -45.67368440917701),
    (16, -25.16157391823249, -49.0469124191739),
    (17, -25.162783818514683, -49.19213724011685),
    (18, -17.750822977161377, -45.82117752494863),
    (19, -15.577119171706341, -45.67594308597754),
]

# Criterion 9 lock: (seed, dnl_max, enob) under configs/regime.yaml.
REGIME_LOCK = [
    (0, 0.788514331204689, 5.256672639065775),
    (1, 0.4450739820244618, 5.517847552545588),
    (2, 0.7476502787758572, 5.417796957522593),
    (3, 0.6236113248660706, 5.130373696132866),
    (4, 0.754387576213446, 5.2529961786229995),
    (5, 1.3005321988395573, 5.607915422613701),
    (6, 0.9441989571405067, 5.397928784723259),
    (7, 1.1533278139807672, 5.323269343001626),
    (8, 1.004029663648431, 5.36742016595277),
    (9, 1.0938960761595706, 5.320212562247993),
    (10, 1.0496617844870624, 5.170816496473344),
    (11, 0.46157469575576393, 5.559502842369196),
    (12, 0.6384957172985155, 5.441835438253384),
    (13, 0.6738764276090485, 4.998989465306503),
    (14, 0.6417281019487531, 5.409582721454977),
    (15, 0.6908422760426536, 4.8947326779282365),
    (16, 1.1322978103967936, 5.417616346134245),
    (17, 0.4745970997264317, 5.059345713874172),
    (18, 0.4866172955205761, 5.359479197756763),
    (19, 0.7868567263099819, 5.441417442398935),
]


def report(n, ok, detail):
    print(f"ACCEPTANCE {n:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_01_stdc_oracle_equivalence():
    t0 = time.time()
    rng = substream(42, "acceptance.oracle")
    cases = 10_000
    mismatches = 0
    for _ in range(cases):
        unit = rng.uniform(2e-12, 20e-12)
        sigma = rng.uniform(0.0, 0.3)
        chain = make_chain(unit, 255, sigma, seed=int(rng.integers(1 << 32)))
        start = rng.uniform(0.0, 100e-12)
        width = rng.uniform(0.0, 260 * unit)
        edges = tap_edge_times(chain, 0.0)
        # independent oracle: brute-force enumeration of edges in the window
        brute = int(np.sum((edges >= start) & (edges < start + width)))
        bits = (edges >= start - chain.boundary_guard) & (
            edges < start + width - chain.boundary_guard
        )
        tree = adder_tree_sum(bits, 255)
        batch = int(count_edges_batch(chain, np.array([start]), np.array([width]))[0])
        mismatches += (tree != brute) + (batch != brute)
    elapsed = time.time() - t0
    report(
        1,
        mismatches == 0 and elapsed < 5.0,
        f"adder tree == brute force on {cases} random cases "
        f"({mismatches} mismatches, {elapsed:.2f} s)",
    )


def test_criterion_02_ideal_mode_enob():
    t0 = time.time()
    cfg = load_config(CONFIG_DIR / "ideal.yaml")
    result = run_experiment("adc-sine", cfg)
    enob = result.metrics["enob"]
    elapsed = time.time() - t0
    report(
        2,
        7.85 <= enob <= 8.05 and elapsed < 10.0,
        f"ideal-mode ENOB {enob:.4f} in [7.85, 8.05] ({elapsed:.2f} s)",
    )


def test_criterion_03_stdc_transfer_monotonicity():
    violations = 0
    dv = np.linspace(-0.45, 0.45, 1024)
    for seed in range(100):
        system = AdcSystem(RunConfig(adc=AdcConfig(tap_sigma_random=0.1)), master_seed=seed)
        _, _, code = slice_transfer(system, 0, dv, 0.525, 25)
        violations += int(np.any(np.diff(code) < 0))
    report(
        3,
        violations == 0,
        f"transfer monotone for 100/100 mismatch seeds ({violations} violations)",
    )


def test_criterion_04_pi_step_arithmetic():
    chain = make_pi_chain(12.5 * PS, 200 * PS)
    phases = pi_sweep(chain)
    steps = np.diff(phases)
    wrap = phases[0] + chain.period - phases[255]
    all_steps = np.concatenate([steps, [wrap]])
    worst = float(np.max(np.abs(all_steps - 0.78125 * PS)))
    ok = bool(np.all(steps > 0)) and worst < 1e-6 * PS
    report(
        4,
        ok,
        f"256-code sweep strictly monotone, steps 0.78125 ps +/- {worst / PS:.2e} ps "
        f"(reference measured resolution: {REFERENCE_MEASURED_STEP / PS:.2f} ps)",
    )


def test_criterion_05_pi_trim_recovery():
    t0 = time.time()
    # injected case: one path skewed by +1.5 unit delays
    base = make_pi_chain(12.5 * PS, 200 * PS)
    skews = base.path_skews.copy()
    skews[6] += 1.5 * 12.5 * PS
    injected = replace(base, path_skews=skews)
    pre_inversions = len(inverted_segments(injected))
    result = trim_paths(injected, 64)
    injected_ok = (
        pre_inversions >= 1
        and bool(np.all(np.diff(pi_sweep(result.chain)) > 0))
    )
    # Monte Carlo: 100 seeds at path-skew sigma 0.15 * unit delay
    monotone = 0
    mc_pre_inversions = 0
    for seed in range(100):
        chain = make_pi_chain(
            12.5 * PS, 200 * PS, tap_sigma_rel=0.05, skew_sigma=0.15 * 12.5 * PS, seed=seed
        )
        mc_pre_inversions += len(inverted_segments(chain)) > 0
        trimmed = trim_paths(chain, 64)
        monotone += bool(np.all(np.diff(pi_sweep(trimmed.chain)) > 0))
    elapsed = time.time() - t0
    exercised = pre_inversions + mc_pre_inversions
    report(
        5,
        injected_ok and monotone == 100 and exercised >= 1 and elapsed < 60.0,
        f"injected +1.5*unit case converged ({pre_inversions} pre-trim inversion), "
        f"{monotone}/100 seeds monotone post-trim, detector exercised on "
        f"{exercised} case(s) ({elapsed:.2f} s)",
    )


def test_criterion_06_offset_adaptation_recovery():
    hits = 0
    for seed in range(100):
        cfg = RunConfig(adc=AdcConfig(tap_sigma_random=0.1))
        adc = cfg.adc
        system = AdcSystem(cfg, master_seed=seed)
        tone = SineStimulus(
            frequency=GOLDEN_FRACTION * cfg.system.slice_rate, amplitude=0.45, common_mode=0.525,
            phase=float(substream(seed, "adapt.phase").uniform(0, 2 * np.pi)),
        )
        offsets, _ = adapt_offsets(system, tone, window=10_000, threshold=0.001)
        # ground truth: window nesting makes the dv = 0 raw count the true
        # minimum; evaluate it directly on the instance's chain
        truth_start = adc.launch_lead + (0.525 - adc.v_threshold) / adc.discharge_slope
        truth = int(count_edges_batch(
            system.chains[0], np.array([truth_start]), np.array([adc.d_offset])
        )[0])
        hits += abs(int(offsets[0]) - truth) <= 1
    report(6, hits >= 99, f"offset recovered within +/-1 on {hits}/100 seeds at W=10^4")


def test_criterion_07_skew_calibration():
    n = 4096
    j = 1433
    fin = j * FS / n
    ok_resid = 0
    ok_drop = 0
    lock_ok = True
    for seed, pre_lock, post_lock in SKEW_CAL_LOCK:
        rng = substream(seed, "skew.inject")
        signs = rng.choice([-1.0, 1.0], size=3)
        skews = (0.0, signs[0] * 5 * PS, signs[1] * 5 * PS, signs[2] * 5 * PS)
        design = SystemConfig(skew_injection=skews)
        system = AdcSystem(RunConfig(system=design), master_seed=seed)
        phase = float(rng.uniform(0, 2 * np.pi))
        tone = SineStimulus(frequency=fin, amplitude=0.44, common_mode=0.525, phase=phase)
        warm = replace(tone, frequency=GOLDEN_FRACTION * design.slice_rate)
        offsets, _ = adapt_offsets(system, warm, window=10_000, threshold=0.001)
        corr = calibrate_skew(system, tone, n, offset_codes=offsets)
        pre = sndr_enob(
            aligned_capture(system, run_capture(system, tone, n, offset_codes=offsets)).codes,
            FS, fin,
        )
        post_codes = np.clip(system.nominal_pi_codes() + corr, 0, 255)
        post = sndr_enob(
            aligned_capture(
                system,
                run_capture(system, tone, n, offset_codes=offsets, pi_codes=post_codes),
            ).codes,
            FS, fin,
        )
        sp_pre = dominant_family_spur_db(pre)
        sp_post = dominant_family_spur_db(post)
        residual = np.asarray(skews) + corr * design.pi_step
        residual -= np.median(residual)
        ok_resid += bool(np.max(np.abs(residual)) <= design.pi_step)
        ok_drop += bool(sp_pre - sp_post >= 20.0)
        lock_ok &= abs(sp_pre - pre_lock) < 1e-6 and abs(sp_post - post_lock) < 1e-6
    report(
        7,
        ok_resid == 20 and ok_drop == 20 and lock_ok,
        f"residual <= 1 PI step on {ok_resid}/20 seeds, spur drop >= 20 dB on "
        f"{ok_drop}/20 seeds, spectra match regression lock: {lock_ok}",
    )


def test_criterion_08_fom_reproduction():
    full = walden_fom(175e-3, 5.6, 20e9) * 1e12
    single = walden_fom(8.6e-3, 5.9, 1.25e9) * 1e12
    ok = abs(full - 0.18) <= 0.005 and abs(single - 0.12) <= 0.005
    report(
        8,
        ok,
        f"figure of merit {full:.4f} pJ/step (ref 0.18 +/- 0.005) and "
        f"{single:.4f} pJ/step (ref 0.12 +/- 0.005)",
    )


def test_criterion_09_mismatch_regime_consistency():
    cfg = load_config(CONFIG_DIR / "regime.yaml")
    dnl = []
    inl = []
    enob = []
    lock_ok = True
    for seed, dnl_lock, enob_lock in REGIME_LOCK:
        result = run_experiment("adc-sine", cfg, seed=seed)
        dnl.append(result.metrics["dnl_max"])
        inl.append(result.metrics["inl_max"])
        enob.append(result.metrics["enob"])
        lock_ok &= (
            abs(result.metrics["dnl_max"] - dnl_lock) < 1e-9
            and abs(result.metrics["enob"] - enob_lock) < 1e-9
        )
    med_dnl = float(np.median(dnl))
    med_enob = float(np.median(enob))
    ok = 0.5 <= med_dnl <= 1.5 and 5.0 <= med_enob <= 6.5 and lock_ok
    report(
        9,
        ok,
        f"frozen regime config: median dnl_max {med_dnl:.3f} LSB in [0.5, 1.5] "
        f"(ref {REFERENCE_DNL_LSB}), median inl_max {float(np.median(inl)):.3f} LSB "
        f"(ref {REFERENCE_INL_LSB}, no band), median ENOB {med_enob:.3f} in [5.0, 6.5] "
        f"(ref {REFERENCE_ENOB}), per-seed values match lock: {lock_ok}",
    )


def test_criterion_10_uncorrelated_monitor():
    clock = ClockSpec(period=200 * PS)
    phases = pi_sweep(make_pi_chain(12.5 * PS, clock.period))[:9]
    sampler = uncorrelated_sampler(clock, phase0=2.3 * PS)
    estimates = measure_pi_transfer_uncorrelated(
        phases, clock.period, sampler, 10**6, anchor=12.5 * PS
    )
    steps = np.diff(estimates)
    worst = float(np.max(np.abs(steps - 0.78125 * PS)))
    report(
        10,
        worst <= 0.25 * PS,
        f"monitor estimates the 0.78125 ps step within {worst / PS:.4f} ps "
        f"(bound 0.25 ps) at 10^6 samples per code",
    )


def test_criterion_11_determinism(tmp_path):
    cfg = load_config(CONFIG_DIR / "skewcal.yaml")
    pairs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        run_experiment("adc-sine", cfg, out_dir=out)
        run_experiment("pi-sweep", cfg, out_dir=out)
        run_experiment("fom", load_config(CONFIG_DIR / "fom.yaml"), out_dir=out)
        pairs.append(out)
    names = ["adc_sine.json", "capture.csv", "pi_sweep.csv", "pi_sweep.json", "fom.csv", "fom.json"]
    identical = all(
        (pairs[0] / name).read_bytes() == (pairs[1] / name).read_bytes() for name in names
    )
    report(11, identical, f"{len(names)} artifact files byte-identical across reruns")
