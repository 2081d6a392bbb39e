"""Measurement methodology: code-density linearity, coherent-FFT SNDR/ENOB,
asynchronous-sampling delay monitor, and energy-per-conversion figure of merit.

Spectral tests enforce strict coherence (odd bin count over a power-of-two
record) and use a rectangular window, trading generality for exactness:
every reported number is reproducible bit-for-bit and the quantization-noise
theory cross-checks hold without leakage corrections.

Linearity is endpoint-referenced: the integral nonlinearity is forced to
zero at both extreme codes, and that reference is stated in the report.
"""

from __future__ import annotations

import numpy as np

from .core import N_SLICES
from .errors import CoherenceError, PreconditionError
from .pi import PI_CODES

ENOB_OFFSET_DB = 1.76
ENOB_SLOPE_DB = 6.02
# code-density floor: a histogram needs this many samples per code
MIN_HITS_PER_CODE = 100
# the monitor's sampler period is clock_period * 100003 / 99991: a ratio of
# large primes, so the sampling instants never lock to the monitored clock
SAMPLER_RATIO = (100003, 99991)


def _check_counts(histogram: np.ndarray, minimum: int) -> None:
    total = int(histogram.sum())
    if total < minimum:
        raise PreconditionError(
            f"histogram holds {total} samples, need at least {minimum}"
        )


def code_density_linearity(histogram: np.ndarray, stimulus: str) -> dict:
    """DNL/INL per interior code, in LSB, from a code-density histogram of a
    ramp or sine capture.

    The two end bins absorb the (required) slight over-range of a sine and
    the clip mass of a ramp, so they carry no width information; DNL is
    computed over the interior codes.  For a sine the observed cumulative
    density is mapped through the arcsine law first, which removes the
    stimulus distribution without needing an amplitude estimate (it cancels
    in the width normalization).  Returns the interior `codes`, `dnl`,
    `inl`, their maxima, the `missing_codes` and the INL `reference`.
    """
    hist = np.asarray(histogram, dtype=np.float64)
    if hist.ndim != 1 or hist.size < 8:
        raise ValueError("histogram must be a 1-D per-code array")
    if stimulus not in ("ramp", "sine"):
        raise ValueError(f"unknown stimulus {stimulus!r}")
    n_codes = hist.size
    _check_counts(hist, MIN_HITS_PER_CODE * n_codes)
    total = hist.sum()
    if stimulus == "sine":
        if hist[0] == 0 or hist[-1] == 0:
            raise PreconditionError(
                "sine histogram must slightly over-range both ends "
                "(no mass in an extreme bin)"
            )
        cum = np.cumsum(hist) / total
        # transition level ahead of code c, in units of the (unknown) amplitude
        transitions = -np.cos(np.pi * cum[:-1])
        widths = np.diff(transitions)
    else:
        widths = hist[1:-1].copy()
    interior = np.arange(1, n_codes - 1)
    mean_width = widths.mean()
    if mean_width <= 0:
        raise PreconditionError("histogram has no interior mass")
    dnl = widths / mean_width - 1.0
    inl = np.cumsum(dnl)
    # endpoint reference: INL is exactly 0 at both extreme codes
    inl -= np.linspace(inl[0], inl[-1], inl.size)
    missing = (interior[hist[interior] == 0]).tolist()
    return {
        "codes": interior,
        "dnl": dnl,
        "inl": inl,
        "dnl_max": float(np.max(np.abs(dnl))),
        "inl_max": float(np.max(np.abs(inl))),
        "missing_codes": missing,
        "reference": "endpoint",
    }


def coherent_bin(fin: float, fs: float, n_samples: int) -> int:
    """Validate coherence and return the tone bin.

    Requires fin = J/n_samples * fs with J odd (hence coprime to the
    power-of-two record length) and below Nyquist, 1 <= J < n_samples/2; on
    failure the nearest coherent frequency is suggested in the error message.
    """
    if n_samples < 2**12 or n_samples & (n_samples - 1):
        raise CoherenceError(f"n_samples must be a power of two >= 4096, got {n_samples}")
    j_exact = fin * n_samples / fs
    j = int(round(j_exact))
    nyquist = n_samples // 2
    if j < 1 or j >= nyquist or j % 2 == 0 or abs(j_exact - j) > 1e-9 * max(j, 1):
        # n_samples/2 - 1 is odd, the highest coherent bin
        j_near = min(max(1, j | 1), nyquist - 1)
        raise CoherenceError(
            f"fin={fin} Hz is not coherent with n={n_samples} at fs={fs} Hz "
            f"(J={j_exact:.6f} must be an odd integer in 1 <= J < {nyquist}); "
            f"nearest coherent fin = {j_near * fs / n_samples} Hz (J={j_near})"
        )
    return j


def sndr_enob(codes: np.ndarray, fs: float, fin: float) -> tuple[dict, list]:
    """SNDR/ENOB of a coherent sine capture (rectangular window).

    SNDR is fundamental power over everything else except DC; ENOB follows
    the (SNDR - 1.76)/6.02 relation by construction.  The spur list reports
    the interleaving families: tones at multiples of fs/N_SLICES and
    their images around the fundamental, as (bin, dBc) pairs by descending
    power.  Returns the metrics `sndr_db`, `enob`, `fundamental_bin` and
    `dominant_family_spur_dbc` (the first spur), and the spur list.
    """
    x = np.asarray(codes, dtype=np.float64)
    n = x.size
    j = coherent_bin(fin, fs, n)
    spectrum = np.fft.rfft(x)
    power = np.abs(spectrum) ** 2
    # one-sided: interior bins carry both halves
    power[1:-1] *= 2.0
    signal = power[j]
    noise = power[1:].sum() - signal
    if noise <= 0:
        raise PreconditionError("capture has no noise power; degenerate input")
    sndr = 10.0 * np.log10(signal / noise)
    # the offset tones k*step are even bins and j is odd: never an empty list
    spur_bins = set()
    step = n // N_SLICES
    for k in range(1, N_SLICES):
        for b in ((k * step) % n, (j + k * step) % n, (-j + k * step) % n):
            b = min(b, n - b)  # fold to the one-sided range
            if 0 < b <= n // 2 and b != j:
                spur_bins.add(int(b))
    floor = signal * 1e-30  # -300 dBc floor for empty bins
    spurs = sorted(
        ((b, 10.0 * np.log10(max(power[b], floor) / signal)) for b in spur_bins),
        key=lambda item: item[1],
        reverse=True,
    )
    spur_list = [(int(b), float(db)) for b, db in spurs]
    metrics = {
        "sndr_db": float(sndr),
        "enob": float((sndr - ENOB_OFFSET_DB) / ENOB_SLOPE_DB),
        "fundamental_bin": j,
        "dominant_family_spur_dbc": spur_list[0][1],
    }
    return metrics, spur_list


def measure_edge_distance(
    phase: float, clock_period: float, n_samples: int, sampler_phase0: float
) -> float:
    """Folded distance of an edge at `phase` from the clock edge at 0, by
    asynchronous sampling, in [0, period/2].

    Both signals are 50%-duty squares at the monitored clock rate with
    rising edges at their respective phases; the sampler starts at
    `sampler_phase0` with the period SAMPLER_RATIO sets.  The mean of their
    sampled XOR is 2*w/period where w is the phase distance folded at half a
    period; the sign of a distance is not observable from level statistics
    alone, which is why the transfer measurement unwraps a swept sequence
    instead.
    """
    numerator, denominator = SAMPLER_RATIO
    t = sampler_phase0 + np.arange(n_samples) * (clock_period * numerator / denominator)
    level_ref = np.mod(t, clock_period) < clock_period / 2.0
    level = np.mod(t - phase, clock_period) < clock_period / 2.0
    xor_fraction = np.mean(level_ref ^ level)
    return float(xor_fraction * clock_period / 2.0)


def unwrap_distances(
    folded: np.ndarray, clock_period: float, anchor: float, step_hint: float
) -> np.ndarray:
    """Reconstruct a smoothly swept phase sequence from folded distances.

    A folded distance w admits the phases {k*period +/- w}; each code picks
    the candidate closest to the prediction (previous estimate plus the
    nominal per-code step), starting from the design's nominal first phase.
    The prediction term is what keeps the reconstruction honest where the
    sweep crosses a fold point (w near 0 or period/2).  Valid while true
    adjacent steps stay below period/4, which a 256-step interpolator
    satisfies by an order of magnitude.
    """
    folded = np.asarray(folded, dtype=np.float64)
    out = np.empty(folded.size)
    prev = anchor - step_hint
    for i, w in enumerate(folded):
        predict = prev + step_hint
        base = np.floor(predict / clock_period) * clock_period
        candidates = base + np.array(
            [-clock_period + w, -w, w, clock_period - w, clock_period + w,
             2 * clock_period - w]
        )
        out[i] = candidates[np.argmin(np.abs(candidates - predict))]
        prev = out[i]
    return out


def measure_pi_transfer_uncorrelated(
    phases: np.ndarray,
    clock_period: float,
    n_samples: int,
    sampler_phase0: float,
    anchor: float,
) -> np.ndarray:
    """Per-code phase estimates of a swept interpolator, via the monitor.

    Each code's output is measured against the input clock edge; the folded
    distances are unwrapped along the sweep starting from ``anchor`` (the
    nominal first-code phase).  Differencing adjacent codes yields per-step
    delay estimates that converge to the true simulated steps as n_samples
    grows.
    """
    phases = np.asarray(phases, dtype=np.float64)
    if n_samples < 10**5:
        raise PreconditionError(
            f"transfer measurement needs >= 1e5 samples per code, got {n_samples}"
        )
    folded = np.empty(phases.size)
    for i, ph in enumerate(phases):
        folded[i] = measure_edge_distance(ph, clock_period, n_samples, sampler_phase0)
    step_hint = clock_period / PI_CODES if phases.size > 1 else 0.0
    return unwrap_distances(folded, clock_period, anchor, step_hint)


def walden_fom(power: float, enob: float, rate: float) -> float:
    """Energy per conversion step: power / (2^enob * rate), joules."""
    if power <= 0 or rate <= 0:
        raise ValueError("power and rate must be > 0")
    return power / (2.0**enob * rate)
