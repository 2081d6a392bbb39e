"""A fixed CPU kernel that measures how fast the host runs right now.

On a shared host the same repetition can take from 1x to 2x its fastest
time, in phases that last from under a second to minutes, because other
tenants load the CPU.  child.py times this kernel right before and right
after the workload's calls, and run.py divides each repetition's host time
by it, so a phase of slow host shows in both and cancels.

The kernel imports nothing from stochadc, so a change to the program never
changes it.  Its mix follows the program's kinds of work, in about equal
shares of time: numpy element-wise arithmetic, a cumulative sum, a sorted
search, a sort and an FFT on arrays of 2^14 to 2^16 elements, after a short
interpreter loop; CSV rows formatted from numpy scalars, as the
experiments' writers do; and small frozen dataclasses, function calls and
numpy scalar arithmetic in a per-code loop, as the PI sweep does.  Each kind
alone tracked the host's slow phases less well than the mix.
"""

import csv
import io
import time
from dataclasses import dataclass

import numpy as np

_RNG = np.random.default_rng(20090907)
_X = _RNG.standard_normal(1 << 16)
_KEYS = np.sort(_RNG.uniform(0.0, 1.0, 4096))
_TAPS = np.cumsum(_RNG.uniform(0.5, 1.5, 20))
_ROWS = 5000
_CODES = 256


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


@dataclass(frozen=True)
class _Select:
    start: int
    end: int
    weight: int


def _select(code: int) -> _Select:
    scaled = code * 16
    segment = scaled // _CODES
    if segment % 2 == 0:
        return _Select(segment + 1, segment + 2, (scaled % _CODES) // 16)
    return _Select(segment + 2, segment + 1, (scaled % _CODES) // 16)


def _blend(t_a, t_b, k: int):
    if k == 0:
        return t_a
    return t_a + (k / 16) * (t_b - t_a)


def kernel() -> int:
    acc = 0
    for i in range(100_000):
        acc += (i * 7) % 13
    for _ in range(3):
        y = np.cumsum(_X * 0.5 + 1.0)
        idx = np.searchsorted(_KEYS, np.abs(np.sin(_X)))
        acc += int(idx[-1]) + int(np.sort(_X[: 1 << 14])[0] > 0) + int(y[-1] > 0)
    acc += int(abs(np.fft.rfft(_X)[1]) > 0)
    k = np.arange(_ROWS)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in zip(k, k % 16, _X[:_ROWS], k * 3, _X[_ROWS:]):
        writer.writerow([_fmt(v) for v in row])
    acc += len(buf.getvalue())
    phases = np.empty(_CODES)
    for _ in range(80):
        for code in range(_CODES):
            sel = _select(code)
            phases[code] = _blend(_TAPS[sel.start - 1], _TAPS[sel.end - 1], sel.weight)
    return acc + int(phases[-1] > 0)


def timed(times: int = 2) -> float:
    """Fastest of `times` host-second timings of the kernel."""
    best = float("inf")
    for _ in range(times):
        start = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - start)
    return best
