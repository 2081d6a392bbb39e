"""Differential sine test tones evaluated at arbitrary sampling instants.

A stimulus maps an array of instants to (v_p, v_n).  The optional front-end
bandwidth models the passive track-and-hold (and any input network) as one
or two cascaded first-order low-pass sections; for a sine that is an exact
amplitude/phase factor, so it is applied analytically.
"""

from __future__ import annotations

import math

import numpy as np

from .core import Record


class SineStimulus(Record):
    """Differential sine: v_p - v_n = amplitude * sin(2*pi*f*t + phase)."""

    frequency: float
    amplitude: float  # differential peak, volts
    common_mode: float
    phase: float = 0.0
    bandwidth: float | None = None
    filter_stages: int = 1

    def __call__(
        self, t: np.ndarray, half_swing: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """(v_p, v_n) at the instants t; `half_swing` is `self.half_swing(t)`
        when the caller already holds it."""
        h = self.half_swing(t) if half_swing is None else half_swing
        return self.common_mode + h, self.common_mode - h

    def half_swing(self, t: np.ndarray) -> np.ndarray:
        """(v_p - v_n) / 2 at the instants t, after the front end."""
        amp, ph = self.amplitude, self.phase
        if self.bandwidth is not None:
            ratio = self.frequency / self.bandwidth
            amp = amp / (1.0 + ratio**2) ** (self.filter_stages / 2.0)
            # libm's scalar arctan: numpy's differs in the last bit on some
            # arguments under AVX-512 dispatch, so a capture would depend on the host
            ph = ph - self.filter_stages * math.atan(ratio)
        return amp * np.sin(2.0 * np.pi * self.frequency * np.asarray(t) + ph) / 2.0

