"""Voltage-to-time converter pair and phase folder.

One conversion cycle: the input is sampled at phi1 (bottom plate opens
slightly earlier at phi1e), the held voltage is discharged at a constant rate
from phi2, and a buffer fires when the ramp crosses its threshold.  The edge
time is therefore affine in the sampled voltage.  Two converters encode a
differential input as the time difference of their output edges; the folder
turns that signed difference into (sign bit, unsigned pulse width) with a
configured minimum width.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Duration, Instant, MismatchModel
from .errors import OverrangeError, UnderrangeError

# Tolerance for range checks at the exact threshold/supply boundary, volts.
# Keeps full-scale stimuli from tripping on float dust.
_V_EPS = 1e-12


@dataclass(frozen=True)
class PulseSample:
    """Folded time-domain encoding of one conversion."""

    sign: bool
    width: Duration

    def __post_init__(self):
        if self.width < 0:
            raise ValueError("pulse width must be >= 0")


@dataclass(frozen=True)
class V2TConfig:
    """Discharge-ramp converter parameters.

    ``c_sample`` is informational; the discharge slope is the operative
    parameter.  ``t_phi2`` is the discharge start used by the single-shot
    edge-time operation (capture paths supply per-cycle values).
    """

    vdd: float
    v_threshold: float
    discharge_slope: float  # volts/second
    slope_mismatch: MismatchModel
    threshold_mismatch: MismatchModel
    c_sample: float = 50e-15
    t_phi2: Instant = 0.0

    def __post_init__(self):
        if not (0 < self.v_threshold < self.vdd / 2):
            raise ValueError(
                f"v_threshold must lie in (0, vdd/2), got {self.v_threshold}"
            )
        if self.discharge_slope <= 0:
            raise ValueError("discharge_slope must be > 0")

    def instance_params(self, instance: int) -> tuple[float, float]:
        """(slope, threshold) for one converter instance, mismatch applied."""
        slope = float(self.slope_mismatch.sample_at(instance))
        v_th = float(self.threshold_mismatch.sample_at(instance))
        return slope, v_th


def ideal_mismatch(nominal: float) -> MismatchModel:
    return MismatchModel(nominal=nominal, sigma_rel=0.0)


def v2t_edge_time(
    v_sampled: float,
    cfg: V2TConfig,
    instance: int = 0,
    t_phi2: Instant | None = None,
) -> Instant:
    """Time at which this instance's buffer fires for a sampled voltage.

    Affine and strictly increasing in v_sampled.  A voltage below the
    instance's threshold would make the real circuit fire immediately; that
    is surfaced as an error instead of being clipped, so bad stimulus
    configurations fail loudly rather than corrupting linearity tests.
    """
    slope, v_th = cfg.instance_params(instance)
    if v_sampled < v_th - _V_EPS:
        raise UnderrangeError(
            f"input underrange: {v_sampled} V below threshold {v_th} V"
        )
    if v_sampled > cfg.vdd + _V_EPS:
        raise OverrangeError(f"input overrange: {v_sampled} V above {cfg.vdd} V")
    start = cfg.t_phi2 if t_phi2 is None else t_phi2
    return start + max(v_sampled - v_th, 0.0) / slope


def v2t_pair(
    v_p: float,
    v_n: float,
    cfg: V2TConfig,
    instances: tuple[int, int] = (0, 1),
    t_phi2: Instant | None = None,
) -> tuple[Instant, Instant]:
    """Edge times (t_inp, t_inn) of the converter pair."""
    t_inp = v2t_edge_time(v_p, cfg, instances[0], t_phi2)
    t_inn = v2t_edge_time(v_n, cfg, instances[1], t_phi2)
    return t_inp, t_inn


def fold(t_inp: Instant, t_inn: Instant, d_offset: Duration) -> PulseSample:
    """Fold a signed time difference into a sign bit and unsigned width.

    sign is true when t_inp arrives first; an exact tie folds to sign=false
    (any fixed choice works, the offset adaptation absorbs a half-LSB).
    """
    if d_offset <= 0:
        raise ValueError("d_offset must be > 0")
    return PulseSample(sign=t_inp < t_inn, width=abs(t_inp - t_inn) + d_offset)
