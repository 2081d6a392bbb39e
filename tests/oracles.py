"""Reference models that only the tests use.

The sampling-phase generator gives one conversion cycle's four V2T phases.
The capture path works from the sampling instants alone, so the package
has no caller for it.
"""

from __future__ import annotations

from dataclasses import dataclass

from stochadc.core import Duration, Instant


@dataclass(frozen=True)
class PhaseTiming:
    """Offsets defining one cycle's sampling phases.

    track:  cycle start to end of tracking (= sampling instant phi1)
    early:  how much earlier the bottom-plate phase phi1e opens
    gap:    phi1 to discharge start phi2 (0 = discharge starts immediately)
    late:   phi2 to the late settling phase phi2l
    """

    track: Duration
    early: Duration
    late: Duration
    gap: Duration = 0.0

    def __post_init__(self):
        if self.early <= 0:
            raise ValueError("early offset must be > 0 (phi1e strictly before phi1)")
        if self.late <= 0:
            raise ValueError("late offset must be > 0 (phi2l strictly after phi2)")
        if self.gap < 0:
            raise ValueError("gap must be >= 0")
        if self.track <= self.early:
            raise ValueError("track must exceed the early offset")


@dataclass(frozen=True)
class PhaseSet:
    """The four instants of one conversion cycle."""

    phi1e: Instant
    phi1: Instant
    phi2: Instant
    phi2l: Instant

    def __post_init__(self):
        if not (self.phi1e < self.phi1 <= self.phi2 < self.phi2l):
            raise ValueError(
                f"phase ordering violated: {self.phi1e} < {self.phi1} "
                f"<= {self.phi2} < {self.phi2l} required"
            )


def gen_sampling_phases(cycle_start: Instant, timing: PhaseTiming) -> PhaseSet:
    """Four phase instants for the conversion cycle starting at cycle_start."""
    phi1 = cycle_start + timing.track
    phi2 = phi1 + timing.gap
    return PhaseSet(
        phi1e=phi1 - timing.early,
        phi1=phi1,
        phi2=phi2,
        phi2l=phi2 + timing.late,
    )
