"""Exception hierarchy shared by all blocks and the experiment runner."""


class SimError(Exception):
    """Base class for all simulator errors."""


class ConfigError(SimError):
    """Malformed or inconsistent run configuration."""


class PreconditionError(SimError):
    """A stimulus / measurement precondition was violated."""


class UnderrangeError(PreconditionError):
    """Sampled voltage below the (mismatched) comparator threshold."""


class OverrangeError(PreconditionError):
    """Sampled voltage above the supply."""


class CoherenceError(PreconditionError):
    """Test tone is not coherent with the capture length."""


class ChainUnderspanError(PreconditionError):
    """Delay chain does not span one clock period."""


class CoverageError(PreconditionError):
    """Calibration capture left codes undersampled."""

    def __init__(self, codes, threshold):
        self.codes = list(codes)
        self.threshold = threshold
        super().__init__(
            f"insufficient calibration coverage (<{threshold} hits) "
            f"for codes {self.codes}"
        )


class TrimConvergenceError(SimError):
    """Path trimming still detects inversions at the iteration limit."""
