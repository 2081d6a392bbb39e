"""Behavioral event-timestamp simulator of a 16-channel time-interleaved
ADC built from voltage-to-time converters and stochastic time-to-digital
conversion, together with its digital phase interpolator, device-mismatch
Monte Carlo, and the measurement methodology (DNL/INL, SNDR/ENOB, PI
transfer, energy figure of merit) used to characterize it.
"""

from .core import ClockSpec, derive_seed, mismatch_scale
from .errors import (
    ChainUnderspanError,
    CoherenceError,
    ConfigError,
    CorrelatedSamplerError,
    CoverageError,
    OverrangeError,
    PreconditionError,
    SimError,
    TrimConvergenceError,
    UnderrangeError,
)
from .stdc import InverterChain, OffsetEstimate, adapt_offset
from .pi import (
    DelayChain,
    make_pi_chain,
    pi_output,
    pi_sweep,
    trim_paths,
)
from .interleaver import (
    AdcSystem,
    AlignedStream,
    Lut,
    align_outputs,
    build_lut,
    calibrate_skew,
    run_capture,
    schedule_sampling,
)
from .metrics import (
    LinearityReport,
    SpectrumReport,
    code_density_linearity,
    measure_pi_transfer_uncorrelated,
    sndr_enob,
    walden_fom,
)
from .config import RunConfig, config_hash, dump_config, load_config, parse_config
from .experiments import CalibrationState, run_experiment

__version__ = "0.1.0"
