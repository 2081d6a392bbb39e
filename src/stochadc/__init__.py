"""Behavioral event-timestamp simulator of a 16-channel time-interleaved
ADC built from voltage-to-time converters and stochastic time-to-digital
conversion, together with its digital phase interpolator, device-mismatch
Monte Carlo, and the measurement methodology (DNL/INL, SNDR/ENOB, PI
transfer, energy figure of merit) used to characterize it.
"""

from .core import ClockSpec, MismatchModel, clock_edges, derive_seed, sample_mismatch
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
from .v2t import PulseSample, V2TConfig, fold, v2t_edge_time, v2t_pair
from .stdc import (
    AdcCode,
    InverterChain,
    OffsetEstimate,
    adapt_offset,
    adder_tree_sum,
    count_edges_in_pulse,
    make_chain,
    stdc_convert,
    tap_edge_times,
    unfold,
)
from .pi import (
    DelayChain,
    PeriodQuantization,
    TrimState,
    apply_boundary_mixers,
    arbitrate_period,
    blend,
    detect_blender_inversion,
    encode,
    make_pi_chain,
    pi_output,
    pi_sweep,
    propagate_chain,
    trim_paths,
)
from .interleaver import (
    AdcSystem,
    AlignedStream,
    CalibrationState,
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
from .experiments import run_experiment

__version__ = "0.1.0"
