"""Link-level simulator and analysis toolkit for ambient backscatter
receivers with and without a low-noise amplifier."""

__version__ = "0.1.0"

from .analysis import (
    HypothesisMoments,
    ber_closed_form,
    deflection_lna_approx,
    deflection_lna_full,
    deflection_no_lna,
    hypothesis_moments,
    lna_moments,
    near_optimal_threshold,
    nolna_moments,
    q_function,
)
from .channel import ChannelRealization, bdpr, channel_table, draw_channels
from .config import (
    LNA,
    NO_LNA,
    PAPER_DEFAULTS,
    SystemParams,
    dbm_to_watts,
    load_scenario,
    read_scenario,
    watts_to_dbm,
)
from .errors import (
    AmbclinkError,
    ConfigError,
    EstimationError,
    ModelValidityError,
    NoSeparationError,
    UndefinedRatioError,
)
from .estimation import pilot_bits, pilot_statistics, relative_threshold_error
from .frontend import draw_energies, generate_frame
from .montecarlo import (
    BerPoint,
    BlockResult,
    SweepSpec,
    ber_block,
    detect,
    run_pilot_sweep,
    run_sweep,
)

__all__ = [
    "AmbclinkError",
    "BerPoint",
    "BlockResult",
    "ChannelRealization",
    "ConfigError",
    "EstimationError",
    "HypothesisMoments",
    "ModelValidityError",
    "NoSeparationError",
    "UndefinedRatioError",
    "LNA",
    "NO_LNA",
    "PAPER_DEFAULTS",
    "SweepSpec",
    "SystemParams",
    "bdpr",
    "ber_block",
    "ber_closed_form",
    "channel_table",
    "dbm_to_watts",
    "deflection_lna_approx",
    "deflection_lna_full",
    "deflection_no_lna",
    "detect",
    "draw_channels",
    "draw_energies",
    "generate_frame",
    "hypothesis_moments",
    "lna_moments",
    "load_scenario",
    "near_optimal_threshold",
    "nolna_moments",
    "pilot_bits",
    "pilot_statistics",
    "q_function",
    "read_scenario",
    "relative_threshold_error",
    "run_pilot_sweep",
    "run_sweep",
    "watts_to_dbm",
]
