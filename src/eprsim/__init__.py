"""Two-station EPR-B experiment simulator with coincidence-window post-selection.

A local hidden-variable Monte Carlo in which detection *delays* depend on
the hidden polarization, so that time-window coincidence selection
post-selects a setting-dependent ensemble.  With delay exponent d = 4 and
a window much smaller than the delay timescale the selected statistics
approach the quantum singlet correlations and violate the CHSH bound;
with d = 0 or a wide window the model stays within the Bell-satisfying
mixed-state correlations.  An independent numerical oracle evaluates the
model's exact predictions for cross-validation of the Monte Carlo.
"""

__version__ = "0.1.0"

from .errors import EprSimError, QuadratureError, TagFormatError, ValidationError
from .model import ModelParams, Setting, delay_timescale, normalize_angle, outcome_prob
from .events import (
    EmissionSpec,
    EventLog,
    ExperimentConfig,
    StationStream,
    run_experiment,
)
from .coincidence import (
    Coincidences,
    MatchPolicy,
    match_events,
    pair_filter,
    stream_match,
)
from .analysis import (
    DEFAULT_QUADRUPLE,
    ChshResult,
    CorrelationTable,
    SweepResult,
    chsh,
    chsh_combination,
    tabulate,
    window_sweep,
)
from .oracle import (
    QuadratureSpec,
    chsh_exact,
    coincidence_rate_exact,
    correlation_curve,
    correlation_exact,
    joint_prob,
    mixed_correlation,
    singlet_correlation,
    weight_exact,
)
from .tagio import RunManifest, read_tags, write_tags

__all__ = [
    "__version__",
    "EprSimError", "QuadratureError", "TagFormatError", "ValidationError",
    "ModelParams", "Setting", "normalize_angle", "outcome_prob", "delay_timescale",
    "EmissionSpec", "ExperimentConfig", "StationStream", "EventLog", "run_experiment",
    "Coincidences", "MatchPolicy",
    "pair_filter", "stream_match", "match_events",
    "DEFAULT_QUADRUPLE", "CorrelationTable", "ChshResult", "SweepResult",
    "tabulate", "chsh", "chsh_combination", "window_sweep",
    "QuadratureSpec", "weight_exact",
    "joint_prob", "correlation_exact", "correlation_curve", "coincidence_rate_exact",
    "chsh_exact", "singlet_correlation", "mixed_correlation",
    "RunManifest", "read_tags", "write_tags",
]
