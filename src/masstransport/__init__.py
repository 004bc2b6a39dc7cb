"""Mass transport on stationary walks: records, ladder epochs, identities.

The package verifies, on concrete processes, the bookkeeping behind a
transport argument: every site of a stationary walk ships its positive
increment to the records after it, stationarity forces the shipped and
received expectations E[M(0, n)] and E[M(-n, 0)] to match, and from that
follow the maximal ergodic inequality, positive survival probability for
positive-mean walks, and the convergence of S_n / n.

Finite-support processes with rational data are checked in exact
arithmetic; everything else is estimated by seeded, reproducible Monte
Carlo.
"""

from .errors import (
    ExplosionCap,
    InvalidSpec,
    MassTransportError,
    NoStationaryDistribution,
    UnsupportedProcess,
)
from .processes import (
    DEFAULT_ATOM_CAP,
    ExactDistribution,
    IidDiscrete,
    IidGaussian,
    MarkovChain,
    Mixture,
    MovingAverage,
    PathWindow,
    Process,
    Rotation,
    exact_window_distribution,
    make_process,
    negate_spec,
    sample_window,
    stationary_distribution,
)
from .transport import (
    DEFAULT_TOLERANCE,
    close,
    first_nonpositive,
    ladder_epochs_before_zero,
    mass_received_at_zero,
    mass_row,
    received_mass_terms,
    records_after,
    sent_mass_terms,
    total_sent,
)
from .verify import (
    EstimateCI,
    agreement_pass,
    ci_overlap,
    exact_identity,
    exact_maximal_ergodic,
    exact_survival,
    mc_identity,
    mc_maximal_ergodic,
    mc_survival,
    sign_pass,
    survival_truncation_bound,
)
from .ergodic import (
    DipReport,
    TrajectoryReport,
    TrajectoryRow,
    average_grid,
    estimate_dip_probability,
    trajectory,
    trajectory_batch,
)
from .specio import format_spec, parse_spec_file, parse_spec_text, spec_from_jsonable, spec_to_jsonable

__version__ = "0.1.0"

__all__ = [
    "MassTransportError",
    "InvalidSpec",
    "NoStationaryDistribution",
    "UnsupportedProcess",
    "ExplosionCap",
    "IidDiscrete",
    "IidGaussian",
    "MarkovChain",
    "MovingAverage",
    "Rotation",
    "Mixture",
    "PathWindow",
    "ExactDistribution",
    "Process",
    "make_process",
    "sample_window",
    "exact_window_distribution",
    "stationary_distribution",
    "negate_spec",
    "DEFAULT_ATOM_CAP",
    "DEFAULT_TOLERANCE",
    "received_mass_terms",
    "records_after",
    "sent_mass_terms",
    "mass_row",
    "total_sent",
    "ladder_epochs_before_zero",
    "mass_received_at_zero",
    "close",
    "first_nonpositive",
    "EstimateCI",
    "agreement_pass",
    "ci_overlap",
    "exact_identity",
    "mc_identity",
    "exact_maximal_ergodic",
    "mc_maximal_ergodic",
    "exact_survival",
    "mc_survival",
    "sign_pass",
    "survival_truncation_bound",
    "TrajectoryRow",
    "TrajectoryReport",
    "DipReport",
    "average_grid",
    "trajectory",
    "trajectory_batch",
    "estimate_dip_probability",
    "parse_spec_file",
    "parse_spec_text",
    "spec_from_jsonable",
    "spec_to_jsonable",
    "format_spec",
]
