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

The names imported here are the public API, the ones README's Library
section uses; everything else is imported from its module.
"""

from .errors import (
    ExplosionCap,
    InvalidSpec,
    MassTransportError,
    NoStationaryDistribution,
    UnsupportedProcess,
)
from .processes import (
    IidDiscrete,
    IidGaussian,
    MarkovChain,
    Mixture,
    MovingAverage,
    PathWindow,
    Rotation,
    make_process,
    sample_window,
)
from .transport import ladder_epochs_before_zero, mass_received_at_zero, mass_row, records_after
from .verify import (
    EstimateCI,
    exact_identity,
    exact_maximal_ergodic,
    exact_survival,
    mc_identity,
    mc_maximal_ergodic,
    mc_survival,
)
from .ergodic import TrajectoryReport, TrajectoryRow, estimate_dip_probability, trajectory_batch
from .specio import parse_spec_file

__version__ = "0.1.0"
