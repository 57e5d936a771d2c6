"""Unifilar finite-state channels with feedback.

Finite-horizon feedback-capacity brackets and directed-information rates
on the (s_n, y^n) lattice, the channel constructions behind the capacity
discontinuity, and the step-bounded-oracle scaffolding for effective
double sequences.
"""

from .capacity import (
    CapacityEstimate,
    OptimizerSettings,
    binary_entropy,
    dmc_capacity,
    iid_rate,
    optimize_rate,
    z_channel_closed_form,
)
from .channels import (
    ConnectivityReport,
    FiniteStateChannel,
    UnifilarChannel,
    compose_unifilar,
    indecomposability_gaps,
    strongly_connected,
    tv_distance,
)
from .channel_io import LoadedChannel, dumps_channel, load_channel, loads_channel
from .errors import (
    DomainError,
    FscError,
    OracleError,
    ResourceLimitError,
    ShapeError,
    ValidationError,
)
from .gallery import (
    extend_alphabets,
    extend_states,
    inverse_k_pair,
    mixing_pair,
    noiseless_z_pair,
)
from .reduction import (
    CounterMachineOracle,
    FixedHaltingOracle,
    effective_certificate,
    lambda_double_sequence,
    lambda_sequence,
    parse_program,
    run_bounded,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
