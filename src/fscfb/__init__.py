"""Unifilar finite-state channels with feedback.

Exact directed-information computations, finite-horizon feedback-capacity
estimation over causal input policies, the channel constructions behind
the capacity discontinuity, and the step-bounded-oracle scaffolding for
effective double sequences.
"""

from .capacity import (
    CapacityEstimate,
    CausalPolicy,
    DmcCapacityResult,
    FiniteNBracket,
    OptimizerSettings,
    dmc_capacity,
    evaluate_rate,
    finite_n_bracket,
    iid_rate,
    optimize_rate,
    z_channel_closed_form,
)
from .channels import (
    ConnectivityReport,
    FiniteStateChannel,
    StateBeliefTable,
    UnifilarChannel,
    compose_unifilar,
    indecomposability_gap,
    indecomposability_gaps,
    n_fold_law,
    state_marginal,
    strongly_connected,
    tv_distance,
)
from .channel_io import LoadedChannel, dumps_channel, load_channel, loads_channel, save_channel
from .errors import (
    ContractViolationError,
    DomainError,
    FscError,
    OracleError,
    ResourceLimitError,
    ShapeError,
    ValidationError,
)
from .gallery import (
    GalleryChannel,
    extend_alphabets,
    extend_states,
    inverse_k_pair,
    mixing_pair,
    noiseless_z_pair,
    state_noise,
)
from .info import (
    CausalKernel,
    JointLaw,
    MemorylessBoundReport,
    binary_entropy,
    causal_product,
    directed_information,
    memoryless_bound_check,
)
from .reduction import (
    CounterMachineOracle,
    FixedHaltingOracle,
    NeverHaltingOracle,
    StopperOutcome,
    capacity_gap,
    effective_certificate,
    lambda_double_sequence,
    lambda_sequence,
    parse_program,
    run_bounded,
    threshold_stopper,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
