"""Robust weighted-LMMSE transceiver design for dual-hop AF MIMO relays.

Closed-form spectral design of source precoder, relay forward matrix and
destination equalizer under Gaussian channel-estimation errors, exact
weighted-MSE evaluation, independent Monte-Carlo / brute-force oracles,
and a reproducible link-level experiment harness.
"""

from .channel import (
    ChannelKnowledge,
    ErrorStats,
    HopTraining,
    TrueChannelDraw,
    error_stats_first_hop,
    error_stats_second_hop,
    estimation_stats,
    exact_knowledge,
    exp_corr,
    sample_scenario,
    sample_scenario_stack,
)
from .design import (
    AllocationState,
    ContractError,
    ConvergenceError,
    DesignBatch,
    DesignError,
    DesignOptions,
    InfeasibleAllocationError,
    NumericalError,
    SpectralData,
    TransceiverSolution,
    alternate,
    design,
    design_batch,
    solve_eta_p,
    spectral_decompose,
    waterfill,
    weight_eigensystem,
)
from .linalg import (
    NotHermitianError,
    NotPSDError,
    OrderedHermitianEig,
    OrderedSVD,
    eig_hermitian_ordered,
    herm_sqrt,
    svd_ordered,
)
from .mse import (
    SecondOrderStats,
    SystemConfig,
    Transceiver,
    mse_matrix,
    optimal_equalizer,
    residual_weighted_mse,
    second_order_stats,
    tilde_maps,
    weighted_mse,
)
from .sim import ExperimentRecord, ExperimentSpec, emit_csv, run_experiment
from .validate import (
    BruteForceResult,
    McEstimate,
    brute_force_design,
    empirical_mse_matrix,
    empirical_weighted_mse,
    gradient_check_scalar_objective,
)

__version__ = "0.1.0"
