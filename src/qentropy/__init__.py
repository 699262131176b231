"""Simulated quantum estimation of Shannon and von Neumann entropy to
multiplicative precision, with query accounting and classical baselines."""

from .dists import (
    DensityMatrix,
    Distribution,
    SeparationReport,
    SplitReport,
    ValidationError,
    gen_collision_pair,
    gen_lower_bound_pair,
    gen_near_deterministic_pair,
    gen_two_point_vs_spread_pair,
    hellinger,
    lightweight_bounds,
    restricted_entropy,
    shannon_entropy,
    split_heavy_light,
    von_neumann_entropy,
    weight,
)
from .logapprox import (
    CertReport,
    TaylorPolynomial,
    certify,
    choose_exponent,
    f_power_log,
    taylor_poly_neg,
    taylor_poly_pos,
)
from .encodings import (
    FrequencyVector,
    ProjectedUnitaryEncoding,
    PurifiedOracle,
    block_encoding_density_swap,
    build_frequency_oracle,
    build_purified_oracle_classical,
    build_purified_oracle_quantum,
    projected_encoding_classical,
    projected_encoding_quantum,
    spectral_encoding_classical,
    spectral_encoding_quantum,
    swap_encoding_dense_unitary,
    verify_encoding,
)
from .qsub import (
    M_for_precision,
    boost_median,
    qae,
    qae_error_bound,
    qae_outcome_distribution,
    qsve,
    qsvt_apply,
    round_to_grid,
    sve_heavy,
)
from .estimator import (
    DerivedParams,
    EstimateReport,
    EstimationPlan,
    EstimatorParams,
    ThresholdReport,
    check_guarantee,
    derive_params,
    entropy_threshold_test,
    estimate_additive,
    estimate_entropy,
    heavy_entropy,
    lightweight,
    plan_additive,
    plan_estimate,
    plan_threshold,
    promise_threshold,
    query_ledger,
    total_query_bound,
)
from .bench import (
    BaselineReport,
    SweepResult,
    classical_baseline,
    high_entropy_distribution,
    lower_bound_demo,
    query_scaling_sweep,
    random_distribution,
)

__version__ = "0.1.0"
