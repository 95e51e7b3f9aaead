"""Constructive approximation with absolute-value-activation networks."""

from .network import (
    ABS,
    ACTIVATIONS,
    IDENTITY,
    RELU,
    Activation,
    ActivationMismatchError,
    BlockDiagonal,
    Network,
    NetworkError,
    ShapeMismatchError,
    compose,
    evaluate,
    general_activation,
    network_from_dict,
    network_from_json,
    network_stats,
    network_to_dict,
    network_to_json,
    parallel,
    path_matrix,
    path_norm,
    with_ones,
)
from .constructions import (
    MultVariant,
    LITERAL,
    RESCALED,
    build_mon,
    build_mult,
    build_multr,
    build_sq,
    count_monomials,
    enumerate_multi_indices,
    mon_depth_bound,
    mon_error_bound,
    mon_width_bound,
    mult_error_bound,
    multr_error_bound,
    sq_error_bound,
)
from .chebyshev import (
    ChebyshevSeries,
    MonomialPolynomial,
    cheb_fit,
    cheb_poly_coeffs,
    cheb_to_monomial,
)
from .approximators import (
    AnalyticTarget,
    MissingCoefficientError,
    build_cheb_net,
    build_power_series_net,
    builtin_target,
    target_exp_sum,
    target_inv_two_minus_x,
    target_runge,
)
from .entropy import (
    CoverResult,
    EntropyBoundSpec,
    SamplerViolation,
    empirical_covering,
    empirical_vs_bound,
    network_bound,
    sample_network,
)
from .regression import (
    Dataset,
    FitReport,
    OracleTerms,
    RegressionConfig,
    fit,
    generate_data,
    lambda_auto,
    oracle_rhs,
    path_norm_grads,
)
from .verify import VerificationReport, sup_error, verify_mon, verify_mult, verify_multr, verify_sq

__version__ = "0.1.0"
