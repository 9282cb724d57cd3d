"""Certified safety stock for correlated commodity demand.

The package sizes lead-time safety stock so that the joint stockout rate —
every commodity's lead-time demand exceeding its reorder margin — is provably
at most a chosen ``delta``.  The certificate is a Chernoff bound built from
the demand's cumulant generating function.  Gaussian demand of any dimension
is sized by one solve of its exponent, which reproduces the paper's closed
forms (a sequential rate split is sized in closed form and certified by one
evaluated exponent); it also gets exact tail oracles and the policy
comparison experiments.
"""

from .cgf import (
    CgfDomainError,
    CgfEvaluator,
    EstimationCertificate,
    empirical_cgf,
    empirical_cgf_estimate,
    estimation_certificate,
    gaussian_cgf,
    weibull_cgf,
    weibull_log_mgf,
)
from .demand import (
    DemandDataError,
    EmpiricalDemand,
    GaussianModel,
    WeibullModel,
    covariance_factor,
    load_demand_csv,
    model_from_dict,
    validate_delta,
    validate_lead_time,
)
from .events import ALL_EXCEED, FUNGIBLE, ORTHANT, PATTERNS, UNION
from .oracle import (
    OracleResult,
    TailQuery,
    bivariate_joint_tail,
    invert_joint_tail,
    joint_tail_monte_carlo,
    normal_upper_tail,
    normal_upper_tail_inverse,
)
from .policy import (
    PolicyOutput,
    ProposedStock,
    compare_policies,
    ss_fungible,
    ss_previous,
    ss_proposed,
    ss_rigorous,
)
from .rates import (
    RateResult,
    UnreachableRateError,
    chernoff_bound,
    invert_rate,
    rate_numeric,
)

__version__ = "0.1.0"

__all__ = [
    "ALL_EXCEED",
    "FUNGIBLE",
    "ORTHANT",
    "PATTERNS",
    "UNION",
    "CgfDomainError",
    "CgfEvaluator",
    "DemandDataError",
    "EmpiricalDemand",
    "EstimationCertificate",
    "GaussianModel",
    "OracleResult",
    "PolicyOutput",
    "ProposedStock",
    "RateResult",
    "TailQuery",
    "UnreachableRateError",
    "WeibullModel",
    "bivariate_joint_tail",
    "chernoff_bound",
    "compare_policies",
    "covariance_factor",
    "empirical_cgf",
    "empirical_cgf_estimate",
    "estimation_certificate",
    "gaussian_cgf",
    "invert_joint_tail",
    "invert_rate",
    "joint_tail_monte_carlo",
    "load_demand_csv",
    "model_from_dict",
    "normal_upper_tail",
    "normal_upper_tail_inverse",
    "rate_numeric",
    "ss_fungible",
    "ss_previous",
    "ss_proposed",
    "ss_rigorous",
    "validate_delta",
    "validate_lead_time",
    "weibull_cgf",
    "weibull_log_mgf",
    "__version__",
]
