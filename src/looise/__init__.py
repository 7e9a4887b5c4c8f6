"""looise: integrated squared error estimation for linear predictors
from optimally weighted leave-one-out residuals under a GP model."""

from .designs import Design, IntegrationMeasure
from .estimators import (
    IseEstimate,
    PerformanceReport,
    blp_pointwise,
    blup_weights,
    ise_blp,
    ise_blup,
    ise_loo,
    optimal_mixture_weights,
    performance_report,
    trend_corrected_ise,
)
from .kernels import KernelSpec
from .moments import (
    MomentBundle,
    build_bundle,
    flat_limit_diagnostics,
    independent_limit_bundle,
    mixture_bundle,
)
from .predictors import (
    BayesPolynomial,
    EmpiricalMean,
    FixedMixture,
    LinearPredictor,
    LooOperator,
    OrdinaryKriging,
    SimpleKriging,
    TableWeights,
)

__version__ = "0.1.0"

__all__ = [
    "Design",
    "IntegrationMeasure",
    "KernelSpec",
    "MomentBundle",
    "IseEstimate",
    "PerformanceReport",
    "LinearPredictor",
    "LooOperator",
    "SimpleKriging",
    "OrdinaryKriging",
    "BayesPolynomial",
    "EmpiricalMean",
    "FixedMixture",
    "TableWeights",
    "build_bundle",
    "independent_limit_bundle",
    "flat_limit_diagnostics",
    "mixture_bundle",
    "ise_loo",
    "ise_blp",
    "ise_blup",
    "blp_pointwise",
    "blup_weights",
    "performance_report",
    "trend_corrected_ise",
    "optimal_mixture_weights",
    "__version__",
]
