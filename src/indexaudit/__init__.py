"""Bias audits for proxy-weighted price indices.

A price index built from "found" expenditure weights (scanner data, card
transactions, one demographic's diaries) publishes a single number with no
sampling variance attached. This package measures how wrong that number is
likely to be, using a designed survey sample as the audit instrument:

* source effects and a Z-test for index-level bias,
* a unity-slope B-test for index-trend bias,
* an evaluation-coverage accuracy measure with delta-method uncertainty,
  plus bias-corrected MSE and break-even variance,
* survey weight estimation with linearized covariance, a micro-data
  simulator, and a Monte Carlo suite that verifies every closed form here.

See the README for the CLI (`indexaudit ztest|btest|coverage|mse|simulate|
verify|report`) and file formats.
"""

from ._version import __version__
from .bias_tests import (
    TestKind,
    TestResult,
    UnitySlopeFit,
    b_test,
    cross_group_battery,
    unity_slope_fit,
    z_test,
)
from .core import (
    PriceSeries,
    TrendDecomposition,
    WeightAggregates,
    WeightVector,
    index_series,
    mean_price_vector,
    mean_source_effect,
    relative_weight_diff,
    source_effect,
    trend_decomposition,
    weight_aggregates,
    weighted_covariance,
    weighted_index,
)
from .coverage import (
    BreakEvenResult,
    CoverageEstimate,
    EvalScheme,
    MseEstimate,
    break_even_variance,
    coverage_kernel,
    coverage_of_constant,
    coverage_of_unbiased,
    default_variance_of_variance,
    estimate_coverage,
    estimate_unbiased_coverage,
    kappa_quantile,
    mse_estimate,
)
from .dataio import (
    load_households,
    load_prices,
    load_weight_estimate,
    load_weights,
    write_households,
    write_prices,
    write_weight_estimate,
    write_weights,
)
from .errors import (
    AuditError,
    AuditWarning,
    ConfigError,
    DegenerateVarianceError,
    DimensionMismatchError,
    UndefinedSlopeError,
    ValidationError,
    VerificationFailure,
)
from .montecarlo import (
    SCENARIOS,
    SimulationOutcome,
    SimulationPlan,
    VerificationCheck,
    default_verification_suite,
    delta_method_check,
    empirical_coverage,
    mse_unbiasedness,
    power_curve,
    run_plan,
    run_verification,
    test_calibration,
)
from .seeding import derive_seed, generator
from .survey import (
    HouseholdPanel,
    WeightEstimate,
    estimate_weights,
    index_variance,
    simulate_households,
)

__all__ = [name for name in dir() if not name.startswith("_")]
