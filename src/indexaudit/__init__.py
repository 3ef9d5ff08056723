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

# every public name, by the submodule that defines it; a submodule is imported
# when one of its names is first used, so a command loads only what it runs
_EXPORTS = {
    "bias_tests": ("TestKind", "TestResult", "UnitySlopeFit", "b_test",
                   "cross_group_battery", "unity_slope_fit", "z_test"),
    "core": ("PriceSeries", "TrendDecomposition", "WeightAggregates", "WeightVector",
             "index_series", "mean_price_vector", "mean_source_effect",
             "relative_weight_diff", "source_effect", "trend_decomposition",
             "weight_aggregates", "weighted_covariance", "weighted_index"),
    "coverage": ("BreakEvenResult", "CoverageEstimate", "EvalScheme", "MseEstimate",
                 "break_even_variance", "coverage_kernel", "coverage_of_constant",
                 "coverage_of_unbiased", "default_variance_of_variance",
                 "estimate_coverage", "estimate_unbiased_coverage", "kappa_quantile",
                 "mse_estimate"),
    "dataio": ("load_households", "load_prices", "load_weight_estimate", "load_weights",
               "write_households", "write_prices", "write_weight_estimate",
               "write_weights"),
    "errors": ("AuditError", "AuditWarning", "ConfigError", "DegenerateVarianceError",
               "DimensionMismatchError", "UndefinedSlopeError", "ValidationError",
               "VerificationFailure", "WorkerFailure"),
    "gaussian": (),
    "montecarlo": ("SCENARIOS", "SimulationOutcome", "SimulationPlan",
                   "VerificationCheck", "default_verification_suite",
                   "delta_method_check", "empirical_coverage", "mse_unbiasedness",
                   "power_curve", "run_plan", "run_verification", "test_calibration"),
    "seeding": ("derive_seed", "generator"),
    "survey": ("HouseholdPanel", "WeightEstimate", "estimate_weights", "index_variance",
               "simulate_households"),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_ORIGIN])


def __getattr__(name: str):
    if name not in _EXPORTS and name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f"{__name__}.{_ORIGIN.get(name, name)}")
    value = module if name in _EXPORTS else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__} - {"_EXPORTS", "_ORIGIN", "__getattr__", "__dir__"})
