"""Bias diagnostics for proxy-weighted indices against a survey audit sample.

Two complementary tests, both reducing to a normal statistic because the
survey weight estimate is asymptotically normal and both effects are linear
in it:

* The Z-test compares index levels. Its effect is the mean source effect
  over the chosen periods, and its variance is the quadratic form of the mean
  price vector in the weight covariance.

* The B-test compares index trends. Regress the survey-weighted index series
  on the proxy-weighted one; with correct proxy weights the slope is 1,
  whatever the common price movements look like, because the regression
  coefficient vector applied to the proxy weights themselves gives exactly 1.
  The statistic standardizes the fitted slope's distance from 1.

The level test is blind to weight errors orthogonal to mean prices and the
slope test to errors orthogonal to the trend pattern, which is why batteries
run both.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from . import gaussian
from .core import (
    PriceSeries,
    WeightVector,
    _check_groups,
    _resolve_periods,
    mean_price_vector,
)
from .errors import (
    AuditWarning,
    DegenerateVarianceError,
    UndefinedSlopeError,
    ValidationError,
)
from .survey import WeightEstimate

__all__ = [
    "TestKind",
    "TestResult",
    "UnitySlopeFit",
    "z_test",
    "unity_slope_fit",
    "b_test",
    "cross_group_battery",
]


class TestKind(str, Enum):
    __test__ = False  # not a test class, despite the name

    Z = "Z"
    B = "B"


@dataclass(frozen=True)
class TestResult:
    """Outcome of one standardized bias test.

    ``effect`` is the raw discrepancy (index points for Z, slope minus one
    in slope units for B), ``variance`` its sampling variance, ``statistic``
    the standardized effect, and ``p_value`` the two-sided normal p-value;
    those two are derived on construction. ``metadata`` carries string labels
    (weight sources, period subset) for reporting.
    """

    __test__ = False  # not a test class, despite the name

    kind: TestKind
    effect: float
    variance: float
    statistic: float = field(init=False)
    p_value: float = field(init=False)
    metadata: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if not (self.variance > 0.0 and math.isfinite(self.variance)):
            raise ValidationError(f"test variance must be positive, got {self.variance}")
        statistic = self.effect / math.sqrt(self.variance)
        p_value = gaussian.two_sided_p(statistic)
        if not 0.0 <= p_value <= 1.0:
            raise ValidationError(f"p_value out of [0, 1]: {p_value}")
        object.__setattr__(self, "statistic", statistic)
        object.__setattr__(self, "p_value", p_value)
        object.__setattr__(self, "metadata", dict(self.metadata))


def _describe_periods(prices: PriceSeries, periods: Sequence[int] | None) -> str:
    if periods is None:
        return "all"
    return ",".join(prices.period_labels[int(t)] for t in periods)


def _level_variance(p_bar: np.ndarray, estimate: WeightEstimate) -> float:
    variance = float(p_bar @ estimate.covariance @ p_bar)
    scale = float(np.max(np.abs(p_bar)))
    if not math.isfinite(variance):
        raise ValidationError(
            f"index-level variance overflows: mean_p'V mean_p is {variance} for "
            f"mean prices up to {scale:.3g}; no Z-test possible"
        )
    if variance < 1e-20 * scale * scale:
        raise DegenerateVarianceError(
            f"index-level variance {variance:.3e} is numerically zero at "
            f"price scale {scale:.3g}; no Z-test possible"
        )
    return variance


def z_test(prices: PriceSeries, estimate: WeightEstimate, w_proxy: WeightVector,
           periods: Sequence[int] | None = None) -> TestResult:
    """Level test: is the mean source effect zero?

    Effect is ``mean_p . (w_survey - w_proxy)`` over the period subset;
    variance is ``mean_p^T V mean_p``. A variance below 1e-20 on the squared
    price scale means the covariance cannot distinguish the two index levels,
    and the test is refused as degenerate.
    """
    _check_groups(prices, estimate.point)
    _check_groups(prices, w_proxy)
    p_bar = mean_price_vector(prices, periods)
    effect = float(np.dot(p_bar, estimate.point.w - w_proxy.w))
    return TestResult(
        TestKind.Z, effect, _level_variance(p_bar, estimate),
        metadata={
            "survey": estimate.point.label,
            "proxy": w_proxy.label,
            "periods": _describe_periods(prices, periods),
        },
    )


class UnitySlopeFit(NamedTuple):
    """A fitted survey-on-proxy index slope with its coefficient vector.

    ``coefficients`` maps any weight vector to the slope its index series
    would fit against the proxy series; applied to the proxy weights it gives
    exactly 1, so ``beta_hat = coefficients . w_survey`` and the slope's
    variance under weight uncertainty is the quadratic form of
    ``coefficients`` in the weight covariance.
    """

    beta_hat: float
    coefficients: np.ndarray


def unity_slope_fit(prices: PriceSeries, estimate: WeightEstimate,
                    w_proxy: WeightVector,
                    periods: Sequence[int] | None = None) -> UnitySlopeFit:
    """OLS slope of the survey-weighted index on the proxy-weighted index.

    Both series are restricted to the period subset. Needs at least 3
    periods (with 2 the slope always fits exactly and says nothing). A proxy
    series with no variation over the subset has no defined slope.
    """
    _check_groups(prices, estimate.point)
    _check_groups(prices, w_proxy)
    chosen = _resolve_periods(prices, periods)
    if chosen.size < 3:
        raise ValidationError(
            f"slope fit needs at least 3 periods, got {chosen.size}"
        )
    panel = prices.values[:, chosen]
    proxy_series = w_proxy.w @ panel
    centered = proxy_series - proxy_series.mean()
    centered -= centered.mean()  # second pass kills the O(eps * level) residue
    denom = float(np.dot(centered, centered))
    scale = float(np.max(np.abs(proxy_series)))
    if not math.isfinite(denom):
        raise ValidationError(
            f"proxy-weighted index variation overflows: it is {denom} over the "
            f"chosen periods for index values up to {scale:.3g}; slope undefined"
        )
    # tolerance * tolerance is inf, not an OverflowError, beyond ~1e166
    tolerance = 1e-12 * scale
    if denom <= chosen.size * (tolerance * tolerance):
        raise UndefinedSlopeError(
            f"proxy-weighted index is constant over the chosen periods "
            f"(variation {denom:.3e}); slope undefined"
        )
    coefficients = panel @ centered / denom
    beta_hat = float(np.dot(coefficients, estimate.point.w))
    return UnitySlopeFit(beta_hat=beta_hat, coefficients=coefficients)


def b_test(prices: PriceSeries, estimate: WeightEstimate, w_proxy: WeightVector,
           periods: Sequence[int] | None = None) -> TestResult:
    """Trend test: does the survey-on-proxy index slope equal 1?

    Effect is ``beta_hat - 1``; variance is the quadratic form of the slope
    coefficient vector in the weight covariance. The slope is dimensionless,
    so the degeneracy threshold is an absolute 1e-20.
    """
    fit = unity_slope_fit(prices, estimate, w_proxy, periods)
    variance = float(fit.coefficients @ estimate.covariance @ fit.coefficients)
    if not math.isfinite(variance):
        raise ValidationError(
            f"slope variance overflows: c'Vc is {variance}; no B-test possible"
        )
    if variance < 1e-20:
        raise DegenerateVarianceError(
            f"slope variance {variance:.3e} is numerically zero; no B-test possible"
        )
    return TestResult(
        TestKind.B, fit.beta_hat - 1.0, variance,
        metadata={
            "survey": estimate.point.label,
            "proxy": w_proxy.label,
            "periods": _describe_periods(prices, periods),
            "beta_hat": repr(fit.beta_hat),
        },
    )


def cross_group_battery(prices: PriceSeries,
                        estimates: Mapping[str, WeightEstimate],
                        proxies: Mapping[str, WeightVector],
                        period_subsets: Mapping[str, Sequence[int] | None] | None = None,
                        include: Sequence[TestKind] = (TestKind.Z, TestKind.B),
                        ) -> list[TestResult]:
    """Run every requested test for every (survey, proxy, period-subset) cell.

    Iteration order is sorted by survey label, proxy label, then subset name,
    so output order is deterministic. B-tests are computed only for subsets
    with at least 3 periods (per-period sweeps still get their Z-tests), and
    each subset skipped is named in an :class:`AuditWarning`; other component
    errors propagate.

    Every Z-test result, and the first error any input raises, is the one
    :func:`z_test` gives on that cell. Only the effect depends on the proxy,
    so a subset's mean prices are resolved once and its level variance once
    per survey. The effects stay one ``np.dot`` per cell: a matrix product
    sums in another order and changes the last bits.
    """
    if period_subsets is None:
        period_subsets = {"all": None}
    subsets = [(name, period_subsets[name]) for name in sorted(period_subsets)]
    levels: dict[str, tuple[np.ndarray, str]] = {}  # subset -> mean prices, label
    results: list[TestResult] = []
    skipped: set[str] = set()  # subsets whose B-tests were skipped
    for survey_label in sorted(estimates):
        estimate = estimates[survey_label]
        level_variances: dict[str, float] = {}
        for proxy_label in sorted(proxies):
            proxy = proxies[proxy_label]
            weight_diff = None
            for subset_name, periods in subsets:
                for kind in include:
                    if kind == TestKind.Z:
                        if weight_diff is None:
                            _check_groups(prices, estimate.point)
                            _check_groups(prices, proxy)
                            weight_diff = estimate.point.w - proxy.w
                        if subset_name not in levels:
                            levels[subset_name] = (mean_price_vector(prices, periods),
                                                   _describe_periods(prices, periods))
                        p_bar, described = levels[subset_name]
                        effect = float(np.dot(p_bar, weight_diff))
                        if subset_name not in level_variances:
                            level_variances[subset_name] = _level_variance(p_bar, estimate)
                        results.append(TestResult(
                            TestKind.Z, effect, level_variances[subset_name],
                            metadata={"survey": survey_label, "proxy": proxy_label,
                                      "periods": described, "subset": subset_name},
                        ))
                    elif kind == TestKind.B:
                        size = prices.n_periods if periods is None else len(list(periods))
                        if size < 3:
                            if subset_name not in skipped:
                                skipped.add(subset_name)
                                warnings.warn(
                                    f"B-test skipped for period subset {subset_name!r}: "
                                    f"the slope fit needs at least 3 periods, the subset "
                                    f"has {size}", AuditWarning, stacklevel=2)
                            continue
                        result = b_test(prices, estimate, proxy, periods)
                        labeled = dict(result.metadata)
                        labeled.update(survey=survey_label, proxy=proxy_label,
                                       subset=subset_name)
                        results.append(replace(result, metadata=labeled))
                    else:
                        raise ValidationError(f"unknown test kind {kind!r}")
    return results
