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

import itertools
import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, NamedTuple

import numpy as np

from . import gaussian
from .core import (
    PriceSeries,
    WeightVector,
    _check_groups,
    _dots,
    _resolve_periods,
    mean_price_vector,
)
from .errors import (
    AuditError,
    AuditWarning,
    DegenerateVarianceError,
    UndefinedSlopeError,
    ValidationError,
)
from .survey import WeightEstimate


class TestKind(str, Enum):
    __test__ = False  # not a test class, despite the name

    Z = "Z"
    B = "B"


@dataclass(frozen=True, slots=True)
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


class TestResults(Sequence):
    """A battery's tests as columns, one row per test in battery order.

    ``effect``, ``statistic`` and ``p_value`` are arrays. ``kind``,
    ``variance`` and each ``metadata`` key are a pair: the distinct values,
    and per row a code into them, negative where the row has no such key.
    The Z-tests of one survey and subset share their variance. Indexing
    gives a row as the :class:`TestResult` it is.
    """

    __test__ = False  # not a test class, despite the name

    def __init__(self, kind: tuple[list, np.ndarray], effect: np.ndarray,
                 variance: tuple[np.ndarray, np.ndarray],
                 metadata: dict[str, tuple[list, np.ndarray]]):
        self.kind, self.effect, self.variance, self.metadata = kind, effect, variance, metadata
        self.statistic = effect / np.sqrt(variance[0][variance[1]])
        self.p_value = gaussian.two_sided_p(self.statistic)

    def __len__(self) -> int:
        return self.effect.size

    def __getitem__(self, row: int) -> TestResult:
        (kinds, kind), (variances, variance) = self.kind, self.variance
        return TestResult(kinds[kind[row]], float(self.effect[row]),
                          float(variances[variance[row]]),
                          {key: values[codes[row]] for key, (values, codes)
                           in self.metadata.items() if codes[row] >= 0})


def cross_group_battery(prices: PriceSeries,
                        estimates: Mapping[str, WeightEstimate],
                        proxies: Mapping[str, WeightVector],
                        period_subsets: Mapping[str, Sequence[int] | None] | None = None,
                        include: Sequence[TestKind] = (TestKind.Z, TestKind.B),
                        ) -> TestResults:
    """Run every requested test for every (survey, proxy, period-subset) cell.

    Iteration order is sorted by survey label, proxy label, then subset name,
    so output order is deterministic. B-tests are computed only for subsets
    with at least 3 periods (per-period sweeps still get their Z-tests), and
    each subset skipped is named in an :class:`AuditWarning`; other component
    errors propagate.

    Each result is the one :func:`z_test` or :func:`b_test` gives on its
    cell, and an error is the first one they raise in cell order. The
    Z-tests are arrays: one mean-price row per subset (a single period's is
    its price column), one level variance per survey and subset, and the
    effects of each survey as proxies by subsets, one ``np.dot`` per cell (a
    matrix product sums in another order and changes the last bits).
    """
    if period_subsets is None:
        period_subsets = {"all": None}
    surveys, labels, names = sorted(estimates), sorted(proxies), sorted(period_subsets)
    subsets = [period_subsets[name] for name in names]
    if not (surveys and labels and names):
        include = ()
    sizes = [prices.n_periods if periods is None else len(list(periods))
             for periods in subsets] if TestKind.B in include else []
    for name, size in zip(names, sizes):
        if size < 3:
            warnings.warn(f"B-test skipped for period subset {name!r}: the slope fit needs "
                          f"at least 3 periods, the subset has {size}", AuditWarning,
                          stacklevel=2)
    try:
        codes = [list(TestKind).index(kind) for kind in include]
        level = np.empty((len(surveys), len(names)) if 0 in codes else (0, 0))
        if 0 in codes:
            for weights in [estimates[s].point for s in surveys] + [proxies[q] for q in labels]:
                _check_groups(prices, weights)
            single = {k: periods[0] for k, periods in enumerate(subsets)
                      if isinstance(periods, (list, tuple)) and len(periods) == 1
                      and type(periods[0]) is int and 0 <= periods[0] < prices.n_periods}
            p_bar = np.empty((len(names), prices.n_groups))
            p_bar[list(single)] = prices.values[:, list(single.values())].T
            for k, periods in enumerate(subsets):
                if k not in single:
                    p_bar[k] = mean_price_vector(prices, periods)
            for i, label in enumerate(surveys):
                level[i] = _dots([row @ estimates[label].covariance for row in p_bar], p_bar)
            scale = np.abs(p_bar).max(axis=1)
            with np.errstate(over="ignore"):
                if not (np.isfinite(level) & (level >= 1e-20 * scale * scale)).all():
                    raise DegenerateVarianceError("a level variance is degenerate")
        b_results = [b_test(prices, estimates[s], proxies[q], subsets[k])
                     for s, q, k, _ in itertools.product(
                         surveys, labels, [k for k, size in enumerate(sizes) if size >= 3],
                         [code for code in codes if code == 1])]
    except (AuditError, TypeError, ValueError):
        # the first cell in order that fails names the error
        for s, q, k in itertools.product(surveys, labels, range(len(names))):
            for kind in include:
                if kind == TestKind.Z:
                    z_test(prices, estimates[s], proxies[q], subsets[k])
                elif kind == TestKind.B:
                    if sizes[k] >= 3:
                        b_test(prices, estimates[s], proxies[q], subsets[k])
                else:
                    raise ValidationError(f"unknown test kind {kind!r}") from None
        raise
    # every (survey, proxy) block holds each subset's tests in include order
    pattern = [(k, code) for k in range(len(names)) for code in codes
               if code == 0 or sizes[k] >= 3]
    blocks = len(surveys) * len(labels)
    subset = np.tile(np.array([k for k, _ in pattern], dtype=int), blocks)
    kind = np.tile(np.array([code for _, code in pattern], dtype=int), blocks)
    survey, proxy = np.divmod(np.repeat(np.arange(blocks), len(pattern)), len(labels))
    z, b = kind == 0, kind == 1
    effect = np.empty(kind.size)
    effect[b] = [result.effect for result in b_results]
    if 0 in codes:
        diffs = [estimates[s].point.w - proxies[q].w for s in surveys for q in labels]
        effects = np.array([_dots(p_bar, itertools.repeat(diff)) for diff in diffs])
        effect[z] = effects[survey[z] * len(labels) + proxy[z], subset[z]]
    variance_code = survey * len(names) + subset
    variance_code[b] = level.size + np.arange(len(b_results))
    tested = set(subset.tolist())
    described = [_describe_periods(prices, periods) if k in tested else ""
                 for k, periods in enumerate(subsets)]
    metadata = {"survey": (surveys, survey), "proxy": (labels, proxy),
                "periods": (described, subset)}
    if b_results:
        metadata["beta_hat"] = ([result.metadata["beta_hat"] for result in b_results],
                                np.where(b, np.cumsum(b) - 1, -1))
    metadata["subset"] = (names, subset)
    variances = np.concatenate([level.ravel(), [result.variance for result in b_results]])
    return TestResults((list(TestKind), kind), effect, (variances, variance_code), metadata)
