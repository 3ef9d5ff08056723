"""Cell-by-cell reference for ``bias_tests.cross_group_battery``.

This is the battery the current one replaced, with the ``z_test`` it called:
every (survey, proxy, subset) cell resolves its periods, computes its mean
prices and level variance, builds a ``TestResult`` and rebuilds it with the
battery's labels. The property tests compare the battery against it, so keep
it as it is: a change here no longer tests what the old code did.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from indexaudit import gaussian
from indexaudit.bias_tests import TestKind, TestResult, b_test
from indexaudit.core import _check_groups, _resolve_periods
from indexaudit.errors import DegenerateVarianceError, ValidationError


def z_test(prices, estimate, w_proxy, periods=None):
    _check_groups(prices, estimate.point)
    _check_groups(prices, w_proxy)
    chosen = _resolve_periods(prices, periods)
    p_bar = prices.values[:, chosen].mean(axis=1)
    effect = float(np.dot(p_bar, estimate.point.w - w_proxy.w))
    variance = float(p_bar @ estimate.covariance @ p_bar)
    scale = float(np.max(np.abs(p_bar)))
    if variance < 1e-20 * scale * scale:
        raise DegenerateVarianceError(
            f"index-level variance {variance:.3e} is numerically zero at "
            f"price scale {scale:.3g}; no Z-test possible"
        )
    statistic = effect / math.sqrt(variance)
    described = ("all" if periods is None
                 else ",".join(prices.period_labels[int(t)] for t in periods))
    result = TestResult(
        kind=TestKind.Z, effect=effect, variance=variance,
        metadata={"survey": estimate.point.label, "proxy": w_proxy.label,
                  "periods": described},
    )
    # the type derives both; they must be these, bit for bit
    assert result.statistic.hex() == statistic.hex()
    assert result.p_value.hex() == gaussian.two_sided_p(statistic).hex()
    return result


def cross_group_battery(prices, estimates, proxies, period_subsets=None,
                        include=(TestKind.Z, TestKind.B)):
    if period_subsets is None:
        period_subsets = {"all": None}
    results = []
    for survey_label in sorted(estimates):
        estimate = estimates[survey_label]
        for proxy_label in sorted(proxies):
            proxy = proxies[proxy_label]
            for subset_name in sorted(period_subsets):
                periods = period_subsets[subset_name]
                subset_size = (prices.n_periods if periods is None
                               else len(list(periods)))
                for kind in include:
                    if kind == TestKind.Z:
                        result = z_test(prices, estimate, proxy, periods)
                    elif kind == TestKind.B:
                        if subset_size < 3:
                            continue
                        result = b_test(prices, estimate, proxy, periods)
                    else:
                        raise ValidationError(f"unknown test kind {kind!r}")
                    labeled = dict(result.metadata)
                    labeled.update(survey=survey_label, proxy=proxy_label,
                                   subset=subset_name)
                    results.append(dataclasses.replace(result, metadata=labeled))
    return results
