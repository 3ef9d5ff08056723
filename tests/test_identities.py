"""The paper's identities as property tests, on generated panels and weights.

Each holds exactly in real arithmetic; the tolerances allow float64 rounding
only, scaled by the size of the terms that round.
"""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from indexaudit.bias_tests import unity_slope_fit
from indexaudit.core import (PriceSeries, WeightVector, relative_weight_diff, source_effect,
                             weighted_covariance)
from indexaudit.errors import AuditWarning
from indexaudit.survey import HouseholdPanel, WeightEstimate, estimate_weights

EPS = np.finfo(float).eps

# weights are normalized on construction, so any positive entries will do
weight_entries = st.floats(0.01, 1.0)
price_entries = st.floats(1.0, 1000.0)


@st.composite
def panels_and_weights(draw, min_periods=1):
    """A price panel with its survey and proxy weight vectors."""
    m = draw(st.integers(2, 8))
    t = draw(st.integers(min_periods, 12))
    values = draw(arrays(float, (m, t), elements=price_entries))
    prices = PriceSeries(values=values, group_labels=tuple(f"g{i}" for i in range(m)),
                         period_labels=tuple(f"p{j}" for j in range(t)))
    survey = WeightVector(draw(arrays(float, m, elements=weight_entries)), label="survey")
    proxy = WeightVector(draw(arrays(float, m, elements=weight_entries)), label="proxy")
    return prices, survey, proxy


@settings(max_examples=100, deadline=None)
@given(panels_and_weights())
def test_source_effect_is_weighted_covariance_of_discrepancies(case):
    prices, survey, proxy = case
    discrepancies = relative_weight_diff(survey, proxy)
    for t in range(prices.n_periods):
        column = prices.values[:, t]
        effect = source_effect(prices, survey, proxy, t)
        covariance = weighted_covariance(discrepancies, column, proxy)
        # each side sums m terms of at most max |b| * max p in size
        scale = (1.0 + float(np.max(np.abs(discrepancies)))) * float(np.max(column))
        assert effect == pytest.approx(covariance, rel=0, abs=16 * EPS * survey.n_groups * scale)


@settings(max_examples=100, deadline=None)
@given(panels_and_weights(min_periods=3))
def test_slope_coefficients_map_proxy_weights_to_one(case):
    prices, survey, proxy = case
    series = proxy.w @ prices.values
    # a nearly constant proxy series leaves the slope ill-conditioned; the
    # identity's rounding grows with level / spread
    assume(np.std(series) >= 1e-3 * np.mean(series))
    estimate = WeightEstimate(point=survey, covariance=np.zeros((survey.n_groups,) * 2))
    fit = unity_slope_fit(prices, estimate, proxy)
    assert float(fit.coefficients @ proxy.w) == pytest.approx(1.0, rel=0, abs=1e-12)


# diary amounts: whole cents up to 1,000.00, zero included
amounts = st.integers(0, 100_000).map(lambda cents: cents / 100)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 30).flatmap(lambda n: st.integers(2, 6).flatmap(
    lambda m: arrays(float, (n, m), elements=amounts))))
def test_weight_covariance_rows_sum_to_zero(spend):
    # households with no expenditure are dropped; two must remain
    totals = spend.sum(axis=1)
    assume(np.count_nonzero(totals > 0.0) >= 2)
    panel = HouseholdPanel(tuple(f"h{i}" for i in range(len(spend))), spend)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AuditWarning)
        cov = estimate_weights(panel).covariance
    # the influence terms are amounts over the mean total; each covariance
    # entry sums n products of two, over n (n - 1)
    n, m = int(np.count_nonzero(totals)), spend.shape[1]
    term = (float(spend.max()) / float(totals.mean() * len(totals) / n)) ** 2 / (n - 1)
    np.testing.assert_allclose(cov.sum(axis=1), 0.0, rtol=0, atol=16 * EPS * n * m * term)
