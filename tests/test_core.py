import math

import numpy as np
import pytest

from indexaudit.core import (
    PriceSeries,
    WeightVector,
    mean_price_vector,
    mean_source_effect,
    relative_weight_diff,
    source_effect,
    weighted_covariance,
    weighted_index,
)
from indexaudit.errors import DimensionMismatchError, ValidationError


def random_panel(rng, m, t):
    values = 100.0 * np.exp(0.05 * rng.standard_normal((m, t)))
    return PriceSeries(
        values=values,
        group_labels=tuple(f"g{i}" for i in range(m)),
        period_labels=tuple(f"p{j}" for j in range(t)),
    )


def random_weights(rng, m, label=""):
    return WeightVector(rng.dirichlet(np.full(m, 5.0)), label=label)


# --- construction and validation ---------------------------------------------


def test_price_series_validation_errors():
    good = np.array([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(ValidationError, match="2-dimensional"):
        PriceSeries(np.ones(3), ("a",), ("x", "y", "z"))
    with pytest.raises(ValidationError, match="at least 2 groups"):
        PriceSeries(np.ones((1, 3)), ("a",), ("x", "y", "z"))
    with pytest.raises(ValidationError, match="non-finite"):
        PriceSeries(np.array([[1.0, np.nan], [3.0, 4.0]]), ("a", "b"), ("x", "y"))
    with pytest.raises(ValidationError, match="non-positive"):
        PriceSeries(np.array([[1.0, 0.0], [3.0, 4.0]]), ("a", "b"), ("x", "y"))
    with pytest.raises(ValidationError, match="group labels"):
        PriceSeries(good, ("a",), ("x", "y"))
    with pytest.raises(ValidationError, match="unique"):
        PriceSeries(good, ("a", "a"), ("x", "y"))
    with pytest.raises(ValidationError, match="unique"):
        PriceSeries(good, ("a", "b"), ("x", "x"))


def test_price_series_is_immutable(tiny_prices):
    with pytest.raises(ValueError):
        tiny_prices.values[0, 0] = 1.0


def test_weight_vector_normalizes_and_records_raw_sum():
    w = WeightVector([2.0, 3.0, 5.0])
    np.testing.assert_allclose(w.w, [0.2, 0.3, 0.5], rtol=1e-15)
    assert w.raw_sum == pytest.approx(10.0)


def test_weight_vector_validation_errors():
    with pytest.raises(ValidationError, match="at least 2"):
        WeightVector([1.0])
    with pytest.raises(ValidationError, match="negative weight at group 'b'"):
        WeightVector([0.7, -0.2, 0.5], label="w", group_labels=("a", "b", "c"))
    with pytest.raises(ValidationError, match="sums to zero"):
        WeightVector([0.0, 0.0])
    with pytest.raises(ValidationError, match="non-finite"):
        WeightVector([0.5, np.inf])
    # each weight finite, their sum not
    with pytest.raises(ValidationError, match="^weight vector 'w' overflows: its weights "
                                              "sum to inf$"):
        WeightVector([1e308, 1e308, 0.1], label="w")
    with pytest.raises(ValidationError, match="3 group labels for 2"):
        WeightVector([0.5, 0.5], group_labels=("a", "b", "c"))
    with pytest.raises(ValidationError, match="'w' has duplicate group labels"):
        WeightVector([0.5, 0.5], label="w", group_labels=("a", "a"))


def test_weight_vector_is_immutable():
    w = WeightVector([0.4, 0.6])
    with pytest.raises(ValueError):
        w.w[0] = 1.0


# --- index arithmetic ---------------------------------------------------------


def test_weighted_index_matches_fsum_oracle():
    rng = np.random.default_rng(101)
    for _ in range(25):
        m = int(rng.integers(2, 12))
        t = int(rng.integers(1, 9))
        prices = random_panel(rng, m, t)
        weights = random_weights(rng, m)
        col = int(rng.integers(0, t))
        oracle = math.fsum(weights.w[i] * prices.values[i, col] for i in range(m))
        assert weighted_index(prices, weights, col) == pytest.approx(
            oracle, rel=1e-12)


def test_index_series_matches_per_period_values(tiny_prices):
    # the B slope fit and the Monte Carlo design take the whole index series
    # as one product, w @ values; it must equal weighted_index period by period
    w = WeightVector([0.5, 0.5])
    series = w.w @ tiny_prices.values
    np.testing.assert_allclose(series, [100.0, 100.5, 101.0], rtol=1e-15)
    for t in range(3):
        assert series[t] == weighted_index(tiny_prices, w, t)


def test_weighted_index_bounds_checks(tiny_prices):
    w = WeightVector([0.5, 0.5])
    with pytest.raises(ValidationError, match="out of range"):
        weighted_index(tiny_prices, w, 3)
    with pytest.raises(DimensionMismatchError, match="groups"):
        weighted_index(tiny_prices, WeightVector([0.2, 0.3, 0.5]), 0)


def test_group_label_mismatch_is_rejected(tiny_prices):
    relabeled = WeightVector([0.5, 0.5], group_labels=("b", "a"))
    with pytest.raises(DimensionMismatchError, match="labels"):
        weighted_index(tiny_prices, relabeled, 0)


def test_mean_price_vector_period_subsets(tiny_prices):
    np.testing.assert_allclose(mean_price_vector(tiny_prices), [102.0, 99.0])
    np.testing.assert_allclose(mean_price_vector(tiny_prices, [0, 2]),
                               [102.0, 99.0])
    np.testing.assert_allclose(mean_price_vector(tiny_prices, [1]),
                               [102.0, 99.0], atol=3.0)
    with pytest.raises(ValidationError, match="empty"):
        mean_price_vector(tiny_prices, [])
    with pytest.raises(ValidationError, match="duplicates"):
        mean_price_vector(tiny_prices, [1, 1])
    with pytest.raises(ValidationError, match=r"\[0, 2\]"):
        mean_price_vector(tiny_prices, [5])


# --- source effects and the covariance identity --------------------------------


def test_source_effect_is_index_difference(tiny_prices):
    ws = WeightVector([0.7, 0.3], label="survey")
    wp = WeightVector([0.5, 0.5], label="proxy")
    for t in range(3):
        expected = (weighted_index(tiny_prices, ws, t)
                    - weighted_index(tiny_prices, wp, t))
        assert source_effect(tiny_prices, ws, wp, t) == pytest.approx(expected)


def test_mean_source_effect_zero_for_identical_weights(tiny_prices):
    w = WeightVector([0.6, 0.4])
    assert mean_source_effect(tiny_prices, w, w) == 0.0


def test_source_effect_equals_weighted_covariance_of_discrepancies():
    """The defining identity: the index difference from swapping weight
    sources equals the covariance, under the proxy weights, between the
    relative weight discrepancies and the prices."""
    rng = np.random.default_rng(2024)
    for _ in range(50):
        m = int(rng.integers(2, 15))
        prices = random_panel(rng, m, int(rng.integers(1, 6)))
        ws = random_weights(rng, m, "survey")
        wp = random_weights(rng, m, "proxy")
        b = relative_weight_diff(ws, wp)
        # discrepancies average to zero under the proxy weights
        assert float(np.dot(wp.w, b)) == pytest.approx(0.0, abs=1e-14)
        for t in range(prices.n_periods):
            lhs = source_effect(prices, ws, wp, t)
            rhs = weighted_covariance(b, prices.values[:, t], wp)
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-13)


def test_relative_weight_diff_simple_numbers():
    ws = WeightVector([0.5, 0.5])
    wp = WeightVector([0.25, 0.75])
    np.testing.assert_allclose(relative_weight_diff(ws, wp),
                               [1.0, -1.0 / 3.0], rtol=1e-15)


def test_relative_weight_diff_zero_proxy_weight_error():
    ws = WeightVector([0.5, 0.5, 0.0], label="survey")
    wp = WeightVector([0.5, 0.5, 0.0], label="proxy",
                      group_labels=("a", "b", "c"))
    # both zero at the same group: fine, discrepancy defined as 0 there
    np.testing.assert_allclose(relative_weight_diff(ws, wp), [0.0, 0.0, 0.0])
    ws2 = WeightVector([0.4, 0.4, 0.2], label="survey")
    with pytest.raises(ValidationError, match="group 'c'"):
        relative_weight_diff(ws2, wp)
    with pytest.raises(DimensionMismatchError):
        relative_weight_diff(WeightVector([0.5, 0.5]), wp)


def test_weighted_covariance_against_manual_two_pass():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(8)
    y = rng.standard_normal(8)
    w = rng.dirichlet(np.full(8, 2.0))
    xm = math.fsum(w[i] * x[i] for i in range(8))
    ym = math.fsum(w[i] * y[i] for i in range(8))
    oracle = math.fsum(w[i] * (x[i] - xm) * (y[i] - ym) for i in range(8))
    assert weighted_covariance(x, y, w) == pytest.approx(oracle, rel=1e-12)


def test_weighted_covariance_accepts_unnormalized_weights():
    x = np.array([1.0, 2.0, 3.0])
    y = np.array([2.0, 1.0, 5.0])
    assert weighted_covariance(x, y, [2.0, 2.0, 2.0]) == pytest.approx(
        weighted_covariance(x, y, [1 / 3, 1 / 3, 1 / 3]), rel=1e-14)


def test_weighted_covariance_validation():
    with pytest.raises(DimensionMismatchError):
        weighted_covariance([1.0, 2.0], [1.0, 2.0, 3.0], [0.5, 0.5])
    with pytest.raises(ValidationError, match="non-negative"):
        weighted_covariance([1.0, 2.0], [1.0, 2.0], [-0.5, 1.5])
    with pytest.raises(ValidationError, match="sum to zero"):
        weighted_covariance([1.0, 2.0], [1.0, 2.0], [0.0, 0.0])


def test_group_permutation_consistency():
    """Permuting groups (rows plus weights together) must not change any
    index-level quantity."""
    rng = np.random.default_rng(123)
    prices = random_panel(rng, 6, 9)
    ws = random_weights(rng, 6, "survey")
    wp = random_weights(rng, 6, "proxy")
    perm = rng.permutation(6)
    shuffled = PriceSeries(prices.values[perm],
                           tuple(prices.group_labels[i] for i in perm),
                           prices.period_labels)
    ws_p = WeightVector(ws.w[perm], label="survey")
    wp_p = WeightVector(wp.w[perm], label="proxy")
    assert mean_source_effect(shuffled, ws_p, wp_p) == pytest.approx(
        mean_source_effect(prices, ws, wp), rel=1e-12)
    for t in (0, 4, 8):
        assert weighted_index(shuffled, ws_p, t) == pytest.approx(
            weighted_index(prices, ws, t), rel=1e-14)
