import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest

from indexaudit.bias_tests import (
    TestKind,
    TestResult,
    b_test,
    cross_group_battery,
    unity_slope_fit,
    z_test,
)
from indexaudit.core import PriceSeries, WeightVector
from indexaudit.errors import (
    AuditWarning,
    DegenerateVarianceError,
    DimensionMismatchError,
    UndefinedSlopeError,
    ValidationError,
)
from indexaudit.survey import WeightEstimate, index_variance
from indexaudit import gaussian


def make_panel(rng, m, t):
    values = 100.0 * np.exp(0.03 * rng.standard_normal((m, t)))
    return PriceSeries(values, tuple(f"g{i}" for i in range(m)),
                       tuple(f"p{j}" for j in range(t)))


def make_estimate(rng, m, n=80):
    shares = rng.dirichlet(np.full(m, 6.0), size=n)
    influence = shares - shares.mean(axis=0)
    cov = influence.T @ influence / (n * (n - 1))
    cov = 0.5 * (cov + cov.T)
    return WeightEstimate(
        point=WeightVector(shares.mean(axis=0), label="survey"),
        covariance=cov,
        n_households=n,
    )


# --- TestResult invariants ------------------------------------------------------


def test_result_derives_statistic_and_p_value():
    result = TestResult(kind=TestKind.Z, effect=0.24, variance=0.0036)
    assert result.statistic == 0.24 / math.sqrt(0.0036)
    assert result.statistic == pytest.approx(4.0)
    assert result.p_value == gaussian.two_sided_p(result.statistic)
    with pytest.raises(TypeError):
        TestResult(kind=TestKind.Z, effect=0.24, variance=0.0036, statistic=4.0)
    with pytest.raises(ValidationError, match="test variance must be positive, got 0.0"):
        TestResult(kind=TestKind.Z, effect=0.0, variance=0.0)
    with pytest.raises(ValidationError, match="test variance must be positive, got inf"):
        TestResult(TestKind.Z, 1.0, math.inf)
    with pytest.raises(ValidationError, match=r"p_value out of \[0, 1\]: nan"):
        TestResult(TestKind.Z, math.nan, 1.0)


def test_result_is_slotted_frozen_and_round_trips():
    result = TestResult(TestKind.B, -0.25, 0.5, {"survey": "s", "proxy": "p"})
    assert not hasattr(result, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        result.effect = 0.0
    for twin in (pickle.loads(pickle.dumps(result)), copy.deepcopy(result)):
        assert twin == result and twin is not result
        assert twin.statistic.hex() == result.statistic.hex()
        assert twin.metadata == result.metadata and twin.metadata is not result.metadata


# --- Z-test -----------------------------------------------------------------------



def test_battery_results_equal_direct_construction(food_prices, food_weights,
                                                  food_estimate):
    # each battery result, the relabelled B results too, is the one direct
    # construction gives, field for field
    results = cross_group_battery(food_prices, {"survey": food_estimate}, food_weights,
                                  period_subsets={"all": None, "first": [0, 1, 2]})
    assert {r.kind for r in results} == {TestKind.Z, TestKind.B}
    for result in results:
        assert TestResult(result.kind, result.effect, result.variance,
                          result.metadata) == result
        assert type(result.metadata) is dict


def test_z_test_zero_for_matching_weights(tiny_prices, tiny_estimate):
    result = z_test(tiny_prices, tiny_estimate,
                    WeightVector(tiny_estimate.point.w, label="proxy"))
    assert result.effect == pytest.approx(0.0, abs=1e-15)
    assert result.statistic == pytest.approx(0.0, abs=1e-12)
    assert result.p_value == pytest.approx(1.0)


def test_z_test_hand_computed_case(tiny_prices, tiny_estimate):
    """mean prices (102, 99); effect 0.08 * (102 - 99) = 0.24;
    variance 4e-4 * 3^2; statistic exactly 4."""
    result = z_test(tiny_prices, tiny_estimate, WeightVector([0.5, 0.5], label="even"))
    assert result.effect == pytest.approx(0.24, rel=1e-13)
    assert result.variance == pytest.approx(0.0036, rel=1e-13)
    assert result.statistic == pytest.approx(4.0, rel=1e-12)
    assert result.p_value == pytest.approx(6.334248366623993e-05, rel=1e-12)
    assert result.kind is TestKind.Z
    assert result.metadata["proxy"] == "even"
    assert result.metadata["periods"] == "all"


def test_z_test_respects_period_subsets(tiny_prices, tiny_estimate):
    even = WeightVector([0.5, 0.5])
    late = z_test(tiny_prices, tiny_estimate, even, periods=[2])
    assert late.effect == pytest.approx(0.08 * 6.0, rel=1e-13)
    assert late.variance == pytest.approx(0.0004 * 36.0, rel=1e-13)
    assert late.statistic == pytest.approx(4.0, rel=1e-12)
    assert late.metadata["periods"] == "t2"


def test_z_test_variance_matches_index_variance(food_prices, food_weights,
                                                food_estimate):
    result = z_test(food_prices, food_estimate, food_weights["age_68plus"])
    oracle = index_variance(food_prices, food_estimate,
                            periods=range(food_prices.n_periods))
    assert result.variance == pytest.approx(oracle, rel=1e-14)


def test_z_test_degenerate_variance(tiny_prices, tiny_estimate):
    # at period 0 both group prices are equal, so p'Vp = 0 for this covariance
    with pytest.raises(DegenerateVarianceError, match="no Z-test"):
        z_test(tiny_prices, tiny_estimate, WeightVector([0.5, 0.5]), periods=[0])


def test_z_test_dimension_checks(tiny_prices, tiny_estimate):
    with pytest.raises(DimensionMismatchError):
        z_test(tiny_prices, tiny_estimate, WeightVector([0.2, 0.3, 0.5]))


# --- slope fit and B-test ---------------------------------------------------------


def dyadic_case():
    """All quantities are small dyadic rationals, so the OLS slope algebra is
    exact in binary floating point: beta_hat must come out as exactly 11/8."""
    levels = np.array([100.0, 96.0, 104.0])
    gamma = np.array([1 / 8, 1 / 4, 1 / 2])
    delta = np.array([-1.5, -0.5, 0.5, 1.5])
    prices = PriceSeries(levels[:, None] + np.outer(gamma, delta),
                         ("a", "b", "c"), ("t0", "t1", "t2", "t3"))
    proxy = WeightVector([1 / 2, 1 / 4, 1 / 4], label="proxy")
    q = np.array([1.0, -1.0, 0.0])
    estimate = WeightEstimate(
        point=WeightVector([1 / 4, 1 / 4, 1 / 2], label="survey"),
        covariance=np.outer(q, q) / 1024.0,
    )
    return prices, estimate, proxy


def test_unity_slope_fit_is_exact_on_dyadic_case():
    prices, estimate, proxy = dyadic_case()
    fit = unity_slope_fit(prices, estimate, proxy)
    assert fit.beta_hat == 11.0 / 8.0  # exact equality, no tolerance
    assert float(np.dot(fit.coefficients, proxy.w)) == 1.0
    np.testing.assert_array_equal(fit.coefficients, [0.5, 1.0, 2.0])


def test_b_test_on_dyadic_case():
    prices, estimate, proxy = dyadic_case()
    result = b_test(prices, estimate, proxy)
    assert result.effect == pytest.approx(0.375, rel=1e-15)
    # d = (1/2, 1, 2), q = (1,-1,0): variance = (d.q)^2/1024 = 0.25/1024
    assert result.variance == pytest.approx(0.25 / 1024.0, rel=1e-14)
    assert float(result.metadata["beta_hat"]) == 11.0 / 8.0
    assert result.kind is TestKind.B


def test_slope_coefficients_hit_one_on_proxy_weights():
    """The identity d . w_proxy = 1 must hold to 1e-12 whatever the panel."""
    rng = np.random.default_rng(314)
    for _ in range(40):
        m = int(rng.integers(2, 9))
        t = int(rng.integers(3, 40))
        prices = make_panel(rng, m, t)
        proxy = WeightVector(rng.dirichlet(np.full(m, 4.0)), label="proxy")
        estimate = make_estimate(rng, m)
        try:
            fit = unity_slope_fit(prices, estimate, proxy)
        except UndefinedSlopeError:
            continue
        assert abs(float(np.dot(fit.coefficients, proxy.w)) - 1.0) < 1e-12


def test_slope_matches_polyfit():
    rng = np.random.default_rng(2718)
    for _ in range(15):
        m = int(rng.integers(2, 7))
        t = int(rng.integers(4, 25))
        prices = make_panel(rng, m, t)
        proxy = WeightVector(rng.dirichlet(np.full(m, 4.0)), label="proxy")
        estimate = make_estimate(rng, m)
        fit = unity_slope_fit(prices, estimate, proxy)
        proxy_series = proxy.w @ prices.values
        survey_series = estimate.point.w @ prices.values
        slope = np.polyfit(proxy_series, survey_series, 1)[0]
        assert fit.beta_hat == pytest.approx(float(slope), rel=1e-9, abs=1e-12)


def test_b_test_near_one_when_weights_agree():
    rng = np.random.default_rng(55)
    prices = make_panel(rng, 5, 24)
    estimate = make_estimate(rng, 5)
    proxy = WeightVector(estimate.point.w, label="proxy")
    result = b_test(prices, estimate, proxy)
    assert result.effect == pytest.approx(0.0, abs=1e-10)
    assert result.p_value > 0.999


def test_slope_fit_needs_three_periods(tiny_prices, tiny_estimate):
    with pytest.raises(ValidationError, match="at least 3"):
        unity_slope_fit(tiny_prices, tiny_estimate,
                        WeightVector([0.5, 0.5]), periods=[0, 1])


def test_constant_proxy_series_has_no_slope():
    t = np.arange(4, dtype=float)
    prices = PriceSeries(np.vstack([100.0 + 2.0 * t, 100.0 - 2.0 * t]),
                         ("a", "b"), tuple(f"p{j}" for j in range(4)))
    estimate = WeightEstimate(
        point=WeightVector([0.7, 0.3], label="survey"),
        covariance=1e-4 * np.array([[1.0, -1.0], [-1.0, 1.0]]),
    )
    with pytest.raises(UndefinedSlopeError, match="constant"):
        unity_slope_fit(prices, estimate, WeightVector([0.5, 0.5]))


def test_b_test_degenerate_variance():
    rng = np.random.default_rng(66)
    prices = make_panel(rng, 3, 8)
    estimate = WeightEstimate(
        point=WeightVector([0.3, 0.3, 0.4], label="survey"),
        covariance=np.zeros((3, 3)),
    )
    with pytest.raises(DegenerateVarianceError, match="no B-test"):
        b_test(prices, estimate, WeightVector([0.2, 0.5, 0.3]))


# --- battery ----------------------------------------------------------------------


def test_battery_runs_all_cells_in_sorted_order(tiny_prices, tiny_estimate):
    proxies = {
        "even": WeightVector([0.5, 0.5], label="even"),
        "tilted": WeightVector([0.6, 0.4], label="tilted"),
    }
    subsets = {"all": None, "late": [1, 2]}
    with pytest.warns(AuditWarning) as caught:
        results = cross_group_battery(tiny_prices, {"survey": tiny_estimate},
                                      proxies, subsets)
    # one warning for the subset, not one per proxy
    assert [str(w.message) for w in caught] == [
        "B-test skipped for period subset 'late': the slope fit needs at least 3 "
        "periods, the subset has 2"]
    # Z for every (proxy, subset) cell; B only where the subset has >= 3 periods
    labels = [(r.metadata["proxy"], r.metadata["subset"], r.kind.value)
              for r in results]
    assert labels == [
        ("even", "all", "Z"), ("even", "all", "B"),
        ("even", "late", "Z"),
        ("tilted", "all", "Z"), ("tilted", "all", "B"),
        ("tilted", "late", "Z"),
    ]
    assert all(r.metadata["survey"] == "survey" for r in results)


def test_battery_is_deterministic(tiny_prices, tiny_estimate):
    proxies = {"p": WeightVector([0.5, 0.5])}
    first = cross_group_battery(tiny_prices, {"s": tiny_estimate}, proxies)
    second = cross_group_battery(tiny_prices, {"s": tiny_estimate}, proxies)
    assert [(r.kind, r.effect, r.statistic, r.p_value) for r in first] == \
           [(r.kind, r.effect, r.statistic, r.p_value) for r in second]


def test_battery_z_only_filter(tiny_prices, tiny_estimate):
    results = cross_group_battery(tiny_prices, {"s": tiny_estimate},
                                  {"p": WeightVector([0.5, 0.5])},
                                  include=(TestKind.Z,))
    assert [r.kind for r in results] == [TestKind.Z]


# --- regression against the packaged example data ----------------------------------


def test_food_fixture_z_regression(food_prices, food_weights, food_estimate):
    expected = {
        "age_68plus": (0.037897, 0.969770),
        "age_lt26": (0.036517, 0.970870),
        "age_26_40": (0.035138, 0.971970),
        "age_41_67": (0.039966, 0.968121),
    }
    for source, (stat, p) in expected.items():
        result = z_test(food_prices, food_estimate, food_weights[source])
        assert result.statistic == pytest.approx(stat, abs=5e-7), source
        assert result.p_value == pytest.approx(p, abs=5e-7), source


def test_food_fixture_b_regression(food_prices, food_weights, food_estimate):
    same = b_test(food_prices, food_estimate, food_weights["age_68plus"])
    assert same.effect == pytest.approx(0.0, abs=1e-10)
    assert same.p_value == pytest.approx(1.0, abs=1e-9)
    cross = b_test(food_prices, food_estimate, food_weights["age_lt26"])
    assert cross.statistic == pytest.approx(-0.031041, abs=5e-6)
    assert cross.p_value == pytest.approx(0.975237, abs=5e-6)
