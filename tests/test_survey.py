import math

import numpy as np
import pytest

from indexaudit.core import PriceSeries, WeightVector
from indexaudit.errors import AuditWarning, DimensionMismatchError, ValidationError
from indexaudit.survey import (
    HouseholdPanel,
    WeightEstimate,
    estimate_weights,
    index_variance,
    simulate_households,
)


def panel(*households):
    """A panel from (household id, expenditures[, stratum]) tuples."""
    return HouseholdPanel(
        household_ids=tuple(h[0] for h in households),
        expenditures=np.array([h[1] for h in households], dtype=float),
        strata=tuple(h[2] if len(h) > 2 else None for h in households),
    )


def spend_panel(spend):
    """A panel with ids h0, h1, ... for the rows of a matrix."""
    return HouseholdPanel(tuple(f"h{i}" for i in range(len(spend))), spend)


# --- panel and estimate construction ------------------------------------------


def test_household_panel_validation():
    with pytest.raises(ValidationError, match="at least 2 groups"):
        panel(("h1", [5.0]))
    with pytest.raises(ValidationError, match="finite"):
        panel(("h1", [1.0, np.nan]))
    with pytest.raises(ValidationError, match="'h2': .*non-negative"):
        panel(("h1", [1.0, 0.5]), ("h2", [1.0, -0.5]), ("h3", [-1.0, 0.5]))
    rec = panel(("h1", [2.0, 3.0], "urban"))
    assert len(rec) == 1 and rec.expenditures.shape == (1, 2)
    assert rec.expenditures[0].sum() == pytest.approx(5.0)
    assert rec.strata == ("urban",)
    with pytest.raises(ValueError):
        rec.expenditures[0, 0] = 9.0
    assert HouseholdPanel(("h1",), [[1.0, 2.0]]).strata == (None,)


def test_weight_estimate_enforces_covariance_invariants():
    point = WeightVector([0.5, 0.5])
    ok = np.array([[0.25, -0.25], [-0.25, 0.25]])
    WeightEstimate(point=point, covariance=ok)  # no raise

    with pytest.raises(DimensionMismatchError):
        WeightEstimate(point=point, covariance=np.zeros((3, 3)))
    with pytest.raises(ValidationError, match="symmetric"):
        WeightEstimate(point=point,
                       covariance=np.array([[0.25, -0.2], [-0.25, 0.25]]))
    with pytest.raises(ValidationError, match="positive semidefinite"):
        # symmetric, rows sum to zero, but one eigenvalue is negative
        WeightEstimate(point=point,
                       covariance=np.array([[-0.25, 0.25], [0.25, -0.25]]))
    with pytest.raises(ValidationError, match="sum to zero"):
        WeightEstimate(point=point,
                       covariance=np.array([[0.25, 0.0], [0.0, 0.25]]))
    with pytest.raises(ValidationError, match="at least 2"):
        WeightEstimate(point=point, covariance=ok, n_households=1)
    # unknown sample size is allowed
    assert WeightEstimate(point=point, covariance=ok).n_households is None


# --- the estimator itself -------------------------------------------------------


def test_estimate_weights_two_household_oracle():
    """Hand-computed smallest case: one household per group.

    X = I2, so w = (0.5, 0.5), influences are +/-(0.5, -0.5), and
    V = Z'Z / (n (n-1)) = [[0.25, -0.25], [-0.25, 0.25]].
    """
    est = estimate_weights(panel(("h1", [1.0, 0.0]),
                                 ("h2", [0.0, 1.0])))
    np.testing.assert_allclose(est.point.w, [0.5, 0.5], rtol=1e-15)
    np.testing.assert_allclose(est.covariance,
                               [[0.25, -0.25], [-0.25, 0.25]], rtol=1e-14)
    assert est.n_households == 2


def test_estimate_weights_identical_households_have_zero_covariance():
    rows = panel(*[(f"h{i}", [3.0, 1.0, 6.0]) for i in range(5)])
    est = estimate_weights(rows)
    np.testing.assert_allclose(est.point.w, [0.3, 0.1, 0.6], rtol=1e-15)
    np.testing.assert_allclose(est.covariance, 0.0, atol=1e-18)


def test_estimate_weights_accepts_nearly_proportional_households():
    # the covariance cancels to ~1e-13 while its rows round to ~4e-23: more
    # than the slack on the covariance's own scale, within the influence terms'
    est = estimate_weights(panel(("h1", [520.86, 88.78]),
                                 ("h2", [603.99, 102.95])))
    cov = est.covariance
    assert np.abs(cov.sum(axis=1)).max() > 1e-10 * np.abs(cov).max() * 2
    # the same matrix made by hand has only its own scale, and is rejected
    with pytest.raises(ValidationError, match="sum to zero"):
        WeightEstimate(point=est.point, covariance=cov)


def test_estimate_weights_point_is_ratio_of_totals():
    rng = np.random.default_rng(42)
    spend = rng.gamma(2.0, 1.0, size=(30, 4))
    est = estimate_weights(spend_panel(spend))
    for j in range(4):
        oracle = math.fsum(spend[i, j] for i in range(30)) / math.fsum(
            spend[i, j] for i in range(30) for j in range(4))
        assert est.point.w[j] == pytest.approx(oracle, rel=1e-12)


def test_estimate_weights_drops_zero_total_households():
    rows = panel(("h1", [1.0, 1.0]), ("h2", [0.0, 0.0]),
                 ("h3", [2.0, 0.0]))
    with pytest.warns(AuditWarning, match="dropped 1 household"):
        est = estimate_weights(rows)
    assert est.n_households == 2
    np.testing.assert_allclose(est.point.w, [0.75, 0.25], rtol=1e-15)


def test_estimate_weights_needs_two_usable_households():
    with pytest.raises(ValidationError, match="no household records"):
        estimate_weights(panel())
    with pytest.raises(ValidationError, match="at least 2 households"):
        estimate_weights(panel(("h1", [1.0, 2.0])))
    with pytest.warns(AuditWarning):
        with pytest.raises(ValidationError, match="at least 2 households"):
            estimate_weights(panel(("h1", [1.0, 2.0]),
                                   ("h2", [0.0, 0.0])))


def test_estimate_weights_refuses_an_overflowing_total():
    # every household's total is finite; the pooled total is not
    rows = panel(("h1", [1e307, 8e307]), ("h2", [5e307, 4e307]), ("h3", [0.0, 0.0]))
    with pytest.warns(AuditWarning, match="dropped 1 household"):
        with pytest.raises(ValidationError, match="^the pooled expenditure total of 2 "
                                                  "households overflows to inf$"):
            estimate_weights(rows)


def test_household_panel_rejects_mismatched_shapes():
    with pytest.raises(DimensionMismatchError, match="2 household ids"):
        HouseholdPanel(("h1", "h2"), np.ones((3, 2)))
    with pytest.raises(DimensionMismatchError, match="1 strata"):
        HouseholdPanel(("h1", "h2"), np.ones((2, 2)), strata=("north",))
    with pytest.raises(DimensionMismatchError, match=r"shape \(2,\)"):
        HouseholdPanel(("h1", "h2"), np.ones(2))


def test_estimate_weights_invariants_on_random_samples():
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = int(rng.integers(3, 60))
        m = int(rng.integers(2, 7))
        spend = rng.gamma(1.5, 1.0, size=(n, m))
        est = estimate_weights(spend_panel(spend))
        cov = est.covariance
        scale = float(np.max(np.abs(cov))) + 1e-300
        assert float(np.max(np.abs(cov - cov.T))) <= 1e-14 * scale
        assert float(np.linalg.eigvalsh(cov).min()) >= -1e-12 * scale
        np.testing.assert_allclose(cov.sum(axis=1), 0.0, atol=1e-14 * scale * m)
        assert est.point.w.sum() == pytest.approx(1.0, rel=1e-12)


def test_estimate_weights_is_scale_invariant():
    rng = np.random.default_rng(11)
    spend = rng.gamma(2.0, 1.0, size=(20, 3))
    base = estimate_weights(spend_panel(spend))
    scaled = estimate_weights(spend_panel(1000.0 * spend))
    np.testing.assert_allclose(scaled.point.w, base.point.w, rtol=1e-13)
    np.testing.assert_allclose(scaled.covariance, base.covariance,
                               rtol=1e-12, atol=1e-18)


def test_covariance_estimates_true_sampling_variance():
    """Replicated draws: the linearized covariance should track the actual
    spread of the estimator (ratio within ~30% at this replicate count)."""
    truth = WeightVector([0.4, 0.35, 0.25])
    points, predicted = [], []
    for r in range(300):
        rows = simulate_households(truth, n=40, dispersion=0.3, seed=5000 + r)
        est = estimate_weights(rows)
        points.append(est.point.w)
        predicted.append(np.diag(est.covariance))
    empirical = np.var(np.stack(points), axis=0, ddof=1)
    mean_predicted = np.mean(np.stack(predicted), axis=0)
    ratio = mean_predicted / empirical
    assert np.all(ratio > 0.7) and np.all(ratio < 1.4), ratio


# --- simulator -------------------------------------------------------------------


def test_simulate_households_is_deterministic():
    truth = WeightVector([0.6, 0.4])
    a = simulate_households(truth, n=8, dispersion=0.5, seed=99)
    b = simulate_households(truth, n=8, dispersion=0.5, seed=99)
    c = simulate_households(truth, n=8, dispersion=0.5, seed=100)
    assert a.household_ids == tuple(f"h{i}" for i in range(1, 9))
    for ra, rb in zip(a.expenditures, b.expenditures):
        np.testing.assert_array_equal(ra, rb)
    assert any(not np.array_equal(ra, rc)
               for ra, rc in zip(a.expenditures, c.expenditures))


def test_simulate_households_ids_are_zero_padded():
    truth = WeightVector([0.5, 0.5])
    rows = simulate_households(truth, n=100, dispersion=0.5, seed=1)
    assert rows.household_ids[0] == "h001"
    assert rows.household_ids[-1] == "h100"


def test_simulate_households_stratum_and_validation():
    truth = WeightVector([0.5, 0.5])
    rows = simulate_households(truth, n=3, dispersion=0.5, seed=2,
                               stratum_label="south")
    assert all(stratum == "south" for stratum in rows.strata)
    with pytest.raises(ValidationError, match="n must be positive"):
        simulate_households(truth, n=0, dispersion=0.5, seed=2)
    with pytest.raises(ValidationError, match="dispersion"):
        simulate_households(truth, n=3, dispersion=0.0, seed=2)
    # positive and finite, but the draws overflow or come out nan
    for dispersion in (5e-324, 1e3, 1e10):
        with pytest.raises(ValidationError, match="dispersion .* out of range"):
            simulate_households(truth, n=30, dispersion=dispersion, seed=2)


def test_simulate_households_collapses_at_small_dispersion():
    truth = WeightVector([0.3, 0.45, 0.25])
    rows = simulate_households(truth, n=60, dispersion=1e-6, seed=3)
    est = estimate_weights(rows)
    np.testing.assert_allclose(est.point.w, truth.w, atol=5e-3)


def test_estimator_is_consistent_at_large_n():
    truth = WeightVector([0.4, 0.35, 0.25])
    rows = simulate_households(truth, n=20000, dispersion=0.5, seed=12)
    est = estimate_weights(rows)
    np.testing.assert_allclose(est.point.w, truth.w, atol=0.01)


# --- index variance ---------------------------------------------------------------


def test_index_variance_oracles(tiny_prices, tiny_estimate):
    # V = 4e-4 * [1,-1][1,-1]^T, so p'Vp = 4e-4 (p_a - p_b)^2
    assert index_variance(tiny_prices, tiny_estimate, t=0) == 0.0
    assert index_variance(tiny_prices, tiny_estimate, t=1) == pytest.approx(
        0.0004 * 9.0, rel=1e-13)
    assert index_variance(tiny_prices, tiny_estimate, t=2) == pytest.approx(
        0.0004 * 36.0, rel=1e-13)
    assert index_variance(tiny_prices, tiny_estimate,
                          periods=[0, 1, 2]) == pytest.approx(
        0.0004 * 9.0, rel=1e-13)
    assert index_variance(tiny_prices, tiny_estimate,
                          periods=[0]) == 0.0


def test_index_variance_argument_contract(tiny_prices, tiny_estimate):
    with pytest.raises(ValidationError, match="exactly one"):
        index_variance(tiny_prices, tiny_estimate)
    with pytest.raises(ValidationError, match="exactly one"):
        index_variance(tiny_prices, tiny_estimate, t=0, periods=[1])
    with pytest.raises(ValidationError, match="out of range"):
        index_variance(tiny_prices, tiny_estimate, t=7)
    other = WeightEstimate(
        point=WeightVector([0.4, 0.3, 0.3]),
        covariance=np.zeros((3, 3)),
    )
    with pytest.raises(DimensionMismatchError):
        index_variance(tiny_prices, other, t=0)


def test_index_variance_rejects_fabricated_broken_covariance(tiny_prices):
    """Bypass construction checks to verify the runtime guard still catches a
    covariance that produces a genuinely negative quadratic form."""
    est = object.__new__(WeightEstimate)
    object.__setattr__(est, "point", WeightVector([0.5, 0.5]))
    object.__setattr__(est, "covariance",
                       np.array([[-0.25, 0.25], [0.25, -0.25]]))
    object.__setattr__(est, "n_households", 10)
    with pytest.raises(ValidationError, match="negative"):
        index_variance(tiny_prices, est, t=1)
