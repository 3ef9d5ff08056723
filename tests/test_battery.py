"""The test battery against the cell-by-cell reference battery.

Generated batteries mix well-posed cells with every input the battery
rejects: empty, out-of-range and duplicated period subsets, zero
covariances, and weight vectors whose groups do not match the panel. For
each, both batteries must give the same report rows, bit for bit and in the
same order, or raise the same exception type with the same message.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import battery_oracle
from indexaudit import report
from indexaudit.bias_tests import TestKind, TestResults, cross_group_battery
from indexaudit.core import PriceSeries, WeightVector
from indexaudit.errors import AuditWarning
from indexaudit.survey import WeightEstimate

LABELS = ["a", "b", "all", "s 1", "zz", "p0"]


def weights(draw, rng, m, label):
    """A weight vector over the panel's groups, or now and then one that
    does not fit them: other labels, no labels, or another group count."""
    fit = draw(st.sampled_from(["match"] * 20 + ["unlabelled", "relabelled", "resized"]))
    size = m + 1 if fit == "resized" else m
    labels = {"match": tuple(f"g{i}" for i in range(m)), "unlabelled": None,
              "relabelled": tuple(f"h{i}" for i in range(m)),
              "resized": tuple(f"g{i}" for i in range(size))}[fit]
    return WeightVector(rng.dirichlet(np.full(size, 4.0)), label=label, group_labels=labels)


def estimate(draw, rng, m, label):
    point = weights(draw, rng, m, label)
    if draw(st.integers(0, 15)) == 0:
        covariance = np.zeros((point.n_groups, point.n_groups))
    else:
        shares = rng.dirichlet(np.full(point.n_groups, 6.0), size=40)
        influence = shares - shares.mean(axis=0)
        covariance = influence.T @ influence / (40 * 39)
        covariance = 0.5 * (covariance + covariance.T)
    return WeightEstimate(point=point, covariance=covariance, n_households=40)


def subset(draw, t):
    shape = draw(st.sampled_from(
        ["none"] * 2 + ["single"] * 6 + ["multi"] * 6 + ["empty", "out", "duplicate"]))
    if shape == "none":
        return None
    if shape == "empty":
        return []
    if shape == "out":
        return [draw(st.sampled_from([-1, t, t + 3]))]
    if shape == "duplicate":
        position = draw(st.integers(0, t - 1))
        return [position, position]
    size = 1 if shape == "single" else draw(st.integers(1, t))
    positions = draw(st.permutations(range(t)))[:size]
    return draw(st.sampled_from([list(positions), tuple(positions)]))


@st.composite
def batteries(draw):
    m, t = draw(st.integers(2, 6)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = 100.0 * np.exp(0.05 * rng.standard_normal((m, t)))
    if draw(st.integers(0, 5)) == 0:
        values[:] = values[:, :1]  # flat prices: the proxy index has no slope
    prices = PriceSeries(values, tuple(f"g{i}" for i in range(m)),
                         tuple(f"p{j}" for j in range(t)))
    survey_labels = draw(st.lists(st.sampled_from(LABELS), min_size=1, max_size=3,
                                  unique=True))
    proxy_labels = draw(st.lists(st.sampled_from(LABELS), min_size=1, max_size=4,
                                 unique=True))
    estimates = {label: estimate(draw, rng, m, f"est {label}") for label in survey_labels}
    proxies = {label: weights(draw, rng, m, f"proxy {label}") for label in proxy_labels}
    if draw(st.integers(0, 4)) == 0:
        subsets = None
    else:
        names = draw(st.lists(st.sampled_from(LABELS), min_size=draw(st.sampled_from(
            [1] * 9 + [0])), max_size=4, unique=True))
        subsets = {name: subset(draw, t) for name in names}
    # "Z" is TestKind.Z by value; "Q" is no test kind
    include = draw(st.sampled_from([(TestKind.Z, TestKind.B)] * 4 + [
        (TestKind.Z,)] * 3 + [(TestKind.B,), (TestKind.B, TestKind.Z), ("Z",), (),
                              (TestKind.Z, "Q")]))
    return prices, estimates, proxies, subsets, include


def outcome(battery, prices, estimates, proxies, subsets, include):
    try:
        results = battery(prices, estimates, proxies, period_subsets=subsets,
                          include=include)
    except Exception as exc:  # any exception must match, type and message
        return "error", type(exc), str(exc)
    # repr keeps every float's bits, the sign of zero and the key order
    rows = repr([report.test_result_row(result) for result in results])
    if isinstance(results, TestResults):  # the battery's rows, and the view of each
        assert repr(list(report.test_result_rows(results))) == rows
    return "ok", rows


def assert_matches_reference(prices, estimates, proxies, subsets, include):
    """Both batteries give the same rows or raise the same error. Where every
    cell runs, the battery also names, once each and in order, the subsets
    whose B-tests it skipped; the reference skips them silently."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", AuditWarning)
        got = outcome(cross_group_battery, prices, estimates, proxies, subsets, include)
    assert got == outcome(battery_oracle.cross_group_battery, prices, estimates, proxies,
                          subsets, include)
    if got[0] == "ok":
        named = subsets if subsets is not None else {"all": None}
        sizes = {name: prices.n_periods if periods is None else len(periods)
                 for name, periods in named.items()}
        skipped = (sorted(name for name, size in sizes.items() if size < 3)
                   if TestKind.B in include and estimates and proxies else [])
        assert [str(w.message) for w in caught] == [
            f"B-test skipped for period subset {name!r}: the slope fit needs at least 3 "
            f"periods, the subset has {sizes[name]}" for name in skipped]


@settings(max_examples=400, deadline=None)
@given(batteries())
def test_battery_matches_cell_by_cell_reference(battery):
    assert_matches_reference(*battery)


@pytest.mark.parametrize("subsets, include", [
    ({}, (TestKind.Z, TestKind.B)),
    ({"bad": [], "worse": [99]}, ()),
])
def test_battery_with_nothing_to_run_checks_nothing(subsets, include):
    # groups that do not fit the panel would fail the first test run
    prices = PriceSeries(np.full((2, 3), 100.0), ("g0", "g1"), ("p0", "p1", "p2"))
    misfit = WeightVector([0.5, 0.3, 0.2], label="misfit")
    estimates = {"s": WeightEstimate(point=misfit, covariance=np.zeros((3, 3)))}
    for battery in (cross_group_battery, battery_oracle.cross_group_battery):
        assert list(battery(prices, estimates, {"p": misfit}, period_subsets=subsets,
                            include=include)) == []


def test_battery_matches_reference_on_a_wide_panel():
    # 40 groups, as in real panels: a matrix product over this many terms
    # sums in another order than the per-cell dot product and would differ
    # in the last bits
    rng = np.random.default_rng(11)
    m, t = 40, 60
    prices = PriceSeries(100.0 * np.exp(0.05 * rng.standard_normal((m, t))),
                         tuple(f"g{i}" for i in range(m)), tuple(f"p{j:02d}" for j in range(t)))
    shares = rng.dirichlet(np.full(m, 6.0), size=200)
    influence = shares - shares.mean(axis=0)
    covariance = influence.T @ influence / (200 * 199)
    estimates = {"all": WeightEstimate(point=WeightVector(shares.mean(axis=0)),
                                       covariance=0.5 * (covariance + covariance.T))}
    proxies = {f"q{k}": WeightVector(rng.dirichlet(np.full(m, 4.0))) for k in range(4)}
    subsets = {prices.period_labels[j]: [j] for j in range(t)}
    subsets.update(all=None, spring=[3, 4, 5, 6])
    assert_matches_reference(prices, estimates, proxies, subsets, (TestKind.Z, TestKind.B))


@pytest.mark.parametrize("misfit, subsets, message", [
    # group checks come before the period subset is resolved
    ("proxy", {"a": []}, "weight vector 'p' has 3 groups"),
    ("estimate", {"a": [7]}, "weight vector 's' has 3 groups"),
    ("neither", {"a": [0, 0]}, "period subset contains duplicates"),
])
def test_battery_error_precedence(misfit, subsets, message):
    prices = PriceSeries(np.array([[100.0, 101.0], [99.0, 98.0]]), ("g0", "g1"),
                         ("p0", "p1"))
    fit = WeightVector([0.5, 0.5])
    wide = WeightVector([0.5, 0.3, 0.2])
    point = WeightVector((wide if misfit == "estimate" else fit).w, label="s")
    cov = 1e-4 * (np.eye(point.n_groups) - 1.0 / point.n_groups)
    estimates = {"s": WeightEstimate(point=point, covariance=cov)}
    proxies = {"p": WeightVector((wide if misfit == "proxy" else fit).w, label="p")}
    for battery in (cross_group_battery, battery_oracle.cross_group_battery):
        with pytest.raises(Exception, match=message):
            battery(prices, estimates, proxies, period_subsets=subsets)
