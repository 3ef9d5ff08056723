import math

import numpy as np
import pytest
import scipy.stats

from indexaudit import gaussian

# Values frozen from scipy.stats.norm on an independent machine; the module
# must reproduce them without scipy at runtime.
FROZEN_CDF = {
    -8.0: 6.22096057427178e-16,
    -3.0: 0.0013498980316300933,
    -1.0: 0.15865525393145707,
    0.0: 0.5,
    0.5: 0.6914624612740131,
    1.959963984540054: 0.9750000000000001,
    6.0: 0.9999999990134124,
}

FROZEN_QUANTILE = {
    0.975: 1.9599639845400538,
    0.025: -1.9599639845400538,
    0.5: 0.0,
    0.84: 0.994457883209753,
    1e-10: -6.361340902404056,
}

FROZEN_TWO_SIDED = {
    0.03803: 0.9696637627822756,
    2.6122: 0.008996160878494851,
    0.0: 1.0,
}


def test_cdf_matches_frozen_values():
    for x, expected in FROZEN_CDF.items():
        assert gaussian.cdf(x) == pytest.approx(expected, rel=1e-13, abs=0.0)


def test_cdf_matches_scipy_on_grid():
    # erfc-based values and scipy's cephes ndtr are each good to ~1 ulp but
    # round differently deep in the tail; 1e-12 relative leaves no room for a
    # real defect while tolerating that.
    grid = np.linspace(-37.0, 8.0, 901)
    ours = gaussian.cdf(grid)
    theirs = scipy.stats.norm.cdf(grid)
    np.testing.assert_allclose(ours, theirs, rtol=1e-12, atol=0.0)


def test_cdf_scalar_and_array_agree():
    # bit for bit, out past x = -38.5 where erfc underflows to 0, and on
    # infinities and nan, for arrays of any shape
    grid = np.concatenate([np.linspace(-40.0, 40.0, 1601),
                           [math.inf, -math.inf, math.nan, -0.0]])
    # arrays are mapped in slices of 65,536 values: sizes around one slice
    # and across several, and a 2-d array whose rows straddle a boundary
    long = np.random.default_rng(3).normal(0.0, 4.0, 200_001)
    sliced = [long[:size] for size in (65_535, 65_536, 65_537, 200_001)]
    for values in (grid, grid[:1600].reshape(40, 40), np.array(1.25), np.array(-math.inf),
                   np.array([]), np.empty((0, 3)), *sliced, long[:90_300].reshape(301, 300),
                   long[:90_300].reshape(300, 301).T):
        vector = gaussian.cdf(values)
        assert np.shape(vector) == values.shape
        assert vector.dtype == np.float64
        scalars = [gaussian.cdf(x) for x in values.ravel().tolist()]
        assert np.asarray(vector).ravel().tobytes() == np.array(scalars, dtype=float).tobytes()
    assert gaussian.cdf(np.array([-40.0]))[0] == 0.0


def test_pdf_scalar_and_array_agree():
    # bit for bit, into both tails where exp underflows to 0, and across a
    # slice boundary: arrays go through libm's exp value by value
    grid = np.concatenate([np.linspace(-40.0, 40.0, 8001), [math.inf, -math.inf, -0.0],
                           np.random.default_rng(5).normal(0.0, 3.0, 70_000)])
    for values in (grid, grid[:8000].reshape(80, 100), np.array(-38.5)):
        vector = gaussian.pdf(values)
        assert np.shape(vector) == values.shape and vector.dtype == np.float64
        scalars = np.array([gaussian.pdf(x) for x in values.ravel().tolist()])
        assert (np.ravel(vector) == scalars).all()
    assert gaussian.pdf(np.array([40.0, -40.0])).tolist() == [0.0, 0.0]


@pytest.mark.parametrize("exponent", [2, 3, 6, 0.5])
def test_power_is_pythons_float_power_value_by_value(exponent):
    # numpy's ** rounds other values differently for each of these exponents
    values = np.abs(np.random.default_rng(6).normal(0.0, 1e3, 20_000))
    values[:3] = [0.0, 1e200, 2e-300]
    want = []
    for value in values.tolist():
        try:
            want.append(value ** exponent)
        except OverflowError:
            want.append(math.inf)
    assert gaussian.power(values, exponent).tolist() == want
    assert [gaussian.power(value, exponent) for value in values[:50].tolist()] == want[:50]


def test_cdf_deep_lower_tail_keeps_relative_precision():
    # 2 * cdf(-x) is how p-values are formed; it must not underflow to zero
    # until the true value does.
    assert gaussian.cdf(-30.0) == pytest.approx(
        scipy.stats.norm.cdf(-30.0), rel=1e-12)
    assert gaussian.cdf(-30.0) > 0.0


def test_pdf_matches_scipy():
    grid = np.linspace(-10.0, 10.0, 201)
    np.testing.assert_allclose(gaussian.pdf(grid), scipy.stats.norm.pdf(grid),
                               rtol=1e-14, atol=0.0)
    assert gaussian.pdf(0.0) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi),
                                              rel=1e-15)


def test_quantile_matches_frozen_values():
    for p, expected in FROZEN_QUANTILE.items():
        assert gaussian.quantile(p) == pytest.approx(expected, rel=1e-12,
                                                     abs=1e-15)


def test_quantile_matches_scipy_across_domain():
    # Near p = 1 the probability itself only carries ~4 digits of tail mass,
    # so agreement with another implementation is meaningless there; those
    # points are covered by the defining-property test below instead.
    probs = np.concatenate([
        np.array([1e-300, 1e-100, 1e-16, 1e-9]),
        np.linspace(0.001, 0.999, 499),
    ])
    for p in probs:
        assert gaussian.quantile(float(p)) == pytest.approx(
            scipy.stats.norm.ppf(p), rel=1e-11, abs=1e-13), p


def test_quantile_satisfies_defining_property_near_one():
    for p in (1.0 - 1e-9, 1.0 - 1e-12):
        x = gaussian.quantile(p)
        assert gaussian.cdf(x) == pytest.approx(p, abs=5e-16)


def test_quantile_cdf_round_trip():
    # Central range: 5e-12 absolute. Beyond |x| ~ 4 the round-trip error is
    # governed by the spacing of doubles around cdf(x), i.e. ~2.3e-16/pdf(x).
    for x in np.linspace(-8.0, 8.0, 161):
        p = gaussian.cdf(float(x))
        back = gaussian.quantile(p)
        bound = 5e-12 if abs(x) <= 4.0 else 2.3e-16 / gaussian.pdf(float(x))
        assert abs(back - float(x)) <= bound, x


def test_cdf_quantile_round_trip_in_probability():
    for p in np.linspace(0.0005, 0.9995, 999):
        assert gaussian.cdf(gaussian.quantile(float(p))) == pytest.approx(
            float(p), rel=1e-12)


def test_quantile_is_strictly_monotone():
    probs = np.linspace(1e-6, 1.0 - 1e-6, 4001)
    values = np.array([gaussian.quantile(float(p)) for p in probs])
    assert np.all(np.diff(values) > 0.0)


def test_quantile_rejects_out_of_domain():
    for bad in (0.0, 1.0, -0.5, 1.5, math.nan):
        with pytest.raises(ValueError):
            gaussian.quantile(bad)


def test_quantile_antisymmetry():
    for p in (0.01, 0.2, 0.35, 0.49):
        assert gaussian.quantile(p) == pytest.approx(-gaussian.quantile(1.0 - p),
                                                     abs=1e-13)


def test_two_sided_p_frozen_values():
    for stat, expected in FROZEN_TWO_SIDED.items():
        assert gaussian.two_sided_p(stat) == pytest.approx(expected, rel=1e-13)


def test_two_sided_p_even_in_the_statistic():
    for stat in (0.3, 1.7, 4.2, 11.0):
        assert gaussian.two_sided_p(stat) == gaussian.two_sided_p(-stat)


def test_two_sided_p_extreme_statistic_does_not_collapse_to_zero():
    p = gaussian.two_sided_p(37.0)
    assert 0.0 < p < 1e-200
    assert gaussian.two_sided_p(math.inf) == 0.0


def test_ks_distance_on_ideal_sample_is_half_spacing():
    n = 400
    sample = np.array([gaussian.quantile((i + 0.5) / n) for i in range(n)])
    assert gaussian.ks_distance(sample) == pytest.approx(0.5 / n, rel=1e-6)


def test_ks_distance_flags_shifted_sample():
    rng = np.random.default_rng(7)
    shifted = rng.standard_normal(2000) + 0.5
    centered = rng.standard_normal(2000)
    assert gaussian.ks_distance(shifted) > 0.15
    assert gaussian.ks_distance(centered) < 0.03


def test_ks_distance_rejects_empty():
    with pytest.raises(ValueError):
        gaussian.ks_distance(np.array([]))


def per_value_through_lists(function, x, argument):
    """``gaussian._per_value`` as it was written, through ``tolist()``."""
    part = argument(np.ravel(x))
    return np.fromiter(map(function, part.tolist()), float,
                       count=part.size).reshape(np.shape(x))


@pytest.mark.parametrize("x", [
    np.linspace(-9.0, 9.0, 301),
    np.linspace(-9.0, 9.0, 301, dtype=np.float32),
    np.arange(-40, 41),
    np.arange(-40, 41, dtype=np.int8),
    np.linspace(-9.0, 9.0, 602)[::2],
    np.linspace(-9.0, 9.0, 300).reshape(20, 15).T,
    np.array(2.5),
    np.array([-1.5, 0, 2, 7.25], dtype=object),
    np.array([0.5, 1.5], dtype=np.float16),
], ids=["float64", "float32", "int64", "int8", "strided", "transposed", "0-d",
        "object", "float16"])
def test_per_value_keeps_the_bits_of_mapping_over_a_list(monkeypatch, x):
    # slices of 7 values, so most arrays take several
    monkeypatch.setattr(gaussian, "_SLICE", 7)
    for function, argument in [
            (math.erfc, lambda part: -part / gaussian._SQRT2),
            (math.exp, lambda part: -0.5 * part * part),
            (lambda value: gaussian.power(value, 6), np.asarray)]:
        got = gaussian._per_value(function, x, argument)
        want = per_value_through_lists(function, x, argument)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
