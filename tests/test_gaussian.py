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
    # arrays are worked in blocks of 16,384 values: sizes around one block
    # and across several, and 2-d arrays whose rows straddle a boundary
    assert gaussian._BLOCK == 16_384
    long = np.random.default_rng(3).normal(0.0, 4.0, 50_001)
    scalars = np.array([gaussian.cdf(x) for x in long.tolist()])
    for size in (16_383, 16_384, 16_385, 50_001):
        assert gaussian.cdf(long[:size]).tobytes() == scalars[:size].tobytes()
    assert gaussian.cdf(long[:20_100].reshape(201, 100)).ravel().tobytes() == \
        scalars[:20_100].tobytes()
    transposed = long[:20_100].reshape(100, 201).T
    assert gaussian.cdf(transposed).tobytes() == scalars[:20_100].reshape(100, 201).T.tobytes()
    for values in (grid, grid[:1600].reshape(40, 40), np.array(1.25), np.array(-math.inf),
                   np.array([]), np.empty((0, 3))):
        vector = gaussian.cdf(values)
        assert np.shape(vector) == values.shape
        assert vector.dtype == np.float64
        scalars = [gaussian.cdf(x) for x in values.ravel().tolist()]
        assert all(type(x) is float for x in scalars)
        assert np.asarray(vector).ravel().tobytes() == np.array(scalars, dtype=float).tobytes()
    assert type(gaussian.cdf(np.array(1.25))) is np.float64
    assert gaussian.cdf(np.array([-40.0]))[0] == 0.0


def test_pdf_scalar_and_array_agree():
    # bit for bit, into both tails where exp underflows to 0, and across a
    # block boundary
    grid = np.concatenate([np.linspace(-40.0, 40.0, 8001), [math.inf, -math.inf, -0.0],
                           np.random.default_rng(5).normal(0.0, 3.0, 20_000)])
    for values in (grid, grid[:8000].reshape(80, 100), np.array(-38.5)):
        vector = gaussian.pdf(values)
        assert np.shape(vector) == values.shape and vector.dtype == np.float64
        scalars = np.array([gaussian.pdf(x) for x in values.ravel().tolist()])
        assert np.ravel(vector).tobytes() == scalars.tobytes()
    assert gaussian.pdf(np.array([40.0, -40.0])).tolist() == [0.0, 0.0]
    assert math.isnan(gaussian.pdf(math.nan))


def ulps(ours: np.ndarray, theirs: np.ndarray) -> np.ndarray:
    """How many doubles apart two arrays of non-negative floats are."""
    return np.abs(ours.view(np.int64) - theirs.view(np.int64))


def neighbours(edge: float, count: int = 20) -> np.ndarray:
    """The ``count`` doubles on each side of ``edge``, and ``edge``."""
    up, down = [edge], [edge]
    for _ in range(count):
        up.append(math.nextafter(up[-1], math.inf))
        down.append(math.nextafter(down[-1], -math.inf))
    return np.array(down[::-1] + up[1:])


# where erfc changes its approximation, with 1/0.35 as s_erf.c compares it
ERFC_EDGES = (-6.0, -2.857142925262451, -1.25, -0.84375, 0.25, 0.84375, 1.25,
              2.857142925262451)


def test_erfc_is_within_two_ulps_of_libm():
    # The package's erfc is s_erf.c's, in the order the C library evaluates
    # it, so it differs from math.erfc only through exp in the tail ranges.
    # Measured: 99.92% of this grid bit for bit where the C library takes
    # its FMA variants, all of it where it does not.
    grid = np.concatenate([np.linspace(-6.0, 27.0, 1_000_001),
                           *map(neighbours, ERFC_EDGES)])
    ours = gaussian.erfc(grid)
    theirs = np.array([math.erfc(x) for x in grid.tolist()])
    distance = ulps(ours, theirs)
    assert distance.max() <= 2, grid[np.argmax(distance)]
    assert np.mean(distance == 0) >= 0.99


def test_exp_is_within_an_ulp_of_libm():
    # the C library's own scheme, so bit for bit where it does not take its
    # FMA variants; measured 99.94% here where it does
    grid = np.concatenate([np.linspace(-745.0, 709.0, 1_000_001),
                           np.linspace(-1.0, 1.0, 100_001), neighbours(-708.39),
                           neighbours(709.78)])
    ours = gaussian.exp(grid)
    theirs = np.array([math.exp(x) for x in grid.tolist()])
    distance = ulps(ours, theirs)
    assert distance.max() <= 1, grid[np.argmax(distance)]
    assert np.mean(distance == 0) >= 0.99
    assert [gaussian.exp(x) for x in (0.0, -0.0, 1e-300, -746.0, 710.0, math.inf,
                                      -math.inf, -1e308, 1e308)] == \
        [1.0, 1.0, 1.0, 0.0, math.inf, math.inf, 0.0, 0.0, math.inf]
    assert math.isnan(gaussian.exp(math.nan))
    assert gaussian.exp(np.array([math.nan, 0.0])).tolist()[1] == 1.0


def test_erfc_keeps_relative_accuracy_down_to_underflow():
    # against 100-bit mpmath: scipy's own erfc drifts to 6e-14 relative
    # past x = 20, and to 2e-15 on [0, 1], so it cannot referee this
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.prec = 100
    grid = np.concatenate([np.linspace(-6.0, 26.5, 3_001), [26.54, 26.543]])
    ours = gaussian.erfc(grid)
    assert ours.min() >= np.finfo(float).tiny
    worst = max(abs(mpmath.mpf(value) - mpmath.erfc(x)) / mpmath.erfc(x)
                for x, value in zip(grid.tolist(), ours.tolist()))
    assert worst <= 1e-15
    assert [gaussian.erfc(x) for x in (math.inf, -math.inf, 28.0, -6.0, 0.0, -0.0, 1e-300)] \
        == [0.0, 2.0, 0.0, 2.0, 1.0, 1.0, 1.0]
    assert 0.0 < gaussian.erfc(27.2) < np.finfo(float).tiny
    assert math.isnan(gaussian.erfc(math.nan))


def test_log_is_within_an_ulp_of_libm():
    # only the quantile's first guess takes it, on (0, 0.02425]
    values = np.concatenate([np.logspace(-323.0, -1.6, 20_000), [5e-324, 2.0 ** -1022, 0.5]])
    ours = np.array([gaussian._log(x) for x in values.tolist()])
    theirs = np.array([math.log(x) for x in values.tolist()])
    assert np.max(np.abs(ours - theirs) / np.abs(theirs) / np.finfo(float).eps) <= 1.0


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


def per_value_through_lists(function, x):
    """``function`` mapped over the values of ``x`` as Python numbers."""
    return np.array([function(value) for value in np.ravel(x).tolist()],
                    dtype=float).reshape(np.shape(x))


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
    # an array of any dtype or layout gives each value the bits that value
    # gets as a float; blocks of 7 values, so most arrays take several
    monkeypatch.setattr(gaussian, "_BLOCK", 7)
    for function in (gaussian.erfc, gaussian.exp, gaussian.cdf, gaussian.pdf):
        got = np.asarray(function(x))
        want = per_value_through_lists(function, x)
        assert got.dtype == np.float64
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
