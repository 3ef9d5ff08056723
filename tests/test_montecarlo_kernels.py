"""The blocked Monte Carlo kernels against the whole-array kernels they
replaced (``montecarlo_oracle``): the same draws must give the same bits at
and across every block and chunk boundary, and each check's traced peak must
stay within the arrays it holds whole and the arrays of one block. With
several jobs, no check array lives in the parent process. The statistics the
Z/B checks draw agree with the package's own ``z_test`` and ``b_test``."""

from __future__ import annotations

import os
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import montecarlo_oracle as oracle
from indexaudit import gaussian, montecarlo
from indexaudit.bias_tests import b_test, z_test
from indexaudit.core import WeightVector
from indexaudit.coverage import EvalScheme
from indexaudit.montecarlo import SimulationPlan
from indexaudit.survey import WeightEstimate

SIGMA2 = EvalScheme(alpha=0.95, omega=0.058).sigma ** 2
# many blocks, each size with another tail
REPLICATES = [2, 999_999, 1_000_000, 1_000_001]
BLOCK = montecarlo._BLOCK
# below, at and across one block, where a 1-row tail joins the block before
# it; a full block and a longer tail; three blocks and a 1-row tail
BLOCK_REPLICATES = [BLOCK - 1, BLOCK, BLOCK + 1, 70_001, 3 * BLOCK + 1]
MB = 1 << 20


def plan(scenario, replicates, seed=5, **params):
    return SimulationPlan(scenario=scenario, replicates=replicates, seed=seed,
                          parameters=params)


@pytest.mark.parametrize("replicates", REPLICATES)
@pytest.mark.parametrize("scenario, params", [
    ("coverage_constant", {"bias": 0.029}),
    ("coverage_unbiased", {"extra_variance": SIGMA2}),
    ("coverage_biased_noisy", {"bias": 0.0464, "extra_variance": 0.5 * SIGMA2}),
])
def test_empirical_coverage_is_bit_identical(scenario, params, replicates):
    p = plan(scenario, replicates, **params)
    assert repr(montecarlo.empirical_coverage(p)) == repr(oracle.empirical_coverage(p))


@pytest.mark.parametrize("replicates", REPLICATES)
@pytest.mark.parametrize("params", [{"true_bias": 0.0}, {"true_bias": 0.058},
                                    {"true_bias": -0.01, "audit_variance": 0.0}])
def test_mse_unbiasedness_is_bit_identical(params, replicates):
    p = plan("mse_unbiasedness", replicates, **params)
    assert repr(montecarlo.mse_unbiasedness(p)) == repr(oracle.mse_unbiasedness(p))


def assert_tree_matches_numpy(size: int, seed: int) -> None:
    rng = np.random.Generator(np.random.PCG64(seed))
    # an offset far from 0 makes the rounding of every partial sum count
    values = rng.standard_normal(size) * rng.uniform(1e-3, 1e3) + rng.uniform(-1e3, 1e3)
    overwritten, leaves = values.copy(), []

    def leaf(start, stop):
        leaves.append((start, stop))
        return overwritten[start:stop]

    mean, sd = montecarlo._mean_and_sd(size, leaf, leaf)
    assert (repr(mean), repr(sd)) == (repr(float(np.mean(values))),
                                      repr(float(np.std(values, ddof=1))))
    # each pass reads the values once, in order, at most a block at a time
    half = len(leaves) // 2
    assert leaves[:half] == leaves[half:]
    assert [start for start, _ in leaves[:half]] == [0] + [stop for _, stop in leaves[:half - 1]]
    assert leaves[half - 1][1] == size
    assert all(stop - start <= BLOCK for start, stop in leaves)
    tree_sum = montecarlo._tree_sum(lambda start, stop: np.add.reduce(values[start:stop]),
                                    size)
    assert repr(float(tree_sum)) == repr(float(np.add.reduce(values)))


# numpy's own leaves (below 8, up to 128), a block and one value either side,
# two blocks and one either side, and block multiples whose halves round down
# to a multiple of 8
@pytest.mark.parametrize("size", [*range(2, 129), BLOCK - 1, BLOCK, BLOCK + 1,
                                  2 * BLOCK - 1, 2 * BLOCK, 2 * BLOCK + 1,
                                  *(k * BLOCK + 8 for k in range(1, 6))])
def test_tree_mean_and_sd_match_numpy_at_boundaries(size):
    assert_tree_matches_numpy(size, seed=size)


# sizes up to ~3M, drawn as whole blocks plus a rest so that large sizes are
# as likely as small ones
@settings(max_examples=40, deadline=None)
@given(st.integers(0, 44), st.integers(2, BLOCK + 1), st.integers(0, 2 ** 32 - 1))
def test_tree_mean_and_sd_match_numpy(blocks, rest, seed):
    assert_tree_matches_numpy(blocks * BLOCK + rest, seed)


@pytest.mark.parametrize("total", [2, BLOCK - 1, BLOCK, BLOCK + 1, BLOCK + 2, 2 * BLOCK,
                                   3 * BLOCK + 1])
def test_blocks_cover_the_replicates_without_a_one_row_block(total):
    blocks = list(montecarlo._blocks(total))
    assert [b.start for b in blocks] == [0] + [b.stop for b in blocks[:-1]]
    assert blocks[-1].stop == total
    assert all(2 <= b.stop - b.start <= BLOCK + 1 for b in blocks)


@pytest.mark.parametrize("replicates", [2, 10_001, *BLOCK_REPLICATES, 200_000])
@pytest.mark.parametrize("shift", [0.0, 0.01])
def test_draw_statistics_is_bit_identical(replicates, shift):
    design = montecarlo._DESIGN
    true_weights = design.weights + shift * design.trend_direction
    got = montecarlo._draw_statistics(np.random.Generator(np.random.PCG64(3)),
                                      replicates, true_weights)
    want = oracle.draw_statistics(np.random.Generator(np.random.PCG64(3)),
                                  replicates, true_weights)
    assert [a.tobytes() for a in got] == [b.tobytes() for b in want]


@pytest.mark.parametrize("shift", [0.0, 0.004])
def test_draw_statistics_match_z_test_and_b_test(shift):
    # the calibration and power checks form both statistics inline from the
    # design; the package's own tests must give the same values on the same
    # drawn estimates. They differ by WeightVector's renormalisation: eigh
    # leaves the covariance root a tiny all-ones component, so each draw sums
    # to 1 only within ~4e-10, and dividing by that sum moves the statistic
    # by the gap times (p . w) / stderr, ~1e-6 in z units
    design = montecarlo._DESIGN
    replicates = 300
    true_weights = design.weights + shift * design.trend_direction
    z_stats, b_stats = montecarlo._draw_statistics(
        np.random.Generator(np.random.PCG64(11)), replicates, true_weights)
    draws = (np.random.Generator(np.random.PCG64(11)).standard_normal((replicates, 5))
             @ design.cov_root.T + true_weights)
    proxy = WeightVector(design.weights, label="proxy")
    estimates = [WeightEstimate(point=WeightVector(w, label="survey"),
                                covariance=design.covariance) for w in draws]
    z_got = np.array([z_test(design.prices, e, proxy).statistic for e in estimates])
    b_got = np.array([b_test(design.prices, e, proxy).statistic for e in estimates])
    gap = np.abs(draws.sum(axis=1) - 1.0)
    assert gap.max() < 1e-9
    # the rest is rounding: mean prices and slope coefficients summed in
    # another order differ from the design's in the last bits
    z_bound = gap * np.abs(draws @ design.mean_prices) / design.z_stderr + 1e-12
    b_bound = gap * np.abs(draws @ design.slope_coefficients) / design.b_stderr + 1e-12
    assert np.all(np.abs(z_got - z_stats) <= z_bound)
    assert np.all(np.abs(b_got - b_stats) <= b_bound)


@pytest.mark.parametrize("sample", [
    np.array([0.25]),
    *(np.random.Generator(np.random.PCG64(size)).standard_normal(size)
      for size in (2, *BLOCK_REPLICATES)),
    np.random.Generator(np.random.PCG64(4)).standard_normal(BLOCK + 1) + 0.5,
    np.array([-np.inf, -1.0, 0.0, 0.0, 2.0, np.inf]),
    np.array([1.0, np.nan, -1.0]),
], ids=lambda sample: str(sample.size))
def test_ks_distance_is_bit_identical(sample):
    got = gaussian.ks_distance(sample)
    assert repr(got) == repr(oracle.ks_distance(sample))


@pytest.mark.parametrize("replicates", [2, *BLOCK_REPLICATES])
@pytest.mark.parametrize("params", [
    {"quantity": "plug_in", "bias_in_sigma": 0.3},
    {"quantity": "unbiased_benchmark"},
])
def test_delta_method_check_is_bit_identical(params, replicates):
    p = plan("delta_method_check", replicates, **params)
    assert repr(montecarlo.delta_method_check(p)) == repr(oracle.delta_method_check(p))


def traced_peak(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# What each check holds at once, in each phase of its run: float64 arrays of
# the replicate count, float64 arrays of one block of at most BLOCK + 1 rows
# (a bool mask counts 1/8), and float64 arrays of one gaussian.cdf slice of
# gaussian._BLOCK values: traced_peak of gaussian.cdf, less its result, is up
# to 16.8 of them when every value of a slice falls in one of erfc's two tail
# ranges, 7.3 for a standard normal sample. The bound is the largest phase
# plus 1 MB for small objects. The whole-array kernels, and a coverage check
# that holds a whole 1,000,000-row chunk, exceed every bound.
CDF_SLICE = 17
DRAW_STATISTICS = (2, 11, 0)
CALIBRATION = [DRAW_STATISTICS, (3, 0, CDF_SLICE), (4, 0, 0)]
LAYOUTS = {
    # the differences of one block and their hit mask
    "coverage_constant": [(0, 1.125, 0)],
    "coverage_unbiased": [(0, 1.125, 0)],
    "coverage_biased_noisy": [(0, 1.125, 0)],
    # drawing: the Z and B statistics, and per block the 5-column normals,
    # their product with the covariance root and a statistic's product; then
    # ks_distance beside the tested statistic: its sorted copy and the CDF
    # values, with one CDF slice; then the CDF values, the grid and one
    # difference
    "z_calibration": CALIBRATION,
    "b_calibration": CALIBRATION,
    # drawing, one grid point at a time
    "power_curve": [DRAW_STATISTICS],
    # one leaf's draws, in the one block buffer, and its negative mask
    "mse_unbiasedness": [(0, 1.125, 0)],
    # the values the SD reads; per block the biases, the first CDF's values,
    # the second quotient and its CDF values, with one CDF slice
    "plug_in": [(1, 4, CDF_SLICE)],
    # the same with the chi-square draws in place of the biases, and the
    # kernel's nu
    "unbiased_benchmark": [(1, 5, CDF_SLICE)],
}


def check_bound(p: SimulationPlan) -> float:
    return 8 * max(whole * p.replicates + block * (BLOCK + 1) + cdf_slice * gaussian._BLOCK
                   for whole, block, cdf_slice
                   in LAYOUTS[p.parameters.get("quantity", p.scenario)]) + MB


@pytest.mark.parametrize("scenario, replicates, params", [
    ("coverage_biased_noisy", 1_000_001, {"bias": 0.0464, "extra_variance": 0.5 * SIGMA2}),
    ("mse_unbiasedness", 1_000_000, {"true_bias": 0.058}),
    # at 600,000 ks_distance sets the bound; at 200,000 the drawing does
    ("z_calibration", 600_000, {}),
    ("b_calibration", 200_000, {}),
    ("power_curve", 200_000, {"direction": "trend_aligned"}),
    ("delta_method_check", 250_000, {"quantity": "plug_in", "bias_in_sigma": 0.9}),
    ("delta_method_check", 250_000, {"quantity": "unbiased_benchmark"}),
])
def test_check_peak_stays_within_its_buffers(scenario, replicates, params):
    p = plan(scenario, replicates, **params)
    bound = check_bound(p)
    peak = traced_peak(montecarlo.run_plan, p)
    assert peak < bound, f"{scenario}: traced peak {peak / MB:.2f} MB, bound {bound / MB:.2f} MB"


@pytest.mark.skipif(sys.platform != "linux", reason="only Linux forks verify's workers")
def test_verify_holds_no_check_array_in_the_parent(monkeypatch):
    # with two jobs on two cores every check runs in a worker process, so
    # the parent holds only the plans, the pool's bookkeeping and the
    # results. A forked worker would go on tracing its own allocations, which
    # only slows it down: a fork hook, live for this test alone, stops
    # tracing in each child.
    tracing = True

    def stop_tracing_in_child():
        if tracing:
            tracemalloc.stop()

    os.register_at_fork(after_in_child=stop_tracing_in_child)
    monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: {0, 1})
    try:
        peak = traced_peak(montecarlo.run_verification, 7, 20.0, 2)
    finally:
        tracing = False
    assert peak < 2 * MB, f"traced peak {peak / MB:.2f} MB"
