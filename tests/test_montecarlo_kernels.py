"""The blocked Monte Carlo kernels against the whole-array kernels they
replaced (``montecarlo_oracle``): the same draws must give the same bits at
and across every block and chunk boundary, and each check's traced peak must
stay within the arrays it holds whole and the arrays of one block. With
several jobs, no check array lives in the parent process."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import montecarlo_oracle as oracle
from indexaudit import gaussian, montecarlo
from indexaudit.coverage import EvalScheme
from indexaudit.montecarlo import SimulationPlan

SIGMA2 = EvalScheme(alpha=0.95, omega=0.058).sigma ** 2
# 1,000,000 is the coverage chunk: below, at, and across its boundary
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
# the replicate count (of one 1,000,000 chunk for coverage), float64 arrays of
# one block of at most BLOCK + 1 rows (a bool mask counts 1/8), and MB of
# other objects: the Python floats one gaussian.cdf slice maps over erfc
# (2.1 MB). The bound is the largest phase plus 1 MB for small objects. The
# whole-array kernels exceed every bound.
DRAW_STATISTICS = (2, 11, 0.0)
CALIBRATION = [DRAW_STATISTICS, (3, 2, 2.1), (4, 0, 0.0)]
LAYOUTS = {
    # the estimates of one chunk; the references buffer and the hit mask
    "coverage_constant": [(1, 1.125, 0.0)],
    "coverage_unbiased": [(1, 1.125, 0.0)],
    "coverage_biased_noisy": [(1, 1.125, 0.0)],
    # drawing: the Z and B statistics, and per block the 5-column normals,
    # their product with the covariance root and a statistic's product; then
    # ks_distance beside the tested statistic: its sorted copy and the CDF
    # values, with one slice's argument, erfc values and Python floats; then
    # the CDF values, the grid and one difference
    "z_calibration": CALIBRATION,
    "b_calibration": CALIBRATION,
    # drawing, one grid point at a time
    "power_curve": [DRAW_STATISTICS],
    # the draw buffer, which the mean and SD read; a block's negative mask
    "mse_unbiasedness": [(1, 0.125, 0.0)],
    # the values the SD reads; per block the biases, the kernel's two
    # quotients, and a CDF's negated argument, argument and result
    "plug_in": [(1, 5, 2.1)],
    # the same with the chi-square draws in place of the biases, and their
    # scaled copy
    "unbiased_benchmark": [(1, 6, 2.1)],
}


def check_bound(p: SimulationPlan) -> float:
    rows = min(p.replicates, 1_000_000) if p.scenario.startswith("coverage") else p.replicates
    return max(8 * (whole * rows + block * (BLOCK + 1)) + other_mb * MB
               for whole, block, other_mb in LAYOUTS[p.parameters.get("quantity", p.scenario)]
               ) + MB


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


def test_verify_holds_no_check_array_in_the_parent():
    # with two jobs every check runs in a worker process, so the parent holds
    # only the plans, the pool's bookkeeping and the results
    peak = traced_peak(montecarlo.run_verification, 7, 20.0, 2)
    assert peak < 2 * MB, f"traced peak {peak / MB:.2f} MB"
