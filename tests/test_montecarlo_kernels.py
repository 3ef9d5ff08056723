"""The buffered Monte Carlo kernels against the whole-array kernels they
replaced (``montecarlo_oracle``): the same draws must give the same bits, and
each check's traced peak must stay within the buffers it allocates."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import montecarlo_oracle as oracle
from indexaudit import montecarlo
from indexaudit.coverage import EvalScheme
from indexaudit.montecarlo import SimulationPlan

SIGMA2 = EvalScheme(alpha=0.95, omega=0.058).sigma ** 2
# 1,000,000 is the coverage chunk: below, at, and across its boundary
REPLICATES = [2, 999_999, 1_000_000, 1_000_001]
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


@pytest.mark.parametrize("replicates", [2, 10_001, 200_000])
@pytest.mark.parametrize("shift", [0.0, 0.01])
def test_draw_statistics_is_bit_identical(replicates, shift):
    design = montecarlo._DESIGN
    true_weights = design.weights + shift * design.trend_direction
    got = montecarlo._draw_statistics(np.random.Generator(np.random.PCG64(3)),
                                      replicates, true_weights)
    want = oracle.draw_statistics(np.random.Generator(np.random.PCG64(3)),
                                  replicates, true_weights)
    assert [a.tobytes() for a in got] == [b.tobytes() for b in want]


@pytest.mark.parametrize("replicates", [2, 70_001])
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


# Each bound counts the float64 arrays of length R (8 bytes per replicate) and
# bool masks (1 byte) that a check holds at once, plus 1 MB for small
# objects. The delta checks also hold, per 65,536-value erfc slice, the
# slice's Python floats (2.1 MB) and the array they fill (0.5 MB). The
# whole-array kernels exceed every bound.
@pytest.mark.parametrize("scenario, replicates, params, floats, bools, slice_mb", [
    # estimates and references buffers of one chunk, and the hit mask
    ("coverage_biased_noisy", 1_000_001, {"bias": 0.0464, "extra_variance": 0.5 * SIGMA2},
     2, 1, 0.0),
    # the draw buffer, and the deviations np.std makes
    ("mse_unbiasedness", 1_000_000, {"true_bias": 0.058}, 2, 0, 0.0),
    # R x 5 normals and their product with the covariance root
    ("z_calibration", 200_000, {}, 10, 0, 0.0),
    # the same per grid point, and the Z and B statistics
    ("power_curve", 40_000, {"direction": "trend_aligned"}, 12, 0, 0.0),
    # biases, the first CDF, the second CDF's argument, negated argument and
    # result; the benchmark also holds its draws and nu = sqrt(sigma^2 + draws)
    ("delta_method_check", 250_000, {"quantity": "plug_in", "bias_in_sigma": 0.9}, 5, 0, 3.0),
    ("delta_method_check", 250_000, {"quantity": "unbiased_benchmark"}, 6, 0, 3.0),
])
def test_check_peak_stays_within_its_buffers(scenario, replicates, params, floats, bools,
                                             slice_mb):
    chunk = min(replicates, 1_000_000)
    bound = (8 * floats + bools) * chunk + (1.0 + slice_mb) * MB
    peak = traced_peak(montecarlo.run_plan, plan(scenario, replicates, **params))
    assert peak < bound, f"{scenario}: traced peak {peak / MB:.2f} MB, bound {bound / MB:.2f} MB"
