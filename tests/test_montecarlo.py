import math
import sys
import warnings
from concurrent.futures import Future

import numpy as np
import pytest

from indexaudit import montecarlo
from indexaudit.coverage import EvalScheme
from indexaudit.errors import AuditWarning, ValidationError
from indexaudit.montecarlo import (
    SCENARIOS,
    SimulationPlan,
    default_verification_suite,
    run_plan,
    run_verification,
)
from indexaudit.montecarlo import _DESIGN  # internal, used for design invariants
from indexaudit.seeding import derive_seed


def plan(scenario, replicates, seed=11, **params):
    return SimulationPlan(scenario=scenario, replicates=replicates, seed=seed,
                          parameters=params)


# --- plans -----------------------------------------------------------------------


def test_plan_validation():
    with pytest.raises(ValidationError, match="unknown scenario"):
        plan("nonsense", 100)
    with pytest.raises(ValidationError, match="replicates"):
        plan("coverage_constant", 1)
    with pytest.raises(ValidationError, match="seed"):
        SimulationPlan(scenario="coverage_constant", replicates=10, seed=-1)
    assert set(SCENARIOS) >= {"coverage_constant", "power_curve"}


def test_run_plan_is_deterministic():
    p = plan("coverage_constant", 5000, seed=77, bias=0.01)
    first = run_plan(p)
    second = run_plan(p)
    assert len(first) == len(second) == 1
    assert first[0].point == second[0].point
    assert first[0].z_score == second[0].z_score
    third = run_plan(plan("coverage_constant", 5000, seed=78, bias=0.01))
    assert third[0].point != first[0].point


# --- coverage scenarios -------------------------------------------------------------


def test_coverage_constant_unbiased_hits_alpha():
    outcome = run_plan(plan("coverage_constant", 200_000, seed=5))[0]
    assert outcome.target == pytest.approx(0.95, abs=1e-12)
    assert abs(outcome.z_score) < 4.0
    assert outcome.point == pytest.approx(0.95, abs=0.003)


def test_coverage_biased_noisy_matches_kernel():
    outcome = run_plan(plan("coverage_biased_noisy", 200_000, seed=6,
                            bias=0.03, extra_variance=4e-4))[0]
    assert abs(outcome.z_score) < 4.0
    assert outcome.extras == {"bias": 0.03, "extra_variance": 4e-4}


def test_coverage_degenerate_tail_z_convention():
    # bias so large the closed form underflows to exactly 0 and no replicate
    # can land inside the interval: point == target == 0, z defined as 0
    far = run_plan(plan("coverage_constant", 100, seed=1, bias=10.0))[0]
    assert far.point == 0.0 and far.target == 0.0
    assert far.mc_stderr == 0.0 and far.z_score == 0.0
    # bias where the kernel is tiny but nonzero: zero hits, infinite z
    rare = run_plan(plan("coverage_constant", 100, seed=1, bias=0.2))[0]
    assert rare.point == 0.0 and rare.target > 0.0
    assert math.isinf(rare.z_score)


def test_coverage_parameter_contracts():
    with pytest.raises(ValidationError, match="no extra_variance"):
        run_plan(plan("coverage_constant", 100, extra_variance=1e-4))
    with pytest.raises(ValidationError, match="no bias"):
        run_plan(plan("coverage_unbiased", 100, bias=0.01))


# --- calibration and power -----------------------------------------------------------


def test_z_calibration_has_correct_size():
    outcome = run_plan(plan("z_calibration", 4000, seed=21))[0]
    assert 0.03 <= outcome.point <= 0.07
    assert outcome.extras["ks_distance"] < 0.05
    assert outcome.target == 0.05


def test_power_curve_structure_and_noncentralities():
    outcomes = run_plan(plan("power_curve", 500, seed=31,
                             direction="trend_aligned"))
    assert len(outcomes) == 8  # 4 grid points x {Z, B}
    b_ncps = [o.extras["noncentrality"] for o in outcomes if ":B " in o.label]
    np.testing.assert_allclose(b_ncps, [0.0, 1.0, 2.0, 3.5], atol=1e-9)
    z_ncps = [o.extras["noncentrality"] for o in outcomes if ":Z " in o.label]
    np.testing.assert_allclose(z_ncps, 0.0, atol=1e-6)


def test_power_grows_along_trend_ray_for_b_only():
    outcomes = run_plan(plan("power_curve", 2000, seed=32,
                             direction="trend_aligned"))
    b_power = [o.point for o in outcomes if ":B " in o.label]
    z_power = [o.point for o in outcomes if ":Z " in o.label]
    assert all(b2 > b1 for b1, b2 in zip(b_power, b_power[1:]))
    assert b_power[-1] > 0.85
    assert max(z_power) < 0.09  # level test stays at size on this ray


def test_power_orthogonal_ray_keeps_both_tests_at_size():
    outcomes = run_plan(plan("power_curve", 2000, seed=33,
                             direction="trend_orthogonal"))
    for outcome in outcomes:
        assert outcome.target == pytest.approx(0.05, abs=1e-9)
        assert abs(outcome.z_score) < 4.0


def test_power_curve_rejects_unknown_direction():
    with pytest.raises(ValidationError, match="unknown direction"):
        run_plan(plan("power_curve", 100, direction="sideways"))


def test_power_curve_accepts_explicit_epsilons():
    outcomes = run_plan(plan("power_curve", 200, seed=34,
                             direction="trend_aligned", epsilons=[0.0, 0.001]))
    assert len(outcomes) == 4


# --- mse and delta-method -------------------------------------------------------------


def test_mse_zero_bias_is_unbiased_and_mostly_negative():
    outcome = run_plan(plan("mse_unbiasedness", 20_000, seed=41,
                            true_bias=0.0))[0]
    assert outcome.target == 0.0
    assert abs(outcome.z_score) < 4.0
    assert outcome.extras["negative_fraction"] > 0.6


def test_mse_real_bias_recovers_squared_bias():
    outcome = run_plan(plan("mse_unbiasedness", 50_000, seed=42,
                            true_bias=0.058, audit_variance=0.029 ** 2))[0]
    assert outcome.target == pytest.approx(0.058 ** 2, rel=1e-12)
    assert abs(outcome.z_score) < 4.0


def test_delta_method_plug_in_sd_matches_formula():
    outcome = run_plan(plan("delta_method_check", 5000, seed=51,
                            quantity="plug_in", bias_in_sigma=0.9))[0]
    assert 0.9 <= outcome.extras["ratio_to_target"] <= 1.1


def test_delta_method_benchmark_sd_matches_formula():
    outcome = run_plan(plan("delta_method_check", 5000, seed=52,
                            quantity="unbiased_benchmark"))[0]
    assert 0.85 <= outcome.extras["ratio_to_target"] <= 1.2


def test_delta_method_rejects_unknown_quantity():
    with pytest.raises(ValidationError, match="unknown quantity"):
        run_plan(plan("delta_method_check", 100, quantity="bogus"))


# --- the synthetic design -------------------------------------------------------------


def test_design_directions_are_as_advertised():
    """trend_direction moves trends but not index levels; orthogonal_direction
    moves neither levels nor anything the slope coefficients can see."""
    d = _DESIGN
    ones = np.ones(5)
    assert abs(float(d.trend_direction @ ones)) < 1e-10
    assert abs(float(d.trend_direction @ d.mean_prices)) < 1e-8
    assert abs(float(d.slope_coefficients @ d.trend_direction)) > 0.01
    assert abs(float(d.orthogonal_direction @ ones)) < 1e-10
    assert abs(float(d.orthogonal_direction @ d.mean_prices)) < 1e-8
    assert abs(float(d.orthogonal_direction @ d.slope_coefficients)) < 1e-6


def test_design_internal_consistency():
    d = _DESIGN
    assert abs(float(d.slope_coefficients @ d.weights) - 1.0) < 1e-12
    np.testing.assert_allclose(d.cov_root @ d.cov_root.T, d.covariance,
                               atol=1e-18)
    assert d.z_stderr > 0.0 and d.b_stderr > 0.0


# --- the verification suite -----------------------------------------------------------


def test_suite_definition_shape():
    suite = default_verification_suite(master_seed=42, scale=1.0)
    names = [name for name, _, _ in suite]
    assert len(names) == len(set(names)) == 14
    seeds = [p.seed for _, p, _ in suite]
    assert len(set(seeds)) == 14
    assert seeds == [derive_seed(42, i) for i in range(14)]
    small = default_verification_suite(master_seed=42, scale=1e-9)
    assert all(p.replicates == 2 for _, p, _ in small)
    with pytest.raises(ValidationError, match="scale"):
        default_verification_suite(scale=0.0)


def test_full_verification_suite_passes():
    checks = run_verification(master_seed=42, scale=1.0, jobs=1)
    assert len(checks) == 14
    failures = [f"{c.name}: {c.detail}" for c in checks if not c.passed]
    assert not failures, failures


def test_verification_is_identical_across_job_counts():
    serial = run_verification(master_seed=9, scale=0.05, jobs=1)
    parallel = run_verification(master_seed=9, scale=0.05, jobs=4)
    assert [c.name for c in serial] == [c.name for c in parallel]
    for a, b in zip(serial, parallel):
        assert a.passed == b.passed and a.detail == b.detail
        assert [(o.point, o.z_score) for o in a.outcomes] == \
               [(o.point, o.z_score) for o in b.outcomes]


def test_verification_depends_on_master_seed():
    a = run_verification(master_seed=1, scale=0.02, jobs=1)
    b = run_verification(master_seed=2, scale=0.02, jobs=1)
    assert any(x.detail != y.detail for x, y in zip(a, b))


def test_run_verification_validates_jobs():
    with pytest.raises(ValidationError, match="jobs"):
        run_verification(jobs=0)


class RecordingExecutor:
    """Stands in for the process pool and for its waiting threads: records
    each pool's size and runs the work in this process, so no worker is ever
    started."""

    calls: list = []

    def __init__(self, max_workers, mp_context=None):
        self.calls.append((max_workers, mp_context))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future

    def map(self, fn, iterable):
        return map(fn, iterable)


def test_worker_count_is_capped_at_the_suite_size(monkeypatch):
    monkeypatch.setattr(RecordingExecutor, "calls", [])
    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", RecordingExecutor)
    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", RecordingExecutor)
    expected = run_verification(master_seed=3, scale=1e-9, jobs=1)
    assert RecordingExecutor.calls == []
    for jobs in (2, 14, 15, 100_000):
        assert run_verification(master_seed=3, scale=1e-9, jobs=jobs) == expected
    # one process pool and one set of waiting threads per run, as large as each other
    workers = [workers for workers, _ in RecordingExecutor.calls]
    assert workers == [2, 2, 14, 14, 14, 14, 14, 14]
    contexts = [context for _, context in RecordingExecutor.calls]
    assert contexts[1::2] == [None] * 4
    assert [c and c.get_start_method() for c in contexts[::2]] == (
        ["fork"] * 4 if sys.platform == "linux" else [None] * 4)


def test_each_check_passes_through_run_plan_in_the_calling_process(monkeypatch):
    # a span or a profiler hook on run_plan times every check, in any mode
    run = montecarlo.run_plan
    for jobs in (1, 2):
        seen = []

        def recording_run_plan(plan, *args):
            outcomes = run(plan, *args)
            seen.append((plan.seed, len(outcomes)))
            return outcomes

        monkeypatch.setattr(montecarlo, "run_plan", recording_run_plan)
        checks = run_verification(master_seed=3, scale=1e-9, jobs=jobs)
        assert sorted(seen) == sorted((c.plan.seed, len(c.outcomes)) for c in checks)


fork_only = pytest.mark.skipif(
    sys.platform != "linux", reason="a patch reaches the workers only through fork")


@fork_only
def test_worker_warnings_are_reissued_in_suite_order(monkeypatch):
    def warning(simulate):
        def simulate_and_warn(plan):
            warnings.warn(f"seed {plan.seed}", AuditWarning)
            return simulate(plan)
        return simulate_and_warn

    # the forked workers inherit the patched table
    for scenario, simulate in list(montecarlo._DISPATCH.items()):
        monkeypatch.setitem(montecarlo._DISPATCH, scenario, warning(simulate))
    seen = []
    for jobs in (1, 2, 3):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_verification(master_seed=3, scale=1e-9, jobs=jobs)
        seen.append([(w.category, str(w.message)) for w in caught])
    expected = [(AuditWarning, f"seed {plan.seed}")
                for _, plan, _ in default_verification_suite(3, 1e-9)]
    assert seen == [expected] * 3
