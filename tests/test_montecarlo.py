import math
import sys
import threading
import warnings
from concurrent.futures import Future

import numpy as np
import pytest
import scipy.stats

from indexaudit import dataio, montecarlo
from indexaudit.coverage import EvalScheme
from indexaudit.errors import ValidationError
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


@pytest.mark.parametrize("scenario, key, taken", [
    ("coverage_constant", "extra_variance", "'alpha', 'omega', 'bias'"),
    ("coverage_unbiased", "bias", "'alpha', 'omega', 'extra_variance'"),
    ("coverage_biased_noisy", "bais", "'alpha', 'omega', 'bias', 'extra_variance'"),
    ("z_calibration", "alpha", "none"),
    ("b_calibration", "epsilons", "none"),
    ("power_curve", "epsilon", "'direction', 'epsilons'"),
    ("mse_unbiasedness", "true_bais", "'true_bias', 'audit_variance'"),
])
def test_a_parameter_the_scenario_never_reads_is_refused(scenario, key, taken):
    with pytest.raises(ValidationError) as caught:
        plan(scenario, 100, **{key: 0.058})
    assert str(caught.value) == (f"scenario {scenario!r} takes no parameter {key!r}; "
                                 f"it takes {taken}")


@pytest.mark.parametrize("parameters, key, taken", [
    ({"bias_in_sigma2": 0.9}, "bias_in_sigma2", "plug_in"),
    ({"quantity": "plug_in", "n_households": 300}, "n_households", "plug_in"),
    ({"quantity": "plug_in", "variance_in_sigma2": 2.0}, "variance_in_sigma2", "plug_in"),
    ({"quantity": "unbiased_benchmark", "bias_in_sigma": 0.9}, "bias_in_sigma",
     "unbiased_benchmark"),
    ({"quantity": "unbiased_benchmark", "audit_sd_ratio": 0.2}, "audit_sd_ratio",
     "unbiased_benchmark"),
])
def test_a_delta_check_refuses_the_other_quantitys_parameters(parameters, key, taken):
    # each quantity reads its own keys besides quantity, alpha and omega
    own = {"plug_in": "'bias_in_sigma', 'audit_sd_ratio'",
           "unbiased_benchmark": "'variance_in_sigma2', 'n_households'"}[taken]
    with pytest.raises(ValidationError) as caught:
        plan("delta_method_check", 100, **parameters)
    assert str(caught.value) == (
        f"scenario 'delta_method_check' with quantity {taken!r} takes no parameter {key!r}; "
        f"it takes 'quantity', 'alpha', 'omega', {own}")


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
    # bias where the kernel is tiny but nonzero: zero hits are what the
    # target predicts, and the target's own standard error says so
    rare = run_plan(plan("coverage_constant", 100, seed=1, bias=0.2))[0]
    assert rare.point == 0.0 and 0.0 < rare.target < 1e-6
    assert rare.mc_stderr == math.sqrt(rare.target * (1.0 - rare.target) / 100)
    assert -0.01 < rare.z_score < 0.0
    # a rate that misses a target of exactly 0 or 1 has infinite z
    assert math.isinf(montecarlo._rate_outcome("x", 1, 100, 0.0).z_score)
    assert math.isinf(montecarlo._rate_outcome("x", 99, 100, 1.0).z_score)
    assert montecarlo._rate_outcome("x", 100, 100, 1.0).z_score == 0.0


def test_coverage_parameter_contracts():
    # the table refuses the other scenario's key when the plan is made, even
    # at a value that would change nothing
    for scenario, key in (("coverage_constant", "extra_variance"),
                          ("coverage_unbiased", "bias")):
        with pytest.raises(ValidationError, match=f"takes no parameter '{key}'"):
            plan(scenario, 100, **{key: 0.0})
    assert run_plan(plan("coverage_constant", 100, bias=0.01))[0].extras == {
        "bias": 0.01, "extra_variance": 0.0}
    assert run_plan(plan("coverage_unbiased", 100, extra_variance=1e-4))[0].extras == {
        "bias": 0.0, "extra_variance": 1e-4}


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
    with pytest.raises(ValidationError, match="unknown quantity 'bogus'; expected one of "
                                              "'plug_in', 'unbiased_benchmark'"):
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


def _outcome(label, point, z_score, **extras):
    return montecarlo.SimulationOutcome(label=label, point=point, mc_stderr=0.01,
                                        target=point, z_score=z_score,
                                        replicates_used=100, extras=extras)


def _power_outcomes(grid):
    """power_curve's order: the Z then the B outcome of each epsilon."""
    return [_outcome(f"trend_aligned:{kind} power@eps={eps:.6g}", point, z_score,
                     epsilon=eps, noncentrality=0.0)
            for eps, z_point, b_point, z_z, b_z in grid
            for kind, point, z_score in (("Z", z_point, z_z), ("B", b_point, b_z))]


@pytest.mark.parametrize("gate, outcomes, passed, detail", [
    ("z3", [_outcome("a", 0.5, 1.25), _outcome("b", 0.5, -2.5)],
     True, "max |z| = 2.500 (b)"),
    ("z3", [_outcome("a", 0.5, 1.25), _outcome("b", 0.5, -3.0)],
     False, "max |z| = 3.000 (b)"),
    ("calibration", [_outcome("z_calibration rejection@5%", 0.052, 0.4, ks_distance=0.0123)],
     True, "rejection rate 0.0520, KS 0.0123"),
    ("calibration", [_outcome("z_calibration rejection@5%", 0.061, 0.4, ks_distance=0.0123)],
     False, "rejection rate 0.0610, KS 0.0123"),
    ("calibration", [_outcome("z_calibration rejection@5%", 0.05, 5.0, ks_distance=0.02)],
     False, "rejection rate 0.0500, KS 0.0200"),
    # epsilon 0 has the widest B-Z gap and is left out; the best of the rest
    # is the middle epsilon
    ("power_separation", _power_outcomes([(0.0, 0.05, 0.9, 0.1, 0.2),
                                          (0.01, 0.1, 0.45, 0.5, -1.5),
                                          (0.02, 0.3, 0.35, 1.0, 0.5)]),
     True, "max |z| = 1.500, best B-Z separation 0.350"),
    ("power_separation", _power_outcomes([(0.0, 0.05, 0.9, 0.1, 0.2),
                                          (0.01, 0.1, 0.15, 0.5, -1.5),
                                          (0.02, 0.3, 0.38, 1.0, 0.5)]),
     False, "max |z| = 1.500, best B-Z separation 0.080"),
    ("power_separation", _power_outcomes([(0.0, 0.05, 0.05, 0.1, 0.2),
                                          (0.01, 0.1, 0.45, 3.5, -1.5)]),
     False, "max |z| = 3.500, best B-Z separation 0.350"),
    ("negative_majority", [_outcome("mse", 0.0, -0.75, negative_fraction=0.6827)],
     True, "|z| = 0.750, negative fraction 0.6827"),
    ("negative_majority", [_outcome("mse", 0.0, -0.75, negative_fraction=0.5)],
     False, "|z| = 0.750, negative fraction 0.5000"),
    ("negative_majority", [_outcome("mse", 0.0, 3.25, negative_fraction=0.6827)],
     False, "|z| = 3.250, negative fraction 0.6827"),
    ("ratio_0.85_1.15", [_outcome("delta", 0.1, 9.0, ratio_to_target=1.15)],
     True, "SD ratio 1.1500 (band 0.85..1.15)"),
    ("ratio_0.85_1.15", [_outcome("delta", 0.1, 0.0, ratio_to_target=0.8499)],
     False, "SD ratio 0.8499 (band 0.85..1.15)"),
    ("ratio_0.80_1.20", [_outcome("delta", 0.1, 0.0, ratio_to_target=0.8)],
     True, "SD ratio 0.8000 (band 0.80..1.20)"),
    ("ratio_0.80_1.20", [_outcome("delta", 0.1, 0.0, ratio_to_target=1.2001)],
     False, "SD ratio 1.2001 (band 0.80..1.20)"),
])
def test_each_gate_on_synthetic_outcomes(gate, outcomes, passed, detail):
    check = montecarlo._apply_gate("check", plan("z_calibration", 100), gate, outcomes)
    assert (check.gate, check.passed, check.detail) == (gate, passed, detail)
    assert check.outcomes == tuple(outcomes)


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


SWEEP_SEEDS = 150  # K master seeds, derived from one fixed master


def test_every_z_outcome_is_standard_normal_over_a_seed_sweep():
    """The oracles' own calibration: over K master seeds at scale 1, each
    outcome's z has a mean within 4/sqrt(K) of 0 and a variance inside the
    chi-square(K - 1) band that a standard normal misses with probability
    1e-4. The pooled mean lies within 4 of its standard errors, estimated
    from the per-seed means, since outcomes of one check share their draws.
    The seeds on which some outcome has |z| >= 3 are at most the binomial
    1e-4 upper quantile at the rate 24 independent standard normal outcomes
    give. The delta checks' z is off by design (their SD ratio is gated), so
    they are left out."""
    z_by_outcome: dict[tuple[str, int], list[float]] = {}
    for k in range(SWEEP_SEEDS):
        for name, check_plan, _ in default_verification_suite(derive_seed(2019, k), 1.0):
            if not name.startswith("delta_"):
                for position, outcome in enumerate(run_plan(check_plan)):
                    z_by_outcome.setdefault((name, position), []).append(outcome.z_score)
    z = np.array(list(z_by_outcome.values()))
    assert z.shape == (24, SWEEP_SEEDS)
    trips = int(np.count_nonzero((np.abs(z) >= 3.0).any(axis=0)))
    rate = 1.0 - (1.0 - 2.0 * scipy.stats.norm.sf(3.0)) ** len(z)
    assert trips <= scipy.stats.binom.ppf(1.0 - 1e-4, SWEEP_SEEDS, rate), (trips, rate)
    means, variances = z.mean(axis=1), z.var(axis=1, ddof=1)
    bound = 4.0 / math.sqrt(SWEEP_SEEDS)
    low, high = scipy.stats.chi2.ppf([0.5e-4, 1.0 - 0.5e-4],
                                     SWEEP_SEEDS - 1) / (SWEEP_SEEDS - 1)
    off = {key: (round(float(mean), 3), round(float(variance), 3))
           for key, mean, variance in zip(z_by_outcome, means, variances)
           if not (abs(mean) < bound and low < variance < high)}
    assert not off, (bound, (low, high), off)
    per_seed = z.mean(axis=0)
    assert abs(per_seed.mean()) < 4.0 * per_seed.std(ddof=1) / math.sqrt(SWEEP_SEEDS)


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


@pytest.mark.parametrize("cores, jobs, caller, workers", [
    # at most one worker per check, per job and per available core
    (16, 2, None, 2), (16, 14, None, 14), (16, 15, None, 14), (16, 100_000, None, 14),
    (2, 15, None, 2),
    # none on one core, beside another thread or off Linux: the suite runs here
    (1, 15, None, 0), (16, 15, "a live thread", 0), (16, 15, "another platform", 0),
])
def test_worker_count_is_capped_at_the_suite_size(monkeypatch, cores, jobs, caller, workers):
    expected = run_verification(master_seed=3, scale=1e-9, jobs=1)
    monkeypatch.setattr(RecordingExecutor, "calls", [])
    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", RecordingExecutor)
    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", RecordingExecutor)
    monkeypatch.setattr(dataio.os, "sched_getaffinity", lambda pid: set(range(cores)))
    if caller == "another platform":
        monkeypatch.setattr(dataio.sys, "platform", "darwin")
    release = threading.Event()
    waiter = threading.Thread(target=release.wait, args=(10,))
    if caller == "a live thread":
        waiter.start()
    try:
        assert run_verification(master_seed=3, scale=1e-9, jobs=jobs) == expected
    finally:
        release.set()
        if waiter.is_alive():
            waiter.join(10)
    assert not waiter.is_alive()
    # one forked process pool and as many waiting threads, or neither
    pools = [(workers, "fork"), (workers, None)] if workers and sys.platform == "linux" else []
    assert [(size, context and context.get_start_method())
            for size, context in RecordingExecutor.calls] == pools


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


def test_no_check_raises_a_warning():
    # a worker process passes no warning back, so the suite must raise none
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in (1, 7, 42):
            for scale in (1e-9, 0.05, 1):
                run_verification(seed, scale, 1)
