"""Acceptance gate: ten checks against published reference values and laws.

Each test is one criterion, named for what it verifies; ``pytest -v`` gives
the one-line pass/fail verdict per criterion. Reference numbers are stated
inline with their tolerances. The checks print their measured values so a
failure message is self-contained.
"""

import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from indexaudit import dataio, gaussian
from indexaudit.bias_tests import unity_slope_fit
from indexaudit.cli import main
from indexaudit.core import (PriceSeries, WeightVector, relative_weight_diff,
                             source_effect, weighted_covariance)
from indexaudit.coverage import (EvalScheme, coverage_kernel,
                                 coverage_of_constant, coverage_of_unbiased)
from indexaudit.montecarlo import SimulationPlan, run_plan
from indexaudit.report import parse_report
from indexaudit.seeding import derive_seed
from indexaudit.survey import WeightEstimate

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def announce(number, passed, detail):
    line = f"criterion {number:>2} {'PASS' if passed else 'FAIL'}: {detail}"
    print(line)
    assert passed, line


# 1 ------------------------------------------------------------------------------


def test_criterion_01_statistic_to_p_value_arithmetic():
    cases = [(0.03803, 0.970), (2.6122, 0.009)]
    measured = [gaussian.two_sided_p(stat) for stat, _ in cases]
    ok = all(abs(got - want) <= 0.001
             for got, (_, want) in zip(measured, cases))
    announce(1, ok,
             f"two-sided p at 0.03803 -> {measured[0]:.6f} (want 0.970 +/- 0.001), "
             f"at 2.6122 -> {measured[1]:.6f} (want 0.009 +/- 0.001)")


# 2 ------------------------------------------------------------------------------


def test_criterion_02_unbiased_coverage_closed_forms():
    wide = coverage_of_unbiased(0.029 ** 2, EvalScheme(0.95, 0.058))
    narrow = coverage_of_unbiased(0.029 ** 2, EvalScheme(0.95, 0.02))
    ok = abs(wide - 0.839) <= 0.002 and abs(narrow - 0.486) <= 0.002
    announce(2, ok,
             f"coverage of an unbiased 0.029-SD estimator: {wide:.6f} at "
             f"half-width 0.058 (want 0.839 +/- 0.002), {narrow:.6f} at "
             f"half-width 0.02 (want 0.486 +/- 0.002)")


# 3 ------------------------------------------------------------------------------


def test_criterion_03_break_even_noise_ratio_band():
    scheme = EvalScheme(0.95, 0.058)
    target = 0.9495

    low, high = 0.0, scheme.sigma ** 2
    while coverage_of_unbiased(high, scheme) > target:
        high *= 2.0
    for _ in range(200):
        mid = 0.5 * (low + high)
        if coverage_of_unbiased(mid, scheme) > target:
            low = mid
        else:
            high = mid
    solved = 0.5 * (low + high)
    residual = coverage_of_unbiased(solved, scheme) - target
    assert abs(residual) < 1e-10, f"bisection residual {residual:.3e}"

    ratio = solved ** 0.5 / 0.029
    band = ((1.0 / 9.0) * 0.85, (1.0 / 9.0) * 1.15)
    ok = band[0] <= ratio <= band[1]
    band_targets = (coverage_of_unbiased((0.029 * band[1]) ** 2, scheme),
                    coverage_of_unbiased((0.029 * band[0]) ** 2, scheme))
    announce(
        3, ok,
        f"solved noise-to-audit SD ratio {ratio:.6f} (~1/{1 / ratio:.1f}) for "
        f"coverage target {target} at half-width 0.058; required band "
        f"[{band[0]:.6f}, {band[1]:.6f}] (one-ninth +/- 15%). The solver is "
        f"correct to {abs(residual):.1e}; a ratio inside the band corresponds "
        f"to a coverage target between {band_targets[0]:.6f} and "
        f"{band_targets[1]:.6f}, which is inconsistent with {target}."
    )


# 4 ------------------------------------------------------------------------------


def test_criterion_04_coverage_ordering_laws():
    scheme = EvalScheme(0.95, 0.058)
    omega, sigma = scheme.omega, scheme.sigma
    problems = []

    # law 1: coverage of a constant is in (0, alpha], peaks exactly at zero bias,
    # and strictly decreases in |bias|
    biases = np.linspace(0.0, 3.0 * omega, 121)
    constant = np.array([coverage_of_constant(b, 0.0, scheme) for b in biases])
    if not (np.all(constant > 0.0) and np.all(constant <= scheme.alpha + 1e-12)):
        problems.append("constant coverage left (0, alpha]")
    if abs(constant[0] - scheme.alpha) > 1e-12:
        problems.append(f"peak {constant[0]!r} != alpha")
    if not np.all(np.diff(constant) < -1e-12):
        problems.append("constant coverage not strictly decreasing in |bias|")

    # law 2: inside the half-width, any extra variance strictly lowers coverage
    gaps = [
        coverage_of_constant(b, 0.0, scheme) - coverage_kernel(b, tau2, scheme)
        for b in np.linspace(-0.99, 0.99, 23) * omega
        for tau2 in ((0.1 * sigma) ** 2, (0.5 * sigma) ** 2, sigma ** 2,
                     (2.0 * sigma) ** 2, (5.0 * sigma) ** 2)
    ]
    if min(gaps) <= 1e-12:
        problems.append(f"variance penalty violated (min gap {min(gaps):.3e})")

    # ... but with bias far beyond the half-width, extra variance helps
    witness_gain = (coverage_kernel(2.0 * omega, (2.0 * sigma) ** 2, scheme)
                    - coverage_kernel(2.0 * omega, 0.0, scheme))
    if witness_gain <= 1e-12:
        problems.append("no large-bias witness where variance raises coverage")

    # law 3: at equal variance, coverage strictly decreases in |bias|
    ordered = np.array([coverage_kernel(b, sigma ** 2, scheme) for b in biases])
    if not np.all(np.diff(ordered) < -1e-12):
        problems.append("bias ordering at equal variance violated")

    # cross-check all three regimes by simulation
    plans = [
        ("coverage_constant", {"bias": 0.5 * omega}),
        ("coverage_unbiased", {"extra_variance": sigma ** 2}),
        ("coverage_biased_noisy", {"bias": 1.5 * omega,
                                   "extra_variance": sigma ** 2}),
    ]
    z_scores = {}
    for position, (scenario, params) in enumerate(plans):
        outcome, = run_plan(SimulationPlan(
            scenario=scenario, replicates=200_000,
            seed=derive_seed(20260819, 4, position), parameters=params))
        z_scores[scenario] = outcome.z_score
        if abs(outcome.z_score) > 3.0:
            problems.append(f"{scenario} off closed form (z {outcome.z_score:.2f})")

    announce(4, not problems,
             "; ".join(problems) or
             f"orderings hold on 121-point grids at 1e-12 strictness; "
             f"large-bias variance witness gain {witness_gain:.4f}; "
             f"200k-replicate cross-checks z = "
             + ", ".join(f"{z:.2f}" for z in z_scores.values()))


# 5 ------------------------------------------------------------------------------


def test_criterion_05_test_calibration_under_null():
    details = []
    ok = True
    for position, scenario in enumerate(("z_calibration", "b_calibration")):
        outcome, = run_plan(SimulationPlan(
            scenario=scenario, replicates=10_000,
            seed=derive_seed(20260819, 5, position)))
        ks = outcome.extras["ks_distance"]
        ok = ok and 0.040 <= outcome.point <= 0.060 and ks < 0.02
        details.append(f"{scenario}: rejection {outcome.point:.4f} "
                       f"(want [0.040, 0.060]), KS {ks:.4f} (want < 0.02)")
    announce(5, ok, "; ".join(details))


# 6 ------------------------------------------------------------------------------


def test_criterion_06_trend_test_power_separation():
    aligned = run_plan(SimulationPlan(
        scenario="power_curve", replicates=2_000,
        seed=derive_seed(20260819, 6, 0),
        parameters={"direction": "trend_aligned"}))
    by_eps = {}
    for outcome in aligned:
        by_eps.setdefault(outcome.extras["epsilon"], {})[
            outcome.label.split(":")[1][0]] = outcome.point
    separation = max(rates["B"] - rates["Z"] for rates in by_eps.values())

    orthogonal = run_plan(SimulationPlan(
        scenario="power_curve", replicates=2_000,
        seed=derive_seed(20260819, 6, 1),
        parameters={"direction": "trend_orthogonal"}))
    worst_z = max(abs(outcome.z_score) for outcome in orthogonal)

    ok = separation >= 0.1 and worst_z <= 3.0
    announce(6, ok,
             f"trend-aligned bias: best B-over-Z power gap {separation:.3f} "
             f"(want >= 0.1); trend-orthogonal bias: both tests at size, "
             f"worst |z| {worst_z:.2f} (want <= 3)")


# 7 ------------------------------------------------------------------------------


def _dyadic_composition(rng, n, total=32):
    """Integers >= 1 summing to ``total`` (weights in 1/total steps)."""
    return rng.multinomial(total - n, np.full(n, 1.0 / n)) + 1


def test_criterion_07_effect_identity_and_exact_slopes():
    rng = np.random.default_rng(20260819)
    worst_identity = 0.0
    for _ in range(800):
        n = int(rng.integers(3, 7))
        periods = int(rng.integers(4, 11))
        prices = PriceSeries(rng.uniform(80.0, 120.0, (n, periods)),
                             tuple(f"g{i}" for i in range(n)),
                             tuple(f"t{j}" for j in range(periods)))
        survey = WeightVector(rng.dirichlet(np.full(n, 2.0)), label="survey")
        proxy = WeightVector(rng.dirichlet(np.full(n, 2.0)) + 0.01, label="proxy")
        t = int(rng.integers(0, periods))
        direct = source_effect(prices, survey, proxy, t)
        via_cov = weighted_covariance(relative_weight_diff(survey, proxy),
                                      prices.values[:, t], proxy)
        scale = max(1.0, abs(direct))
        worst_identity = max(worst_identity, abs(direct - via_cov) / scale)

    # zero-residual panels built from dyadic rationals: the fitted slope must
    # equal the ratio of the two weighted trend rates *exactly*
    exact_misses = 0
    for _ in range(200):
        n = int(rng.integers(3, 6))
        # power-of-two period counts keep the series means exact in binary
        periods = int(rng.choice([4, 8]))
        # first proxy part pinned to 1 so the trend sum below stays integral
        proxy_parts = np.concatenate(([1], _dyadic_composition(rng, n - 1, 31)))
        slopes32 = rng.integers(-8, 9, size=n)  # trend rates in 1/32 steps
        # force the proxy-weighted trend rate to exactly 64/1024 = 1/16
        slopes32[0] = 64 - int(np.dot(proxy_parts[1:], slopes32[1:]))
        survey_parts = _dyadic_composition(rng, n)
        levels = 100.0 + rng.integers(-64, 65, size=n) / 16.0
        panel = levels[:, None] + np.outer(slopes32 / 32.0, np.arange(periods))
        prices = PriceSeries(panel, tuple(f"g{i}" for i in range(n)),
                             tuple(f"t{j}" for j in range(periods)))
        centering = np.eye(n) - np.full((n, n), 1.0 / n)
        estimate = WeightEstimate(
            point=WeightVector(survey_parts / 32.0, label="survey"),
            covariance=1e-6 * centering,
        )
        fit = unity_slope_fit(prices, estimate,
                              WeightVector(proxy_parts / 32.0, label="proxy"))
        expected = Fraction(int(np.dot(survey_parts, slopes32)), 64)
        if Fraction(fit.beta_hat) != expected:
            exact_misses += 1

    ok = worst_identity < 1e-12 and exact_misses == 0
    announce(7, ok,
             f"effect-equals-weighted-covariance identity on 800 random "
             f"instances: worst relative error {worst_identity:.2e} "
             f"(want < 1e-12); exact rational slope on 200 zero-residual "
             f"dyadic panels: {exact_misses} misses (want 0)")


# 8 ------------------------------------------------------------------------------


def test_criterion_08_squared_error_estimator():
    biased, = run_plan(SimulationPlan(
        scenario="mse_unbiasedness", replicates=100_000,
        seed=derive_seed(20260819, 8, 0),
        parameters={"true_bias": 0.058, "audit_variance": 0.029 ** 2}))
    unbiased, = run_plan(SimulationPlan(
        scenario="mse_unbiasedness", replicates=100_000,
        seed=derive_seed(20260819, 8, 1),
        parameters={"true_bias": 0.0, "audit_variance": 0.029 ** 2}))
    negative_fraction = unbiased.extras["negative_fraction"]
    ok = abs(biased.z_score) <= 3.0 and negative_fraction > 0.5
    announce(8, ok,
             f"mean estimate vs true squared bias: z {biased.z_score:.2f} "
             f"(want |z| <= 3 at 100k replicates); negative-estimate fraction "
             f"{negative_fraction:.3f} at zero bias (want > 0.5)")


# 9 ------------------------------------------------------------------------------


def test_criterion_09_delta_method_variances():
    details = []
    ok = True
    for position, u in enumerate((0.3, 0.9, 1.5)):
        outcome, = run_plan(SimulationPlan(
            scenario="delta_method_check", replicates=60_000,
            seed=derive_seed(20260819, 9, position),
            parameters={"quantity": "plug_in", "bias_in_sigma": u}))
        miss = abs(outcome.extras["ratio_to_target"] - 1.0)
        ok = ok and miss <= 0.15
        details.append(f"plug-in u={u}: SD off by {miss:.1%}")
    for position, ratio in enumerate((0.5, 1.0, 2.0)):
        outcome, = run_plan(SimulationPlan(
            scenario="delta_method_check", replicates=60_000,
            seed=derive_seed(20260819, 9, 10 + position),
            parameters={"quantity": "unbiased_benchmark",
                        "variance_in_sigma2": ratio}))
        miss = abs(outcome.extras["ratio_to_target"] - 1.0)
        ok = ok and miss <= 0.20
        details.append(f"benchmark v/sigma^2={ratio}: SD off by {miss:.1%}")

    # narrowing the half-width from 0.058 to 0.02 must widen the benchmark's
    # interval relative to its point estimate by more than the 2.9x ratio
    from indexaudit.coverage import estimate_unbiased_coverage
    v, vov = 0.029 ** 2, 2.0 * (0.029 ** 2) ** 2 / 999.0
    wide = estimate_unbiased_coverage(v, vov, EvalScheme(0.95, 0.058))
    narrow = estimate_unbiased_coverage(v, vov, EvalScheme(0.95, 0.02))
    growth = (((narrow.ci_high - narrow.ci_low) / narrow.value)
              / ((wide.ci_high - wide.ci_low) / wide.value))
    ok = ok and growth > 0.058 / 0.02
    details.append(f"relative CI width grows {growth:.2f}x when the "
                   f"half-width shrinks 2.9x (want > 2.9)")
    announce(9, ok, "; ".join(details))


# 10 -----------------------------------------------------------------------------


def test_criterion_10_cli_determinism_and_round_trips(tmp_path, capsys):
    outputs = []
    for name, jobs in (("a", "1"), ("b", "1"), ("c", "4")):
        path = tmp_path / f"{name}.json"
        code = main(["verify", "--seed", "42", "--jobs", jobs,
                     "--output", str(path)])
        capsys.readouterr()
        assert code == 0, f"verification suite failed (exit {code})"
        outputs.append(path.read_bytes())
    identical = outputs[0] == outputs[1] == outputs[2]

    doc = parse_report(outputs[0])
    all_passed = all(row["passed"] for row in doc.results)

    prices = dataio.load_prices(FIXTURES / "prices.csv")
    dataio.write_prices(tmp_path / "p.csv", prices)
    prices_ok = (dataio.load_prices(tmp_path / "p.csv").values == prices.values).all()

    weights = dataio.load_weights(FIXTURES / "weights.csv", prices.group_labels)
    dataio.write_weights(tmp_path / "w.csv", weights)
    reread = dataio.load_weights(tmp_path / "w.csv", prices.group_labels)
    weights_ok = all((reread[s].w == weights[s].w).all() for s in weights)

    estimate = dataio.load_weight_estimate(FIXTURES / "survey_estimate.csv",
                                           prices.group_labels)
    dataio.write_weight_estimate(tmp_path / "e.csv", estimate, prices.group_labels)
    back = dataio.load_weight_estimate(tmp_path / "e.csv", prices.group_labels)
    estimate_ok = ((back.point.w == estimate.point.w).all()
                   and (back.covariance == estimate.covariance).all()
                   and back.n_households == estimate.n_households)

    records = dataio.load_households(FIXTURES / "ces_micro.csv", prices.group_labels)
    dataio.write_households(tmp_path / "h.csv", records, prices.group_labels)
    reread_records = dataio.load_households(tmp_path / "h.csv", prices.group_labels)
    micro_ok = (len(records) == len(reread_records)
                and records.household_ids == reread_records.household_ids
                and records.strata == reread_records.strata
                and (records.expenditures == reread_records.expenditures).all())

    ok = (identical and all_passed and prices_ok and weights_ok
          and estimate_ok and micro_ok)
    announce(10, ok,
             f"verify --seed 42: byte-identical across 2 runs and --jobs 4 "
             f"({identical}), all {len(doc.results)} gates passed "
             f"({all_passed}); fixture round-trips: prices {prices_ok}, "
             f"weights {weights_ok}, estimate {estimate_ok}, micro {micro_ok}")
