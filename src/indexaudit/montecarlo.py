"""Monte Carlo oracles for every closed-form claim in the package.

Each scenario simulates the exact data-generating process a formula assumes
and reports the empirical quantity next to the closed-form target, with the
Monte Carlo standard error and a z-score. A healthy implementation keeps
|z| below 3; the verification suite turns that into hard pass/fail gates
(plus scenario-specific gates like rejection-rate bands and KS distances).

Determinism: every scenario derives its own PCG64 stream from a master seed
and a fixed scenario position via splitmix64, so results are byte-identical
no matter which subset of scenarios runs, in what order, or across how many
worker processes.
"""

from __future__ import annotations

import functools
import math
import multiprocessing
import os
import sys
import threading
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np
# loaded here, before a verify worker forks, so that no worker loads it again
from numpy.random import PCG64, Generator

from . import gaussian
from .coverage import (
    EvalScheme,
    coverage_kernel,
    estimate_coverage,
    estimate_unbiased_coverage,
    default_variance_of_variance,
)
from .core import PriceSeries, _quadratic_forms
from .errors import ValidationError, WorkerFailure
from .seeding import derive_seed, generator

_REJECTION_CUTOFF = 1.959963984540054  # two-sided 5%: one ulp above quantile(0.975)
# Replicates drawn and transformed at a time. Numpy draws the same values in
# consecutive blocks as in one call, and each step is element-wise; whole-
# sample sums go leaf by leaf (_tree_sum), so only the calibration statistics
# and the delta values are whole.
_BLOCK = 65_536


@dataclass(frozen=True)
class SimulationPlan:
    """One scenario request: what to simulate, how many times, from which seed."""

    scenario: str
    replicates: int
    seed: int
    parameters: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValidationError(
                f"unknown scenario {self.scenario!r}; expected one of {', '.join(SCENARIOS)}"
            )
        taken, what = _PARAMETERS[self.scenario], f"scenario {self.scenario!r}"
        if isinstance(taken, dict):  # the parameters of the quantity it runs
            quantity = str(self.parameters.get("quantity", "plug_in"))
            if quantity not in taken:
                raise ValidationError(f"unknown quantity {quantity!r}; expected one of "
                                      f"{', '.join(map(repr, taken))}")
            taken, what = taken[quantity], f"{what} with quantity {quantity!r}"
        unread = [key for key in self.parameters if key not in taken]
        if unread:
            raise ValidationError(f"{what} takes no parameter {unread[0]!r}; "
                                  f"it takes {', '.join(map(repr, taken)) or 'none'}")
        if self.replicates < 2:
            raise ValidationError(f"replicates must be at least 2, got {self.replicates}")
        if self.seed < 0:
            raise ValidationError(f"seed must be non-negative, got {self.seed}")
        object.__setattr__(self, "parameters", dict(self.parameters))


@dataclass(frozen=True)
class SimulationOutcome:
    """An empirical point next to its closed-form target.

    ``z_score`` is (point - target) / mc_stderr; when the outcome is exactly
    degenerate (zero spread and point == target) it is 0 by convention, and
    infinite if the spread is zero but the point misses.
    """

    label: str
    point: float
    mc_stderr: float
    target: float
    z_score: float
    replicates_used: int
    extras: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "extras", dict(self.extras))


def _z_score(point: float, target: float, stderr: float) -> float:
    if stderr > 0.0:
        return (point - target) / stderr
    return 0.0 if point == target else math.inf


def _rate_outcome(label: str, hits: int, replicates: int, target: float,
                  extras: Mapping[str, float] | None = None) -> SimulationOutcome:
    """The observed rate against ``target``, with the standard error
    sqrt(target (1 - target) / replicates) that a correct build's rate has.
    The observed rate's own would be skewed at small counts, and 0 for a
    rate seen as 0 or 1 by chance."""
    rate = hits / replicates
    stderr = math.sqrt(target * (1.0 - target) / replicates)
    return SimulationOutcome(
        label=label, point=rate, mc_stderr=stderr, target=target,
        z_score=_z_score(rate, target, stderr), replicates_used=replicates,
        extras=extras or {},
    )


def _blocks(total: int) -> Iterator[slice]:
    """Consecutive slices of ``total`` replicates, ``_BLOCK`` at a time. A
    1-row tail joins the block before it: a 1-row matrix product takes
    another BLAS path than the rows of a larger one, with other rounding."""
    start = 0
    while start < total:
        stop = start + _BLOCK
        if total - stop <= 1:
            stop = total
        yield slice(start, stop)
        start = stop


def _rejections(stats: np.ndarray) -> int:
    """How many statistics the two-sided 5% test rejects."""
    return sum(int(np.count_nonzero(np.abs(stats[block]) > _REJECTION_CUTOFF))
               for block in _blocks(stats.size))


def _tree_sum(leaf_sum: Callable[[int, int], float], n: int, start: int = 0) -> float:
    """``np.add.reduce`` of ``n`` values from ``start``, bit for bit: the sum
    follows numpy's own pairwise tree, which splits ``n`` at ``n // 2``
    rounded down to a multiple of 8, and ``leaf_sum(start, stop)`` sums each
    node of at most ``_BLOCK`` values, left to right."""
    if n <= _BLOCK:
        return leaf_sum(start, start + n)
    half = n // 2 - (n // 2) % 8
    return _tree_sum(leaf_sum, half, start) + _tree_sum(leaf_sum, n - half, start + half)


def _mean_and_sd(n: int, first_pass: Callable[[int, int], np.ndarray],
                 second_pass: Callable[[int, int], np.ndarray]) -> tuple[float, float]:
    """``np.mean`` and ``np.std(ddof=1)`` of ``n`` values, bit for bit, read
    one leaf of at most ``_BLOCK`` values at a time: each pass calls its
    callable for the values of each leaf, in order from 0 to ``n``, and the
    second pass overwrites the array its callable returns."""
    mean = _tree_sum(lambda start, stop: np.add.reduce(first_pass(start, stop)), n) / n

    def squared_deviations(start: int, stop: int) -> float:
        values = second_pass(start, stop)
        np.subtract(values, mean, out=values)
        np.multiply(values, values, out=values)
        return np.add.reduce(values)

    return float(mean), math.sqrt(_tree_sum(squared_deviations, n) / (n - 1))


def empirical_coverage(plan: SimulationPlan) -> SimulationOutcome:
    """Simulate interval containment and compare to the coverage kernel.

    Parameters: alpha (default 0.95), omega (default 0.058), bias (default 0),
    extra_variance (default 0). The evaluation convention treats the target as
    known only to the scheme's own sigma (that is what makes an unbiased
    sigma-SD estimator exactly alpha-accurate): the estimate is N(bias,
    extra_variance) and the evaluation reference an independent N(0,
    sigma^2), so each replicate draws their difference once, at N(bias,
    sigma^2 + extra_variance), and counts |difference| <= omega.
    """
    scheme = EvalScheme(alpha=float(plan.parameters.get("alpha", 0.95)),
                        omega=float(plan.parameters.get("omega", 0.058)))
    bias = float(plan.parameters.get("bias", 0.0))
    extra_variance = float(plan.parameters.get("extra_variance", 0.0))
    rng = Generator(PCG64(plan.seed))
    spread = math.sqrt(scheme.sigma * scheme.sigma + extra_variance)
    buffer = np.empty(min(plan.replicates, _BLOCK + 1))
    hits = 0
    for block in _blocks(plan.replicates):
        differences = buffer[:block.stop - block.start]
        rng.standard_normal(out=differences)
        np.multiply(differences, spread, out=differences)
        np.add(differences, bias, out=differences)
        np.abs(differences, out=differences)
        hits += int(np.count_nonzero(differences <= scheme.omega))
    target = coverage_kernel(bias, extra_variance, scheme)
    return _rate_outcome(
        f"{plan.scenario}(bias={bias:.6g}, var={extra_variance:.6g})",
        hits, plan.replicates, target,
        extras={"bias": bias, "extra_variance": extra_variance},
    )


# --- synthetic audit design shared by the calibration and power scenarios ---


def _orthonormalize(candidate: np.ndarray, against: Sequence[np.ndarray]) -> np.ndarray:
    vector = candidate.astype(float).copy()
    basis = []
    for raw in against:
        b = raw.astype(float).copy()
        for prior in basis:
            b -= np.dot(b, prior) * prior
        norm = np.linalg.norm(b)
        if norm > 1e-12:
            basis.append(b / norm)
    for prior in basis:
        vector -= np.dot(vector, prior) * prior
    norm = np.linalg.norm(vector)
    if norm < 1e-8:
        raise ValidationError("bias direction is degenerate for this design")
    return vector / norm


@dataclass(frozen=True)
class _AuditDesign:
    """A fixed panel, true weights, and weight covariance for simulations."""

    prices: PriceSeries
    weights: np.ndarray
    covariance: np.ndarray
    cov_root: np.ndarray
    mean_prices: np.ndarray
    slope_coefficients: np.ndarray
    z_stderr: float
    b_stderr: float
    trend_direction: np.ndarray
    orthogonal_direction: np.ndarray


def _default_design() -> _AuditDesign:
    levels = np.array([96.0, 98.5, 100.0, 102.0, 104.5])
    trends = np.array([-0.08, -0.03, 0.01, 0.05, 0.10])
    season = np.array([0.5, -0.2, 0.3, -0.4, 0.1])
    n_periods = 24
    time = np.arange(n_periods, dtype=float)
    delta = time - (n_periods - 1) / 2.0
    wave = np.sin(2.0 * np.pi * time / 12.0)
    panel = levels[:, None] + np.outer(trends, delta) + np.outer(season, wave)
    prices = PriceSeries(
        values=panel,
        group_labels=tuple(f"g{i + 1}" for i in range(5)),
        period_labels=tuple(f"t{j + 1:02d}" for j in range(n_periods)),
    )
    weights = np.array([0.30, 0.25, 0.20, 0.15, 0.10])
    covariance = (np.diag(weights) - np.outer(weights, weights)) / 4000.0
    eigenvalues, eigenvectors = np.linalg.eigh(covariance)
    cov_root = eigenvectors * np.sqrt(np.clip(eigenvalues, 0.0, None))
    mean_prices = panel.mean(axis=1)
    proxy_series = weights @ panel
    centered = proxy_series - proxy_series.mean()
    centered -= centered.mean()
    slope_coefficients = panel @ centered / float(np.dot(centered, centered))
    z_variance, b_variance = _quadratic_forms([mean_prices, slope_coefficients], covariance)
    ones = np.ones_like(weights)
    trend_direction = _orthonormalize(trends, [ones, mean_prices])
    orthogonal_direction = _orthonormalize(
        np.array([1.0, -0.5, 0.25, -0.125, 0.0625]),
        [ones, mean_prices, trends, season],
    )
    return _AuditDesign(
        prices=prices,
        weights=weights,
        covariance=covariance,
        cov_root=cov_root,
        mean_prices=mean_prices,
        slope_coefficients=slope_coefficients,
        z_stderr=math.sqrt(z_variance),
        b_stderr=math.sqrt(b_variance),
        trend_direction=trend_direction,
        orthogonal_direction=orthogonal_direction,
    )


_DESIGN = _default_design()


def _draw_statistics(rng: Generator, replicates: int,
                     true_weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Z and B statistics for weight estimates drawn N(true_weights, V)."""
    design = _DESIGN
    z_stats, b_stats = np.empty(replicates), np.empty(replicates)
    # one block's normals and their product with the covariance root
    shape = (min(replicates, _BLOCK + 1), design.weights.size)
    normals, products = np.empty(shape), np.empty(shape)
    for block in _blocks(replicates):
        rows = block.stop - block.start
        rng.standard_normal(out=normals[:rows])
        deviations = np.matmul(normals[:rows], design.cov_root.T, out=products[:rows])
        deviations += true_weights
        deviations -= design.weights
        np.divide(deviations @ design.mean_prices, design.z_stderr, out=z_stats[block])
        np.divide(deviations @ design.slope_coefficients, design.b_stderr,
                  out=b_stats[block])
    return z_stats, b_stats


def test_calibration(plan: SimulationPlan) -> SimulationOutcome:
    """Size and shape of the null distribution of one test statistic.

    Scenario z_calibration or b_calibration: draw the weight estimate from
    its exact normal law around the true weights, form the statistic with the
    known covariance, and record the 5% two-sided rejection rate (target:
    0.05) plus the KS distance to the standard normal in ``extras``.
    """
    rng = Generator(PCG64(plan.seed))
    # only the tested statistic is kept while ks_distance sorts it
    stats = _draw_statistics(rng, plan.replicates, _DESIGN.weights)[
        0 if plan.scenario == "z_calibration" else 1]
    outcome = _rate_outcome(
        f"{plan.scenario} rejection@5%", _rejections(stats), plan.replicates, 0.05,
        extras={"ks_distance": gaussian.ks_distance(stats)},
    )
    return outcome


def _exact_power(noncentrality: float) -> float:
    return (gaussian.cdf(-_REJECTION_CUTOFF - noncentrality)
            + gaussian.cdf(-_REJECTION_CUTOFF + noncentrality))


def power_curve(plan: SimulationPlan) -> list[SimulationOutcome]:
    """Rejection rates of both tests along a weight-bias ray.

    Parameters: direction ("trend_aligned" or "trend_orthogonal") and
    optionally epsilons (bias magnitudes). The default grid is sized so the
    B-test noncentrality hits 0, 1, 2 and 3.5 under the trend-aligned
    direction. Targets are the exact normal powers, so |z| < 3 applies at
    every grid point to both tests. ``replicates`` applies per grid point.
    """
    design = _DESIGN
    direction_name = str(plan.parameters.get("direction", "trend_aligned"))
    if direction_name == "trend_aligned":
        direction = design.trend_direction
    elif direction_name == "trend_orthogonal":
        direction = design.orthogonal_direction
    else:
        raise ValidationError(f"unknown direction {direction_name!r}")
    slope_gain = float(np.dot(design.slope_coefficients, design.trend_direction))
    default_eps = [ncp * design.b_stderr / abs(slope_gain) for ncp in (0.0, 1.0, 2.0, 3.5)]
    epsilons = [float(e) for e in plan.parameters.get("epsilons", default_eps)]
    outcomes: list[SimulationOutcome] = []
    for position, epsilon in enumerate(epsilons):
        rng = generator(plan.seed, position)
        true_weights = design.weights + epsilon * direction
        z_hits, b_hits = map(_rejections,
                             _draw_statistics(rng, plan.replicates, true_weights))
        z_ncp = epsilon * float(np.dot(design.mean_prices, direction)) / design.z_stderr
        b_ncp = epsilon * float(np.dot(design.slope_coefficients, direction)) / design.b_stderr
        for kind, hits, ncp in (("Z", z_hits, z_ncp), ("B", b_hits, b_ncp)):
            outcomes.append(_rate_outcome(
                f"{direction_name}:{kind} power@eps={epsilon:.6g}",
                hits, plan.replicates, _exact_power(ncp),
                extras={"epsilon": epsilon, "noncentrality": ncp},
            ))
    return outcomes


def mse_unbiasedness(plan: SimulationPlan) -> SimulationOutcome:
    """Does the bias-corrected squared error average to the true squared bias?

    Parameters: true_bias (default 0) and audit_variance (default 0.029^2).
    Also records how often the estimate is negative. No array of the
    replicate count is held: the mean pass draws one leaf at a time into one
    block buffer, and the SD pass draws the same stream again.
    """
    bias = float(plan.parameters.get("true_bias", 0.0))
    audit_variance = float(plan.parameters.get("audit_variance", 0.029 * 0.029))
    if audit_variance < 0.0:
        raise ValidationError("audit_variance must be non-negative")
    audit_sd = math.sqrt(audit_variance)
    buffer = np.empty(min(plan.replicates, _BLOCK))
    negative = 0

    def draws(count_negatives: bool) -> Callable[[int, int], np.ndarray]:
        # each pass draws the plan's stream again, one leaf at a time
        rng = Generator(PCG64(plan.seed))

        def estimates(start: int, stop: int) -> np.ndarray:
            # (bias - sd * normal)^2 - audit_variance, in the one buffer
            nonlocal negative
            values = buffer[:stop - start]
            rng.standard_normal(out=values)
            np.multiply(values, audit_sd, out=values)
            np.subtract(bias, values, out=values)
            np.square(values, out=values)
            np.subtract(values, audit_variance, out=values)
            if count_negatives:
                negative += int(np.count_nonzero(values < 0.0))
            return values

        return estimates

    point, spread = _mean_and_sd(plan.replicates, draws(True), draws(False))
    stderr = spread / math.sqrt(plan.replicates)
    target = bias * bias
    return SimulationOutcome(
        label=f"mse_unbiasedness(bias={bias:.6g})",
        point=point, mc_stderr=stderr, target=target,
        z_score=_z_score(point, target, stderr),
        replicates_used=plan.replicates,
        extras={"negative_fraction": negative / plan.replicates},
    )


def delta_method_check(plan: SimulationPlan) -> SimulationOutcome:
    """Empirical SD of a coverage estimator vs its delta-method SD.

    Parameters: quantity ("plug_in" or "unbiased_benchmark"), alpha, omega,
    and for plug_in: bias_in_sigma (u) plus audit_sd_ratio (sqrt(v)/sigma,
    default 0.15 - first-order error grows with the audit noise, and the check
    should test the formula, not the asymptotics); for unbiased_benchmark:
    variance_in_sigma2 (v / sigma^2, default 1.0) plus n_households (default
    200, driving a chi-square law for the variance estimate). The target is
    the closed-form delta-method SD at the true parameter.
    """
    scheme = EvalScheme(alpha=float(plan.parameters.get("alpha", 0.95)),
                        omega=float(plan.parameters.get("omega", 0.058)))
    quantity = str(plan.parameters.get("quantity", "plug_in"))
    rng = Generator(PCG64(plan.seed))
    if quantity == "plug_in":
        u = float(plan.parameters.get("bias_in_sigma", 0.9))
        sd_ratio = float(plan.parameters.get("audit_sd_ratio", 0.15))
        bias = u * scheme.sigma
        audit_variance = (sd_ratio * scheme.sigma) * (sd_ratio * scheme.sigma)
        audit_sd = math.sqrt(audit_variance)

        def block_values(rows: int) -> np.ndarray:
            biases = rng.standard_normal(rows)
            np.multiply(biases, audit_sd, out=biases)
            np.subtract(bias, biases, out=biases)
            return coverage_kernel(biases, 0.0, scheme)

        target = math.sqrt(estimate_coverage(bias, 0.0, audit_variance, scheme).variance)
    else:  # "unbiased_benchmark", as the plan was checked
        ratio = float(plan.parameters.get("variance_in_sigma2", 1.0))
        n_households = int(plan.parameters.get("n_households", 200))
        true_variance = ratio * (scheme.sigma * scheme.sigma)

        def block_values(rows: int) -> np.ndarray:
            draws = (true_variance * rng.chisquare(n_households - 1, rows)
                     / (n_households - 1))
            return coverage_kernel(0.0, draws, scheme)

        var_of_var = default_variance_of_variance(true_variance, n_households)
        target = math.sqrt(
            estimate_unbiased_coverage(true_variance, var_of_var, scheme).variance
        )
    values = np.empty(plan.replicates)
    for block in _blocks(plan.replicates):
        values[block] = block_values(block.stop - block.start)
    # The values stay whole and both passes read them: drawing them again for
    # the second pass would compute every coverage kernel twice.
    def leaf(start: int, stop: int) -> np.ndarray:
        return values[start:stop]

    point = _mean_and_sd(plan.replicates, leaf, leaf)[1]
    stderr = point / math.sqrt(2.0 * (plan.replicates - 1))
    return SimulationOutcome(
        label=f"delta_method_check({quantity})",
        point=point, mc_stderr=stderr, target=target,
        z_score=_z_score(point, target, stderr),
        replicates_used=plan.replicates,
        extras={"ratio_to_target": point / target if target else math.inf},
    )


# scenario name -> the function that simulates it
SCENARIOS = {
    "coverage_constant": empirical_coverage,
    "coverage_unbiased": empirical_coverage,
    "coverage_biased_noisy": empirical_coverage,
    "z_calibration": test_calibration,
    "b_calibration": test_calibration,
    "power_curve": power_curve,
    "mse_unbiasedness": mse_unbiasedness,
    "delta_method_check": delta_method_check,
}
_DELTA = ("quantity", "alpha", "omega")
# scenario -> the parameters it reads, or per quantity where the scenario
# runs one of several; a plan with any other is refused
_PARAMETERS = {"coverage_constant": ("alpha", "omega", "bias"),
               "coverage_unbiased": ("alpha", "omega", "extra_variance"),
               "coverage_biased_noisy": ("alpha", "omega", "bias", "extra_variance"),
               "z_calibration": (), "b_calibration": (),
               "power_curve": ("direction", "epsilons"),
               "mse_unbiasedness": ("true_bias", "audit_variance"),
               "delta_method_check": {
                   "plug_in": _DELTA + ("bias_in_sigma", "audit_sd_ratio"),
                   "unbiased_benchmark": _DELTA + ("variance_in_sigma2", "n_households")}}


def run_plan(plan: SimulationPlan,
             runner: Callable[[SimulationPlan], list[SimulationOutcome]] | None = None
             ) -> list[SimulationOutcome]:
    """Run one plan and return its outcomes (most scenarios yield one).

    A ``runner``, when given, runs the plan instead and its outcomes are
    returned. :func:`run_verification` passes one that hands the plan to a
    worker process and waits, so this call still spans each check in the
    calling process.
    """
    return runner(plan) if runner is not None else _simulate(plan)


def _simulate(plan: SimulationPlan) -> list[SimulationOutcome]:
    result = SCENARIOS[plan.scenario](plan)
    return result if isinstance(result, list) else [result]


# --- the verification suite ------------------------------------------------


@dataclass(frozen=True)
class VerificationCheck:
    """One named suite entry: a plan, its outcomes, and a hard pass/fail gate."""

    name: str
    plan: SimulationPlan
    outcomes: tuple[SimulationOutcome, ...]
    gate: str
    passed: bool
    detail: str


# gate name -> the band that the empirical-to-target SD ratio must lie in
_RATIO_BANDS = {"ratio_0.85_1.15": (0.85, 1.15), "ratio_0.80_1.20": (0.80, 1.20)}


def _scaled(count: int, scale: float) -> int:
    return max(2, int(round(count * scale)))


def default_verification_suite(master_seed: int = 42,
                               scale: float = 1.0) -> list[tuple[str, SimulationPlan, str]]:
    """The named plans the verify command runs, with their gate descriptors.

    ``scale`` multiplies every replicate count (floor 2), so CI budgets can
    shrink the suite without changing its structure. Gates:
    ``z3`` (every |z_score| < 3), ``calibration`` (rejection rate within
    [0.040, 0.060] and KS distance < 0.02), ``power_separation`` (z3 plus
    B-power exceeding Z-power by at least 0.1 somewhere on the grid),
    ``negative_majority`` (z3 plus negative MSE estimates in the majority),
    ``ratio_0.85_1.15`` / ``ratio_0.80_1.20`` (empirical-to-target SD ratio
    within the gate's band, stored as two numbers in ``_RATIO_BANDS``).
    """
    if scale <= 0.0 or not math.isfinite(scale):
        raise ValidationError(f"scale must be a positive float, got {scale}")
    sigma = EvalScheme(alpha=0.95, omega=0.058).sigma
    sigma2 = sigma * sigma
    entries: list[tuple[str, str, int, dict, str]] = [
        ("coverage_constant_unbiased", "coverage_constant", 200_000, {"bias": 0.0}, "z3"),
        ("coverage_constant_biased", "coverage_constant", 200_000,
         {"bias": 0.029}, "z3"),
        ("coverage_unbiased_noisy", "coverage_unbiased", 200_000,
         {"extra_variance": sigma2}, "z3"),
        ("coverage_biased_noisy", "coverage_biased_noisy", 200_000,
         {"bias": 0.8 * 0.058, "extra_variance": 0.5 * sigma2}, "z3"),
        ("z_calibration", "z_calibration", 10_000, {}, "calibration"),
        ("b_calibration", "b_calibration", 10_000, {}, "calibration"),
        ("power_trend_aligned", "power_curve", 2_000,
         {"direction": "trend_aligned"}, "power_separation"),
        ("power_trend_orthogonal", "power_curve", 2_000,
         {"direction": "trend_orthogonal"}, "z3"),
        ("mse_zero_bias", "mse_unbiasedness", 100_000,
         {"true_bias": 0.0}, "negative_majority"),
        ("mse_real_bias", "mse_unbiasedness", 100_000,
         {"true_bias": 0.058, "audit_variance": 0.029 * 0.029}, "z3"),
        ("delta_plug_in_u03", "delta_method_check", 20_000,
         {"quantity": "plug_in", "bias_in_sigma": 0.3}, "ratio_0.85_1.15"),
        ("delta_plug_in_u09", "delta_method_check", 20_000,
         {"quantity": "plug_in", "bias_in_sigma": 0.9}, "ratio_0.85_1.15"),
        ("delta_plug_in_u15", "delta_method_check", 20_000,
         {"quantity": "plug_in", "bias_in_sigma": 1.5}, "ratio_0.85_1.15"),
        ("delta_unbiased_benchmark", "delta_method_check", 20_000,
         {"quantity": "unbiased_benchmark"}, "ratio_0.80_1.20"),
    ]
    suite = []
    for position, (name, scenario, replicates, params, gate) in enumerate(entries):
        plan = SimulationPlan(
            scenario=scenario,
            replicates=_scaled(replicates, scale),
            seed=derive_seed(master_seed, position),
            parameters=params,
        )
        suite.append((name, plan, gate))
    return suite


def _apply_gate(name: str, plan: SimulationPlan, gate: str,
                outcomes: list[SimulationOutcome]) -> VerificationCheck:
    worst = max(outcomes, key=lambda o: abs(o.z_score))
    z_ok = all(abs(o.z_score) < 3.0 for o in outcomes)
    passed = z_ok
    detail = f"max |z| = {abs(worst.z_score):.3f} ({worst.label})"
    if gate == "calibration":
        rate = outcomes[0].point
        ks = outcomes[0].extras["ks_distance"]
        passed = 0.040 <= rate <= 0.060 and ks < 0.02
        detail = f"rejection rate {rate:.4f}, KS {ks:.4f}"
    elif gate == "power_separation":
        # power_curve yields the Z then the B outcome of each epsilon
        separation = max(b.point - z.point for z, b in zip(outcomes[::2], outcomes[1::2])
                         if z.extras["epsilon"] > 0.0)
        passed = z_ok and separation >= 0.1
        detail = f"max |z| = {abs(worst.z_score):.3f}, best B-Z separation {separation:.3f}"
    elif gate == "negative_majority":
        fraction = outcomes[0].extras["negative_fraction"]
        passed = z_ok and fraction > 0.5
        detail = f"|z| = {abs(worst.z_score):.3f}, negative fraction {fraction:.4f}"
    elif gate in _RATIO_BANDS:
        low, high = _RATIO_BANDS[gate]
        ratio = outcomes[0].extras["ratio_to_target"]
        passed = low <= ratio <= high
        detail = f"SD ratio {ratio:.4f} (band {low:.2f}..{high:.2f})"
    return VerificationCheck(
        name=name, plan=plan, outcomes=tuple(outcomes),
        gate=gate, passed=passed, detail=detail,
    )


def _execute(entry: tuple[str, SimulationPlan, str], pool: ProcessPoolExecutor | None = None
             ) -> VerificationCheck:
    """Run and gate one suite entry. Without a ``pool`` the plan runs here.
    With one, the plan runs in a worker process while this thread waits in
    :func:`run_plan`."""
    name, plan, gate = entry
    runner = (lambda plan: pool.submit(_simulate, plan).result()) if pool is not None else None
    return _apply_gate(name, plan, gate, run_plan(plan, runner))


def run_verification(master_seed: int = 42, scale: float = 1.0,
                     jobs: int = 1) -> list[VerificationCheck]:
    """Run the whole suite, optionally across worker processes, in stable order.

    Results are identical for any ``jobs`` because each check owns a derived
    seed and the output order is the suite definition order. The checks run
    in forked workers, at most ``jobs``, one per check and one per available
    core, each holding only its own check's arrays. Only a Linux process
    with no other Python thread forks: elsewhere fork is unsafe or absent,
    and a forked child would hold a copy of every lock another thread might
    own; there, as with one worker, the suite runs in process. As many
    threads of this process wait for the workers, one check at a time each,
    and run no simulation. No check raises a warning, so a worker has none
    to pass back. A worker that dies raises :class:`WorkerFailure`.
    """
    if jobs < 1:
        raise ValidationError(f"jobs must be at least 1, got {jobs}")
    suite = default_verification_suite(master_seed, scale)
    workers = (1 if sys.platform != "linux" or threading.active_count() != 1
               else min(jobs, len(suite), len(os.sched_getaffinity(0))))
    if workers == 1:
        return [_execute(entry) for entry in suite]
    try:
        with ProcessPoolExecutor(max_workers=workers,
                                 mp_context=multiprocessing.get_context("fork")) as pool, \
                ThreadPoolExecutor(max_workers=workers) as waiters:
            # the first task starts every worker, before a waiting thread exists
            pool.submit(int).result()
            return list(waiters.map(functools.partial(_execute, pool=pool), suite))
    except BrokenProcessPool as exc:
        raise WorkerFailure(
            f"a verify worker process died before its check finished: {exc}"
        ) from exc
