"""Reference Monte Carlo kernels.

These are the kernels ``montecarlo`` replaced: each arithmetic step builds a
new whole-size array. The bit-identity tests compare the buffered kernels
against them, so keep them as they are: a change here no longer tests what
the old code did.
"""

from __future__ import annotations

import math

import numpy as np

from indexaudit import gaussian
from indexaudit.coverage import (EvalScheme, coverage_kernel, default_variance_of_variance,
                                 estimate_coverage, estimate_unbiased_coverage)
from indexaudit.errors import ValidationError
from indexaudit.montecarlo import (_DESIGN, SimulationOutcome, SimulationPlan, _rate_outcome,
                                   _require, _z_score)


def empirical_coverage(plan: SimulationPlan) -> SimulationOutcome:
    scheme = EvalScheme(alpha=float(_require(plan, "alpha", 0.95)),
                        omega=float(_require(plan, "omega", 0.058)))
    bias = float(plan.parameters.get("bias", 0.0))
    extra_variance = float(plan.parameters.get("extra_variance", 0.0))
    if plan.scenario == "coverage_constant" and extra_variance != 0.0:
        raise ValidationError("coverage_constant takes no extra_variance")
    if plan.scenario == "coverage_unbiased" and bias != 0.0:
        raise ValidationError("coverage_unbiased takes no bias")
    rng = np.random.Generator(np.random.PCG64(plan.seed))
    noise_sd = math.sqrt(extra_variance)
    hits = 0
    remaining = plan.replicates
    while remaining > 0:
        chunk = min(remaining, 1_000_000)
        estimates = bias + noise_sd * rng.standard_normal(chunk)
        references = scheme.sigma * rng.standard_normal(chunk)
        hits += int(np.count_nonzero(np.abs(estimates - references) <= scheme.omega))
        remaining -= chunk
    target = coverage_kernel(bias, extra_variance, scheme)
    return _rate_outcome(
        f"{plan.scenario}(bias={bias:.6g}, var={extra_variance:.6g})",
        hits, plan.replicates, target,
        extras={"bias": bias, "extra_variance": extra_variance},
    )


def draw_statistics(rng: np.random.Generator, replicates: int,
                    true_weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    design = _DESIGN
    normals = rng.standard_normal((replicates, design.weights.size))
    estimates = true_weights + normals @ design.cov_root.T
    deviations = estimates - design.weights
    z_stats = deviations @ design.mean_prices / design.z_stderr
    b_stats = deviations @ design.slope_coefficients / design.b_stderr
    return z_stats, b_stats


def mse_unbiasedness(plan: SimulationPlan) -> SimulationOutcome:
    bias = float(plan.parameters.get("true_bias", 0.0))
    audit_variance = float(plan.parameters.get("audit_variance", 0.029 ** 2))
    if audit_variance < 0.0:
        raise ValidationError("audit_variance must be non-negative")
    rng = np.random.Generator(np.random.PCG64(plan.seed))
    noise = math.sqrt(audit_variance) * rng.standard_normal(plan.replicates)
    estimates = (bias - noise) ** 2 - audit_variance
    point = float(np.mean(estimates))
    spread = float(np.std(estimates, ddof=1))
    stderr = spread / math.sqrt(plan.replicates)
    target = bias * bias
    return SimulationOutcome(
        label=f"mse_unbiasedness(bias={bias:.6g})",
        point=point, mc_stderr=stderr, target=target,
        z_score=_z_score(point, target, stderr),
        replicates_used=plan.replicates,
        extras={"negative_fraction": float(np.mean(estimates < 0.0))},
    )


def delta_method_check(plan: SimulationPlan) -> SimulationOutcome:
    scheme = EvalScheme(alpha=float(_require(plan, "alpha", 0.95)),
                        omega=float(_require(plan, "omega", 0.058)))
    quantity = str(_require(plan, "quantity", "plug_in"))
    rng = np.random.Generator(np.random.PCG64(plan.seed))
    if quantity == "plug_in":
        u = float(_require(plan, "bias_in_sigma", 0.9))
        sd_ratio = float(plan.parameters.get("audit_sd_ratio", 0.15))
        bias = u * scheme.sigma
        audit_variance = (sd_ratio * scheme.sigma) ** 2
        audits = math.sqrt(audit_variance) * rng.standard_normal(plan.replicates)
        values = coverage_kernel(bias - audits, 0.0, scheme)
        target = math.sqrt(estimate_coverage(bias, 0.0, audit_variance, scheme).variance)
    elif quantity == "unbiased_benchmark":
        ratio = float(plan.parameters.get("variance_in_sigma2", 1.0))
        n_households = int(plan.parameters.get("n_households", 200))
        true_variance = ratio * scheme.sigma ** 2
        draws = true_variance * rng.chisquare(n_households - 1, plan.replicates) / (n_households - 1)
        values = coverage_kernel(0.0, draws, scheme)
        var_of_var = default_variance_of_variance(true_variance, n_households)
        target = math.sqrt(
            estimate_unbiased_coverage(true_variance, var_of_var, scheme).variance
        )
    else:
        raise ValidationError(f"unknown quantity {quantity!r}")
    point = float(np.std(values, ddof=1))
    stderr = point / math.sqrt(2.0 * (plan.replicates - 1))
    return SimulationOutcome(
        label=f"delta_method_check({quantity})",
        point=point, mc_stderr=stderr, target=target,
        z_score=_z_score(point, target, stderr),
        replicates_used=plan.replicates,
        extras={"ratio_to_target": point / target if target else math.inf},
    )


def ks_distance(sample: np.ndarray) -> float:
    values = np.sort(np.asarray(sample, dtype=float))
    n = values.size
    if n == 0:
        raise ValueError("ks_distance requires a non-empty sample")
    probs = gaussian.cdf(values)
    grid = np.arange(1, n + 1, dtype=float) / n
    d_plus = float(np.max(grid - probs))
    d_minus = float(np.max(probs - (grid - 1.0 / n)))
    return max(d_plus, d_minus)
