"""Coverage-based accuracy for a published statistic judged by an audit.

Fix a reporting convention: a statistic published as theta +/- omega is "right"
when the stated interval contains the target. Calibrate the yardstick so that
an unbiased normal estimator whose central alpha-interval has half-width
exactly omega is right with probability alpha: its SD is sigma = omega / kappa
with kappa the standard normal (1 + alpha) / 2 quantile. The accuracy of any
competing estimator is then the probability its own interval of half-width
omega covers the target.

For a normal competitor with bias b and extra variance tau2 on top of nothing
(a zero-variance published number has tau2 = 0), that probability has the
closed form Phi((b + omega) / nu) - Phi((b - omega) / nu) with
nu^2 = sigma^2 + tau2. Everything in this module is a view of that one
kernel: constant coverage is tau2 = 0, unbiased coverage is b = 0, and the
two estimators replace b or tau2 with audit-based estimates and propagate the
audit's own sampling noise by the delta method.

Pure functions over frozen dataclasses; thread-safe throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple

import numpy as np

from . import gaussian
from .errors import ValidationError

_KAPPA_975 = 1.9599639845400538  # the 97.5% normal point: gaussian.quantile(0.975)


def kappa_quantile(alpha: float) -> float:
    """Half-width of the central alpha-interval in SD units: Phi^-1((1+alpha)/2)."""
    if not (0.0 < alpha < 1.0):
        raise ValidationError(f"alpha must lie in (0, 1), got {alpha}")
    level = (1.0 + alpha) / 2.0
    # an alpha within a rounding of 0 or 1 gives kappa 0, or a level of 1,
    # which has no quantile
    if not 0.5 < level < 1.0:
        raise ValidationError(f"alpha {alpha} is too close to 0 or 1: (1 + alpha) / 2 "
                              f"rounds to {level}")
    return gaussian.quantile(level)


@dataclass(frozen=True)
class EvalScheme:
    """An evaluation convention: confidence level alpha and half-width omega.

    ``kappa`` and ``sigma`` are derived on construction; sigma is defined as
    omega / kappa, the SD of the unbiased estimator the scheme treats as
    exactly alpha-accurate.
    """

    alpha: float
    omega: float
    kappa: float = field(init=False, default=0.0)
    sigma: float = field(init=False, default=0.0)

    def __post_init__(self):
        kappa = kappa_quantile(self.alpha)
        if not (self.omega > 0.0 and math.isfinite(self.omega)):
            raise ValidationError(f"omega must be a positive float, got {self.omega}")
        sigma = self.omega / kappa
        # the coverage formulas take sigma^2 and tau^6 with tau >= sigma,
        # which underflow to 0 or overflow for some positive finite omegas
        sigma2 = sigma * sigma
        sigma6 = sigma2 * sigma2 * sigma2
        if not 0.0 < sigma6 < math.inf:
            raise ValidationError(
                f"omega {self.omega!r} is out of range: sigma^2 = (omega / kappa)^2 "
                f"= {sigma2!r} and sigma^6 = {sigma6!r} must be positive "
                f"finite floats"
            )
        object.__setattr__(self, "kappa", kappa)
        object.__setattr__(self, "sigma", sigma)


def coverage_kernel(bias, extra_variance, scheme: EvalScheme):
    """P(|theta_hat - theta| <= omega) for theta_hat ~ N(theta + bias, extra_variance).

    The single closed form behind every coverage quantity here:
    Phi((bias + omega) / nu) - Phi((bias - omega) / nu), nu^2 = sigma^2 +
    extra_variance. Accepts scalars or ndarrays (broadcast) for ``bias`` and
    ``extra_variance``.
    """
    bias_arr = np.asarray(bias, dtype=float)
    var_arr = np.asarray(extra_variance, dtype=float)
    if not np.all(np.isfinite(bias_arr)):
        raise ValidationError("bias must be finite")
    if not np.all(np.isfinite(var_arr)) or np.any(var_arr < 0.0):
        raise ValidationError("extra variance must be finite and non-negative")
    nu = np.sqrt(scheme.sigma * scheme.sigma + var_arr)
    value = gaussian.cdf((bias_arr + scheme.omega) / nu) - gaussian.cdf((bias_arr - scheme.omega) / nu)
    if np.ndim(bias) == 0 and np.ndim(extra_variance) == 0:
        return float(value)
    return value


def coverage_of_constant(theta_star: float, theta_true: float, scheme: EvalScheme) -> float:
    """Coverage of a zero-variance published number: the kernel at tau2 = 0.

    Equals alpha exactly when theta_star is the target and decays to 0 as the
    bias grows. Taken at -|bias|, where both CDFs are lower tails and keep
    full relative precision, so either sign gives the same bits.
    """
    return coverage_kernel(-abs(theta_star - theta_true), 0.0, scheme)


def coverage_of_unbiased(extra_variance: float, scheme: EvalScheme) -> float:
    """Coverage of an unbiased normal estimator with the given variance.

    The kernel at bias 0, which simplifies to 2 Phi(omega / tau) - 1 with
    tau^2 = sigma^2 + extra_variance.
    """
    return coverage_kernel(0.0, extra_variance, scheme)


def _first(values, mask):
    """The first of ``values`` (a float or an array) where ``mask`` holds."""
    return np.ravel(values)[np.argmax(np.ravel(mask))].item()


def _check_non_negative(what: str, value) -> None:
    bad = ~(np.asarray(value) >= 0.0) | ~np.isfinite(value)
    if bad.any():
        raise ValidationError(f"{what} must be finite and non-negative, "
                              f"got {_first(value, bad)}")


@dataclass(frozen=True)
class CoverageEstimate:
    """A coverage point estimate with delta-method variance and normal CI.

    The 95% CI is derived on construction and clipped to [0, 1];
    ``ci_clipped`` records whether the nominal interval leaked outside it.
    ``inputs`` echoes the numbers that produced the estimate. Every field is
    an array, one value per period, when the estimate was made from arrays.
    """

    value: float
    variance: float
    ci_low: float = field(init=False)
    ci_high: float = field(init=False)
    inputs: Mapping[str, float] = field(default_factory=dict)
    ci_clipped: bool = field(init=False)

    def __post_init__(self):
        outside = ~((np.asarray(self.value) >= 0.0) & (np.asarray(self.value) <= 1.0))
        if outside.any():
            raise ValidationError(
                f"coverage estimate out of [0, 1]: {_first(self.value, outside)}")
        _check_non_negative("coverage variance", self.variance)
        half = _KAPPA_975 * np.sqrt(self.variance)
        low, high = self.value - half, self.value + half
        for name, value in (("ci_low", np.where(low < 0.0, 0.0, low)),
                            ("ci_high", np.where(high > 1.0, 1.0, high)),
                            ("ci_clipped", (low < 0.0) | (high > 1.0))):
            object.__setattr__(self, name, value if np.ndim(self.value) else value.item())
        object.__setattr__(self, "inputs", dict(self.inputs))


def estimate_coverage(theta_star, theta_audit, audit_variance,
                      scheme: EvalScheme) -> CoverageEstimate:
    """Plug-in coverage of a published constant, judged by a noisy audit;
    floats, or arrays with one value per period.

    The audit estimate replaces the unknown target in the constant-coverage
    formula. Its own variance v propagates by the delta method:
    Var = (v / sigma^2) * (phi(u + kappa) - phi(u - kappa))^2 with
    u = (theta_star - theta_audit) / sigma. The estimate never exceeds alpha,
    and at u = 0 the derivative vanishes so the variance is exactly zero.
    """
    _check_non_negative("audit variance", audit_variance)
    bias_hat = theta_star - theta_audit
    value = coverage_kernel(bias_hat, 0.0, scheme)
    u = bias_hat / scheme.sigma
    slope = gaussian.pdf(u + scheme.kappa) - gaussian.pdf(u - scheme.kappa)
    variance = (audit_variance / (scheme.sigma * scheme.sigma)) * (slope * slope)
    return CoverageEstimate(
        value=value, variance=variance,
        inputs={
            "theta_star": theta_star,
            "theta_audit": theta_audit,
            "audit_variance": audit_variance,
            "alpha": scheme.alpha,
            "omega": scheme.omega,
        },
    )


def estimate_unbiased_coverage(variance_estimate, var_of_variance,
                               scheme: EvalScheme) -> CoverageEstimate:
    """Coverage an unbiased estimator with the audit's variance would achieve;
    floats, or arrays with one value per period.

    The benchmark that answers "how accurate would the audit itself be, read
    as a published number with the same +/- omega convention". Point value is
    2 Phi(omega / tau) - 1 at tau^2 = sigma^2 + variance_estimate; the
    variance of the variance estimate propagates with derivative factor
    omega^2 / (4 tau^6):
    Var = (phi(omega/tau) + phi(-omega/tau))^2 * omega^2 / (4 tau^6) * var_of_variance.
    """
    _check_non_negative("variance estimate", variance_estimate)
    _check_non_negative("variance of the variance", var_of_variance)
    value = coverage_kernel(0.0, variance_estimate, scheme)
    tau2 = scheme.sigma * scheme.sigma + variance_estimate
    ratio = scheme.omega / np.sqrt(tau2)
    slope = gaussian.pdf(ratio) + gaussian.pdf(-ratio)
    with np.errstate(over="ignore"):
        tau6 = tau2 * tau2 * tau2
    if np.isinf(tau6).any():
        raise ValidationError(
            f"variance estimate {_first(variance_estimate, np.isinf(tau6))!r} is too "
            f"large: tau^6 = (sigma^2 + variance estimate)^3 overflows"
        )
    variance = slope * slope * (scheme.omega * scheme.omega) / (4.0 * tau6) * var_of_variance
    return CoverageEstimate(
        value=value, variance=variance,
        inputs={
            "variance_estimate": variance_estimate,
            "var_of_variance": var_of_variance,
            "alpha": scheme.alpha,
            "omega": scheme.omega,
        },
    )


def default_variance_of_variance(variance_estimate, n_households: int):
    """Normal-theory variance of a sample variance: 2 v^2 / (n - 1), of a
    float or of each value of an array."""
    _check_non_negative("variance estimate", variance_estimate)
    if n_households < 2:
        raise ValidationError(f"need at least 2 households, got {n_households}")
    with np.errstate(over="ignore"):
        square = variance_estimate * variance_estimate
    if np.isinf(square).any():
        raise ValidationError(
            f"variance estimate {_first(variance_estimate, np.isinf(square))!r} is too "
            f"large: its square overflows")
    return 2.0 * square / (n_households - 1)


class MseEstimate(NamedTuple):
    """A bias-corrected squared-error estimate; negative values are possible."""

    value: float
    is_negative: bool


def mse_estimate(theta_star, theta_audit, audit_variance) -> MseEstimate:
    """Unbiased MSE estimate for a published constant:
    (theta_star - theta_audit)^2 - audit_variance, of floats or of arrays
    with one value per period.

    Subtracting the audit variance removes the noise the squared difference
    picks up from the audit itself; the price is that small true biases often
    produce negative estimates, which are flagged rather than clamped.
    """
    _check_non_negative("audit variance", audit_variance)
    difference = theta_star - theta_audit
    with np.errstate(over="ignore"):
        value = difference * difference - audit_variance
    return MseEstimate(value=value, is_negative=value < 0.0)


class BreakEvenResult(NamedTuple):
    """Variance solving coverage parity, and whether the solution was pinned at 0."""

    variance: float
    at_boundary: bool


def break_even_variance(theta_star: float, theta_true: float,
                        scheme: EvalScheme) -> BreakEvenResult:
    """How much extra variance an unbiased estimator could carry and still be
    no more accurate than the biased constant.

    The scheme's calibration identity read backwards: an unbiased estimator
    with SD s = omega / Phi^-1((1 + c) / 2) is exactly c-accurate, so v =
    s^2 - sigma^2 ties it with the constant's coverage c. If c is not strictly
    below alpha there is nothing to trade: (0, True). A c below about 2^-53,
    where (1 + c) / 2 rounds to 1/2, is a ValidationError.
    """
    coverage = coverage_of_constant(theta_star, theta_true, scheme)
    if coverage >= scheme.alpha - 1e-14:
        return BreakEvenResult(variance=0.0, at_boundary=True)
    try:
        s = scheme.omega / kappa_quantile(coverage)
    except ValidationError:
        raise ValidationError(f"break-even variance is out of range: the constant's "
                              f"coverage {coverage!r} rounds (1 + coverage) / 2 to 1/2") from None
    return BreakEvenResult(variance=(s - scheme.sigma) * (s + scheme.sigma),
                           at_boundary=False)
