import math

import numpy as np
import pytest

import scipy.stats

from indexaudit import coverage as coverage_module
from indexaudit import gaussian
from indexaudit.coverage import (
    BreakEvenResult,
    CoverageEstimate,
    EvalScheme,
    break_even_variance,
    coverage_kernel,
    coverage_of_constant,
    coverage_of_unbiased,
    default_variance_of_variance,
    estimate_coverage,
    estimate_unbiased_coverage,
    kappa_quantile,
    mse_estimate,
)
from indexaudit.errors import ValidationError

KAPPA_95 = 1.9599639845400538


@pytest.fixture
def scheme():
    """The working convention used throughout: 95% level, +/- 0.058."""
    return EvalScheme(alpha=0.95, omega=0.058)


# --- scheme construction -------------------------------------------------------


def test_kappa_quantile_frozen_values():
    assert kappa_quantile(0.95) == pytest.approx(KAPPA_95, rel=1e-14)
    assert kappa_quantile(0.5) == pytest.approx(0.6744897501960817, rel=1e-12)
    for bad in (0.0, 1.0, -0.3, 2.0):
        with pytest.raises(ValidationError):
            kappa_quantile(bad)


@pytest.mark.parametrize("alpha, level", [(1e-300, 0.5), (1e-17, 0.5),
                                          (0.9999999999999999, 1.0)])
def test_an_alpha_within_a_rounding_of_0_or_1_is_a_validation_error(alpha, level):
    # (1 + alpha) / 2 rounds to 0.5, where kappa is 0, or to 1, which has no quantile
    message = f"alpha {alpha} is too close to 0 or 1: (1 + alpha) / 2 rounds to {level}"
    for build in (lambda: kappa_quantile(alpha), lambda: EvalScheme(alpha=alpha, omega=0.1)):
        with pytest.raises(ValidationError) as caught:
            build()
        assert str(caught.value) == message
    # the alphas next to them still give a scheme
    assert 0.0 < EvalScheme(alpha=1e-15, omega=0.1).kappa < 1e-14
    assert EvalScheme(alpha=0.9999999999999998, omega=0.1).kappa < 9.0


def test_scheme_derives_kappa_and_sigma(scheme):
    assert scheme.kappa == pytest.approx(KAPPA_95, rel=1e-14)
    assert scheme.sigma == pytest.approx(0.058 / KAPPA_95, rel=1e-15)
    # sigma is defined by sigma * kappa = omega
    assert scheme.sigma * scheme.kappa == pytest.approx(scheme.omega, rel=1e-15)


def test_scheme_validation():
    with pytest.raises(ValidationError, match="alpha"):
        EvalScheme(alpha=1.2, omega=0.05)
    with pytest.raises(ValidationError, match="omega"):
        EvalScheme(alpha=0.95, omega=0.0)
    with pytest.raises(ValidationError, match="omega"):
        EvalScheme(alpha=0.95, omega=math.inf)
    # positive and finite, but sigma^2 = (omega / kappa)^2 underflows to 0 or
    # overflows, which every coverage formula would divide by or square
    for omega in (1e-200, 1e200):
        with pytest.raises(ValidationError, match=r"omega .* sigma\^2"):
            EvalScheme(alpha=0.95, omega=omega)
    # sigma^2 is fine, but sigma^6 (tau^6 >= sigma^6 in the unbiased
    # benchmark) underflows to 0 or overflows
    for omega in (1e-160, 1e-60, 1e60, 1e150):
        with pytest.raises(ValidationError, match=r"omega .* sigma\^6"):
            EvalScheme(alpha=0.95, omega=omega)
    EvalScheme(alpha=0.95, omega=1e-50)
    EvalScheme(alpha=0.95, omega=1e50)


# --- the kernel ------------------------------------------------------------------


def test_kernel_unbiased_zero_variance_equals_alpha(scheme):
    assert coverage_kernel(0.0, 0.0, scheme) == pytest.approx(0.95, abs=1e-14)


def test_kernel_is_even_in_bias(scheme):
    for b in (0.001, 0.03, 0.058, 0.2):
        assert coverage_kernel(b, 0.0, scheme) == pytest.approx(
            coverage_kernel(-b, 0.0, scheme), rel=1e-14)
        assert coverage_kernel(b, 1e-3, scheme) == pytest.approx(
            coverage_kernel(-b, 1e-3, scheme), rel=1e-14)


def test_kernel_monotone_in_bias_and_variance(scheme):
    biases = np.linspace(0.0, 0.3, 40)
    values = coverage_kernel(biases, 0.0, scheme)
    assert np.all(np.diff(values) < 0.0)
    variances = np.linspace(0.0, 0.01, 40)
    values = coverage_kernel(0.0, variances, scheme)
    assert np.all(np.diff(values) < 0.0)


def test_kernel_broadcasts_and_returns_scalar_for_scalars(scheme):
    assert isinstance(coverage_kernel(0.01, 0.0, scheme), float)
    grid = coverage_kernel(np.linspace(0, 0.1, 7), 0.0, scheme)
    assert grid.shape == (7,)
    matrix = coverage_kernel(np.linspace(0, 0.1, 7)[:, None],
                             np.linspace(0, 1e-3, 5)[None, :], scheme)
    assert matrix.shape == (7, 5)


def test_kernel_against_direct_formula(scheme):
    rng = np.random.default_rng(42)
    for _ in range(30):
        b = float(rng.normal(0.0, 0.05))
        v = float(rng.uniform(0.0, 0.005))
        nu = math.sqrt(scheme.sigma ** 2 + v)
        direct = (gaussian.cdf((b + scheme.omega) / nu)
                  - gaussian.cdf((b - scheme.omega) / nu))
        assert coverage_kernel(b, v, scheme) == pytest.approx(direct, rel=1e-14)


def test_kernel_validation(scheme):
    with pytest.raises(ValidationError, match="bias"):
        coverage_kernel(math.nan, 0.0, scheme)
    with pytest.raises(ValidationError, match="variance"):
        coverage_kernel(0.0, -1e-6, scheme)


# --- the two closed-form coverages ------------------------------------------------


def test_constant_coverage_peaks_at_alpha(scheme):
    assert coverage_of_constant(100.0, 100.0, scheme) == pytest.approx(
        0.95, abs=1e-14)
    for b in (1e-4, 1e-3, 0.01, 0.1):
        assert coverage_of_constant(100.0 + b, 100.0, scheme) < 0.95


def test_constant_coverage_at_bias_equal_to_half_width(scheme):
    # bias exactly omega: Phi(2 kappa) - Phi(0), just a hair under one half
    value = coverage_of_constant(100.0 + scheme.omega, 100.0, scheme)
    assert value == pytest.approx(0.49995571228083935, rel=1e-12)


def test_unbiased_coverage_frozen_values():
    v = 0.029 ** 2
    wide = EvalScheme(alpha=0.95, omega=0.058)
    narrow = EvalScheme(alpha=0.95, omega=0.02)
    assert coverage_of_unbiased(0.0, wide) == pytest.approx(0.95, abs=1e-14)
    assert coverage_of_unbiased(v, wide) == pytest.approx(
        0.8384399744583299, rel=1e-12)
    assert coverage_of_unbiased(v, narrow) == pytest.approx(
        0.48466705121452236, rel=1e-12)


# --- plug-in coverage estimator ----------------------------------------------------


def test_estimate_coverage_zero_bias_has_exactly_zero_variance(scheme):
    est = estimate_coverage(100.0, 100.0, 0.029 ** 2, scheme)
    assert est.value == pytest.approx(0.95, abs=1e-14)
    assert est.variance == 0.0
    assert est.ci_low == est.value == est.ci_high
    assert not est.ci_clipped


def test_estimate_coverage_never_exceeds_alpha(scheme):
    for bias in np.linspace(-0.2, 0.2, 41):
        est = estimate_coverage(100.0 + bias, 100.0, 1e-4, scheme)
        assert est.value <= 0.95 + 1e-14


def test_estimate_coverage_variance_matches_numerical_derivative(scheme):
    v = 0.0007
    theta_audit = 100.0
    for bias in (0.004, 0.02, 0.06, 0.09):
        est = estimate_coverage(theta_audit + bias, theta_audit, v, scheme)
        h = 1e-6
        up = coverage_of_constant(theta_audit + bias, theta_audit - h, scheme)
        down = coverage_of_constant(theta_audit + bias, theta_audit + h, scheme)
        slope = (up - down) / (2.0 * h)
        assert est.variance == pytest.approx(v * slope ** 2, rel=1e-5)


def test_estimate_coverage_is_even_in_the_bias(scheme):
    a = estimate_coverage(100.02, 100.0, 1e-4, scheme)
    b = estimate_coverage(99.98, 100.0, 1e-4, scheme)
    assert a.value == pytest.approx(b.value, rel=1e-14)
    assert a.variance == pytest.approx(b.variance, rel=1e-13)


def test_estimate_coverage_audit_regime(scheme):
    # the committed example regime: bias about 0.0011, audit SD 0.029
    est = estimate_coverage(0.001099, 0.0, 0.029 ** 2, scheme)
    assert 0.948 <= est.value <= 0.950
    assert est.value == pytest.approx(0.9498419940167805, rel=1e-12)


def test_estimate_coverage_validation(scheme):
    with pytest.raises(ValidationError, match="variance"):
        estimate_coverage(1.0, 1.0, -1e-9, scheme)
    with pytest.raises(ValidationError, match="variance"):
        estimate_coverage(1.0, 1.0, math.nan, scheme)


# --- unbiased-benchmark coverage estimator -------------------------------------------


def test_estimate_unbiased_coverage_point_matches_closed_form(scheme):
    v = 0.029 ** 2
    vov = default_variance_of_variance(v, 1000)
    est = estimate_unbiased_coverage(v, vov, scheme)
    assert est.value == pytest.approx(coverage_of_unbiased(v, scheme), rel=1e-14)
    assert est.inputs["var_of_variance"] == pytest.approx(vov)


def test_estimate_unbiased_coverage_variance_matches_numerical_derivative(scheme):
    v = 0.0006
    vov = 1e-8
    est = estimate_unbiased_coverage(v, vov, scheme)
    h = 1e-9
    slope = (coverage_of_unbiased(v + h, scheme)
             - coverage_of_unbiased(v - h, scheme)) / (2.0 * h)
    assert est.variance == pytest.approx(vov * slope ** 2, rel=1e-4)


def test_estimate_unbiased_coverage_ci_clips(scheme):
    v = 0.029 ** 2
    est = estimate_unbiased_coverage(v, 1.0, scheme)  # absurdly noisy v-hat
    assert est.ci_clipped
    assert est.ci_low == 0.0
    assert est.ci_high == 1.0


def test_estimate_unbiased_coverage_validation(scheme):
    with pytest.raises(ValidationError):
        estimate_unbiased_coverage(-1e-9, 1e-9, scheme)
    with pytest.raises(ValidationError):
        estimate_unbiased_coverage(1e-4, -1e-9, scheme)
    # finite, but tau^6 overflows
    with pytest.raises(ValidationError, match="variance estimate .* too large"):
        estimate_unbiased_coverage(1e300, 1e-9, scheme)


def test_default_variance_of_variance():
    assert default_variance_of_variance(0.001, 101) == pytest.approx(2e-8, rel=1e-13)
    with pytest.raises(ValidationError, match="households"):
        default_variance_of_variance(0.001, 1)
    with pytest.raises(ValidationError):
        default_variance_of_variance(-0.001, 100)
    # the square overflows: the first such value is named
    with pytest.raises(ValidationError, match=r"variance estimate 1e\+200 is too large"):
        default_variance_of_variance(np.array([0.001, 1e200, 1e300]), 100)


def test_coverage_estimate_validation():
    with pytest.raises(ValidationError, match=r"coverage estimate out of \[0, 1\]: 1.2"):
        CoverageEstimate(value=1.2, variance=0.0)
    for variance in (-1.0, math.nan, math.inf):
        with pytest.raises(ValidationError, match=f"coverage variance must be finite and "
                                                  f"non-negative, got {variance}"):
            CoverageEstimate(value=0.5, variance=variance)
    with pytest.raises(TypeError):
        CoverageEstimate(value=0.5, variance=0.0, ci_low=0.4, ci_high=0.6)


def test_coverage_estimate_derives_the_clipped_normal_ci():
    half = gaussian.quantile(0.975) * 0.01
    inside = CoverageEstimate(value=0.5, variance=1e-4)
    assert (inside.ci_low, inside.ci_high, inside.ci_clipped) == (0.5 - half, 0.5 + half,
                                                                  False)
    near_one = CoverageEstimate(value=0.995, variance=1e-4)
    assert (near_one.ci_low, near_one.ci_high, near_one.ci_clipped) == (0.995 - half, 1.0,
                                                                        True)
    near_zero = CoverageEstimate(value=0.005, variance=1e-4)
    assert (near_zero.ci_low, near_zero.ci_high, near_zero.ci_clipped) == (
        0.0, 0.005 + half, True)


def test_coverage_estimate_takes_its_97_5_point_from_a_constant(scheme, monkeypatch):
    # the constant is gaussian.quantile(0.975) to the bit, not the one-ulp-higher
    # rejection cutoff of montecarlo
    assert repr(coverage_module._KAPPA_975) == repr(gaussian.quantile(0.975))
    calls = []
    quantile = gaussian.quantile
    monkeypatch.setattr(gaussian, "quantile", lambda p: calls.append(p) or quantile(p))
    CoverageEstimate(value=0.5, variance=1e-4)
    CoverageEstimate(value=np.array([0.5, 0.9]), variance=np.array([1e-4, 0.0]))
    estimate_coverage(100.02, 100.0, 1e-4, scheme)
    estimate_unbiased_coverage(1e-4, 1e-9, scheme)
    assert calls == []


# --- MSE -------------------------------------------------------------------------------


def test_mse_estimate_arithmetic():
    est = mse_estimate(100.05, 100.0, 0.0004)
    assert est.value == pytest.approx(0.05 ** 2 - 0.0004, rel=1e-12)
    assert not est.is_negative
    small = mse_estimate(100.001, 100.0, 0.0004)
    assert small.value == pytest.approx(1e-6 - 4e-4, rel=1e-9)
    assert small.is_negative
    with pytest.raises(ValidationError):
        mse_estimate(1.0, 1.0, -1.0)
    # a squared difference that overflows is inf, as numpy's would be
    assert mse_estimate(1e200, 0.0, 1.0) == (math.inf, False)


def test_period_arrays_give_each_period_the_scalar_bits(scheme):
    rng = np.random.default_rng(8)
    theta_star = 100.0 + rng.normal(0.0, 0.05, 500)
    theta_audit = 100.0 + rng.normal(0.0, 0.05, 500)
    variance = rng.uniform(0.0, 0.004, 500)
    variance[:3] = [0.0, 1e-12, 0.5]  # the last clips its CI
    var_of_var = default_variance_of_variance(variance, 40)
    arrays = [estimate_coverage(theta_star, theta_audit, variance, scheme),
              estimate_unbiased_coverage(variance, var_of_var, scheme),
              mse_estimate(theta_star, theta_audit, variance)]
    for t in range(500):
        args = theta_star[t].item(), theta_audit[t].item(), variance[t].item()
        scalars = [estimate_coverage(*args, scheme),
                   estimate_unbiased_coverage(args[2], var_of_var[t].item(), scheme),
                   mse_estimate(*args)]
        assert var_of_var[t] == default_variance_of_variance(args[2], 40)
        for array, scalar in zip(arrays, scalars):
            fields = (["value", "variance", "ci_low", "ci_high", "ci_clipped"]
                      if isinstance(scalar, CoverageEstimate) else ["value", "is_negative"])
            for name in fields:
                assert repr(getattr(array, name)[t].item()) == repr(getattr(scalar, name))
                assert type(getattr(scalar, name)) in (float, bool)


# --- break-even variance -----------------------------------------------------------------


def test_break_even_solves_the_parity_equation(scheme):
    for bias in (0.005, 0.015, 0.029, 0.05, 0.09):
        result = break_even_variance(100.0 + bias, 100.0, scheme)
        assert not result.at_boundary
        lhs = coverage_of_unbiased(result.variance, scheme)
        rhs = coverage_of_constant(100.0 + bias, 100.0, scheme)
        assert abs(lhs - rhs) < 1e-10


def test_break_even_frozen_value(scheme):
    # a constant biased by one audit SE (half the half-width) ties with an
    # unbiased competitor roughly as noisy as the audit itself
    result = break_even_variance(0.029, 0.0, scheme)
    assert result.variance == pytest.approx(8.708510357161621e-04, rel=1e-9)
    assert math.sqrt(result.variance) / 0.029 == pytest.approx(1.0175926,
                                                               abs=1e-6)


def test_break_even_boundary_when_constant_is_exact(scheme):
    result = break_even_variance(100.0, 100.0, scheme)
    assert result == BreakEvenResult(variance=0.0, at_boundary=True)


def test_break_even_grows_with_bias(scheme):
    # the worse the constant, the more variance its unbiased rival may carry
    biases = np.linspace(0.002, 0.1, 25)
    variances = [break_even_variance(100.0 + b, 100.0, scheme).variance
                 for b in biases]
    assert np.all(np.diff(variances) > 0.0)


# each bias up to 0.3, where the constant's coverage (1.4e-16) is still above 2^-53
PARITY_BIASES = np.linspace(0.0005, 0.3, 600)


def test_break_even_parity_holds_to_rounding_for_either_sign(scheme):
    for bias in np.concatenate([PARITY_BIASES, -PARITY_BIASES]):
        coverage = coverage_of_constant(float(bias), 0.0, scheme)
        assert coverage > 2.0 ** -53
        result = break_even_variance(float(bias), 0.0, scheme)
        assert not result.at_boundary and result.variance > 0.0
        assert abs(coverage_of_unbiased(result.variance, scheme) - coverage) <= 1e-15


def test_break_even_and_constant_coverage_are_even_in_the_bias_to_the_bit(scheme):
    # theta_true +/- k / 1024 is exact for these theta_true, so both signs see
    # the same |bias|
    for theta_true in (0.0, 100.0, -3.5):
        for k in range(1, 308):
            up, down = theta_true + k / 1024, theta_true - k / 1024
            assert (repr(coverage_of_constant(up, theta_true, scheme))
                    == repr(coverage_of_constant(down, theta_true, scheme)))
            assert (repr(break_even_variance(up, theta_true, scheme))
                    == repr(break_even_variance(down, theta_true, scheme)))


@pytest.mark.parametrize("bias", [0.2, 0.25, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_constant_coverage_keeps_its_relative_precision_far_out(scheme, bias, sign):
    # from 7.99e-7 at 0.2 down to 1.1e-222 at 1.0; a positive bias once
    # cancelled two CDFs near 1 (23% off at 0.3, 0 at 0.4). A rounding of the
    # argument x moves Phi(x) by about x^2 ulps so far out, in scipy's value
    # as in ours, so the tolerance grows with x^2: 1e-14 at 0.2, 4.5e-13 at 1.0
    upper = (scheme.omega - bias) / scheme.sigma
    lower = (-scheme.omega - bias) / scheme.sigma
    expected = scipy.stats.norm.cdf(upper) - scipy.stats.norm.cdf(lower)
    got = coverage_of_constant(sign * bias, 0.0, scheme)
    assert got == pytest.approx(expected, rel=2.0 * upper * upper * 2.0 ** -52, abs=0.0)


@pytest.mark.parametrize("bias, coverage", [(0.4, "3.4010831526451913e-31"), (2.0, "0.0")])
def test_break_even_below_2_to_the_minus_53_names_the_break_even(scheme, bias, coverage):
    for theta_star in (bias, -bias):
        with pytest.raises(ValidationError) as caught:
            break_even_variance(theta_star, 0.0, scheme)
        assert str(caught.value) == (
            f"break-even variance is out of range: the constant's coverage {coverage} "
            f"rounds (1 + coverage) / 2 to 1/2")


def test_break_even_boundary_holds_within_1e_14_of_alpha(scheme):
    # at a bias of 1e-9 the coverage is 0.9499999999999998: the boundary, not a
    # variance from a kappa indistinguishable from the scheme's own
    assert 0.0 < scheme.alpha - coverage_of_constant(1e-9, 0.0, scheme) < 1e-14
    assert break_even_variance(1e-9, 0.0, scheme) == BreakEvenResult(0.0, True)
