"""Standard normal primitives used by every statistical routine here.

All probability arithmetic in the package funnels through this module so that
reports are bit-stable across runs and platforms that share a libm. The CDF is
computed from the C library's ``erfc`` (correctly rounded to within about one
ulp, so absolute error is far below 1e-12 everywhere), and the quantile inverts
that exact same CDF with Halley steps from a rational first guess. The pair
round-trips to within a few ulps of the probability argument - better than
1e-12 for |x| up to about 4, and bounded by ~2e-16/pdf(x) beyond, where the
probability's own floating-point spacing is the limit - and the quantile stays
strictly monotone. scipy is deliberately not a runtime dependency; the test suite uses
it as an independent cross-check.

Everything is pure and stateless, hence trivially thread-safe.
"""

from __future__ import annotations

import math

import numpy as np

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_SLICE = 65_536
# the native formats a memoryview reads as Python bools, ints and floats
_BUFFER_FORMATS = frozenset("?bBhHiIlLqQfd")


def _per_value(function, x: np.ndarray, argument) -> np.ndarray:
    """``function(v)`` for each value ``v`` of ``argument(x)``, through Python
    floats: libm's functions and Python's float ``**`` round differently from
    numpy's vectorised forms. Fixed slices of ``x`` bound the arguments and
    the list of Python floats mapped over."""
    flat = np.ravel(x)
    values = np.empty(flat.size)
    for start in range(0, flat.size, _SLICE):
        part = argument(flat[start:start + _SLICE])
        # a buffer of native numbers gives the Python numbers tolist() gives,
        # without building the list
        view = memoryview(part)
        items = view if view.format in _BUFFER_FORMATS else part.tolist()
        values[start:start + part.size] = np.fromiter(
            map(function, items), float, count=part.size)
    return values.reshape(np.shape(x))


def cdf(x):
    """Standard normal CDF; accepts a float or an ndarray.

    Computed as ``erfc(-x / sqrt(2)) / 2``, which stays accurate deep into the
    lower tail (no cancellation for very negative x). Arrays go through the
    same libm ``erfc`` element by element, so both paths give the same bits.
    """
    if isinstance(x, np.ndarray):
        values = _per_value(math.erfc, x, lambda part: -part / _SQRT2)
        values *= 0.5
        return values if x.ndim else values[()]
    return 0.5 * math.erfc(-x / _SQRT2)


def pdf(x):
    """Standard normal density; accepts a float or an ndarray. Arrays go
    through libm's ``exp`` element by element, as :func:`cdf` does."""
    if isinstance(x, np.ndarray):
        values = _per_value(math.exp, x, lambda part: -0.5 * part * part)
        values *= _INV_SQRT_2PI
        return values if x.ndim else values[()]
    return _INV_SQRT_2PI * math.exp(-0.5 * x * x)


def power(x, exponent: float):
    """``x ** exponent`` as Python's float computes it, element by element
    for an ndarray, with inf where that overflows (Python raises there)."""
    if isinstance(x, np.ndarray):
        return _per_value(lambda value: power(value, exponent), x, np.asarray)
    try:
        return float(x) ** exponent
    except OverflowError:
        return math.inf


# Rational approximation for the initial quantile guess (relative error
# below 1.15e-9 over the whole domain), refined below to full precision.
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)
_P_LOW = 0.02425


def _quantile_guess(p: float) -> float:
    if p < _P_LOW:
        q = math.sqrt(-2.0 * math.log(p))
        return ((((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5])
                / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0))
    if p > 1.0 - _P_LOW:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        return -((((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5])
                 / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0))
    q = p - 0.5
    r = q * q
    return ((((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]) * q
            / (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0))


def quantile(p: float) -> float:
    """Inverse of :func:`cdf` for scalar ``p`` in the open interval (0, 1).

    Raises ValueError outside the domain. Two Halley refinements against
    :func:`cdf` bring the rational guess to full double precision.
    """
    if not (0.0 < p < 1.0) or math.isnan(p):
        raise ValueError(f"quantile requires 0 < p < 1, got {p!r}")
    x = _quantile_guess(p)
    for _ in range(2):
        density = pdf(x)
        if density == 0.0:
            break
        err = cdf(x) - p
        u = err / density
        x -= u / (1.0 + 0.5 * x * u)
    return x


def two_sided_p(statistic: float) -> float:
    """Two-sided normal p-value, ``2 * (1 - cdf(|statistic|))``.

    Evaluated as ``2 * cdf(-|statistic|)`` so extreme statistics keep full
    relative precision instead of rounding to 0 prematurely.
    """
    return 2.0 * cdf(-abs(statistic))


def ks_distance(sample: np.ndarray) -> float:
    """One-sample Kolmogorov-Smirnov distance against the standard normal.

    At most three arrays of the sample size live at once: the sorted copy and
    the CDF values, then the CDF values, the grid i / n and one difference,
    with ``grid - 1 / n`` formed in place.
    """
    values = np.sort(np.asarray(sample, dtype=float))
    n = values.size
    if n == 0:
        raise ValueError("ks_distance requires a non-empty sample")
    probs = cdf(values)
    del values
    grid = np.arange(1, n + 1, dtype=float)
    grid /= n
    difference = np.subtract(grid, probs)
    d_plus = float(np.max(difference))
    np.subtract(grid, 1.0 / n, out=grid)
    np.subtract(probs, grid, out=difference)
    d_minus = float(np.max(difference))
    return max(d_plus, d_minus)
