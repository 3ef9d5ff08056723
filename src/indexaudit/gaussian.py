"""Standard normal primitives used by every statistical routine here.

All probability arithmetic in the package funnels through this module, and
the module computes its own ``erfc`` and ``exp`` rather than take the C
library's. Each is a fixed sequence of numpy elementwise ``+ - * /``,
``np.rint``, ``np.ldexp``, comparisons, table lookups and bit masks, every
one of which rounds exactly per element, so a value has the same bits on
every x86-64 CPU, whatever the C library's FMA variants or numpy's SIMD
dispatch. A float, a 0-d array and an array go through the same arithmetic,
arrays ``_BLOCK`` values at a time. The schemes are the ones glibc itself
uses, so the values are glibc's where it takes its variants without FMA,
and within an ulp (``exp``) or two (``erfc``) of them where it takes those
with FMA:
- ``erfc``: fdlibm's ``s_erf.c``, Cody's rational approximations (*Math.
  Comp.* 23, 1969) on five ranges of |x|, with exp(-x^2) split so that the
  tail keeps its relative accuracy, the polynomials summed in glibc's order;
- ``exp``: glibc's own since 2.28, k ln2 / 128 taken out of x, 2^(j/128)
  from a 128-entry table and a degree-5 polynomial for the rest.

The CDF is ``erfc(-x / sqrt(2)) / 2``, and the quantile inverts that exact
CDF with Halley steps from a rational first guess. The pair round-trips to
within a few ulps of the probability argument - better than 1e-12 for |x| up
to about 4, and bounded by ~2e-16/pdf(x) beyond, where the probability's own
floating-point spacing is the limit - and the quantile stays strictly
monotone. scipy is deliberately not a runtime dependency; the test suite
uses it as an independent cross-check.

Everything is pure and stateless, hence trivially thread-safe.
"""

from __future__ import annotations

import math

import numpy as np

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
# Values worked at a time: each function holds a fixed set of temporaries
# of this length.
_BLOCK = 16_384


def _elementwise(function, x):
    """``function`` of ``x`` as float64: an array of ``x``'s shape for an
    ndarray, made ``_BLOCK`` values at a time, a numpy scalar for a 0-d
    array, and a float for anything else. ``function`` takes a 1-d array or
    a numpy scalar, with the same arithmetic for both."""
    if not isinstance(x, np.ndarray):
        return float(function(np.float64(x)))
    if x.ndim == 0:
        return np.float64(function(np.float64(x)))
    flat = np.asarray(x, dtype=np.float64).ravel()
    out = np.empty(flat.size)
    for start in range(0, flat.size, _BLOCK):
        out[start:start + _BLOCK] = function(flat[start:start + _BLOCK])
    return out.reshape(x.shape)


def _polynomial(s, powers: list, coefficients: tuple[float, ...]):
    """``(c0 + s c1) + s^2 (c2 + s c3) + s^4 (c4 + s c5) + ...``, left to
    right, the order the C library's s_erf.c takes; ``powers[i]`` is
    s^(2i)."""
    value = s * coefficients[1]
    value += coefficients[0]
    for start in range(2, len(coefficients), 2):
        if start + 1 < len(coefficients):
            term = s * coefficients[start + 1]
            term += coefficients[start]
            term *= powers[start // 2]
        else:
            term = powers[start // 2] * coefficients[start]
        value += term
    return value


def _rational(s, numerator: tuple[float, ...], denominator: tuple[float, ...]):
    """P(s) / Q(s), each a :func:`_polynomial`, with s^6 = s^4 s^2 and s^8 =
    s^4 s^4."""
    powers = [s, s * s]
    longest = max(len(numerator), len(denominator))
    if longest > 4:
        powers.append(powers[1] * powers[1])
    if longest > 6:
        powers.append(powers[2] * powers[1])
    if longest > 8:
        powers.append(powers[2] * powers[2])
    value = _polynomial(s, powers, numerator)
    value /= _polynomial(s, powers, denominator)
    return value


# --- exp: glibc's own scheme (since 2.28). x = (128 m + j) ln2 / 128 + r with
# |r| <= ln2 / 256, ln2 / 128 split in two so that k times its high part is
# exact; exp(x) = 2^m 2^(j/128) (1 + tail_j + r + C2 r^2 + ... + C5 r^5),
# with 2^(j/128) = scale_j (1 + tail_j) from a table ---
_INV_LN2_N = float.fromhex("0x1.71547652b82fep7")
_NEG_LN2_HI_N = float.fromhex("-0x1.62e42fefa0000p-8")
_NEG_LN2_LO_N = float.fromhex("-0x1.cf79abc9e3b3ap-47")
_EXP_C = tuple(map(float.fromhex, ("0x1.ffffffffffdbdp-2", "0x1.555555555543cp-3",
                                   "0x1.55555cf172b91p-5", "0x1.1111167a4d017p-7")))
# beyond it exp is 0 or inf, as at it; k stays a small integer
_EXP_CLIP = 1100.0
_TINY = float.fromhex("0x1p-1022")


def _exp_table() -> tuple[np.ndarray, np.ndarray]:
    """scale_j, 2^(j/128) rounded, and tail_j = 2^(j/128) / scale_j - 1
    rounded, for j = 0..127, from 2^(1/128) to 160 bits by seven integer
    square roots; Python's int / int rounds correctly."""
    bits = 160
    root = 2 << bits
    for _ in range(7):
        root = math.isqrt(root << bits)
    scales, tails = [], []
    power = 1 << bits
    for _ in range(128):
        scale = power / (1 << bits)
        numerator, denominator = scale.as_integer_ratio()
        fixed = (numerator << bits) // denominator
        scales.append(scale)
        tails.append((power - fixed) / fixed)
        power = (power * root) >> bits
    return np.array(scales), np.array(tails)


_EXP_SCALE, _EXP_TAIL = _exp_table()


def _exp_reduced(x):
    """exp of ``x``, finite with |x| <= ``_EXP_CLIP``."""
    k = np.rint(x * _INV_LN2_N)
    r = k * _NEG_LN2_HI_N
    r += x
    r += k * _NEG_LN2_LO_N
    k = k.astype(np.int32)
    j = k & 127
    k >>= 7
    square = r * r
    tmp = _EXP_TAIL[j]
    tmp += r
    term = r * _EXP_C[1]
    term += _EXP_C[0]
    term *= square
    tmp += term
    term = r * _EXP_C[3]
    term += _EXP_C[2]
    square *= square
    term *= square
    tmp += term
    scale = _EXP_SCALE[j]
    value = scale * tmp
    value += scale
    out = np.ldexp(value, k)
    if not out.ndim:
        return _exp_tiny(scale, tmp, k) if k <= -1022 and out <= _TINY else out
    if k.min() <= -1022:
        tiny = np.flatnonzero(out <= _TINY)
        out[tiny] = _exp_tiny(scale[tiny], tmp[tiny], k[tiny])
    return out


def _exp_tiny(scale, tmp, k):
    """scale 2^k (1 + tmp) below 2^-1022, rounded once, to its own spacing:
    formed at 2^(k + 1022), where it is below 1, then rounded to 2^-52 as
    the fraction of 1 + it."""
    scale = np.ldexp(scale, k + 1022)
    tmp = tmp * scale
    value = scale + tmp
    low = scale - value
    low += tmp
    high = 1.0 + value
    low += (1.0 - high) + value
    value = high + low
    value -= 1.0
    return value * _TINY


def _exp(x):
    # a nan stays nan, though its k is any integer (an invalid cast)
    with np.errstate(over="ignore", invalid="ignore"):
        return _exp_reduced(np.minimum(np.maximum(x, -_EXP_CLIP), _EXP_CLIP))


def exp(x):
    """e to the power ``x``; accepts a float or an ndarray. Within an ulp of
    the C library's ``exp``; 0 below about -745.13, inf above about 709.78."""
    return _elementwise(_exp, x)


# --- erfc: s_erf.c's rational approximations on |x| < 0.84375, < 1.25,
# < 1/0.35 and < 28 ---
_PP = (1.28379167095512558561e-01, -3.25042107247001499370e-01,
       -2.84817495755985104766e-02, -5.77027029648944159157e-03,
       -2.37630166566501626084e-05)
_QQ = (1.0, 3.97917223959155352819e-01, 6.50222499887672944485e-02,
       5.08130628187576562776e-03, 1.32494738004321644526e-04,
       -3.96022827877536812320e-06)
_ERX = 8.45062911510467529297e-01  # erf(1) to 24 bits, so that 1 - _ERX is exact
_PA = (-2.36211856075265944077e-03, 4.14856118683748331666e-01,
       -3.72207876035701323847e-01, 3.18346619901161753674e-01,
       -1.10894694282396677476e-01, 3.54783043256182359371e-02,
       -2.16637559486879084300e-03)
_QA = (1.0, 1.06420880400844228286e-01, 5.40397917702171048937e-01,
       7.18286544141962662868e-02, 1.26171219808761642112e-01,
       1.36370839120290507362e-02, 1.19844998467991074170e-02)
_RA = (-9.86494403484714822705e-03, -6.93858572707181764372e-01,
       -1.05586262253232909814e+01, -6.23753324503260060396e+01,
       -1.62396669462573470355e+02, -1.84605092906711035994e+02,
       -8.12874355063065934246e+01, -9.81432934416914548592e+00)
_SA = (1.0, 1.96512716674392571292e+01, 1.37657754143519042600e+02,
       4.34565877475229228821e+02, 6.45387271733267880336e+02,
       4.29008140027567833386e+02, 1.08635005541779435134e+02,
       6.57024977031928170135e+00, -6.04244152148580987438e-02)
_RB = (-9.86494292470009928597e-03, -7.99283237680523006574e-01,
       -1.77579549177547519889e+01, -1.60636384855821916062e+02,
       -6.37566443368389627722e+02, -1.02509513161107724954e+03,
       -4.83519191608651397019e+02)
_SB = (1.0, 3.03380607434824582924e+01, 3.25792512996573918826e+02,
       1.53672958608443695994e+03, 3.19985821950859553908e+03,
       2.55305040643316442583e+03, 4.74528541206955367215e+02,
       -2.24409524465858183362e+01)
# 1/0.35 rounded to a float whose low 32 bits are 0, as s_erf.c compares
_ERFC_TAIL = float.fromhex("0x1.6db6dp+1")
_HIGH_BITS = np.uint64(0xFFFFFFFF00000000)


def _erfc_central(x, from_quarter: bool):
    """|x| < 0.84375: x below 1/4, or ``from_quarter`` on."""
    z = x * x
    y = _rational(z, _PP, _QQ)
    y *= x
    if from_quarter:  # 1/2 - (x*y + (x - 1/2))
        y += x - 0.5
        return 0.5 - y
    y += x  # 1 - (x + x*y)
    return 1.0 - y


def _erfc_middle(x):
    """0.84375 <= |x| < 1.25: erf(1) corrected by a rational in |x| - 1."""
    s = abs(x)
    s -= 1.0
    ratio = _rational(s, _PA, _QA)
    return np.where(x < 0.0, 1.0 + (_ERX + ratio), (1.0 - _ERX) - ratio)


def _erfc_tail(x, numerator: tuple, denominator: tuple):
    """1.25 <= |x| < 28: exp(-x^2 - 0.5625 + R/S) / |x|, with R/S a rational
    in 1/x^2 and exp(-x^2) taken as exp(-z^2) exp((z - x)(z + x)) for z, |x|
    with its low 32 bits cleared, so that z^2 is exact."""
    a = abs(x)
    ratio = _rational(1.0 / (a * a), numerator, denominator)
    z = (a.view(np.uint64) & _HIGH_BITS).view(np.float64)
    ratio += (z - a) * (z + a)
    value = _exp_reduced(-0.5625 - z * z)
    value *= _exp_reduced(ratio)
    value /= a
    return np.where(x < 0.0, 2.0 - value, value)


# each range's function, in the order of _erfc_masks
_ERFC_RANGES = (
    lambda x: _erfc_central(x, False),
    lambda x: _erfc_central(x, True),
    _erfc_middle,
    lambda x: _erfc_tail(x, _RA, _SA),
    lambda x: _erfc_tail(x, _RB, _SB),
)


def _erfc_masks(x) -> list:
    """Where each of ``_ERFC_RANGES`` applies; nowhere for |x| >= 28, x <=
    -6 (erfc is 0 or 2 there) and nan."""
    a = abs(x)
    below = [a < edge for edge in (0.84375, 1.25, _ERFC_TAIL, 28.0)]
    quarter = x < 0.25
    return [below[0] & quarter, below[0] & ~quarter, below[1] ^ below[0],
            below[2] ^ below[1], (below[3] ^ below[2]) & (x > -6.0)]


def _erfc(x):
    masks = _erfc_masks(x)
    if not x.ndim:
        for mask, function in zip(masks, _ERFC_RANGES):
            if mask:
                return function(x)
        return x if x != x else np.float64(2.0 * (x <= 0.0))
    out = np.multiply(x <= 0.0, 2.0)
    for mask, function in zip(masks, _ERFC_RANGES):
        positions = np.flatnonzero(mask)
        if positions.size:
            out[positions] = function(x[positions])
    nan = np.flatnonzero(x != x)
    out[nan] = x[nan]
    return out


def erfc(x):
    """Complementary error function; accepts a float or an ndarray. Within
    two ulps of the C library's ``erfc``, with full relative accuracy down
    to where it underflows (x above about 27.2)."""
    return _elementwise(_erfc, x)


def _cdf(x):
    value = _erfc(-x / _SQRT2)
    value *= 0.5
    return value


def cdf(x):
    """Standard normal CDF; accepts a float or an ndarray.

    Computed as ``erfc(-x / sqrt(2)) / 2``, which stays accurate deep into the
    lower tail (no cancellation for very negative x).
    """
    return _elementwise(_cdf, x)


def _pdf(x):
    value = _exp(-0.5 * x * x)
    value *= _INV_SQRT_2PI
    return value


def pdf(x):
    """Standard normal density, ``exp(-x*x / 2) / sqrt(2 pi)``; accepts a
    float or an ndarray."""
    return _elementwise(_pdf, x)


# --- log, for the quantile's first guess only: fdlibm's e_log.c scheme, x =
# 2^k (1 + f) with 1 + f in about [sqrt(2)/2, sqrt(2)), and log(1 + f) =
# f - f^2/2 + s (f^2/2 + R(s^2)) for s = f / (2 + f) ---
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10
_LG = (6.666666666666735130e-01, 3.999999999940941908e-01, 2.857142874366239149e-01,
       2.222219843214978396e-01, 1.818357216161805012e-01, 1.531383769920937332e-01,
       1.479819860511658591e-01)
# a mantissa from this on is halved: e_log.c's 0x6a09c
_LOG_HALVE = float.fromhex("0x1.6a09cp0")


def _log(x: float) -> float:
    """Natural log of a positive finite float."""
    mantissa, k = math.frexp(x)
    mantissa *= 2.0
    k -= 1
    if mantissa >= _LOG_HALVE:
        mantissa *= 0.5
        k += 1
    f = mantissa - 1.0
    s = f / (2.0 + f)
    z = s * s
    w = z * z
    r = (z * (_LG[0] + w * (_LG[2] + w * (_LG[4] + w * _LG[6])))
         + w * (_LG[1] + w * (_LG[3] + w * _LG[5])))
    half_square = 0.5 * f * f
    return k * _LN2_HI - ((half_square - (s * (half_square + r) + k * _LN2_LO)) - f)


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
    upper = p > 1.0 - _P_LOW
    if p < _P_LOW or upper:
        q = math.sqrt(-2.0 * _log(1.0 - p if upper else p))
        tail = ((((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5])
                / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0))
        return -tail if upper else tail
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
