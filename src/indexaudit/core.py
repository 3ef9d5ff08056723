"""Price panels, weight vectors, and the arithmetic of weighted indices.

The central objects are a rectangular price panel (one row per expenditure
group, one column per period) and normalized weight vectors over the same
groups. A price index at period t is the weighted average of group prices,
and the "source effect" of swapping one weight vector for another is the
difference between the two resulting indices.

All types are frozen dataclasses holding read-only arrays; instances are
immutable and safe to share across threads.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError, ValidationError


def _frozen_array(values, dtype=float) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class PriceSeries:
    """A rectangular panel of positive group price indices.

    ``values`` has shape (n_groups, n_periods); ``group_labels`` and
    ``period_labels`` name the rows and columns and must be unique.
    """

    values: np.ndarray
    group_labels: tuple[str, ...]
    period_labels: tuple[str, ...]

    def __post_init__(self):
        values = _frozen_array(self.values)
        if values.ndim != 2:
            raise ValidationError(f"price panel must be 2-dimensional, got shape {values.shape}")
        m, t = values.shape
        if m < 2:
            raise ValidationError(f"price panel needs at least 2 groups, got {m}")
        if t < 1:
            raise ValidationError("price panel needs at least 1 period")
        if not np.all(np.isfinite(values)):
            raise ValidationError("price panel contains non-finite values")
        if not np.all(values > 0.0):
            raise ValidationError("price panel contains non-positive values")
        groups = tuple(str(g) for g in self.group_labels)
        periods = tuple(str(p) for p in self.period_labels)
        if len(groups) != m:
            raise ValidationError(f"{len(groups)} group labels for {m} rows")
        if len(periods) != t:
            raise ValidationError(f"{len(periods)} period labels for {t} columns")
        if len(set(groups)) != m:
            raise ValidationError("group labels must be unique")
        if len(set(periods)) != t:
            raise ValidationError("period labels must be unique")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "group_labels", groups)
        object.__setattr__(self, "period_labels", periods)

    @property
    def n_groups(self) -> int:
        return self.values.shape[0]

    @property
    def n_periods(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class WeightVector:
    """Non-negative expenditure weights over groups, normalized to sum to 1.

    The raw (pre-normalization) sum must be positive and finite. It is kept
    so callers can tell whether the input deviated from 1 by more than
    rounding.
    """

    w: np.ndarray
    label: str = ""
    group_labels: tuple[str, ...] | None = None
    raw_sum: float = field(init=False, default=0.0)

    def __post_init__(self):
        raw = np.array(self.w, dtype=float)
        if raw.ndim != 1:
            raise ValidationError(f"weights must be a 1-d vector, got shape {raw.shape}")
        if raw.size < 2:
            raise ValidationError("weight vector needs at least 2 groups")
        if not np.all(np.isfinite(raw)):
            raise ValidationError(f"weight vector {self.label!r} contains non-finite values")
        if np.any(raw < 0.0):
            bad = int(np.argmin(raw))
            raise ValidationError(
                f"weight vector {self.label!r} has a negative weight at "
                f"{self._group_name(bad)}"
            )
        with np.errstate(over="ignore"):  # checked just below
            total = float(np.sum(raw))
        if not np.isfinite(total):
            raise ValidationError(
                f"weight vector {self.label!r} overflows: its weights sum to {total}"
            )
        if total <= 0.0:
            raise ValidationError(f"weight vector {self.label!r} sums to zero")
        normalized = _frozen_array(raw / total)
        object.__setattr__(self, "w", normalized)
        object.__setattr__(self, "raw_sum", total)
        if self.group_labels is not None:
            labels = tuple(str(g) for g in self.group_labels)
            if len(labels) != normalized.size:
                raise ValidationError(
                    f"{len(labels)} group labels for {normalized.size} weights"
                )
            if len(set(labels)) != len(labels):
                raise ValidationError(
                    f"weight vector {self.label!r} has duplicate group labels"
                )
            object.__setattr__(self, "group_labels", labels)

    def _group_name(self, position: int) -> str:
        if self.group_labels is not None:
            return f"group {self.group_labels[position]!r}"
        return f"group position {position}"

    @property
    def n_groups(self) -> int:
        return self.w.size


def _check_groups(prices: PriceSeries, weights: WeightVector) -> None:
    if weights.n_groups != prices.n_groups:
        raise DimensionMismatchError(
            f"weight vector {weights.label!r} has {weights.n_groups} groups, "
            f"price panel has {prices.n_groups}"
        )
    if weights.group_labels is not None and weights.group_labels != prices.group_labels:
        raise DimensionMismatchError(
            f"weight vector {weights.label!r} group labels do not match the price panel"
        )


def _resolve_periods(prices: PriceSeries, periods: Sequence[int] | None) -> np.ndarray:
    if periods is None:
        return np.arange(prices.n_periods)
    chosen = np.asarray(list(periods), dtype=int)
    if chosen.size == 0:
        raise ValidationError("period subset is empty")
    if np.any(chosen < 0) or np.any(chosen >= prices.n_periods):
        raise ValidationError(
            f"period positions must lie in [0, {prices.n_periods - 1}]"
        )
    if np.unique(chosen).size != chosen.size:
        raise ValidationError("period subset contains duplicates")
    return chosen


def _period_columns(prices: PriceSeries, t) -> list[np.ndarray]:
    """The price column of period position ``t``, or of each of an array of
    positions."""
    positions = np.ravel(t)
    outside = (positions < 0) | (positions >= prices.n_periods)
    if outside.any():
        raise ValidationError(f"period position {positions[outside][0]} out of range "
                              f"[0, {prices.n_periods - 1}]")
    return [prices.values[:, position] for position in positions.tolist()]


def _dots(left, right) -> np.ndarray:
    """``np.dot(a, b)`` for each pair of arrays of ``left`` and ``right``.

    One BLAS dot product per pair, each summed in that kernel's order: a
    matrix product sums in another order and changes the last bits. With
    :func:`_quadratic_forms` this is the one place the package's per-cell
    summation order is set.
    """
    return np.fromiter(map(np.ndarray.dot, left, right), float)


def _quadratic_forms(vectors, covariance: np.ndarray) -> np.ndarray:
    """``v @ V @ v`` for each of ``vectors``, bit for bit: the package's one
    spelling of a variance under weight uncertainty."""
    return _dots([vector @ covariance for vector in vectors], vectors)


def weighted_index(prices: PriceSeries, weights: WeightVector, t):
    """The weighted index at period position ``t`` (dot product, float64);
    an array of positions gives the array of their indices.

    Summation uses numpy's dot product; tests pin it against ``math.fsum``
    to 1e-12 relative.
    """
    _check_groups(prices, weights)
    values = _dots(itertools.repeat(weights.w), _period_columns(prices, t))
    return float(values[0]) if np.ndim(t) == 0 else values


def mean_price_vector(prices: PriceSeries, periods: Sequence[int] | None = None) -> np.ndarray:
    """Per-group mean prices over a period subset (all periods by default)."""
    chosen = _resolve_periods(prices, periods)
    return prices.values[:, chosen].mean(axis=1)


def source_effect(prices: PriceSeries, w_survey: WeightVector,
                  w_proxy: WeightVector, t: int) -> float:
    """Index difference at period ``t`` from using survey instead of proxy weights."""
    return weighted_index(prices, w_survey, t) - weighted_index(prices, w_proxy, t)


def mean_source_effect(prices: PriceSeries, w_survey: WeightVector,
                       w_proxy: WeightVector,
                       periods: Sequence[int] | None = None) -> float:
    """Mean source effect over a period subset: ``mean_p . (w_survey - w_proxy)``."""
    _check_groups(prices, w_survey)
    _check_groups(prices, w_proxy)
    p_bar = mean_price_vector(prices, periods)
    return float(np.dot(p_bar, w_survey.w - w_proxy.w))


def relative_weight_diff(w_survey: WeightVector, w_proxy: WeightVector) -> np.ndarray:
    """Relative weight discrepancies ``w_survey / w_proxy - 1`` per group.

    By construction the discrepancies average to zero under the proxy
    weights. A group the proxy gives zero weight but the survey does not is
    an error (the ratio is undefined there).
    """
    if w_survey.n_groups != w_proxy.n_groups:
        raise DimensionMismatchError(
            f"weight vectors {w_survey.label!r} and {w_proxy.label!r} differ in length"
        )
    zero = (w_proxy.w == 0.0) & (w_survey.w != 0.0)
    if np.any(zero):
        position = int(np.argmax(zero))
        raise ValidationError(
            f"proxy weight vector {w_proxy.label!r} is zero at "
            f"{w_proxy._group_name(position)} where the survey weight is not"
        )
    out = np.zeros_like(w_survey.w)
    nonzero = w_proxy.w != 0.0
    out[nonzero] = w_survey.w[nonzero] / w_proxy.w[nonzero] - 1.0
    return out


def weighted_covariance(x, y, w) -> float:
    """Weighted covariance of two vectors under (normalized) weights ``w``.

    Two-pass form: weighted means first, then the weighted cross-product of
    deviations. With discrepancies b = relative_weight_diff(...) and prices p,
    ``weighted_covariance(b, p, w_proxy)`` equals the source effect exactly,
    because b has weighted mean zero under the proxy weights.
    """
    xv = np.asarray(x, dtype=float)
    yv = np.asarray(y, dtype=float)
    wv = w.w if isinstance(w, WeightVector) else np.asarray(w, dtype=float)
    if xv.shape != yv.shape or xv.shape != wv.shape or xv.ndim != 1:
        raise DimensionMismatchError(
            f"weighted_covariance needs three equal-length vectors, got "
            f"{xv.shape}, {yv.shape}, {wv.shape}"
        )
    if np.any(wv < 0.0) or not np.all(np.isfinite(wv)):
        raise ValidationError("covariance weights must be non-negative and finite")
    total = float(np.sum(wv))
    if total <= 0.0:
        raise ValidationError("covariance weights sum to zero")
    wv = wv / total
    x_mean = float(np.dot(wv, xv))
    y_mean = float(np.dot(wv, yv))
    return float(np.dot(wv, (xv - x_mean) * (yv - y_mean)))
