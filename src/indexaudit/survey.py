"""Survey-side estimation: expenditure weights and their sampling covariance.

Expenditure weights are estimated from household micro data as a ratio of
totals: each group's share of the pooled expenditure of all responding
households. The covariance of that estimator is the standard linearization
for a ratio under simple random sampling, computed from the per-household
influence terms. Those influence terms sum to zero across households, which
forces every row of the covariance matrix to sum to zero, and the matrix is
positive semidefinite by construction since it is a scaled cross-product.

A small simulator draws synthetic household data with a known weight vector
so estimator behavior can be checked end to end.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import InitVar, dataclass
from typing import Sequence

import numpy as np

from . import gaussian
from .core import (PriceSeries, WeightVector, _dots, _frozen_array, _period_columns,
                   _resolve_periods)
from .errors import AuditWarning, DimensionMismatchError, ValidationError


@dataclass(frozen=True)
class HouseholdPanel:
    """Household micro data in columnar form.

    ``expenditures`` is an n by m matrix: one row per household, in
    ``household_ids`` order, one column per expenditure group. ``strata``
    holds each household's stratum label (None when untagged); omitted, no
    household is tagged. Construction checks that there is at least one
    household and at least 2 groups, and that every amount is finite and
    non-negative; the error names the first offending household.
    """

    household_ids: tuple[str, ...]
    expenditures: np.ndarray
    strata: tuple[str | None, ...] | None = None

    def __post_init__(self):
        ids = tuple(self.household_ids)
        spend = _frozen_array(self.expenditures)
        strata = (None,) * len(ids) if self.strata is None else tuple(self.strata)
        if not ids:
            raise ValidationError("no household records supplied")
        if spend.ndim != 2 or spend.shape[0] != len(ids) or len(strata) != len(ids):
            raise DimensionMismatchError(
                f"{len(ids)} household ids and {len(strata)} strata for an "
                f"expenditure matrix of shape {spend.shape}"
            )
        if spend.shape[1] < 2:
            raise ValidationError(
                f"household {ids[0]!r}: expenditures must be a vector "
                f"over at least 2 groups"
            )
        bad = ~np.isfinite(spend) | (spend < 0.0)
        if bad.any():
            first = int(np.argmax(bad.any(axis=1)))
            raise ValidationError(
                f"household {ids[first]!r}: expenditures must be finite "
                f"and non-negative"
            )
        object.__setattr__(self, "household_ids", ids)
        object.__setattr__(self, "expenditures", spend)
        object.__setattr__(self, "strata", strata)

    def __len__(self) -> int:
        return len(self.household_ids)

    def select(self, rows: Sequence[int]) -> "HouseholdPanel":
        """The households at the given row positions, in that order."""
        rows = list(rows)
        return HouseholdPanel(
            household_ids=tuple(self.household_ids[i] for i in rows),
            expenditures=self.expenditures[rows],
            strata=tuple(self.strata[i] for i in rows),
        )


@dataclass(frozen=True)
class WeightEstimate:
    """A weight vector estimated from a sample, with its covariance matrix.

    Construction enforces what downstream algebra relies on: the covariance
    is symmetric (to 1e-12 on its own scale), positive semidefinite up to a
    -1e-10 eigenvalue slack, and every row sums to zero on the same slack
    (weights are shares, so their estimation errors must cancel along the
    all-ones direction). ``n_households`` is the number of records actually
    used; None means unknown (e.g. a file that omitted it).
    """

    point: WeightVector
    covariance: np.ndarray
    n_households: int | None = None
    # Only estimate_weights passes this: the size of the terms its row sums
    # round with, which can exceed the covariance's own scale. Not stored.
    _row_sum_scale: InitVar[float] = 0.0

    def __post_init__(self, _row_sum_scale):
        cov = _frozen_array(self.covariance)
        m = self.point.n_groups
        if cov.shape != (m, m):
            raise DimensionMismatchError(
                f"covariance shape {cov.shape} does not match {m} weights"
            )
        if not np.all(np.isfinite(cov)):
            raise ValidationError("covariance contains non-finite values")
        scale = max(float(np.max(np.abs(cov))), 1e-300)
        if float(np.max(np.abs(cov - cov.T))) > 1e-12 * scale:
            raise ValidationError("covariance is not symmetric")
        eigenvalues = np.linalg.eigvalsh(cov)
        if float(eigenvalues.min()) < -1e-10 * max(scale, 1e-30):
            raise ValidationError(
                f"covariance is not positive semidefinite "
                f"(min eigenvalue {eigenvalues.min():.3e})"
            )
        row_sums = np.abs(cov.sum(axis=1))
        if float(row_sums.max()) > 1e-10 * max(scale, _row_sum_scale, 1e-30) * m:
            raise ValidationError(
                "covariance rows must sum to zero (weight errors cancel across groups)"
            )
        if self.n_households is not None and self.n_households < 2:
            raise ValidationError("n_households must be at least 2 when given")
        object.__setattr__(self, "covariance", cov)


def estimate_weights(panel: HouseholdPanel) -> WeightEstimate:
    """Ratio-of-totals weights and their linearized sampling covariance.

    Households with zero total expenditure carry no information about shares;
    they are dropped and counted in an :class:`AuditWarning`. At least two
    usable households are required, and their pooled total must be finite.
    With n usable households, expenditure matrix X (n by m), row totals s,
    estimated weights w = colsum(X) / sum(s), and mean total S, the
    influence of household h is z_h = (x_h - w * s_h) / S and the
    covariance is sum_h z_h z_h^T / (n (n - 1)).
    """
    with np.errstate(over="ignore"):  # an overflowing total is refused below
        totals = panel.expenditures.sum(axis=1)
        usable = totals > 0.0
        totals = totals[usable]
        pooled = float(totals.sum())
    dropped = len(panel) - totals.size
    if dropped:
        warnings.warn(
            f"dropped {dropped} household(s) with zero total expenditure",
            AuditWarning,
            stacklevel=2,
        )
    x = panel.expenditures[usable]
    n = x.shape[0]
    if n < 2:
        raise ValidationError(
            f"need at least 2 households with positive expenditure, got {n}"
        )
    if not np.isfinite(pooled):
        raise ValidationError(
            f"the pooled expenditure total of {n} households overflows to {pooled}"
        )
    point = x.sum(axis=0) / pooled
    mean_total = pooled / n
    influence = (x - np.outer(totals, point)) / mean_total
    influence -= influence.mean(axis=0)
    cov = influence.T @ influence / (n * (n - 1))
    cov = 0.5 * (cov + cov.T)
    # a row sum rounds with the influence terms times the shares they cancel
    # from, not with the covariance, which for nearly proportional households
    # cancels to far less
    row_sum_scale = float(np.max(np.abs(influence).T @ (totals / mean_total))) / (n * (n - 1))
    return WeightEstimate(
        point=WeightVector(point, label="survey"),
        covariance=cov,
        n_households=n,
        _row_sum_scale=row_sum_scale,
    )


def simulate_households(true_weights: WeightVector, n: int, dispersion: float,
                        seed: int, stratum_label: str | None = None) -> HouseholdPanel:
    """Draw synthetic household expenditures around known true weights.

    Totals are LogNormal(0, dispersion); shares are Dirichlet with
    concentration ``true_weights / dispersion``, so the expected share vector
    equals the true weights for every dispersion and the draws collapse onto
    the true weights as dispersion approaches zero. Deterministic in ``seed``.
    """
    if n < 1:
        raise ValidationError(f"n must be positive, got {n}")
    if not dispersion > 0.0 or not np.isfinite(dispersion):
        raise ValidationError(f"dispersion must be a positive float, got {dispersion}")
    rng = np.random.Generator(np.random.PCG64(seed))
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        totals = gaussian.exp(rng.normal(0.0, dispersion, size=n))
        shares = rng.dirichlet(true_weights.w / dispersion, size=n)
        spend = np.multiply(shares, totals[:, None], out=shares)
    if not np.isfinite(spend).all():
        raise ValidationError(
            f"dispersion {dispersion!r} is out of range: household totals or "
            f"shares drawn with it are not finite"
        )
    width = len(str(n))
    return HouseholdPanel(
        household_ids=tuple(f"h{i + 1:0{width}d}" for i in range(n)),
        expenditures=spend,
        strata=(stratum_label,) * n,
    )


def index_variance(prices: PriceSeries, estimate: WeightEstimate,
                   t=None, periods: Sequence[int] | None = None):
    """Sampling variance of the weighted index from weight uncertainty.

    Evaluates the quadratic form p^T V p at period position ``t`` (an array
    of positions gives one value each), or at the mean price vector over
    ``periods`` when that is given instead (exactly one of the two must be
    supplied). Tiny negative results from rounding clamp to zero; a negative
    value beyond -1e-10 on the problem's own scale means the covariance is
    broken and raises.
    """
    if estimate.point.n_groups != prices.n_groups:
        raise DimensionMismatchError(
            f"weight estimate has {estimate.point.n_groups} groups, "
            f"price panel has {prices.n_groups}"
        )
    if (t is None) == (periods is None):
        raise ValidationError("index_variance takes exactly one of t or periods")
    if periods is not None:
        chosen = _resolve_periods(prices, periods)
        vectors = [prices.values[:, chosen].mean(axis=1)]
    else:
        vectors = _period_columns(prices, t)
    quad = _dots([vector @ estimate.covariance for vector in vectors], vectors)
    peak = np.abs(np.array(vectors)).max(axis=-1, initial=0.0)
    # peak * peak is inf, not an OverflowError, for prices beyond ~1e154
    with np.errstate(over="ignore", invalid="ignore"):
        scale = peak * peak * max(float(np.trace(estimate.covariance)), 0.0)
        broken = ~np.isfinite(quad) | (quad < -1e-10 * np.maximum(scale, 1e-30))
    if broken.any():
        first = int(np.argmax(broken))
        if not math.isfinite(quad[first]):
            raise ValidationError(
                f"index variance overflows: p'Vp is {float(quad[first])} for prices "
                f"up to {float(peak[first]):.3g}"
            )
        raise ValidationError(
            f"index variance came out negative ({float(quad[first]):.3e}); "
            f"covariance is broken"
        )
    quad[quad < 0.0] = 0.0
    return float(quad[0]) if t is None or np.ndim(t) == 0 else quad
