"""Deterministic builder for the committed CSV fixtures.

The panel is five food groups over 36 months with distinct levels, trends,
and seasonal amplitudes. Four proxy weight vectors (age-band diary panels)
differ from each other along the trend pattern; the survey estimate sits a
controlled distance from the oldest band's weights so the pooled level test
lands in a known regime (mean source effects 0.001099 and 0.001059 at an
audit SE of 0.029, i.e. two-sided p-values that print as 0.970 and 0.971).

Run as a script to rewrite tests/fixtures/; the drift-guard test rebuilds
into a temp dir and byte-compares, so edit constants here, never the CSVs.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from indexaudit.core import PriceSeries, WeightVector
from indexaudit.dataio import (
    write_households,
    write_prices,
    write_weight_estimate,
    write_weights,
)
from indexaudit.survey import HouseholdPanel, WeightEstimate, simulate_households

FIXTURE_DIR = Path(__file__).parent / "fixtures"

GROUPS = ("bread", "meat", "dairy", "produce", "beverages")
LEVELS = np.array([96.0, 98.5, 100.0, 102.0, 104.5])
TRENDS = np.array([-0.10, -0.04, 0.02, 0.06, 0.12])
SEASON = np.array([0.8, -0.5, 0.3, -0.6, 0.4])
N_PERIODS = 36

BASE_WEIGHTS = np.array([0.22, 0.20, 0.21, 0.19, 0.18])
SOURCES = ("age_lt26", "age_26_40", "age_41_67", "age_68plus")

TARGET_EFFECT_SAME = 0.001099   # survey vs the oldest band's own weights
TARGET_EFFECT_CROSS = 0.001059  # survey vs the youngest band
AUDIT_SE = 0.029
N_HOUSEHOLDS_META = 1000


def month_labels() -> tuple[str, ...]:
    return tuple(f"{2015 + m // 12}-{m % 12 + 1:02d}" for m in range(N_PERIODS))


def build_prices() -> PriceSeries:
    time = np.arange(N_PERIODS, dtype=float)
    delta = time - (N_PERIODS - 1) / 2.0
    wave = np.sin(2.0 * np.pi * time / 12.0)
    values = LEVELS[:, None] + np.outer(TRENDS, delta) + np.outer(SEASON, wave)
    return PriceSeries(values=values, group_labels=GROUPS,
                       period_labels=month_labels())


def _perp(seed: np.ndarray, against: list[np.ndarray]) -> np.ndarray:
    out = seed.astype(float).copy()
    basis: list[np.ndarray] = []
    for raw in against:
        b = raw.astype(float).copy()
        for prior in basis:
            b -= np.dot(b, prior) * prior
        b /= np.linalg.norm(b)
        basis.append(b)
    for prior in basis:
        out -= np.dot(out, prior) * prior
    return out


def _directions() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(u, z, r): survey offset, proxy trend tilt, covariance noise shape.

    u is orthogonal to the constant, trend, and season patterns and scaled so
    u . LEVELS = 1, which pins the mean source effect to its coefficient and
    keeps both the slope tests and the per-month coverage biases flat.
    z is the centered trend pattern scaled the same way, so proxy vectors
    built from it disagree with the survey about trends, not levels.
    r spans trend/season but no level, so the covariance's second component
    cannot blur the audit SE.
    """
    ones = np.ones(5)
    u = _perp(np.array([1.0, -1.0, 0.5, -0.5, 0.0]), [ones, TRENDS, SEASON])
    u /= np.dot(u, LEVELS)
    z = TRENDS - TRENDS.mean()
    z /= np.dot(z, LEVELS)
    r = _perp(TRENDS, [ones, LEVELS])
    r /= np.linalg.norm(r)
    return u, z, r


def build_weights() -> dict[str, WeightVector]:
    _, z, _ = _directions()
    tilts = {
        "age_lt26": 4e-05,
        "age_26_40": 8e-05,
        "age_41_67": -6e-05,
        "age_68plus": 0.0,
    }
    return {
        source: WeightVector(BASE_WEIGHTS + tilt * z, label=source,
                             group_labels=GROUPS)
        for source, tilt in tilts.items()
    }


def build_survey_estimate() -> WeightEstimate:
    prices = build_prices()
    u, _, r = _directions()
    point = BASE_WEIGHTS + TARGET_EFFECT_SAME * u
    noise_per_period = prices.values.T @ r
    epsilon = 1.6e-07 / float(np.max(np.abs(noise_per_period))) ** 2
    covariance = (AUDIT_SE ** 2 * np.outer(u, u) + epsilon * np.outer(r, r))
    estimate = WeightEstimate(
        point=WeightVector(point, label="survey", group_labels=GROUPS),
        covariance=covariance,
        n_households=N_HOUSEHOLDS_META,
    )
    _check_regime(prices, estimate)
    return estimate


def _check_regime(prices: PriceSeries, estimate: WeightEstimate) -> None:
    weights = build_weights()
    p_bar = prices.values.mean(axis=1)
    se = math.sqrt(float(p_bar @ estimate.covariance @ p_bar))
    assert abs(se - AUDIT_SE) < 3e-4 * AUDIT_SE, se
    effect_same = float(np.dot(p_bar, estimate.point.w - weights["age_68plus"].w))
    effect_cross = float(np.dot(p_bar, estimate.point.w - weights["age_lt26"].w))
    assert abs(effect_same - TARGET_EFFECT_SAME) < 1e-10, effect_same
    assert abs(effect_cross - TARGET_EFFECT_CROSS) < 1e-10, effect_cross


def build_micro_records() -> tuple[HouseholdPanel, tuple[str, ...]]:
    """Sixty synthetic households, fifteen per age stratum."""
    weights = build_weights()
    drawn = [simulate_households(weights[source], n=15, dispersion=0.25,
                                 seed=1851 + position, stratum_label=source)
             for position, source in enumerate(SOURCES)]
    records = HouseholdPanel(
        household_ids=tuple(f"{source}_{household}"
                            for source, panel in zip(SOURCES, drawn)
                            for household in panel.household_ids),
        expenditures=np.vstack([panel.expenditures for panel in drawn]),
        strata=tuple(stratum for panel in drawn for stratum in panel.strata),
    )
    return records, GROUPS


def build_all(target_dir: Path | str = FIXTURE_DIR) -> None:
    target = Path(target_dir)
    target.mkdir(parents=True, exist_ok=True)
    prices = build_prices()
    write_prices(target / "prices.csv", prices)
    write_weights(target / "weights.csv", build_weights())
    write_weight_estimate(target / "survey_estimate.csv",
                          build_survey_estimate(), GROUPS)
    records, groups = build_micro_records()
    write_households(target / "ces_micro.csv", records, groups)


if __name__ == "__main__":
    build_all()
    print(f"fixtures written to {FIXTURE_DIR}")
