from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from indexaudit import dataio
from indexaudit.core import PriceSeries, WeightVector
from indexaudit.survey import WeightEstimate

FIXTURE_DIR = Path(__file__).parent / "fixtures"

# The same examples on every run, and no example database: a property test
# passes or fails the same way each time, never on an example replayed from
# an earlier run. Per-test settings such as max_examples still apply.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def fixture_dir() -> Path:
    return FIXTURE_DIR


@pytest.fixture(scope="session")
def food_prices() -> PriceSeries:
    return dataio.load_prices(FIXTURE_DIR / "prices.csv")


@pytest.fixture(scope="session")
def food_weights(food_prices) -> dict[str, WeightVector]:
    return dataio.load_weights(FIXTURE_DIR / "weights.csv",
                               food_prices.group_labels)


@pytest.fixture(scope="session")
def food_estimate(food_prices) -> WeightEstimate:
    return dataio.load_weight_estimate(FIXTURE_DIR / "survey_estimate.csv",
                                       food_prices.group_labels)


@pytest.fixture
def tiny_prices() -> PriceSeries:
    """Two groups, three periods, hand-checkable numbers."""
    return PriceSeries(
        values=np.array([[100.0, 102.0, 104.0],
                         [100.0, 99.0, 98.0]]),
        group_labels=("a", "b"),
        period_labels=("t0", "t1", "t2"),
    )


@pytest.fixture
def tiny_estimate() -> WeightEstimate:
    cov = np.array([[0.0004, -0.0004], [-0.0004, 0.0004]])
    return WeightEstimate(
        point=WeightVector([0.58, 0.42], label="survey", group_labels=("a", "b")),
        covariance=cov,
        n_households=50,
    )
