"""Shared fixtures: small relations, stochastic models, fast configs."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Catalog, Relation, SPQConfig
from repro.core.context import EvaluationContext
from repro.mcdb import (
    DiscreteVariantsVG,
    GaussianNoiseVG,
    GeometricBrownianMotionVG,
    StochasticModel,
)
from repro.silp.compile import compile_query


@pytest.fixture
def items_relation() -> Relation:
    """Five items with deterministic prices and weights."""
    return Relation(
        "items",
        {
            "price": [5.0, 8.0, 3.0, 6.0, 4.0],
            "weight": [2.0, 1.0, 4.0, 3.0, 2.5],
            "category": ["a", "b", "a", "b", "a"],
        },
    )


@pytest.fixture
def items_model(items_relation) -> StochasticModel:
    """Gaussian 'Value' attribute centred on price with sigma 1."""
    return StochasticModel(
        items_relation, {"Value": GaussianNoiseVG("price", 1.0)}
    )


@pytest.fixture
def items_catalog(items_relation, items_model) -> Catalog:
    catalog = Catalog()
    catalog.register(items_relation, items_model)
    return catalog


@pytest.fixture
def fast_config() -> SPQConfig:
    """Small Monte Carlo sizes keeping the suite quick but meaningful."""
    return SPQConfig(
        n_validation_scenarios=1_000,
        n_initial_scenarios=20,
        scenario_increment=20,
        max_scenarios=80,
        n_expectation_scenarios=400,
        n_probe_scenarios=16,
        epsilon=0.5,
        solver_time_limit=10.0,
        time_limit=60.0,
        seed=123,
    )


CHANCE_QUERY = """
SELECT PACKAGE(*) FROM items SUCH THAT
    COUNT(*) <= 3 AND
    SUM(Value) >= 6 WITH PROBABILITY >= 0.8
MINIMIZE EXPECTED SUM(Value)
"""


@pytest.fixture
def chance_problem(items_catalog):
    return compile_query(CHANCE_QUERY, items_catalog)


@pytest.fixture
def chance_context(chance_problem, fast_config) -> EvaluationContext:
    return EvaluationContext(chance_problem, fast_config)


@pytest.fixture
def portfolio_toy() -> tuple[Relation, StochasticModel]:
    """Six trades over three stocks with shared GBM paths (Figure 1)."""
    relation = Relation(
        "stock_investments",
        {
            "stock": ["AAPL", "AAPL", "MSFT", "MSFT", "TSLA", "TSLA"],
            "price": [234.0, 234.0, 140.0, 140.0, 258.0, 258.0],
            "sell_in_days": [1.0, 7.0, 1.0, 7.0, 1.0, 7.0],
            "drift": [0.0008, 0.0008, 0.0006, 0.0006, 0.0015, 0.0015],
            "volatility": [0.018, 0.018, 0.012, 0.012, 0.045, 0.045],
        },
    )
    model = StochasticModel(
        relation, {"Gain": GeometricBrownianMotionVG(group_column="stock")}
    )
    return relation, model


@pytest.fixture
def variants_model() -> tuple[Relation, StochasticModel]:
    """Four rows with three discrete variants each (integration-style)."""
    relation = Relation("orders", {"quantity": [2.0, 5.0, 9.0, 1.0]})
    variants = np.array(
        [
            [1.0, 2.0, 3.0],
            [4.0, 5.0, 6.0],
            [8.0, 9.0, 10.0],
            [0.5, 1.0, 1.5],
        ]
    )
    model = StochasticModel(relation, {"Quantity": DiscreteVariantsVG(variants)})
    return relation, model


@pytest.fixture
def no_lane(monkeypatch):
    """SummarySearch without its ladder lane (``core/lane.py``).

    For tests that count mechanisms — memo hits and flags, reduction
    verdicts — from the calling thread: the lane leaves every answer as
    it is, but a rung it solves is counted on its own thread, and a rung
    it discards is counted too.
    """
    from repro.core import lane

    monkeypatch.setattr(lane, "ENABLED", False)


@pytest.fixture
def forced_lane(monkeypatch):
    """The ladder lane on for every rung after a ladder's first transition.

    It engages whatever the box's CPU count and each rung's solver share,
    so lane-on twins exercise it on any machine.
    """
    from exact.harness import force_lane

    force_lane(monkeypatch)
