"""Expectation precomputation (Section 3.2)."""

import numpy as np
import pytest

from repro.config import SPQConfig
from repro.db.expressions import Attr, BinOp, Const, parse_expression
from repro.db.relation import Relation
from repro.mcdb import GaussianNoiseVG, ParetoNoiseVG, StochasticModel
from repro.mcdb.expectation import ExpectationEstimator


def _config(n=800):
    return SPQConfig(n_expectation_scenarios=n, seed=7)


def test_analytic_mean_used_when_available(items_model):
    estimator = ExpectationEstimator(items_model, _config())
    mean = estimator.attribute_mean("Value")
    assert np.allclose(mean, items_model.relation.column("price"))


def test_monte_carlo_when_analytic_disabled(items_model):
    estimator = ExpectationEstimator(items_model, _config())
    mean = estimator._monte_carlo_attribute_mean("Value")
    exact = items_model.relation.column("price")
    assert not np.allclose(mean, exact)  # sampled, not exact
    assert np.allclose(mean, exact, atol=0.2)


def test_pareto_shape_one_falls_back_to_monte_carlo():
    relation = Relation("t", {"base": [10.0, 12.0]})
    model = StochasticModel(relation, {"X": ParetoNoiseVG("base", 1.0, 1.0)})
    estimator = ExpectationEstimator(model, _config())
    mean = estimator.attribute_mean("X")
    # Pareto(1,1) noise has no finite mean: the estimate is the empirical
    # average, which must exceed base + scale.
    assert np.all(mean > relation.column("base") + 1.0)


def test_deterministic_expression_exact(items_model):
    estimator = ExpectationEstimator(items_model, _config())
    mean = estimator.expression_mean(parse_expression("price * 2 + weight"))
    relation = items_model.relation
    assert np.allclose(mean, relation.column("price") * 2 + relation.column("weight"))


def test_affine_expression_uses_linearity(items_model):
    estimator = ExpectationEstimator(items_model, _config())
    mean = estimator.expression_mean(parse_expression("3 * Value - price"))
    exact = 3 * items_model.relation.column("price") - items_model.relation.column(
        "price"
    )
    # Linearity + analytic attribute mean: exact, no Monte Carlo error.
    assert np.allclose(mean, exact)


def test_nonlinear_expression_uses_monte_carlo(items_model):
    estimator = ExpectationEstimator(items_model, _config(n=4000))
    mean = estimator.expression_mean(parse_expression("Value ^ 2"))
    # E[V^2] = price^2 + sigma^2 for V ~ N(price, 1).
    exact = items_model.relation.column("price") ** 2 + 1.0
    assert np.allclose(mean, exact, rtol=0.08)


def test_expression_means_cached(items_model):
    estimator = ExpectationEstimator(items_model, _config())
    expr = parse_expression("Value + 1")
    first = estimator.expression_mean(expr)
    second = estimator.expression_mean(expr)
    assert first is second


def test_constant_expression_broadcast(items_model):
    estimator = ExpectationEstimator(items_model, _config())
    mean = estimator.expression_mean(Const(1))
    assert mean.shape == (5,)
    assert np.all(mean == 1.0)
