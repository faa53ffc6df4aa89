"""Scenario generation: reproducibility, modes, caching, coefficients."""

import numpy as np
import pytest

from repro.config import STREAM_OPTIMIZATION, STREAM_VALIDATION
from repro.db.expressions import Attr, BinOp, Const, parse_expression
from repro.errors import EvaluationError
from repro.mcdb.scenarios import (
    MODE_SCENARIO_WISE,
    MODE_TUPLE_WISE,
    ScenarioCache,
    ScenarioGenerator,
)


@pytest.fixture
def generator(items_model):
    return ScenarioGenerator(items_model, seed=1, stream=STREAM_OPTIMIZATION)


@pytest.fixture
def tuple_generator(items_model):
    return ScenarioGenerator(
        items_model, seed=1, stream=STREAM_OPTIMIZATION, mode=MODE_TUPLE_WISE
    )


def test_matrix_reproducible(generator):
    a = generator.matrix("Value", 10)
    b = generator.matrix("Value", 10)
    assert np.array_equal(a, b)


def test_scenario_wise_realize_matches_matrix_column(generator):
    matrix = generator.matrix("Value", 6)
    for j in (0, 3, 5):
        assert np.array_equal(generator.realize("Value", j), matrix[:, j])


def test_scenario_sets_prefix_stable_in_scenario_mode(generator):
    small = generator.matrix("Value", 4)
    large = generator.matrix("Value", 9)
    assert np.array_equal(large[:, :4], small)


def test_tuple_mode_requires_n_scenarios_for_realize(tuple_generator):
    with pytest.raises(EvaluationError):
        tuple_generator.realize("Value", 0)
    column = tuple_generator.realize("Value", 2, n_scenarios=5)
    matrix = tuple_generator.matrix("Value", 5)
    assert np.array_equal(column, matrix[:, 2])


def test_tuple_mode_row_restriction_consistent(tuple_generator):
    """Restricted generation must reproduce exactly the values of the
    full matrix for those rows (the property G_z selection relies on)."""
    full = tuple_generator.matrix("Value", 8)
    rows = np.array([3, 1])
    restricted = tuple_generator.matrix("Value", 8, rows=rows)
    assert np.array_equal(restricted, full[rows, :])


def test_modes_differ_but_agree_distributionally(generator, tuple_generator):
    a = generator.matrix("Value", 400)
    b = tuple_generator.matrix("Value", 400)
    assert not np.array_equal(a, b)  # different seeding schemes
    assert np.allclose(a.mean(axis=1), b.mean(axis=1), atol=0.25)


def test_streams_are_disjoint(items_model):
    opt = ScenarioGenerator(items_model, 1, STREAM_OPTIMIZATION)
    val = ScenarioGenerator(items_model, 1, STREAM_VALIDATION)
    assert not np.array_equal(opt.matrix("Value", 5), val.matrix("Value", 5))


def test_substreams_are_disjoint(items_model):
    a = ScenarioGenerator(items_model, 1, STREAM_VALIDATION, substream=0)
    b = ScenarioGenerator(items_model, 1, STREAM_VALIDATION, substream=1)
    assert not np.array_equal(a.matrix("Value", 5), b.matrix("Value", 5))


def test_seed_changes_stream(items_model):
    a = ScenarioGenerator(items_model, 1, STREAM_OPTIMIZATION)
    b = ScenarioGenerator(items_model, 2, STREAM_OPTIMIZATION)
    assert not np.array_equal(a.matrix("Value", 5), b.matrix("Value", 5))


def test_invalid_mode_and_sizes(items_model):
    with pytest.raises(EvaluationError):
        ScenarioGenerator(items_model, 1, 0, mode="bogus")
    generator = ScenarioGenerator(items_model, 1, 0)
    with pytest.raises(EvaluationError):
        generator.matrix("Value", 0)


# --- coefficient matrices -------------------------------------------------------


def test_coefficient_matrix_deterministic_expression(generator):
    matrix = generator.coefficient_matrix(Attr("price"), 4)
    assert matrix.shape == (5, 4)
    assert np.array_equal(matrix[:, 0], matrix[:, 3])
    assert matrix[:, 0].tolist() == [5.0, 8.0, 3.0, 6.0, 4.0]


def test_coefficient_matrix_stochastic_expression(generator):
    raw = generator.matrix("Value", 6)
    expr = parse_expression("2 * Value + price")
    matrix = generator.coefficient_matrix(expr, 6)
    price = np.array([5.0, 8.0, 3.0, 6.0, 4.0])[:, None]
    assert np.allclose(matrix, 2 * raw + price)


def test_coefficient_matrix_row_restriction(generator):
    expr = parse_expression("Value - price")
    full = generator.coefficient_matrix(expr, 5)
    rows = np.array([4, 0, 2])
    restricted = generator.coefficient_matrix(expr, 5, rows=rows)
    assert np.array_equal(restricted, full[rows, :])


def test_coefficient_scenario_matches_matrix(generator):
    expr = parse_expression("Value * 3")
    matrix = generator.coefficient_matrix(expr, 4)
    vector = generator.coefficient_scenario(expr, 2)
    assert np.allclose(vector, matrix[:, 2])


def test_constant_expression_broadcasts(generator):
    matrix = generator.coefficient_matrix(Const(1), 3)
    assert matrix.shape == (5, 3)
    assert np.all(matrix == 1.0)


# --- cache ------------------------------------------------------------------------


def test_cache_grows_incrementally(generator):
    """The top-up when M grows (Algorithm 1, line 9) equals one fill of
    a fresh cache at the final M, bit for bit."""
    cache = ScenarioCache(generator)
    expr = Attr("Value")
    small = cache.coefficient_matrix(expr, 3).copy()
    large = cache.coefficient_matrix(expr, 7)
    assert np.array_equal(large[:, :3], small)
    assert np.array_equal(large, ScenarioCache(generator).coefficient_matrix(expr, 7))
    assert np.array_equal(large, generator.coefficient_matrix(expr, 7))
    assert cache.cached_bytes > 0
    cache.clear()
    assert cache.cached_bytes == 0


def test_cache_serves_prefix_without_regeneration(generator):
    cache = ScenarioCache(generator)
    expr = Attr("Value")
    cache.coefficient_matrix(expr, 6)
    again = cache.coefficient_matrix(expr, 2)
    assert again.shape == (5, 2)


def test_cache_requires_scenario_mode(tuple_generator):
    with pytest.raises(EvaluationError):
        ScenarioCache(tuple_generator)
