"""Shared evaluation context."""

import multiprocessing

import numpy as np
import pytest

from repro.core.context import EvaluationContext
from repro.db.expressions import Attr, Const
from repro.parallel.executor import ParallelScenarioExecutor
from repro.silp.compile import compile_query


def test_mean_coefficients_deterministic_exact(chance_context):
    coeffs = chance_context.mean_coefficients(Attr("price"))
    assert coeffs.tolist() == [5.0, 8.0, 3.0, 6.0, 4.0]


def test_mean_coefficients_stochastic_uses_estimator(chance_context):
    coeffs = chance_context.mean_coefficients(Attr("Value"))
    # Gaussian noise: analytic mean equals the base prices.
    assert np.allclose(coeffs, [5.0, 8.0, 3.0, 6.0, 4.0])


def test_mean_coefficients_cached(chance_context):
    expr = Attr("price")
    assert chance_context.mean_coefficients(expr) is chance_context.mean_coefficients(expr)


def test_variable_bounds_from_count(chance_context):
    # COUNT(*) <= 3 bounds every variable by 3.
    assert chance_context.variable_ub.tolist() == [3] * 5


def test_size_bounds(chance_context):
    assert chance_context.size_bounds == (0.0, 3.0)


def test_base_milp_structure(chance_context):
    builder, x_idx = chance_context.build_base_milp()
    assert builder.n_variables == 5
    assert builder.n_constraints == 1  # the COUNT constraint
    result = builder.solve()
    assert result.has_solution
    # Minimizing expected value with no lower pressure: empty package.
    assert result.objective == pytest.approx(0.0)


def test_chance_items_constraint_only(chance_context):
    items = chance_context.chance_items()
    assert len(items) == 1
    assert not items[0]["is_objective"]
    assert items[0]["p"] == 0.8


def test_chance_items_with_probability_objective(items_catalog, fast_config):
    problem = compile_query(
        "SELECT PACKAGE(*) FROM items SUCH THAT COUNT(*) <= 2 AND"
        " SUM(Value) >= 1 WITH PROBABILITY >= 0.7"
        " MAXIMIZE PROBABILITY OF SUM(Value) >= 9",
        items_catalog,
    )
    ctx = EvaluationContext(problem, fast_config)
    items = ctx.chance_items()
    assert len(items) == 2
    assert items[1]["is_objective"]
    assert items[1]["p"] is None
    assert items[1]["sense"] == "maximize"


def test_objective_sense_helpers(chance_context):
    assert chance_context.objective_sense == "minimize"
    assert chance_context.minimize
    assert chance_context.better(1.0, 2.0)
    assert not chance_context.better(None, 2.0)
    assert chance_context.better(1.0, None)


def test_better_for_maximization(items_catalog, fast_config):
    problem = compile_query(
        "SELECT PACKAGE(*) FROM items SUCH THAT COUNT(*) <= 2"
        " MAXIMIZE SUM(price)",
        items_catalog,
    )
    ctx = EvaluationContext(problem, fast_config)
    assert ctx.better(3.0, 2.0)
    assert not ctx.better(1.0, 2.0)


def test_no_stochastic_model_context(fast_config):
    from repro import Catalog, Relation

    relation = Relation("plain", {"cost": [1.0, 2.0]})
    catalog = Catalog()
    catalog.register(relation)
    problem = compile_query(
        "SELECT PACKAGE(*) FROM plain SUCH THAT COUNT(*) <= 1", catalog
    )
    ctx = EvaluationContext(problem, fast_config)
    assert ctx.estimator is None
    with pytest.raises(Exception):
        ctx.optimization_matrix(Attr("cost"), 3)


def test_mean_objective_value(chance_context):
    x = np.array([1, 1, 0, 0, 0])
    assert chance_context.mean_objective_value(x) == pytest.approx(13.0)



def test_parallel_evaluations_leave_no_pool_behind(
    items_catalog, fast_config, monkeypatch
):
    """Each query's worker pool is closed before its evaluation returns."""
    from repro import SPQEngine

    query = (
        "SELECT PACKAGE(*) FROM items SUCH THAT COUNT(*) <= 3 AND"
        " SUM(Value) >= 6 WITH PROBABILITY >= 0.8 MINIMIZE EXPECTED SUM(Value)"
    )
    pools = []
    real_ensure = ParallelScenarioExecutor._ensure_pool

    def ensure(self):
        if self._pool is None:
            pools.append(self)
        return real_ensure(self)

    monkeypatch.setattr(ParallelScenarioExecutor, "_ensure_pool", ensure)
    before = set(multiprocessing.active_children())
    sequential = SPQEngine(items_catalog, fast_config)
    parallel = SPQEngine(items_catalog, fast_config.replace(n_workers=2))
    for run in range(1, 4):
        result = parallel.execute(query, method="summarysearch")
        assert len(pools) == run  # this query forked a pool ...
        assert set(multiprocessing.active_children()) <= before  # ... and closed it
        expected = sequential.execute(query, method="summarysearch")
        assert result.package.multiplicities.tolist() == (
            expected.package.multiplicities.tolist()
        )
        assert result.objective == expected.objective
