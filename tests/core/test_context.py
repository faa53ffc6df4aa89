"""Shared evaluation context."""

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from multiprocessing.process import BaseProcess

import numpy as np
import pytest

from repro.core.context import EvaluationContext
from repro.db.expressions import Attr, Const
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


@pytest.fixture
def refuse_processes(monkeypatch):
    """Fail any process start; yields the list of attempted starts.

    The library starts no worker process: scenarios, summaries and the
    scale driver's partition refines all run in the query's process.
    """
    started = []

    def refuse(self, *args, **kwargs):
        started.append(type(self).__name__)
        raise AssertionError("a query started a process")

    monkeypatch.setattr(ProcessPoolExecutor, "__init__", refuse)
    monkeypatch.setattr(BaseProcess, "start", refuse)
    before = set(multiprocessing.active_children())
    yield started
    assert set(multiprocessing.active_children()) == before


@pytest.mark.parametrize("method", ["summarysearch", "naive"])
def test_an_in_memory_query_starts_no_process(
    chance_problem, fast_config, refuse_processes, method
):
    from repro.core.naive import naive_evaluate
    from repro.core.summarysearch import summary_search_evaluate

    evaluate = {"summarysearch": summary_search_evaluate, "naive": naive_evaluate}
    result = evaluate[method](chance_problem, fast_config)
    assert refuse_processes == []
    assert result.package is not None


def test_a_sketchrefine_query_on_a_column_store_starts_no_process(
    tmp_path, refuse_processes
):
    from repro import Catalog, SPQConfig, SPQEngine
    from repro.datasets.portfolio import PortfolioParams, build_portfolio_store
    from repro.workloads import get_query

    store, model = build_portfolio_store(
        PortfolioParams(n_stocks=150, seed=7), tmp_path / "p", chunk_rows=64
    )
    catalog = Catalog()
    catalog.register(store, model)
    config = SPQConfig(
        seed=1234, n_validation_scenarios=800, n_initial_scenarios=20,
        scenario_increment=20, max_scenarios=60, n_expectation_scenarios=400,
        n_probe_scenarios=16, epsilon=0.5, scale_n_partitions=5,
        scale_pilot_scenarios=8,
    )
    result = SPQEngine(catalog, config=config).execute(
        get_query("portfolio", "Q1").spaql, method="sketchrefine"
    )
    store.close()
    assert refuse_processes == []
    # Two or more refines: the work a process pool would fan out.
    assert result.meta["n_refined"] >= 2 and result.succeeded


def test_summarysearch_builds_the_base_block_once(
    chance_problem, fast_config, monkeypatch
):
    """Q₀ and every CSA round clone one template; the cold builder runs
    once per evaluation."""
    from repro.core.summarysearch import summary_search_evaluate

    calls = []
    real = EvaluationContext.build_base_milp

    def spy(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(EvaluationContext, "build_base_milp", spy)
    for run in range(1, 3):
        result = summary_search_evaluate(chance_problem, fast_config)
        assert result.package is not None
        assert len(calls) == run
