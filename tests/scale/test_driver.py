"""Stochastic SketchRefine driver: end-to-end behaviour and invariants."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro import Catalog, SPQConfig
from repro.core.engine import SPQEngine
from repro.datasets.portfolio import (
    PortfolioParams,
    build_portfolio,
    build_portfolio_store,
)
from repro.errors import EvaluationError
from repro.mcdb.stochastic import StochasticModel
from repro.scale.driver import scale_sketch_refine_evaluate
from repro.scale.metrics import scale_metrics
from repro.scale.partition import PartitionIndex
from repro.silp.compile import compile_query
from repro.workloads import get_query

SPEC = get_query("portfolio", "Q1")


def test_end_to_end_feasible_and_validated(portfolio_problem, scale_config):
    problem, _, _ = portfolio_problem
    result = scale_sketch_refine_evaluate(problem, scale_config)
    assert result.method == "sketchrefine"
    assert result.succeeded
    assert result.validation is not None and result.validation.feasible
    # The combined package respects the deterministic budget exactly.
    assert result.package.deterministic_total("price") <= 1000 + 1e-6
    # Out-of-sample: the chance constraint holds at the original p.
    (item,) = [i for i in result.validation.items if not i.is_objective]
    assert item.satisfied_fraction >= SPEC.probability
    meta = result.meta
    assert meta["n_partitions"] >= 1
    assert meta["n_refined"] >= 1
    assert meta["partition_index_hit"] is False
    assert meta["refine_probability_boost"][SPEC.probability] >= SPEC.probability
    # Stats carry one sketch record plus one per refined partition.
    assert result.stats.n_iterations == 1 + meta["n_refined"]


def test_repeat_run_hits_partition_index(portfolio_problem, scale_config):
    problem, _, _ = portfolio_problem
    first = scale_sketch_refine_evaluate(problem, scale_config)
    second = scale_sketch_refine_evaluate(problem, scale_config)
    assert second.meta["partition_index_hit"] is True
    assert (
        second.package.key_multiplicities()
        == first.package.key_multiplicities()
    )
    assert second.objective == first.objective


def test_bit_identical_for_any_worker_count(portfolio_problem, scale_config):
    problem, _, _ = portfolio_problem
    sequential = scale_sketch_refine_evaluate(problem, scale_config)
    PartitionIndex.clear_memory()
    parallel = scale_sketch_refine_evaluate(
        problem, scale_config.replace(n_workers=4)
    )
    assert (
        parallel.package.key_multiplicities()
        == sequential.package.key_multiplicities()
    )
    assert parallel.objective == sequential.objective


def test_refine_pool_failure_falls_back_to_sequential(
    portfolio_problem, scale_config, monkeypatch
):
    """A worker pool that fails degrades to sequential refines with a
    warning: the package is the one ``n_workers=1`` returns."""
    import repro.scale.driver as driver
    from repro.scale.refinecache import refine_cache

    problem, _, _ = portfolio_problem
    refine_cache.clear()
    sequential = scale_sketch_refine_evaluate(problem, scale_config)

    def refuse(self, *args, **kwargs):
        raise RuntimeError("worker pool refused the task")

    monkeypatch.setattr(driver.ProcessPoolExecutor, "submit", refuse)
    # A recorded artifact would let every partition be reused, leaving
    # nothing for the pool to do.
    refine_cache.clear()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        degraded = scale_sketch_refine_evaluate(
            problem, scale_config.replace(n_workers=2)
        )
    assert any(
        issubclass(w.category, RuntimeWarning)
        and "parallel refine degraded" in str(w.message)
        for w in caught
    ), [str(w.message) for w in caught]
    assert (
        degraded.package.key_multiplicities()
        == sequential.package.key_multiplicities()
    )
    assert degraded.objective == sequential.objective


def test_bit_identical_across_storage_backends(scale_config, tmp_path):
    params = PortfolioParams(n_stocks=120, seed=7)
    relation, model = build_portfolio(params)
    catalog = Catalog()
    catalog.register(relation, model)
    in_memory = scale_sketch_refine_evaluate(
        compile_query(SPEC.spaql, catalog), scale_config
    )
    PartitionIndex.clear_memory()
    store, store_model = build_portfolio_store(
        params, tmp_path / "p", chunk_rows=64
    )
    disk_catalog = Catalog()
    disk_catalog.register(store, store_model)
    on_disk = scale_sketch_refine_evaluate(
        compile_query(SPEC.spaql, disk_catalog), scale_config
    )
    assert (
        on_disk.package.key_multiplicities()
        == in_memory.package.key_multiplicities()
    )
    assert on_disk.objective == in_memory.objective
    store.close()


def test_infeasible_sketch_reports_cleanly(portfolio_problem, scale_config):
    problem, relation, model = portfolio_problem
    catalog = Catalog()
    catalog.register(relation, model)
    impossible = compile_query(
        "SELECT PACKAGE(*) FROM stock_investments SUCH THAT\n"
        "    SUM(price) <= 1 AND\n"
        "    SUM(Gain) >= 50 WITH PROBABILITY >= 0.95\n"
        "MAXIMIZE EXPECTED SUM(Gain)",
        catalog,
    )
    result = scale_sketch_refine_evaluate(impossible, scale_config)
    assert not result.feasible
    assert result.package is None
    assert "sketch" in result.message


def test_probability_objective_rejected(items_catalog_scale, scale_config):
    problem = compile_query(
        "SELECT PACKAGE(*) FROM items SUCH THAT COUNT(*) <= 3\n"
        "MAXIMIZE PROBABILITY OF SUM(Value) >= 10",
        items_catalog_scale,
    )
    with pytest.raises(EvaluationError, match="probability objectives"):
        scale_sketch_refine_evaluate(problem, scale_config)


@pytest.fixture
def items_catalog_scale():
    from repro import Relation
    from repro.mcdb import GaussianNoiseVG

    relation = Relation(
        "items",
        {"price": [5.0, 8.0, 3.0, 6.0, 4.0]},
    )
    model = StochasticModel(relation, {"Value": GaussianNoiseVG("price", 1.0)})
    catalog = Catalog()
    catalog.register(relation, model)
    return catalog


def test_deterministic_query_rejected(scale_config):
    from repro import Relation
    from repro.silp.model import StochasticPackageProblem

    relation = Relation("t", {"cost": [1.0, 2.0, 3.0]})
    problem = StochasticPackageProblem(
        relation=relation,
        model=None,
        active_rows=np.arange(3, dtype=np.int64),
        objective=None,
        constraints=[],
    )
    with pytest.raises(EvaluationError, match="chance constraint"):
        scale_sketch_refine_evaluate(problem, scale_config)


def test_empty_problem_raises(portfolio_problem, scale_config):
    from repro.silp.model import StochasticPackageProblem

    problem, relation, model = portfolio_problem
    empty = StochasticPackageProblem(
        relation=relation,
        model=model,
        active_rows=np.empty(0, dtype=np.int64),
        objective=problem.objective,
        constraints=problem.constraints,
    )
    with pytest.raises(EvaluationError, match="no active tuples"):
        scale_sketch_refine_evaluate(empty, scale_config)


def test_driver_updates_scale_metrics(portfolio_problem, scale_config):
    problem, _, _ = portfolio_problem
    before = scale_metrics.snapshot()
    scale_sketch_refine_evaluate(problem, scale_config)
    after = scale_metrics.snapshot()
    assert after["runs"] == before["runs"] + 1
    assert after["partitions"] > before["partitions"]
    assert after["refines"] > before["refines"]
    assert after["refine_seconds"] > before["refine_seconds"]
    assert after["index_misses"] == before["index_misses"] + 1


# --- engine routing -------------------------------------------------------------


def _engine(scale_config, n_stocks=120):
    relation, model = build_portfolio(PortfolioParams(n_stocks=n_stocks, seed=7))
    engine = SPQEngine(config=scale_config)
    engine.register(relation, model)
    return engine


def test_engine_method_sketchrefine_routes_stochastic(scale_config):
    engine = _engine(scale_config)
    result = engine.execute(SPEC.spaql, method="sketchrefine")
    assert result.method == "sketchrefine"
    assert result.meta.get("n_partitions") is not None  # scale driver ran


def test_engine_method_sketchrefine_routes_deterministic(scale_config):
    engine = _engine(scale_config)
    result = engine.execute(
        "SELECT PACKAGE(*) FROM stock_investments SUCH THAT"
        " SUM(price) <= 100 MAXIMIZE EXPECTED SUM(Gain)",
        method="sketchrefine",
    )
    assert result.method == "sketchrefine"
    assert result.feasible
    # The deterministic path reports its own meta shape.
    assert "n_refined" not in result.meta


def test_engine_auto_routes_oversized_summarysearch(
    scale_config, tmp_path, monkeypatch
):
    """The route is derived: summarysearch goes to the driver only when
    n_vars × max_scenarios × 8 B per chance constraint exceeds the
    relation's resident budget; unbudgeted stores and in-memory
    relations never route."""
    import repro.core.engine as engine_module

    params = PortfolioParams(n_stocks=30, seed=7)

    def engine_on(dataset):
        engine = SPQEngine(config=scale_config)
        engine.register(*dataset)
        return engine

    tiny = build_portfolio_store(
        params, tmp_path / "tiny", chunk_rows=32, resident_budget=1024
    )
    routed = engine_on(tiny).execute(SPEC.spaql, method="summarysearch")
    assert routed.method == "sketchrefine"
    assert routed.meta["n_partitions"] >= 1

    # The other direction needs only the routing decision, not a solve.
    def summarysearch_stub(problem, config, store=None):
        raise LookupError("summarysearch")

    monkeypatch.setattr(engine_module, "summary_search_evaluate", summarysearch_stub)
    roomy = build_portfolio_store(
        params, tmp_path / "roomy", chunk_rows=32, resident_budget=1 << 30
    )
    unbudgeted = build_portfolio_store(params, tmp_path / "unbudgeted")
    for dataset in (roomy, unbudgeted, build_portfolio(params)):
        with pytest.raises(LookupError, match="summarysearch"):
            engine_on(dataset).execute(SPEC.spaql, method="summarysearch")


def test_unknown_method_still_rejected(scale_config):
    engine = _engine(scale_config)
    with pytest.raises(EvaluationError):
        engine.execute(SPEC.spaql, method="sketchy")
