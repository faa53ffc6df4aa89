"""Delta-scoped repair through the SketchRefine driver.

The live-data loop (docs/live_data.md): a cold solve records a
per-partition artifact; a catalog delta extends the fingerprint chain;
the next solve finds the pre-delta artifact through lineage, reuses the
sub-packages of every untouched partition, and re-refines only the
dirty ones.  Two anchors pinned here:

* **Equivalence** — delta-then-solve is bit-identical to rebuilding the
  post-delta relation from scratch, because content-addressed
  fingerprints make both paths hit the same caches.
* **Safety** — reuse is an optimization, never a correctness
  dependency: a reused combination that fails out-of-sample validation
  is discarded and the solve re-runs cold.
"""

from __future__ import annotations

import pytest

from repro import Catalog
from repro.datasets.portfolio import PortfolioParams, build_portfolio
from repro.db.delta import RelationDelta, lineage
from repro.mcdb import StochasticModel
from repro.scale import scale_sketch_refine_evaluate
from repro.scale.metrics import scale_metrics
from repro.scale.partition import PartitionIndex
from repro.scale.refinecache import query_digest, refine_cache
from repro.service.store import model_fingerprint
from repro.silp.compile import compile_query
from repro.workloads import get_query

SPEC = get_query("portfolio", "Q1")
TABLE = "stock_investments"


@pytest.fixture(autouse=True)
def _clean_repair_state():
    refine_cache.clear()
    lineage.clear()
    yield
    refine_cache.clear()
    lineage.clear()


def _fresh_catalog() -> Catalog:
    relation, model = build_portfolio(PortfolioParams(n_stocks=150, seed=7))
    catalog = Catalog()
    catalog.register(relation, model)
    return catalog


def _solve(catalog: Catalog, config):
    problem = compile_query(SPEC.spaql, catalog)
    return problem, scale_sketch_refine_evaluate(problem, config)


def _localized_delta() -> RelationDelta:
    # Three updated rows at the head of the relation: a localized delta
    # that leaves most partitions with zero dirty members.
    return RelationDelta(
        updates={
            0: {"price": 12.5},
            1: {"price": 9.75},
            2: {"price": 14.0},
        }
    )


def test_delta_repair_reuses_clean_partitions_and_matches_rebuild(
    scale_config,
):
    catalog = _fresh_catalog()
    _, run1 = _solve(catalog, scale_config)
    assert run1.feasible

    before = scale_metrics.snapshot()
    summary = catalog.apply_delta(TABLE, _localized_delta())
    assert summary["dirty_rows"] == 3

    _, run2 = _solve(catalog, scale_config)
    assert run2.feasible
    repair = run2.meta["delta_repair"]
    assert repair["dirty_rows"] == 3
    assert repair["partitions_reused"] >= 1
    assert repair["partitions_dirty"] >= 1
    assert 0.0 < repair["reuse_ratio"] <= 1.0
    assert (
        repair["partitions_reused"] + repair["partitions_refined"]
        == run2.meta["n_refined"]
    )
    # The index was spliced, not rebuilt, and the counters moved.
    assert run2.meta["partition_index_delta_refreshed"] is True
    after = scale_metrics.snapshot()
    assert (
        after["delta_partitions_reused"]
        >= before["delta_partitions_reused"] + repair["partitions_reused"]
    )

    # Equivalence: rebuilding the post-delta relation from scratch gives
    # the same fingerprint, hence the same caches, hence the same
    # package — multiplicities and objective bit-identical.
    rebuilt = catalog.relation(TABLE)
    source_model = catalog.model(TABLE)
    rebuilt_model = StochasticModel(
        rebuilt,
        {
            attr: source_model.vg(attr).unbound_copy()
            for attr in source_model.attribute_names
        },
    )
    assert model_fingerprint(rebuilt_model) == summary["fingerprint"]
    catalog2 = Catalog()
    catalog2.register(rebuilt, rebuilt_model)
    _, run3 = _solve(catalog2, scale_config)
    assert run3.feasible
    assert (
        run3.package.key_multiplicities() == run2.package.key_multiplicities()
    )
    assert run3.objective == run2.objective


def test_disabling_reuse_solves_cold_after_delta(scale_config):
    catalog = _fresh_catalog()
    _, run1 = _solve(catalog, scale_config)
    assert run1.feasible
    catalog.apply_delta(TABLE, _localized_delta())

    # Reuse is disabled by emptying what it reads: the refined
    # sub-packages and the partition index the delta would splice.
    refine_cache.clear()
    PartitionIndex.clear_memory()
    _, run2 = _solve(catalog, scale_config)
    assert run2.feasible
    assert "delta_repair" not in run2.meta
    assert run2.meta["partition_index_delta_refreshed"] is False


def test_failed_validation_discards_reuse_and_reruns_cold(scale_config):
    catalog = _fresh_catalog()
    problem1, run1 = _solve(catalog, scale_config)
    assert run1.feasible

    # Corrupt the recorded artifact: absurd multiplicities make any
    # reused combination violate the deterministic SUM(price) <= 1000
    # bound, so out-of-sample validation must reject the repair.
    fp = model_fingerprint(problem1.model)
    artifact = refine_cache.get(fp, query_digest(problem1, scale_config))
    assert artifact is not None
    for mult in artifact.multiplicities.values():
        mult[:] = 1000

    catalog.apply_delta(TABLE, RelationDelta(updates={0: {"price": 11.0}}))
    before = scale_metrics.snapshot()["delta_repair_fallbacks"]
    _, run2 = _solve(catalog, scale_config)
    # The fallback re-ran cold: still a valid package, no repair meta.
    assert run2.feasible
    assert "delta_repair" not in run2.meta
    assert scale_metrics.snapshot()["delta_repair_fallbacks"] == before + 1


def test_query_digest_ignores_serving_and_observability_fields(scale_config):
    """A service or tracing setting cannot change a refine outcome, so it
    must not cost the query its delta-repair artifact; a solve knob must."""
    problem = compile_query(SPEC.spaql, _fresh_catalog())
    digest = query_digest(problem, scale_config)
    for changes in (
        {"trace_ring_size": 5},
        {"slow_query_log": "/tmp/x"},
        {"service_pool_size": 2},
    ):
        assert query_digest(problem, scale_config.replace(**changes)) == digest
    for changes in ({"epsilon": 0.25}, {"seed": 99}):
        assert query_digest(problem, scale_config.replace(**changes)) != digest
