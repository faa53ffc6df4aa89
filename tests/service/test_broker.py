"""QueryBroker: pooled dispatch, in-flight dedup, admission control."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import Catalog, Relation, SPQConfig, SPQEngine
from repro.db.delta import RelationDelta
from repro.errors import EvaluationError, SPQError
from repro.mcdb import GaussianNoiseVG, StochasticModel
from repro.service import BrokerSaturatedError, QueryBroker, ScenarioStore

QUERY = """
SELECT PACKAGE(*) FROM items SUCH THAT
    COUNT(*) <= 3 AND
    SUM(Value) >= 6 WITH PROBABILITY >= 0.8
MINIMIZE EXPECTED SUM(Value)
"""

OTHER_QUERY = """
SELECT PACKAGE(*) FROM items SUCH THAT
    COUNT(*) <= 2 AND
    SUM(Value) >= 4 WITH PROBABILITY >= 0.8
MINIMIZE EXPECTED SUM(Value)
"""


@pytest.fixture
def catalog() -> Catalog:
    relation = Relation("items", {"price": [5.0, 8.0, 3.0, 6.0, 4.0]})
    model = StochasticModel(relation, {"Value": GaussianNoiseVG("price", 1.0)})
    out = Catalog()
    out.register(relation, model)
    return out


@pytest.fixture
def config() -> SPQConfig:
    return SPQConfig(
        n_validation_scenarios=500,
        n_initial_scenarios=20,
        scenario_increment=20,
        max_scenarios=60,
        epsilon=0.8,
        seed=11,
    )


def _gate_engines(monkeypatch) -> threading.Event:
    """Hold every in-process evaluation at a gate until the event is set."""
    gate = threading.Event()
    original = SPQEngine.execute

    def gated(self, query, *args, **kwargs):
        gate.wait(30)
        return original(self, query, *args, **kwargs)

    monkeypatch.setattr(SPQEngine, "execute", gated)
    return gate


def test_second_identical_query_shares_realizations(catalog, config):
    with QueryBroker(catalog, config=config, pool_size=2) as broker:
        first = broker.execute(QUERY)
        after_first = broker.store.stats()
        second = broker.execute(QUERY)
        after_second = broker.store.stats()
    assert after_first.generations > 0
    # Zero scenario regeneration on the repeat: hit counter moves, the
    # generation counter does not.
    assert after_second.generations == after_first.generations
    assert after_second.hits > after_first.hits
    assert np.array_equal(
        first.package.multiplicities, second.package.multiplicities
    )
    assert first.objective == second.objective


def test_inflight_dedup_returns_same_future(catalog, config, monkeypatch):
    with QueryBroker(catalog, config=config, pool_size=1) as broker:
        gate = _gate_engines(monkeypatch)
        first = broker.submit(QUERY)
        duplicate = broker.submit(QUERY)
        distinct = broker.submit(OTHER_QUERY)
        assert duplicate is first
        assert distinct is not first
        # Different overrides are a different request.
        reseeded = broker.submit(QUERY, seed=99)
        assert reseeded is not first
        status = broker.status()
        assert status["deduplicated"] == 1
        assert status["pending"] == 3
        gate.set()
        assert first.result(timeout=120).feasible
        assert distinct.result(timeout=120) is not None
        assert reseeded.result(timeout=120) is not None
    assert broker.status()["pending"] == 0


def test_thread_slots_share_one_compile_cache(catalog, config, monkeypatch):
    """Whichever slot takes a request, a text compiled once is not
    compiled again: two requests held on two slots, released one after
    the other, compile the text once."""
    from repro.core import engine as engine_module

    compiled = []
    real = engine_module.compile_query

    def counting(*args, **kwargs):
        compiled.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(engine_module, "compile_query", counting)
    gates = {1: threading.Event(), 2: threading.Event()}
    held = threading.Semaphore(0)
    original = SPQEngine.execute

    def gated(self, query, *args, **kwargs):
        held.release()
        gates[kwargs["seed"]].wait(30)
        return original(self, query, *args, **kwargs)

    monkeypatch.setattr(SPQEngine, "execute", gated)
    with QueryBroker(catalog, config=config, pool_size=2) as broker:
        first = broker.submit(QUERY, seed=1)
        second = broker.submit(QUERY, seed=2)
        # Both requests are on a slot each before either compiles.
        assert held.acquire(timeout=30) and held.acquire(timeout=30)
        gates[1].set()
        first.result(timeout=120)
        gates[2].set()
        second.result(timeout=120)
    assert len(compiled) == 1


def test_admission_control_rejects_beyond_max_pending(
    catalog, config, monkeypatch
):
    with QueryBroker(
        catalog, config=config, pool_size=1, max_pending=2
    ) as broker:
        gate = _gate_engines(monkeypatch)
        broker.submit(QUERY)
        broker.submit(OTHER_QUERY)
        with pytest.raises(BrokerSaturatedError):
            broker.submit(QUERY, seed=7)
        assert broker.status()["rejected"] == 1
        # A duplicate of an in-flight query is served without admission.
        assert broker.submit(QUERY) is not None
        gate.set()
    assert broker.status()["closed"]


def test_concurrent_identical_queries_generate_once(catalog, config):
    # Two engine sessions race on the same content keys; the store's
    # single-flight generation must serve both from one realization.
    with QueryBroker(catalog, config=config, pool_size=2) as broker:
        futures = [broker.submit(QUERY, seed=5) for _ in range(2)]
        results = [f.result(timeout=120) for f in futures]
        stats = broker.store.stats()
    assert np.array_equal(
        results[0].package.multiplicities, results[1].package.multiplicities
    )
    # Every content key was generated at most once per scenario range:
    # dedup means the two submissions shared one future, or (with
    # distinct futures) the store's single-flight path kicked in.
    assert stats.generations <= stats.hits + stats.misses


def test_pool_serves_distinct_queries_concurrently(catalog, config):
    with QueryBroker(catalog, config=config, pool_size=2) as broker:
        futures = [
            broker.submit(QUERY),
            broker.submit(OTHER_QUERY),
            broker.submit(QUERY, seed=3),
        ]
        results = [f.result(timeout=120) for f in futures]
        status = broker.status()
    assert all(r is not None for r in results)
    assert status["completed"] == 3
    assert status["failed"] == 0


def test_broker_failure_accounting_and_close(catalog, config):
    broker = QueryBroker(catalog, config=config, pool_size=1)
    with pytest.raises(SPQError):
        broker.execute("SELECT PACKAGE(*) FROM nowhere SUCH THAT COUNT(*) <= 1")
    assert broker.status()["failed"] == 1
    broker.close()
    broker.close()  # idempotent
    with pytest.raises(SPQError):
        broker.submit(QUERY)
    assert broker.store.closed  # broker-owned store closes with it


def test_thread_is_the_only_backend(catalog, config):
    assert QueryBroker(catalog, config=config, backend="thread").backend == "thread"
    with pytest.raises(EvaluationError, match="process"):
        QueryBroker(catalog, config=config, backend="process")


def test_injected_store_survives_broker_close(catalog, config):
    store = ScenarioStore()
    with QueryBroker(catalog, config=config, store=store, pool_size=1) as broker:
        broker.execute(QUERY)
    assert not store.closed
    store.close()

# --- live updates (docs/live_data.md) ----------------------------------------


def test_apply_update_changes_answers_and_stamps_versions(catalog, config):
    with QueryBroker(catalog, config=config, pool_size=2) as broker:
        first = broker.execute(QUERY)
        v0 = catalog.version
        summary = broker.apply_update(
            "items", {"updates": [[0, {"price": 50.0}]]}
        )
        assert summary["catalog_version"] == v0 + 1
        assert summary["dirty_rows"] == 1
        # The broker prunes pre-delta store entries synchronously.
        assert summary["store_entries_pruned"] >= 0
        second = broker.execute(QUERY)
        status = broker.status()
    # Every answer is labeled with the catalog version it solved against.
    assert first.meta["catalog_version"] == v0
    assert second.meta["catalog_version"] == v0 + 1
    assert status["deltas_applied"] == 1
    assert status["catalog_version"] == v0 + 1


def test_apply_update_equivalent_to_rebuilt_catalog(config):
    def fresh():
        relation = Relation("items", {"price": [5.0, 8.0, 3.0, 6.0, 4.0]})
        model = StochasticModel(
            relation, {"Value": GaussianNoiseVG("price", 1.0)}
        )
        out = Catalog()
        out.register(relation, model)
        return out

    mutated = fresh()
    with QueryBroker(mutated, config=config, pool_size=1) as broker:
        broker.apply_update("items", {"updates": [[2, {"price": 7.5}]]})
        via_delta = broker.execute(QUERY)

    rebuilt = fresh()
    rebuilt.apply_delta("items", RelationDelta(updates={2: {"price": 7.5}}))
    with QueryBroker(rebuilt, config=config, pool_size=1) as broker:
        via_rebuild = broker.execute(QUERY)

    assert np.array_equal(
        via_delta.package.multiplicities, via_rebuild.package.multiplicities
    )
    assert via_delta.objective == via_rebuild.objective


def test_apply_update_invalidates_inflight_dedup(catalog, config, monkeypatch):
    with QueryBroker(catalog, config=config, pool_size=1) as broker:
        gate = _gate_engines(monkeypatch)
        before = broker.submit(QUERY)
        broker.apply_update("items", {"updates": [[1, {"price": 1.0}]]})
        # A post-delta submission must not attach to the pre-delta
        # in-flight future: it would return a stale answer.
        after = broker.submit(QUERY)
        assert after is not before
        gate.set()
        assert before.result(timeout=120) is not None
        assert after.result(timeout=120) is not None
    assert broker.status()["deduplicated"] == 0


def test_apply_update_rejects_unknown_table_and_closed_broker(
    catalog, config
):
    broker = QueryBroker(catalog, config=config, pool_size=1)
    with pytest.raises(SPQError, match="unknown table"):
        broker.apply_update("ghost", {"deletes": [0]})
    broker.close()
    with pytest.raises(SPQError, match="closed"):
        broker.apply_update("items", {"deletes": [0]})
