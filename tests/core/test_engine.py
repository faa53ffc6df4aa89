"""SPQEngine façade."""

import pytest

from repro import Catalog, Relation, SPQEngine
from repro.errors import EvaluationError


@pytest.fixture
def engine(items_catalog, fast_config):
    return SPQEngine(catalog=items_catalog, config=fast_config)


QUERY = (
    "SELECT PACKAGE(*) FROM items SUCH THAT COUNT(*) <= 3 AND"
    " SUM(Value) >= 5 WITH PROBABILITY >= 0.8 MINIMIZE EXPECTED SUM(Value)"
)


def test_execute_default_method(engine):
    result = engine.execute(QUERY)
    assert result.method == "summarysearch"
    assert result.feasible


def test_execute_naive(engine):
    result = engine.execute(QUERY, method="naive")
    assert result.method == "naive"
    assert result.feasible


def test_unknown_method_rejected(engine):
    with pytest.raises(EvaluationError, match="unknown method"):
        engine.execute(QUERY, method="magic")


def test_overrides_apply(engine):
    result = engine.execute(QUERY, seed=77, n_validation_scenarios=500)
    assert result.feasible


def test_deterministic_routing(engine):
    query = "SELECT PACKAGE(*) FROM items SUCH THAT COUNT(*) <= 2 MAXIMIZE SUM(price)"
    # Non-probabilistic queries route to the deterministic solver even
    # when a stochastic method was requested.
    for method in ("summarysearch", "naive", "deterministic"):
        result = engine.execute(query, method=method)
        assert result.method == "deterministic"
        assert result.objective == pytest.approx(16.0)  # two copies of the price-8 item


def test_parse_and_compile_helpers(engine):
    ast = engine.parse(QUERY)
    assert ast.table == "items"
    problem = engine.compile(ast)
    assert problem.n_vars == 5
    # Problems can be executed directly (skipping recompilation).
    result = engine.execute(problem)
    assert result.feasible


def test_register_through_engine(fast_config):
    engine = SPQEngine(config=fast_config)
    engine.register(Relation("t", {"cost": [1.0, 2.0, 3.0]}))
    result = engine.execute(
        "SELECT PACKAGE(*) FROM t SUCH THAT SUM(cost) <= 3 MAXIMIZE SUM(cost)"
    )
    assert result.objective == pytest.approx(3.0)


def test_default_config_engine():
    engine = SPQEngine()
    assert engine.catalog is not None
    assert len(engine.catalog) == 0


def test_compile_cache_hits_on_repeated_text(engine):
    first = engine.compile(QUERY)
    assert engine.compile(QUERY) is first  # warm session: one compile
    assert engine.compile("  " + QUERY + "\n") is first  # whitespace-insensitive


def test_compile_cache_invalidated_by_any_sessions_registration(fast_config):
    # Two sessions over one shared catalog (the serving layer's shape):
    # a registration through EITHER session — or the catalog directly —
    # must invalidate BOTH sessions' compiled-problem caches.
    catalog = Catalog()
    catalog.register(Relation("t", {"cost": [1.0, 2.0, 3.0]}))
    a = SPQEngine(catalog=catalog, config=fast_config)
    b = SPQEngine(catalog=catalog, config=fast_config)
    query = "SELECT PACKAGE(*) FROM t SUCH THAT SUM(cost) <= 3 MAXIMIZE SUM(cost)"
    assert a.execute(query).objective == pytest.approx(3.0)
    assert b.execute(query).objective == pytest.approx(3.0)
    # Replace the data through session a; session b must not serve the
    # stale compiled problem.
    a.register(Relation("t", {"cost": [10.0, 20.0, 30.0]}))
    assert b.execute(query).objective == pytest.approx(0.0)
    assert a.execute(query).objective == pytest.approx(0.0)
    # And a direct catalog mutation invalidates as well.
    catalog.register(Relation("t", {"cost": [1.0, 1.5, 2.0]}))
    assert b.execute(query).objective == pytest.approx(3.0)


def test_concurrent_registrations_never_lose_a_version_bump():
    # The compile cache's "a hit is always current" guarantee rests on
    # the version counter changing for every mutation; two racing
    # registrations losing an increment to each other would leave the
    # counter unchanged after the second landed.
    import threading

    catalog = Catalog()
    n_threads, per_thread = 8, 50
    barrier = threading.Barrier(n_threads)

    def register_many(thread_id: int) -> None:
        barrier.wait()
        for i in range(per_thread):
            catalog.register(Relation(f"t{thread_id}", {"cost": [float(i)]}))

    threads = [
        threading.Thread(target=register_many, args=(t,))
        for t in range(n_threads)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert catalog.version == n_threads * per_thread


def test_compile_cache_evicts_lru_not_newest(fast_config, monkeypatch):
    # A long-lived serving session must keep caching its *hot* queries
    # after seeing many distinct texts — a full cache that stops
    # admitting new entries pins whatever arrived first, forever.
    from repro.core import engine as engine_module

    monkeypatch.setattr(engine_module, "_COMPILE_CACHE_LIMIT", 2)
    catalog = Catalog()
    catalog.register(Relation("t", {"cost": [1.0, 2.0, 3.0]}))
    session = SPQEngine(catalog=catalog, config=fast_config)

    def q(bound: int) -> str:
        return (
            f"SELECT PACKAGE(*) FROM t SUCH THAT SUM(cost) <= {bound}"
            f" MAXIMIZE SUM(cost)"
        )

    first = session.compile(q(1))
    second = session.compile(q(2))
    assert session.compile(q(1)) is first  # refreshes q(1)'s recency
    session.compile(q(3))  # at capacity: evicts q(2), the LRU entry
    assert session.compile(q(1)) is first  # hot entry survived
    assert session.compile(q(2)) is not second  # evicted: recompiled
    assert len(session._compiled) == 2


def test_sessions_sharing_a_compile_cache_compile_a_text_once(fast_config, monkeypatch):
    """Two sessions over one catalog and one cache: the second is served
    the first's compiled problem, and a catalog delta invalidates it for
    both."""
    from repro.core import engine as engine_module
    from repro.core.engine import CompileCache
    from repro.db.delta import RelationDelta

    compiled = []
    real = engine_module.compile_query

    def counting(*args, **kwargs):
        compiled.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(engine_module, "compile_query", counting)
    catalog = Catalog()
    catalog.register(Relation("t", {"cost": [1.0, 2.0, 3.0]}))
    cache = CompileCache(catalog)
    first, second = (
        SPQEngine(catalog=catalog, config=fast_config, compile_cache=cache)
        for _ in range(2)
    )
    query = "SELECT PACKAGE(*) FROM t SUCH THAT SUM(cost) <= 4 MAXIMIZE SUM(cost)"
    problem = first.compile(query)
    assert second.compile(query) is problem and len(compiled) == 1
    catalog.apply_delta("t", RelationDelta(updates={0: {"cost": 5.0}}))
    renewed = second.compile(query)
    assert renewed is not problem and len(compiled) == 2
    assert first.compile(query) is renewed and len(compiled) == 2
