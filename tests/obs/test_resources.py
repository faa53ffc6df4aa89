"""Per-query resource accounting: probe deltas and charges."""

from __future__ import annotations

import time

from repro.obs import (
    QueryResourceProbe,
    TraceSession,
    activate,
    charge,
    new_trace_id,
    resource_counters,
)

#: Every key the probe promises consumers (shape is part of the API).
USAGE_KEYS = {
    "cpu_s", "max_rss_delta_kb",
    "scenario_bytes_realized", "scenario_bytes_reused",
    "lp_solves",
    "chunk_cache_hits", "chunk_cache_misses", "chunk_cache_hit_ratio",
    "lane_rungs_started", "lane_rungs_consumed", "lane_rungs_discarded",
}


def test_probe_reports_the_full_shape_without_a_store():
    probe = QueryResourceProbe(store=None)
    # Burn a sliver of CPU so the delta is visibly positive.
    deadline = time.thread_time() + 0.01
    while time.thread_time() < deadline:
        sum(range(500))
    usage = probe.finish()
    assert set(usage) == USAGE_KEYS
    assert usage["cpu_s"] > 0.0
    assert usage["scenario_bytes_realized"] == 0
    assert usage["scenario_bytes_reused"] == 0
    assert usage["lp_solves"] == 0
    assert usage["chunk_cache_hit_ratio"] is None  # no lookups in window


def test_probe_finish_feeds_the_process_totals():
    before = resource_counters.snapshot()
    usage = QueryResourceProbe().finish()
    after = resource_counters.snapshot()
    assert after["queries_accounted"] == before["queries_accounted"] + 1
    assert (
        after["query_cpu_seconds"]
        >= before["query_cpu_seconds"] + usage["cpu_s"] - 1e-9
    )


def test_charge_lands_on_process_and_session():
    before = resource_counters.get("lp_solves")
    session = TraceSession(new_trace_id())
    with activate(session):
        charge("lp_solves")
        charge("lp_solves", 2.0)
    assert session.resources["lp_solves"] == 3.0
    assert resource_counters.get("lp_solves") == before + 3.0
    # Without a session only the process total moves.
    charge("lp_solves")
    assert session.resources["lp_solves"] == 3.0
    assert resource_counters.get("lp_solves") == before + 4.0


def test_probe_reads_session_charges_into_the_usage_doc():
    session = TraceSession(new_trace_id())
    probe = QueryResourceProbe()
    with activate(session):
        charge("lp_solves", 5)
    usage = probe.finish(session=session)
    assert usage["lp_solves"] == 5


def test_a_bill_from_another_thread_reaches_the_query():
    """Work done for a query on a helper thread (a copy of the query's
    context) is billed to it: CPU and counts add to the usage doc."""
    import contextvars
    import threading

    from repro.obs import bill

    probe = QueryResourceProbe()
    context = contextvars.copy_context()
    thread = threading.Thread(
        target=context.run,
        args=(lambda: (bill("cpu_s", 2.5), bill("lane_rungs_started", 1)),),
    )
    thread.start()
    thread.join(timeout=30)
    assert not thread.is_alive()
    usage = probe.finish()
    assert usage["cpu_s"] >= 2.5
    assert usage["lane_rungs_started"] == 1
    # A finished probe is no longer billed.
    bill("lane_rungs_started", 1)
    assert probe.finish()["lane_rungs_started"] == 1


QUERY = (
    "SELECT PACKAGE(*) FROM items SUCH THAT COUNT(*) <= 3 AND"
    " SUM(Value) >= 6 WITH PROBABILITY >= 0.8 MINIMIZE EXPECTED SUM(Value)"
)


def _caches(monkeypatch) -> list:
    from repro.mcdb.scenarios import ScenarioCache

    made = []
    real_init = ScenarioCache.__init__

    def init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(ScenarioCache, "__init__", init)
    return made


def test_an_adhoc_query_bills_the_bytes_of_the_columns_it_filled(
    items_catalog, fast_config, monkeypatch
):
    from repro import SPQEngine

    caches = _caches(monkeypatch)
    result = SPQEngine(catalog=items_catalog, config=fast_config).execute(QUERY)
    filled = sum(cache.cached_bytes for cache in caches)
    assert filled > 0
    assert result.anytime.resources["scenario_bytes_realized"] == filled


def test_a_store_backed_query_still_bills_the_stores_bytes(
    items_catalog, fast_config, monkeypatch
):
    from repro import SPQEngine
    from repro.service import ScenarioStore

    caches = _caches(monkeypatch)
    store = ScenarioStore()
    result = SPQEngine(
        catalog=items_catalog, config=fast_config, store=store
    ).execute(QUERY)
    realized = store.stats().bytes_realized
    assert realized > 0 and all(cache.cached_bytes == 0 for cache in caches)
    assert result.anytime.resources["scenario_bytes_realized"] == realized
