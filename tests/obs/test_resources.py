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

