"""Unit tests for ``repro.obs.trace``: spans, sessions, the ring."""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro.obs import (
    TraceRing,
    TraceSession,
    activate,
    new_span_id,
    new_trace_id,
    span_tree,
    stage,
)
from repro.obs.trace import _NULL_STAGE, current_session


def test_stage_is_shared_noop_without_session():
    assert current_session() is None
    handle = stage("anything", attr=1)
    assert handle is _NULL_STAGE
    assert stage("other") is handle
    # The null stage is a chainable, side-effect-free context manager.
    with handle as inner:
        assert inner.set("k", "v") is inner


def test_activate_scopes_session_to_context():
    session = TraceSession(new_trace_id())
    assert current_session() is None
    with activate(session):
        assert current_session() is session
        with activate(TraceSession(new_trace_id())) as nested:
            assert current_session() is nested
        assert current_session() is session
    assert current_session() is None


def test_spans_record_fields_and_nest():
    session = TraceSession(new_trace_id())
    with activate(session):
        with stage("outer", n=3) as outer:
            with stage("inner") as inner:
                inner.set("hit", True)
            outer.set("status", "optimal")
    assert [s["name"] for s in session.spans] == ["inner", "outer"]
    inner_span, outer_span = session.spans
    assert inner_span["trace_id"] == session.trace_id
    assert inner_span["parent_id"] == outer_span["span_id"]
    assert outer_span["parent_id"] is None
    assert outer_span["attrs"] == {"n": 3, "status": "optimal"}
    assert inner_span["attrs"] == {"hit": True}
    for span in session.spans:
        assert span["wall_s"] >= 0.0
        assert span["cpu_s"] >= 0.0
        assert span["start"] > 0.0


def test_activate_parent_id_reparents_spans():
    """The broker hands its root span id across the pool boundary."""
    root_id = new_span_id()
    session = TraceSession(new_trace_id())
    with activate(session, parent_id=root_id):
        with stage("worker"):
            pass
    assert session.spans[0]["parent_id"] == root_id


def test_exception_records_error_attr_and_propagates():
    session = TraceSession(new_trace_id())
    with activate(session):
        with pytest.raises(ValueError):
            with stage("solve"):
                raise ValueError("infeasible")
    (span,) = session.spans
    assert span["attrs"]["error"] == "ValueError"


def test_session_cap_counts_dropped_spans():
    session = TraceSession(new_trace_id(), max_spans=2)
    with activate(session):
        for _ in range(5):
            with stage("s"):
                pass
    assert len(session.spans) == 2
    assert session.dropped == 3


def test_new_span_id_carries_pid_prefix():
    assert new_span_id().startswith(f"{os.getpid():x}-")
    assert new_span_id() != new_span_id()


# --- span_tree ---------------------------------------------------------------


def _span(span_id, parent_id, name, start):
    return {
        "trace_id": "t", "span_id": span_id, "parent_id": parent_id,
        "name": name, "start": start, "wall_s": 0.1, "cpu_s": 0.1,
        "attrs": {},
    }


def test_span_tree_roots_and_nests():
    spans = [
        _span("b", "a", "child", 2.0),
        _span("a", None, "root", 1.0),
        _span("c", "b", "grandchild", 3.0),
    ]
    doc = span_tree(spans, "t", dropped=1)
    assert doc["trace_id"] == "t"
    assert doc["n_spans"] == 3
    assert doc["dropped"] == 1
    root = doc["root"]
    assert root["name"] == "root"
    assert [c["name"] for c in root["children"]] == ["child"]
    assert root["children"][0]["children"][0]["name"] == "grandchild"


def test_span_tree_orphans_attach_under_root():
    """A span whose parent was dropped must not vanish from the tree."""
    spans = [
        _span("a", None, "root", 1.0),
        _span("z", "missing", "orphan", 2.0),
    ]
    root = span_tree(spans, "t")["root"]
    assert [c["name"] for c in root["children"]] == ["orphan"]


def test_span_tree_without_parentless_span_promotes_earliest():
    spans = [
        _span("b", "gone", "late", 5.0),
        _span("a", "gone", "early", 1.0),
    ]
    root = span_tree(spans, "t")["root"]
    assert root["name"] == "early"
    assert [c["name"] for c in root["children"]] == ["late"]


def test_span_tree_empty():
    assert span_tree([], "t")["root"] is None


# --- TraceRing ---------------------------------------------------------------


def test_ring_rejects_zero_capacity():
    with pytest.raises(ValueError):
        TraceRing(0)


def test_ring_open_add_finish_get():
    ring = TraceRing(4)
    ring.open("t1", method="summarysearch")
    ring.add("t1", [_span("a", "r", "execute", 1.0)], dropped=2)
    assert ring.get("t1")["complete"] is False
    ring.finish("t1", _span("r", None, "query", 0.5))
    entry = ring.get("t1")
    assert entry["complete"] is True
    assert entry["dropped"] == 2
    assert {s["name"] for s in entry["spans"]} == {"execute", "query"}
    tree = ring.tree("t1")
    assert tree["root"]["name"] == "query"
    assert tree["meta"] == {"method": "summarysearch"}


def test_ring_evicts_oldest_first():
    ring = TraceRing(2)
    for tid in ("t1", "t2", "t3"):
        ring.open(tid)
    assert ring.get("t1") is None  # evicted
    assert ring.get("t2") is not None
    assert ring.get("t3") is not None
    assert len(ring) == 2


def test_ring_add_after_eviction_is_noop():
    ring = TraceRing(1)
    ring.open("t1")
    ring.open("t2")
    ring.add("t1", [_span("a", None, "late", 1.0)])
    assert ring.get("t1") is None
    assert len(ring) == 1


def test_ring_discard_and_unknown():
    ring = TraceRing(2)
    ring.open("t1")
    ring.discard("t1")
    assert ring.get("t1") is None
    assert ring.tree("nope") is None


def test_ring_get_waits_for_finish():
    ring = TraceRing(2)
    ring.open("t1")

    def finisher():
        time.sleep(0.05)
        ring.finish("t1", _span("r", None, "query", 1.0))

    thread = threading.Thread(target=finisher)
    thread.start()
    try:
        entry = ring.get("t1", wait_s=5.0)
    finally:
        thread.join()
    assert entry["complete"] is True


def test_ring_get_returns_partial_after_timeout():
    ring = TraceRing(2)
    ring.open("t1")
    ring.add("t1", [_span("a", None, "execute", 1.0)])
    started = time.perf_counter()
    entry = ring.get("t1", wait_s=0.05)
    assert time.perf_counter() - started < 2.0
    assert entry["complete"] is False
    assert entry["spans"]
