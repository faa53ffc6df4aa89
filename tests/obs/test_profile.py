"""Tests for self-time aggregation, trace-document parsing, and renderers."""

from __future__ import annotations

import pytest

from repro.obs import (
    TraceSession,
    activate,
    aggregate_self_times,
    format_top_table,
    format_waterfall,
    new_trace_id,
    span_tree,
    stage,
    trace_document,
)
from repro.obs.profile import iter_tree


def _node(name, start, wall, children=()):
    return {
        "name": name, "start": start, "wall_s": wall, "cpu_s": wall,
        "attrs": {}, "children": list(children),
    }


@pytest.fixture
def tree():
    return _node("execute", 0.0, 10.0, [
        _node("compile", 0.0, 1.0),
        _node("csa", 1.0, 8.0, [
            _node("solve", 1.5, 5.0),
            _node("validate", 7.0, 1.0),
        ]),
    ])


def test_iter_tree_depth_first(tree):
    assert [n["name"] for n in iter_tree(tree)] == [
        "execute", "compile", "csa", "solve", "validate",
    ]
    assert list(iter_tree(None)) == []


def test_aggregate_self_times(tree):
    agg = aggregate_self_times(tree)
    assert agg["execute"] == {"self_s": 1.0, "wall_s": 10.0, "count": 1}
    assert agg["csa"]["self_s"] == pytest.approx(2.0)
    assert agg["solve"]["self_s"] == pytest.approx(5.0)
    # Self time never goes negative even if children over-report.
    weird = _node("a", 0.0, 1.0, [_node("b", 0.0, 5.0)])
    assert aggregate_self_times(weird)["a"]["self_s"] == 0.0


# --- trace_document shapes ---------------------------------------------------


def test_trace_document_accepts_tree_doc(tree):
    doc = {"trace_id": "t", "root": tree}
    assert trace_document(doc) == ("t", tree)


def test_trace_document_accepts_inlined_query_response(tree):
    response = {"feasible": True, "trace": {"trace_id": "t", "root": tree}}
    assert trace_document(response) == ("t", tree)


def test_trace_document_accepts_raw_spans():
    spans = [{
        "trace_id": "t", "span_id": "a", "parent_id": None,
        "name": "execute", "start": 1.0, "wall_s": 0.5, "cpu_s": 0.5,
        "attrs": {},
    }]
    trace_id, root = trace_document({"trace_id": "t", "spans": spans})
    assert trace_id == "t"
    assert root["name"] == "execute"


def test_trace_document_accepts_bare_span(tree):
    trace_id, root = trace_document(tree)
    assert trace_id is None and root is tree


def test_trace_document_rejects_garbage():
    with pytest.raises(ValueError):
        trace_document([1, 2, 3])
    with pytest.raises(ValueError):
        trace_document({"nothing": "here"})


def test_trace_document_round_trips_session_spans():
    session = TraceSession(new_trace_id())
    with activate(session):
        with stage("execute"):
            with stage("solve"):
                pass
    doc = span_tree(session.spans, session.trace_id, dropped=session.dropped)
    trace_id, root = trace_document(doc)
    assert trace_id == session.trace_id
    assert root["name"] == "execute"
    assert root["children"][0]["name"] == "solve"


# --- renderers ---------------------------------------------------------------


def test_format_waterfall_shows_offsets_and_durations(tree):
    text = format_waterfall(tree)
    lines = text.splitlines()
    assert len(lines) == 5
    assert lines[0].startswith("execute")
    assert "  compile" in lines[1]
    assert "    solve" in lines[3]
    assert "ms" in lines[0]
    # A late child's bar starts further right than the root's.
    assert lines[4].index("#") > lines[0].index("#")


def test_format_waterfall_truncates_at_max_spans(tree):
    text = format_waterfall(tree, max_spans=2)
    assert "3 more span(s) omitted" in text
    assert format_waterfall(None) == "(empty trace)"


def test_format_top_table_ranks_by_self_time(tree):
    table = format_top_table(aggregate_self_times(tree))
    lines = table.splitlines()
    assert lines[0].split()[:2] == ["stage", "count"]
    # solve has the largest self time, so it ranks first.
    assert lines[1].startswith("solve")
    top1 = format_top_table(aggregate_self_times(tree), top=1)
    assert len(top1.splitlines()) == 2
