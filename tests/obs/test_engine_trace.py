"""Engine-level tracing: self-rooted traces and the config gates."""

from __future__ import annotations

from repro.core.engine import SPQEngine
from repro.obs import TraceSession, activate, new_trace_id
from repro.obs.profile import iter_tree

QUERY = """
SELECT PACKAGE(*) FROM items SUCH THAT
    COUNT(*) <= 3 AND
    SUM(Value) >= 6 WITH PROBABILITY >= 0.8
MINIMIZE EXPECTED SUM(Value)
"""


def test_engine_roots_its_own_trace(items_catalog, fast_config):
    engine = SPQEngine(catalog=items_catalog, config=fast_config)
    assert engine.last_trace is None
    result = engine.execute(QUERY)
    assert result.succeeded
    doc = engine.last_trace
    assert doc is not None and doc["root"]["name"] == "execute"
    names = {node["name"] for node in iter_tree(doc["root"])}
    assert {"execute", "compile", "parse", "solve.q0", "csa", "solve",
            "validate"} <= names, names
    # A warm repeat hits the compile cache — visible in the span attrs.
    engine.execute(QUERY)
    compile_span = next(
        node for node in iter_tree(engine.last_trace["root"])
        if node["name"] == "compile"
    )
    assert compile_span["attrs"]["cache_hit"] is True


def test_engine_trace_disabled_records_nothing(items_catalog, fast_config):
    engine = SPQEngine(catalog=items_catalog, config=fast_config)
    engine.execute(QUERY, trace_enabled=False)
    assert engine.last_trace is None


def test_engine_defers_to_an_active_session(items_catalog, fast_config):
    """Inside a broker session the engine must not self-root."""
    engine = SPQEngine(catalog=items_catalog, config=fast_config)
    session = TraceSession(new_trace_id())
    with activate(session):
        engine.execute(QUERY)
    assert engine.last_trace is None
    assert {s["name"] for s in session.spans} >= {"execute", "validate"}
    assert all(s["trace_id"] == session.trace_id for s in session.spans)
