#!/usr/bin/env python
"""Trace-overhead smoke: tracing is free when off, <2% when on.

CI companion to ``benchmarks/bench_service.py``'s overhead benchmark,
runnable without pytest.  Three checks:

* **disabled is a no-op** — with no active session ``stage()`` returns
  one shared singleton (no allocation, no span), and 20k enter/exit
  cycles cost well under a microsecond each;
* **enabled is bounded** — per-span record cost times the span count of
  a real traced query stays under 2% of that query's untraced wall time
  (an A/B wall-clock diff cannot resolve 2% above solver noise, so the
  bound is established structurally, like the benchmark does);
* **the spans are right** — the traced query yields a span tree rooted
  at ``execute`` with parse/solve/validate stages, and the ``repro
  trace`` renderers accept it;
* **convergence events flow (and only when traced)** — the traced run
  records CSA/solver convergence events that the ``--convergence``
  renderer accepts, while the untraced run leaves the event channel
  completely dark (``emit()`` is one ContextVar read returning False).

Runs in seconds under ``REPRO_SMOKE=1`` (smaller dataset)::

    REPRO_SMOKE=1 PYTHONPATH=src python scripts/trace_smoke.py
"""

from __future__ import annotations

import os
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro import Catalog, SPQConfig  # noqa: E402
from repro.core.engine import SPQEngine  # noqa: E402
from repro.obs import (  # noqa: E402
    TraceSession,
    activate,
    aggregate_self_times,
    format_top_table,
    format_waterfall,
    new_trace_id,
    stage,
)
from repro.obs.trace import _NULL_STAGE, current_session  # noqa: E402
from repro.workloads import get_query  # noqa: E402

_SMOKE = os.environ.get("REPRO_SMOKE") == "1"
SCALE = 40 if _SMOKE else 120
ITERS = 20_000


def per_span_cost() -> float:
    started = time.perf_counter()
    for _ in range(ITERS):
        with stage("smoke.noop"):
            pass
    return (time.perf_counter() - started) / ITERS


def main() -> int:
    # 1. Disabled: the shared no-op singleton, at sub-microsecond cost.
    assert current_session() is None
    assert stage("smoke.noop", attr=1) is _NULL_STAGE
    disabled_cost = min(per_span_cost() for _ in range(3))
    assert disabled_cost < 5e-6, (
        f"disabled stage() costs {disabled_cost * 1e9:.0f}ns per call"
    )

    # 2. Enabled: per-span record cost (span dict + histogram observe).
    session = TraceSession(new_trace_id(), max_spans=3 * ITERS + 16)
    with activate(session):
        enabled_cost = min(per_span_cost() for _ in range(3))
    assert session.dropped == 0

    # 3. A real query, traced then untraced.
    spec = get_query("portfolio", "Q1")
    relation, model = spec.build_dataset(SCALE, seed=17)
    catalog = Catalog()
    catalog.register(relation, model)
    config = SPQConfig(
        seed=7,
        epsilon=0.9,
        n_validation_scenarios=300,
        n_initial_scenarios=16,
        scenario_increment=16,
        max_scenarios=48,
    )
    engine = SPQEngine(catalog=catalog, config=config)
    engine.execute(spec.spaql)  # warm-up: realization + solver caches

    traced = TraceSession(new_trace_id(), max_spans=100_000)
    with activate(traced):
        result = engine.execute(spec.spaql)
    assert result.succeeded, result.message
    n_spans = len(traced.spans)
    assert n_spans > 0 and traced.dropped == 0

    started = time.perf_counter()
    engine.execute(spec.spaql, trace_enabled=False)
    warm_wall = time.perf_counter() - started

    overhead = n_spans * enabled_cost / warm_wall
    assert overhead < 0.02, (
        f"enabled tracing costs {overhead:.2%} of a warm query"
        f" ({n_spans} spans x {enabled_cost * 1e6:.1f}us"
        f" vs {warm_wall:.3f}s)"
    )

    # The span tree is well-formed and the CLI renderers accept it.
    from repro.obs import span_tree

    doc = span_tree(traced.spans, traced.trace_id, dropped=traced.dropped)
    root = doc["root"]
    assert root["name"] == "execute", root
    names = {s["name"] for s in iter_tree_names(root)}
    assert {"execute", "compile", "solve", "validate"} <= names, names
    waterfall = format_waterfall(root)
    table = format_top_table(aggregate_self_times(root))
    assert "execute" in waterfall and "stage" in table

    # Convergence events rode the same session: this SummarySearch run
    # must have emitted at least one csa.round record, and the
    # --convergence renderer must accept the document.
    from repro.obs import emit, epsilon_events, format_convergence

    assert traced.events, "traced query recorded no convergence events"
    assert epsilon_events(traced.events), traced.events
    doc["events"] = list(traced.events)
    doc["events_dropped"] = traced.events_dropped
    rendered = format_convergence(doc)
    assert "epsilon trajectory" in rendered, rendered

    # Disabled path stays dark: with no session, emit() refuses without
    # allocating, preserving the <0.1% disabled-overhead bound.
    assert current_session() is None
    assert emit("smoke.event", t=0.0, value=1) is False

    print(
        f"trace smoke: OK — disabled {disabled_cost * 1e9:.0f}ns/span,"
        f" enabled {enabled_cost * 1e9:.0f}ns/span, {n_spans} spans/query,"
        f" overhead {overhead:.3%} of {warm_wall:.3f}s warm query"
    )
    return 0


def iter_tree_names(node):
    yield node
    for child in node.get("children", ()):
        yield from iter_tree_names(child)


if __name__ == "__main__":
    sys.exit(main())
