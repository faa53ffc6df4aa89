"""Convergence event streams: emit gating, caps, filters, rendering."""

from __future__ import annotations

import numpy as np

import repro.solver.reduce as reduce_module
from repro.obs import (
    KIND_CSA_ROUND,
    KIND_REFINE_OUTCOME,
    KIND_SOLVER_NODE,
    KIND_SOLVER_REDUCE,
    TraceSession,
    activate,
    emit,
    epsilon_events,
    events_enabled,
    format_convergence,
    new_trace_id,
    reduce_events,
    refine_events,
    solver_events,
)
from repro.solver.model import MILPBuilder


def test_emit_is_a_refusal_without_a_session():
    assert events_enabled() is False
    assert emit(KIND_SOLVER_NODE, t=0.1, gap=0.5) is False


def test_emit_records_on_the_active_session():
    session = TraceSession(new_trace_id())
    with activate(session):
        assert events_enabled() is True
        assert emit(KIND_SOLVER_NODE, t=0.25, gap=0.5, nodes=3) is True
        assert emit(KIND_CSA_ROUND, iteration=1, epsilon_upper=0.4) is True
    assert len(session.events) == 2
    node = session.events[0]
    assert node["kind"] == KIND_SOLVER_NODE
    assert node["t"] == 0.25
    assert node["gap"] == 0.5
    assert node["nodes"] == 3
    assert "ts" in node
    # t is optional: the CSA record carries none.
    assert "t" not in session.events[1]


def test_event_cap_counts_overflow_instead_of_growing():
    session = TraceSession(new_trace_id(), max_events=3)
    with activate(session):
        for n in range(10):
            emit(KIND_SOLVER_NODE, t=float(n), gap=1.0 / (n + 1))
    assert len(session.events) == 3
    assert session.events_dropped == 7
    # The cap keeps the oldest events (the head of the trajectory).
    assert [e["t"] for e in session.events] == [0.0, 1.0, 2.0]


def test_filters_partition_by_kind():
    events = [
        {"kind": KIND_SOLVER_NODE, "gap": 0.5},
        {"kind": KIND_CSA_ROUND, "iteration": 1},
        {"kind": KIND_SOLVER_NODE, "gap": 0.1},
        {"kind": KIND_REFINE_OUTCOME, "partition": 4, "status": "ok"},
        {"kind": KIND_SOLVER_REDUCE, "verdict": "lp_integral", "cols": 900},
        {"kind": "someone.else", "x": 1},
    ]
    assert [e["gap"] for e in solver_events(events)] == [0.5, 0.1]
    assert [e["iteration"] for e in epsilon_events(events)] == [1]
    assert [e["partition"] for e in refine_events(events)] == [4]
    assert [e["verdict"] for e in reduce_events(events)] == ["lp_integral"]
    # Filters accept None/empty without blowing up.
    assert solver_events(None) == []
    assert epsilon_events([]) == []


def test_format_convergence_renders_all_four_sections():
    document = {
        "events": [
            {
                "kind": KIND_SOLVER_NODE, "t": 0.01, "gap": 0.8,
                "incumbent": 12.0, "best_bound": 2.4, "nodes": 1,
                "lp_iters": 4,
            },
            {
                "kind": KIND_SOLVER_NODE, "t": 0.05, "gap": 0.2,
                "incumbent": 10.0, "best_bound": 8.0, "nodes": 7,
                "lp_iters": 30, "final": True,
            },
            {
                "kind": KIND_SOLVER_REDUCE, "verdict": "lp_integral",
                "cols": 1200, "free": 0, "lp_s": 0.013,
            },
            {
                "kind": KIND_SOLVER_REDUCE, "verdict": "reduced",
                "cols": 1201, "free": 96, "lp_s": 0.008,
            },
            {
                "kind": KIND_CSA_ROUND, "iteration": 1, "q": 16,
                "epsilon_upper": 0.4, "feasible": True, "objective": 10.0,
            },
            {
                "kind": KIND_REFINE_OUTCOME, "partition": 0,
                "status": "validated", "final_m": 24,
                "solve_time": 0.2, "validate_time": 0.05,
            },
        ],
        "events_dropped": 2,
    }
    rendered = format_convergence(document)
    assert "solver convergence (gap over time):" in rendered
    assert "root-LP reductions (2 solves): lp_integral=1, reduced=1" in rendered
    assert "verdict=      reduced cols=  1201 free=    96" in rendered
    assert "CSA epsilon trajectory:" in rendered
    assert "refine outcomes (1 partitions): validated=1" in rendered
    assert "(2 events dropped at the session cap)" in rendered
    # The final solver record carries the terminal marker, and the
    # larger gap draws the longer bar.
    solver_lines = [l for l in rendered.splitlines() if "inc=" in l]
    assert solver_lines[0].count("#") > solver_lines[1].count("#")
    assert solver_lines[1].rstrip().endswith("*")


def test_format_convergence_empty_document():
    assert format_convergence({}) == "no convergence events recorded"
    assert (
        format_convergence({"events": [], "events_dropped": 0})
        == "no convergence events recorded"
    )


def _cardinality_builder(n: int) -> MILPBuilder:
    """Pick 5..10 of ``n`` binary columns at least cost, under a weight cap."""
    rng = np.random.default_rng(n)
    builder = MILPBuilder()
    idx = builder.add_variables("x", n, lb=0.0, ub=1.0)
    builder.add_constraint(idx, np.ones(n), lb=5, ub=10)
    builder.add_constraint(idx, rng.uniform(1.0, 9.0, size=n), lb=31.3)
    builder.set_objective(idx, rng.uniform(1.0, 20.0, size=n))
    return builder


def test_reduced_solve_emits_one_event_and_bills_every_lp_and_milp(monkeypatch):
    milp_calls = []
    real = reduce_module.milp
    monkeypatch.setattr(
        reduce_module, "milp",
        lambda *a, **k: milp_calls.append(1) or real(*a, **k),
    )
    builder = _cardinality_builder(reduce_module.MIN_COLUMNS + 100)
    session = TraceSession(new_trace_id())
    with activate(session):
        result = builder.solve()
    record = result.meta["reduction"]
    assert record["verdict"] == "reduced"
    assert set(record) == {"verdict", "cols", "free", "lp_s"}
    assert record["cols"] == builder.n_variables
    assert 0 < record["free"] < record["cols"] / 2
    events = reduce_events(session.events)
    assert len(events) == 1
    assert {k: events[0][k] for k in record} == record
    # The bill: one root LP plus every MILP HiGHS actually ran.
    assert milp_calls
    assert session.resources["lp_solves"] == 1 + len(milp_calls)


def test_unreduced_solve_emits_no_reduce_event():
    builder = _cardinality_builder(40)
    session = TraceSession(new_trace_id())
    with activate(session):
        result = builder.solve()
    assert "reduction" not in result.meta
    assert reduce_events(session.events) == []
    assert session.resources["lp_solves"] == 1
