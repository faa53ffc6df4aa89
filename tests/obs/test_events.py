"""Convergence event streams: emit gating, caps, filters, rendering."""

from __future__ import annotations

import numpy as np

import repro.solver.reduce as reduce_module
from repro.obs import (
    KIND_CSA_ROUND,
    KIND_REFINE_OUTCOME,
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
)
from repro.solver.model import MILPBuilder


def test_emit_is_a_refusal_without_a_session():
    assert events_enabled() is False
    assert emit(KIND_CSA_ROUND, t=0.1, epsilon_upper=0.5) is False


def test_emit_records_on_the_active_session():
    session = TraceSession(new_trace_id())
    with activate(session):
        assert events_enabled() is True
        assert emit(KIND_REFINE_OUTCOME, t=0.25, partition=3, final_m=40) is True
        assert emit(KIND_CSA_ROUND, iteration=1, epsilon_upper=0.4) is True
    assert len(session.events) == 2
    refine = session.events[0]
    assert refine["kind"] == KIND_REFINE_OUTCOME
    assert refine["t"] == 0.25
    assert refine["partition"] == 3
    assert refine["final_m"] == 40
    assert "ts" in refine
    # t is optional: the CSA record carries none.
    assert "t" not in session.events[1]


def test_event_cap_counts_overflow_instead_of_growing():
    session = TraceSession(new_trace_id(), max_events=3)
    with activate(session):
        for n in range(10):
            emit(KIND_CSA_ROUND, t=float(n), epsilon_upper=1.0 / (n + 1))
    assert len(session.events) == 3
    assert session.events_dropped == 7
    # The cap keeps the oldest events (the head of the trajectory).
    assert [e["t"] for e in session.events] == [0.0, 1.0, 2.0]


def test_filters_partition_by_kind():
    events = [
        {"kind": KIND_CSA_ROUND, "iteration": 1},
        {"kind": KIND_REFINE_OUTCOME, "partition": 4, "status": "ok"},
        {"kind": KIND_CSA_ROUND, "iteration": 2},
        {"kind": KIND_SOLVER_REDUCE, "verdict": "lp_integral", "cols": 900},
        {"kind": "someone.else", "x": 1},
    ]
    assert [e["iteration"] for e in epsilon_events(events)] == [1, 2]
    assert [e["partition"] for e in refine_events(events)] == [4]
    assert [e["verdict"] for e in reduce_events(events)] == ["lp_integral"]
    # Filters accept None/empty without blowing up.
    assert reduce_events(None) == []
    assert epsilon_events([]) == []


def test_format_convergence_renders_all_three_sections():
    document = {
        "events": [
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
    assert rendered.startswith(
        "root-LP reductions (2 solves): lp_integral=1, reduced=1"
    )
    assert "verdict=      reduced cols=  1201 free=    96" in rendered
    assert "CSA epsilon trajectory:" in rendered
    assert "refine outcomes (1 partitions): validated=1" in rendered
    assert "(2 events dropped at the session cap)" in rendered


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


def test_memo_hit_bills_nothing_and_emits_no_reduce_event(monkeypatch):
    memo: dict = {}

    def solve(n):
        builder = _cardinality_builder(n)
        builder.solve_memo = memo
        session = TraceSession(new_trace_id())
        with activate(session):
            return builder.solve(), session

    for n in (40, reduce_module.MIN_COLUMNS + 100):
        first, billed = solve(n)
        again, free = solve(n)
        assert "memo" not in first.meta and again.meta["memo"] is True
        assert again.meta.get("reduction") == first.meta.get("reduction")
        # lp_solves counts solves that happened; a replay is not one.
        assert billed.resources["lp_solves"] >= 1
        assert free.resources == {} and free.events == []
        assert len(reduce_events(billed.events)) == ("reduction" in first.meta)


def traced_portfolio_q3():
    """portfolio/Q3 at 40 stocks, traced: (trace document, result)."""
    from repro import SPQConfig, SPQEngine
    from repro.workloads import get_query

    spec = get_query("portfolio", "Q3")
    engine = SPQEngine(
        config=SPQConfig(
            n_validation_scenarios=500, n_initial_scenarios=20,
            scenario_increment=20, max_scenarios=40,
            n_expectation_scenarios=200, n_probe_scenarios=16, epsilon=0.5,
            seed=1, trace_enabled=True,
        )
    )
    engine.register(*spec.build_dataset(40, seed=42))
    result = engine.execute(spec.spaql, method="summarysearch")
    return engine.last_trace, result


def test_csa_rounds_and_validate_spans_say_what_the_memos_served(no_lane):
    from repro.obs.profile import iter_tree

    document, _ = traced_portfolio_q3()
    rounds = [e for e in epsilon_events(document["events"]) if "q" in e]
    closers = [e for e in epsilon_events(document["events"]) if "q" not in e]
    assert rounds and closers
    for event in rounds:
        assert isinstance(event["solve_memo"], bool)
        assert isinstance(event["validate_memo"], bool)
    assert all("solve_memo" not in e for e in closers)
    # Round 0 of every CSA-Solve after the first re-validates x(0).
    first_rounds = [e for e in rounds if e["q"] == 0]
    assert [e["validate_memo"] for e in first_rounds] == [False] + [True] * (
        len(first_rounds) - 1
    )
    assert not any(e["solve_memo"] for e in first_rounds)
    spans = list(iter_tree(document["root"]))
    validates = [s for s in spans if s["name"] == "validate"]
    solves = [s for s in spans if s["name"] in ("solve", "solve.q0")]
    assert len(validates) == len(rounds)
    assert {s["attrs"]["memo"] for s in validates} == {"0/1", "1/1"}
    served = sum(s["attrs"]["memo"] == "1/1" for s in validates)
    assert served == sum(e["validate_memo"] for e in rounds)
    replayed = sum(bool(s["attrs"].get("memo")) for s in solves)
    assert replayed >= sum(e["solve_memo"] for e in rounds) > 0
    # lp_solves is the solves that ran (these models are never reduced).
    assert document["resources"]["lp_solves"] == len(solves) - replayed
    rendered = format_convergence(document)
    assert (
        f"  solves: {len(solves)} ({replayed} from memo);"
        f" validations: {len(validates)} ({served} from memo)"
    ) in rendered
    marked = [l for l in rendered.splitlines() if l.rstrip().endswith("=")]
    assert len(marked) == served


def test_the_ladder_lane_leaves_the_csa_round_stream_as_it_was(
    forced_lane, monkeypatch
):
    """Lane-on twin of the test above: the same rounds, in the same order,
    with the same verdicts; only which thread asked a memo first moves."""
    from repro.core import lane

    def stream(document):
        return [
            {k: v for k, v in e.items()
             if k not in ("ts", "solve_memo", "validate_memo")}
            for e in epsilon_events(document["events"])
        ]

    laned, laned_result = traced_portfolio_q3()
    monkeypatch.setattr(lane, "ENABLED", False)
    alone, alone_result = traced_portfolio_q3()
    assert stream(laned) == stream(alone)
    assert laned_result.package.multiplicities.tolist() == (
        alone_result.package.multiplicities.tolist()
    )
    assert laned_result.epsilon_upper == alone_result.epsilon_upper


def test_format_convergence_marks_memo_rounds_and_tallies_the_span_tree():
    def span(name, **attrs):
        return {"name": name, "attrs": attrs, "children": []}

    root = span("execute")
    root["children"] = [
        span("solve.q0"),
        span("validate", memo="0/2"),
        span("solve", q=0),
        span("validate", memo="1/2"),
        span("solve", q=1, memo=True),
        span("validate", memo="2/2"),
        span("validate", memo="0/0"),
    ]
    document = {
        "root": root,
        "events": [
            {"kind": KIND_CSA_ROUND, "q": 0, "feasible": False,
             "solve_memo": False, "validate_memo": False},
            {"kind": KIND_CSA_ROUND, "q": 1, "feasible": False,
             "solve_memo": True, "validate_memo": False},
            {"kind": KIND_CSA_ROUND, "q": 2, "feasible": True,
             "solve_memo": True, "validate_memo": True},
            {"kind": KIND_CSA_ROUND, "iteration": 1, "feasible": True},
        ],
    }
    lines = format_convergence(document).splitlines()
    assert lines[1].endswith("objective  =solve =validate")
    assert [l[49:] for l in lines[2:6]] == ["", "  =", "  =      =", ""]
    assert lines[6] == "  solves: 3 (1 from memo); validations: 4 (1 from memo)"
    # No span tree (an events-only payload): the table stands alone.
    del document["root"]
    assert "solves:" not in format_convergence(document)
