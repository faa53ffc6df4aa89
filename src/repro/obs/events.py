"""Convergence event streams: trace-scoped ``emit()`` records.

Spans answer *where time went*; events answer *how the answer got
better while it went*.  An *event* is a plain dict — ``kind``, an epoch
``ts``, an optional solve-relative ``t``, and free-form fields — recorded
into the active :class:`~repro.obs.trace.TraceSession` alongside its
spans, so events ride the exact same payloads and surface on
``GET /trace/<id>`` and ``repro trace --convergence``.

Three producers feed the channel:

* ``solver/highs.py`` emits one :data:`KIND_SOLVER_REDUCE` record per
  solve that went through the root-LP reduction — which verdict it
  reached and how many columns HiGHS was left with;
* SummarySearch/CSA emit a :data:`KIND_CSA_ROUND` record per
  optimize/validate round (the ε-trajectory of Section 5.4);
* the scale driver emits a :data:`KIND_REFINE_OUTCOME` record per
  refined partition.

Like :func:`~repro.obs.trace.stage`, the disabled path is one
ContextVar read: :func:`emit` returns ``False`` without touching the
arguments' dict when no session is active.  Sessions cap their event
list (``TraceSession.max_events``) so a runaway solve loop cannot hold
unbounded memory per query; overflow is counted, never silently lost.
"""

from __future__ import annotations

import time
from collections import Counter

from .profile import iter_tree
from .trace import current_session

#: Root-LP reduction in front of HiGHS: one record per reduced solve,
#: fields ``verdict`` (``lp_integral``/``lp_infeasible``/``reduced``/
#: ``full``), ``cols``, ``free``, ``lp_s`` (see ``solver/reduce.py``).
KIND_SOLVER_REDUCE = "solver.reduce"

#: SummarySearch/CSA ε-trajectory: one record per optimize/validate
#: round, fields ``t, iteration, q, epsilon_upper, feasible, objective``;
#: per-``q`` records also say whether the solve that produced the round's
#: package (``solve_memo``) and its validation (``validate_memo``) were
#: served from the evaluation's memos instead of recomputed.
KIND_CSA_ROUND = "csa.round"

#: SketchRefine per-partition refine outcome, fields
#: ``t, partition, status, final_m, solve_time, validate_time``.
KIND_REFINE_OUTCOME = "refine.outcome"


def events_enabled() -> bool:
    """Whether an active trace session is collecting events."""
    return current_session() is not None


def emit(kind: str, *, t: float | None = None, **fields) -> bool:
    """Record one convergence event on the active trace session.

    ``t`` is the producer's solve-relative clock (seconds since its own
    start) — the natural x-axis for a trajectory; ``ts`` (epoch) is
    stamped here for cross-producer ordering.  Returns whether an event
    was recorded (``False`` when tracing is off).
    """
    session = current_session()
    if session is None:
        return False
    event = {"kind": kind, "ts": time.time()}
    if t is not None:
        event["t"] = float(t)
    event.update(fields)
    session.add_event(event)
    return True


def reduce_events(events) -> list[dict]:
    """The root-LP reduction verdicts, in emission order."""
    return [e for e in events or () if e.get("kind") == KIND_SOLVER_REDUCE]


def epsilon_events(events) -> list[dict]:
    """The CSA ε-trajectory series, in emission order."""
    return [e for e in events or () if e.get("kind") == KIND_CSA_ROUND]


def refine_events(events) -> list[dict]:
    """Per-partition refine outcomes, in emission order."""
    return [e for e in events or () if e.get("kind") == KIND_REFINE_OUTCOME]


def _fmt(value, digits: int = 6) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.{digits}g}"
    return str(value)


def _tally(events, key: str) -> str:
    """``value=count`` pairs of one field over ``events``, sorted."""
    counts = Counter(str(event.get(key)) for event in events)
    return ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))


def _memo_tally(root) -> str | None:
    """``solves: N (K from memo); validations: ...`` over one span tree."""
    solves = solve_hits = validations = validation_hits = 0
    for node in iter_tree(root):
        memo = (node.get("attrs") or {}).get("memo")
        if node.get("name") in ("solve", "solve.q0"):
            solves += 1
            solve_hits += bool(memo)
        elif node.get("name") == "validate":
            validations += 1
            # ``memo`` is "<items served>/<items>"; 0/0 has nothing to serve.
            served, _, items = str(memo).partition("/")
            validation_hits += items not in ("", "0") and served == items
    if not solves and not validations:
        return None
    return (
        f"solves: {solves} ({solve_hits} from memo);"
        f" validations: {validations} ({validation_hits} from memo)"
    )


def format_convergence(document: dict) -> str:
    """ASCII view of one trace document's event stream.

    ``document`` is a ``/trace`` payload (or ``engine.last_trace``):
    the event list is read from its ``events`` key.  Three sections,
    each omitted when its producer emitted nothing: the root-LP
    reduction verdicts, the CSA ε-trajectory table (rounds whose solve /
    validation came from the evaluation's memos are marked ``=``, and
    the span tree's totals close the table), and the refine outcome
    tally.
    """
    events = document.get("events") or []
    lines: list[str] = []
    reductions = reduce_events(events)
    if reductions:
        lines.append(
            f"root-LP reductions ({len(reductions)} solves):"
            f" {_tally(reductions, 'verdict')}"
        )
        for event in reductions:
            lines.append(
                f"  verdict={_fmt(event.get('verdict')):>13}"
                f" cols={_fmt(event.get('cols')):>6}"
                f" free={_fmt(event.get('free')):>6}"
                f" lp={_fmt(event.get('lp_s'), 4):>8}s"
            )
    eps = epsilon_events(events)
    if eps:
        if lines:
            lines.append("")
        lines.append("CSA epsilon trajectory:")
        lines.append(
            "  iter     q    eps_upper   feasible    objective"
            "  =solve =validate"
        )
        for event in eps:
            lines.append(
                f"  {_fmt(event.get('iteration')):>4}"
                f" {_fmt(event.get('q')):>5}"
                f" {_fmt(event.get('epsilon_upper')):>12}"
                f" {_fmt(event.get('feasible')):>10}"
                f" {_fmt(event.get('objective')):>12}"
                f"  {'=' if event.get('solve_memo') else '':<6}"
                f" {'=' if event.get('validate_memo') else ''}".rstrip()
            )
        tally = _memo_tally(document.get("root"))
        if tally:
            lines.append(f"  {tally}")
    refines = refine_events(events)
    if refines:
        if lines:
            lines.append("")
        lines.append(
            f"refine outcomes ({len(refines)} partitions):"
            f" {_tally(refines, 'status')}"
        )
        for event in refines:
            lines.append(
                f"  partition={_fmt(event.get('partition')):>4}"
                f" status={_fmt(event.get('status')):>12}"
                f" final_m={_fmt(event.get('final_m')):>6}"
                f" solve={_fmt(event.get('solve_time'), 4):>8}s"
                f" validate={_fmt(event.get('validate_time'), 4):>8}s"
            )
    dropped = document.get("events_dropped") or 0
    if dropped:
        if lines:
            lines.append("")
        lines.append(f"({dropped} events dropped at the session cap)")
    if not lines:
        return "no convergence events recorded"
    return "\n".join(lines)
