"""Convergence event streams: trace-scoped ``emit()`` records.

Spans answer *where time went*; events answer *how the answer got
better while it went*.  An *event* is a plain dict — ``kind``, an epoch
``ts``, an optional solve-relative ``t``, and free-form fields — recorded
into the active :class:`~repro.obs.trace.TraceSession` alongside its
spans, so events ride the exact same payloads across the solve farm's
forkserver boundary and surface on ``GET /trace/<id>`` and
``repro trace --convergence``.

Four producers feed the channel:

* ``solver/branch_bound.py`` emits a :data:`KIND_SOLVER_NODE` record per
  expanded node and per incumbent improvement —
  ``(t, incumbent, best_bound, gap, nodes, lp_iters)`` in the caller's
  objective sense — plus a terminal record (``final=True``) whose ``gap``
  equals the returned :class:`~repro.solver.result.MILPResult` gap and,
  through the engine's envelope, the ``AnytimeResult`` gap;
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

#: Branch-and-bound convergence: one record per expanded node / new
#: incumbent, fields ``t, incumbent, best_bound, gap, nodes, lp_iters``.
KIND_SOLVER_NODE = "solver.node"

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
    start) — the natural x-axis for gap-over-time; ``ts`` (epoch) is
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


def solver_events(events) -> list[dict]:
    """The branch-and-bound convergence series, in emission order."""
    return [e for e in events or () if e.get("kind") == KIND_SOLVER_NODE]


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


def format_convergence(document: dict, width: int = 72) -> str:
    """ASCII gap-over-time view of one trace document's event stream.

    ``document`` is a ``/trace`` payload (or ``engine.last_trace``):
    the event list is read from its ``events`` key.  Four sections,
    each omitted when its producer emitted nothing: the solver
    gap-over-time bars, the root-LP reduction verdicts, the CSA
    ε-trajectory table (rounds whose solve / validation came from the
    evaluation's memos are marked ``=``, and the span tree's totals
    close the table), and the refine outcome tally.
    """
    events = document.get("events") or []
    lines: list[str] = []
    solver = solver_events(events)
    if solver:
        lines.append("solver convergence (gap over time):")
        gaps = [e.get("gap") for e in solver]
        finite = [g for g in gaps if g is not None]
        top = max(finite) if finite else 0.0
        bar_width = max(10, width - 46)
        for event in solver:
            gap = event.get("gap")
            frac = 0.0 if not top or gap is None else min(1.0, gap / top)
            bar = "#" * max(0, round(frac * bar_width))
            marker = " *" if event.get("final") else ""
            lines.append(
                f"  t={_fmt(event.get('t'), 4):>8}s"
                f" gap={_fmt(gap):>10}"
                f" inc={_fmt(event.get('incumbent'), 6):>10}"
                f" bound={_fmt(event.get('best_bound'), 6):>10}"
                f" n={_fmt(event.get('nodes')):>5}"
                f" lp={_fmt(event.get('lp_iters')):>6}"
                f" |{bar}{marker}"
            )
    reductions = reduce_events(events)
    if reductions:
        if lines:
            lines.append("")
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
