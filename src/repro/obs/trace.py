"""Trace spans: ``with stage("solve"): ...`` instrumentation.

A *span* is a plain dict — ``trace_id`` / ``span_id`` / ``parent_id``,
stage name, epoch start, wall and CPU-thread seconds, and free-form
``attrs`` (cache hit/miss, scenario count, solver status, partition
id).  Plain dicts because spans land in JSON responses unchanged.

Instrumented code calls :func:`stage`, which is a **no-op returning a
shared null object** unless a :class:`TraceSession` has been activated
on the current context (``contextvars``), so the disabled path costs
one ContextVar read per call site.  Sessions are activated explicitly:

* by the engine, when it roots its own trace (CLI / library use);
* by the broker, on the pool thread — thread-pool threads do **not**
  inherit the submitter's contextvars — parented to the broker's root
  span id, so the evaluation's spans hang under it when the broker
  ingests them into the :class:`TraceRing`.

The ring is the bounded in-memory store behind ``GET /trace/<id>``:
oldest trace evicted beyond capacity, with a condition variable so the
HTTP layer can wait for a trace to complete — ``Future.set_result``
wakes result waiters *before* running done-callbacks, so the broker's
root span may land just after ``execute()`` returns.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
import uuid
from collections import OrderedDict
from contextlib import contextmanager
from contextvars import ContextVar


#: The active (session, parent_span_id) frame, or None.
_CURRENT: ContextVar = ContextVar("repro_obs_frame", default=None)

_span_counter = itertools.count(1)
_perf_counter, _thread_time = time.perf_counter, time.thread_time

#: ``"<pid>-"`` for span ids; a forked child reads its pid again.
_pid_prefix = ""


def _read_pid() -> None:
    global _pid_prefix
    _pid_prefix = f"{os.getpid():x}-"


_read_pid()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_read_pid)


def new_trace_id() -> str:
    """A fresh 32-hex-char trace id."""
    return uuid.uuid4().hex


def new_span_id() -> str:
    """A fresh span id, unique across processes."""
    return f"{_pid_prefix}{next(_span_counter):x}"


class TraceSession:
    """Span accumulator for one traced evaluation (one per query)."""

    __slots__ = (
        "trace_id", "spans", "max_spans", "dropped",
        "events", "max_events", "events_dropped", "resources", "epoch",
    )

    def __init__(
        self,
        trace_id: str,
        max_spans: int = 2048,
        max_events: int = 4096,
    ):
        self.trace_id = trace_id
        self.spans: list[dict] = []
        self.max_spans = max_spans
        #: Spans discarded once ``max_spans`` was reached (a runaway
        #: solve loop must not hold unbounded memory per query).
        self.dropped = 0
        #: Convergence events (:mod:`repro.obs.events`), bounded like
        #: spans: a per-node solver stream must not hold unbounded
        #: memory per query.
        self.events: list[dict] = []
        self.max_events = max_events
        self.events_dropped = 0
        #: Trace-scoped resource charges (:func:`repro.obs.resources.charge`).
        self.resources: dict[str, float] = {}
        #: Wall-clock time at ``perf_counter() == 0``, read once per
        #: session: a span's epoch start is this plus its one
        #: ``perf_counter`` read, so a wall-clock step during the
        #: session does not move its span starts.
        self.epoch = time.time() - _perf_counter()

    def add(self, span: dict) -> None:
        if len(self.spans) >= self.max_spans:
            self.dropped += 1
            return
        self.spans.append(span)

    def add_event(self, event: dict) -> None:
        if len(self.events) >= self.max_events:
            self.events_dropped += 1
            return
        self.events.append(event)

    def charge(self, name: str, amount: float = 1.0) -> None:
        # Single-query accumulator: touched from the one thread (or
        # worker process) evaluating this query, so a plain dict += is
        # safe here where the process-wide registries need locks.
        self.resources[name] = self.resources.get(name, 0.0) + amount

    def merge(self, child: "TraceSession") -> None:
        """Fold a child session's spans, events and charges into this one.

        The child recorded work done for this query on another thread
        (``core/lane.py``); both caps still hold after the merge.
        """
        for span in child.spans:
            self.add(span)
        self.dropped += child.dropped
        for event in child.events:
            self.add_event(event)
        self.events_dropped += child.events_dropped
        for name, amount in child.resources.items():
            self.charge(name, amount)

    def payload(self) -> tuple:
        """The trace tuple a finished request hands back to the broker.

        Mirrored by :meth:`TraceRing.add`'s signature, so the broker
        ingests it with ``trace_ring.add(*payload)``.
        """
        return (
            self.trace_id, self.spans, self.dropped,
            self.events, self.events_dropped, self.resources,
        )


def current_session() -> TraceSession | None:
    """The session active on this context, or None (tracing off)."""
    frame = _CURRENT.get()
    return frame[0] if frame is not None else None


def fork_session() -> tuple[TraceSession, str | None] | None:
    """A child session for this query's work on another thread.

    It shares the active session's trace id and caps, and its spans nest
    under the current span; the caller merges it back
    (:meth:`TraceSession.merge`) or drops it.  None when tracing is off.
    """
    frame = _CURRENT.get()
    if frame is None:
        return None
    session, parent_id = frame
    child = TraceSession(
        session.trace_id, max_spans=session.max_spans,
        max_events=session.max_events,
    )
    return child, parent_id


@contextmanager
def activate(session: TraceSession, parent_id: str | None = None):
    """Activate ``session`` on the current context.

    Spans recorded inside nest under ``parent_id`` (the broker's root
    span when crossing a thread or process boundary, None for a
    self-rooted trace).
    """
    token = _CURRENT.set((session, parent_id))
    try:
        yield session
    finally:
        _CURRENT.reset(token)


class _NullStage:
    """The shared do-nothing stage returned when tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullStage":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False

    def set(self, key, value) -> "_NullStage":
        return self


_NULL_STAGE = _NullStage()


class _Stage:
    """A live span under construction (returned by :func:`stage`)."""

    __slots__ = (
        "_frame", "name", "attrs", "span_id", "_token",
        "_start_wall", "_start_cpu",
    )

    def __init__(self, frame, name: str, attrs: dict):
        self._frame = frame
        self.name = name
        self.attrs = attrs

    def set(self, key: str, value) -> "_Stage":
        """Attach one attribute; chainable."""
        self.attrs[key] = value
        return self

    # The enabled path is gated at under 2% of a warm query, the stage
    # histograms' share included (benchmarks/bench_service.py):
    # new_span_id() is inlined, the clocks are module-level names, and
    # the histograms are fed once from the finished trace
    # (``StageHistograms.observe_spans``).
    def __enter__(self) -> "_Stage":
        self.span_id = span_id = f"{_pid_prefix}{next(_span_counter):x}"
        self._token = _CURRENT.set((self._frame[0], span_id))
        self._start_cpu = _thread_time()
        self._start_wall = _perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        wall = _perf_counter() - self._start_wall
        cpu = _thread_time() - self._start_cpu
        _CURRENT.reset(self._token)
        session, parent_id = self._frame
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        session.add(
            {
                "trace_id": session.trace_id,
                "span_id": self.span_id,
                "parent_id": parent_id,
                "name": self.name,
                "start": session.epoch + self._start_wall,
                "wall_s": wall,
                "cpu_s": cpu,
                "attrs": self.attrs,
            }
        )
        return False


def stage(name: str, **attrs):
    """A context manager recording one span, or a no-op when untraced."""
    frame = _CURRENT.get()
    if frame is None:
        return _NULL_STAGE
    return _Stage(frame, name, attrs)


def span_tree(
    spans, trace_id: str | None = None, complete: bool = True, dropped: int = 0
) -> dict:
    """Nest flat spans into the tree document served on ``/trace``.

    The root is the span with no parent (the broker's ``query`` span,
    or the engine's ``execute`` for self-rooted traces).  Orphans —
    spans whose parent was dropped at the session cap, or worker spans
    that arrived before their root — attach under the root rather than
    vanishing.
    """
    nodes: "OrderedDict[str, dict]" = OrderedDict()
    for span in sorted(spans, key=lambda s: s.get("start", 0.0)):
        node = dict(span)
        node["children"] = []
        nodes[node["span_id"]] = node
    root = None
    orphans = []
    for node in nodes.values():
        parent = nodes.get(node.get("parent_id"))
        if parent is not None and parent is not node:
            parent["children"].append(node)
        elif node.get("parent_id") is None and root is None:
            root = node
        else:
            orphans.append(node)
    if root is None and orphans:
        root = orphans.pop(0)
    for node in orphans:
        root["children"].append(node)
    return {
        "trace_id": trace_id,
        "complete": complete,
        "n_spans": len(nodes),
        "dropped": dropped,
        "root": root,
    }


class TraceRing:
    """Bounded in-memory store of recent traces (oldest evicted)."""

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError("trace ring capacity must be >= 1")
        self.capacity = capacity
        self._entries: "OrderedDict[str, dict]" = OrderedDict()
        self._cond = threading.Condition()

    def __len__(self) -> int:
        with self._cond:
            return len(self._entries)

    def open(self, trace_id: str, **meta) -> None:
        """Register a trace at admission (evicting the oldest if full)."""
        with self._cond:
            self._entries.pop(trace_id, None)
            while len(self._entries) >= self.capacity:
                self._entries.popitem(last=False)
            self._entries[trace_id] = {
                "spans": [],
                "meta": dict(meta),
                "complete": False,
                "dropped": 0,
                "events": [],
                "events_dropped": 0,
                "resources": {},
            }

    def add(
        self,
        trace_id: str,
        spans,
        dropped: int = 0,
        events=None,
        events_dropped: int = 0,
        resources=None,
    ) -> None:
        """Ingest one session's payload for an open trace (no-op once
        evicted).  The signature matches :meth:`TraceSession.payload`."""
        if (
            not spans and not dropped and not events
            and not events_dropped and not resources
        ):
            return
        with self._cond:
            entry = self._entries.get(trace_id)
            if entry is None:
                return
            entry["spans"].extend(spans)
            entry["dropped"] += dropped
            if events:
                entry["events"].extend(events)
            entry["events_dropped"] += events_dropped
            if resources:
                for name, amount in resources.items():
                    entry["resources"][name] = (
                        entry["resources"].get(name, 0.0) + amount
                    )

    def finish(self, trace_id: str, root_span: dict | None = None, **meta) -> None:
        """Mark a trace complete (appending its root span) and wake waiters."""
        with self._cond:
            entry = self._entries.get(trace_id)
            if entry is None:
                return
            if root_span is not None:
                entry["spans"].append(root_span)
            entry["meta"].update(meta)
            entry["complete"] = True
            self._cond.notify_all()

    def discard(self, trace_id: str) -> None:
        """Drop a trace whose evaluation never dispatched."""
        with self._cond:
            self._entries.pop(trace_id, None)

    def get(self, trace_id: str, wait_s: float = 0.0) -> dict | None:
        """Snapshot one trace, optionally waiting for it to complete.

        Returns None for unknown/evicted ids.  An incomplete trace is
        returned as-is once ``wait_s`` elapses — partial beats nothing.
        """
        deadline = time.monotonic() + wait_s
        with self._cond:
            while True:
                entry = self._entries.get(trace_id)
                if entry is None:
                    return None
                if entry["complete"]:
                    break
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._cond.wait(remaining)
            return {
                "trace_id": trace_id,
                "complete": entry["complete"],
                "spans": list(entry["spans"]),
                "meta": dict(entry["meta"]),
                "dropped": entry["dropped"],
                "events": list(entry.get("events", ())),
                "events_dropped": entry.get("events_dropped", 0),
                "resources": dict(entry.get("resources", ())),
            }

    def tree(self, trace_id: str, wait_s: float = 0.0) -> dict | None:
        """The span tree document for one trace, or None if unknown."""
        entry = self.get(trace_id, wait_s=wait_s)
        if entry is None:
            return None
        tree = span_tree(
            entry["spans"],
            trace_id,
            complete=entry["complete"],
            dropped=entry["dropped"],
        )
        tree["events"] = entry["events"]
        tree["events_dropped"] = entry["events_dropped"]
        if entry["resources"]:
            tree["resources"] = entry["resources"]
        if entry["meta"]:
            tree["meta"] = entry["meta"]
        return tree
