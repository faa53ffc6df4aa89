"""Concurrent package-query broker over a pool of engine sessions.

:class:`QueryBroker` is the serving layer's middle tier: it owns the
only queue and the only per-request path for concurrent ``execute()``
calls over one catalog.  Three properties make it a serving layer
rather than a loop around the engine:

* **Shared realizations** — scenario generation routes through the
  broker's shared store, so queries over the same tables and stochastic
  attributes reuse realized matrices.
* **Admission control** — at most ``pool_size`` queries run at once and
  at most ``max_pending`` are queued or running; beyond that,
  :class:`BrokerSaturatedError` is raised immediately (the HTTP layer
  maps it to 503) instead of building an unbounded backlog.
* **In-flight deduplication** — a query identical to one currently
  running (same text, method, and overrides) attaches to the running
  evaluation's future instead of being dispatched again.

Admitted requests wait in one :class:`~repro.service.qos.EDFQueue`;
``pool_size`` slot threads pop the earliest deadline, fail a request
whose budget drained while queued, and run :func:`run_request` with the
remaining budget on the slot's own in-process
:class:`~repro.core.engine.SPQEngine`, which shares the broker's
:class:`~repro.service.store.ScenarioStore`.  Slots run concurrently:
HiGHS and numpy release the GIL inside solves and scenario draws.
"""

from __future__ import annotations

import math
import threading
import time
from concurrent.futures import Future
from contextlib import nullcontext
from dataclasses import dataclass, field

from ..config import DEFAULT_CONFIG, SPQConfig
from ..core.engine import METHOD_SUMMARY_SEARCH, CompileCache, SPQEngine
from ..db.catalog import Catalog
from ..errors import EvaluationError, SPQError
from ..obs import (
    SlowQueryLog,
    TraceRing,
    TraceSession,
    activate,
    collect,
    new_span_id,
    new_trace_id,
    stage_histograms,
    status_sections,
)
from .qos import DeadlineExpiredError, EDFQueue, TaskDeadline
from .store import ScenarioStore

#: Query-text prefix kept in slow-query log entries and trace metadata.
_QUERY_SNIPPET_CHARS = 200

#: The one service backend: pool slots are threads of this process.
BACKEND_THREAD = "thread"


class BrokerSaturatedError(SPQError):
    """Raised when the broker's pending-query ceiling is reached."""


class BrokerClosedError(SPQError):
    """Raised when a query or a delta reaches a closed broker."""


def run_request(engine, query, method: str, overrides: dict, trace):
    """Evaluate one request on a pool slot's engine.

    Pins ``catalog.version`` before the solve (a delta landing
    mid-evaluation must not relabel a pre-delta answer) and stamps it on
    ``result.meta``; with ``trace = (trace_id, root_span_id)`` the
    evaluation runs in a session parented to the broker's root span.
    Never raises: returns ``(ok, result_or_error,
    TraceSession.payload() or None)``.
    """
    version = engine.catalog.version
    session = None if trace is None else TraceSession(trace[0])
    try:
        with (
            nullcontext() if session is None
            else activate(session, parent_id=trace[1])
        ):
            ok, value = True, engine.execute(query, method=method, **overrides)
    except BaseException as error:  # noqa: BLE001 - settles the caller's future
        ok, value = False, error
    meta = getattr(value, "meta", None)
    if ok and isinstance(meta, dict):
        meta.setdefault("catalog_version", version)
    if session is None:
        return ok, value, None
    stage_histograms.observe_spans(session.spans)
    return ok, value, session.payload()


@dataclass(eq=False)
class _Request:
    """One admitted request in (or popped from) the broker queue."""

    query: object
    method: str
    overrides: dict
    #: ``(trace_id, root_span_id)`` or None.
    trace: tuple | None
    #: Pinned at admission: the EDF rank, checked again at dispatch.
    deadline: TaskDeadline | None
    future: Future = field(default_factory=Future)


class QueryBroker:
    """Admission-controlled, deduplicating dispatcher for package queries."""

    def __init__(
        self,
        catalog: Catalog,
        config: SPQConfig | None = None,
        store: ScenarioStore | None = None,
        pool_size: int | None = None,
        max_pending: int | None = None,
        backend: str = BACKEND_THREAD,
    ):
        self.catalog = catalog
        self.config = config if config is not None else DEFAULT_CONFIG
        self.pool_size = (
            pool_size if pool_size is not None else self.config.service_pool_size
        )
        if self.pool_size < 1:
            raise SPQError("pool_size must be >= 1")
        if backend != BACKEND_THREAD:
            raise EvaluationError(
                f"unknown service backend {backend!r}; the broker runs"
                f" every request on a {BACKEND_THREAD!r} slot"
            )
        self.max_pending = (
            max_pending
            if max_pending is not None
            else (self.config.service_max_pending or 4 * self.pool_size)
        )
        if self.max_pending < self.pool_size:
            self.max_pending = self.pool_size
        self._owns_store = store is None
        self.store = (
            store
            if store is not None
            else ScenarioStore(
                budget_bytes=self.config.scenario_store_budget,
                spill=self.config.scenario_store_spill,
            )
        )
        # One engine session per slot, so a session never serves two
        # queries at once; one compile cache for all of them, so a
        # request's parse and compile do not depend on its slot.
        compiled = CompileCache(catalog)
        engines = [
            SPQEngine(
                catalog=catalog, config=self.config, store=self.store,
                compile_cache=compiled,
            )
            for _ in range(self.pool_size)
        ]
        self._lock = threading.Lock()
        #: Wakes the slot threads: a request was queued, or the broker closed.
        self._wakeup = threading.Condition(self._lock)
        #: The only queue: admitted requests, earliest deadline first.
        self._queue = EDFQueue()
        self._inflight: dict[tuple, Future] = {}
        self._pending = 0
        self._closed = False
        self.started_at = time.time()
        # Lifetime counters (read under the lock; surfaced on /metrics).
        self._submitted = 0
        self._completed = 0
        self._failed = 0
        self._deduplicated = 0
        self._rejected = 0
        # QoS counters: deadline verdicts of finished queries, admission
        # rejections of dead-on-arrival budgets, queue-expired futures,
        # and the gap of the last finished answer (None when it carried
        # none, e.g. an infeasible package, or before the first answer).
        self._deadline_met = 0
        self._deadline_missed = 0
        self._deadline_rejected = 0
        self._deadline_expired = 0
        self._last_gap: float | None = None
        #: Bounded store of recent traces behind ``GET /trace/<id>``
        #: (None when tracing is disabled — the whole trace path is then
        #: a no-op check per request).
        self.trace_ring: TraceRing | None = (
            TraceRing(self.config.trace_ring_size)
            if self.config.trace_enabled
            else None
        )
        self._slow_log: SlowQueryLog | None = (
            SlowQueryLog(
                self.config.slow_query_log,
                self.config.slow_query_threshold_s,
                max_bytes=self.config.slow_query_log_max_bytes,
            )
            if self.config.slow_query_log
            else None
        )
        #: Per-submission trace state, keyed by the evaluation future
        #: (dedup-attached callers share both future and trace).
        self._trace_state: dict[Future, dict] = {}
        #: Lifetime delta counter (mirrors repro_delta_applied_total).
        self._deltas_applied = 0
        self._slots = [
            threading.Thread(
                target=self._serve, args=(engine,), name=f"spq-broker-{i}",
                daemon=True,
            )
            for i, engine in enumerate(engines)
        ]
        for thread in self._slots:
            thread.start()

    # --- submission ---------------------------------------------------------

    def _dedup_key(self, query, method: str, overrides: dict) -> tuple | None:
        """Hashable identity of a request, or None when not dedupable.

        The catalog version is part of the identity: a query submitted
        after :meth:`apply_update` must never attach to a pre-delta
        in-flight evaluation — that would serve a stale answer under a
        fresh submission.
        """
        if not isinstance(query, str):
            return None  # compiled objects dedup by identity only
        try:
            key = (
                query.strip(),
                method,
                tuple(sorted(overrides.items())),
                self.catalog.version,
            )
            hash(key)  # unhashable override values -> not dedupable
            return key
        except TypeError:
            return None

    def submit(
        self,
        query: str,
        method: str = METHOD_SUMMARY_SEARCH,
        **overrides,
    ) -> Future:
        """Dispatch ``query`` onto the pool; returns a Future of
        :class:`~repro.core.package.PackageResult`.

        Raises :class:`BrokerSaturatedError` when ``max_pending`` queries
        are already queued or running, and :class:`SPQError` after
        :meth:`close`.  An identical in-flight request (same text,
        method, overrides) shares the running evaluation's future.

        A ``deadline_ms`` override is QoS admission: a non-positive
        budget is rejected immediately with
        :class:`~repro.service.qos.DeadlineExpiredError`, otherwise the
        budget is pinned at admission (queue time counts against it),
        orders the broker queue earliest-deadline-first, and the
        remainder at dispatch is forwarded to the evaluator's anytime
        path.
        """
        deadline = self._admit_deadline(overrides)
        key = self._dedup_key(query, method, overrides)
        with self._lock:
            if self._closed:
                raise BrokerClosedError("broker is closed")
            if key is not None:
                inflight = self._inflight.get(key)
                if inflight is not None:
                    self._deduplicated += 1
                    return inflight
            if self._pending >= self.max_pending:
                self._rejected += 1
                raise BrokerSaturatedError(
                    f"broker saturated: {self._pending} queries pending"
                    f" (max {self.max_pending})"
                )
            self._pending += 1
            self._submitted += 1
            state = self._open_trace_locked(query, method, overrides)
            trace = (
                (state["trace_id"], state["root_id"]) if state is not None else None
            )
            request = _Request(query, method, overrides, trace, deadline)
            future = request.future
            if state is not None:
                self._trace_state[future] = state
                future.trace_id = state["trace_id"]
            if key is not None:
                self._inflight[key] = future
            self._queue.push(request, deadline=deadline)
            self._wakeup.notify()
        # Attached outside the lock: a future that failed fast runs its
        # callbacks synchronously on this thread, and _retire needs the
        # (non-reentrant) lock.
        future.add_done_callback(lambda f, key=key: self._retire(key, f))
        return future

    def _admit_deadline(self, overrides: dict) -> TaskDeadline | None:
        """Validate ``deadline_ms`` and pin it to an absolute instant.

        Dead-on-arrival budgets (``<= 0``) are refused here, before a
        pool slot is taken — solving work that cannot possibly meet its
        SLO only steals capacity from work that still can.  A NaN or
        infinite budget is a malformed request, like a non-number.
        """
        deadline_ms = overrides.get("deadline_ms")
        if deadline_ms is None:
            return None
        if isinstance(deadline_ms, bool) or not isinstance(
            deadline_ms, (int, float)
        ):
            raise EvaluationError("deadline_ms must be a number or None")
        if not math.isfinite(deadline_ms):
            raise EvaluationError("deadline_ms must be finite")
        if float(deadline_ms) <= 0:
            with self._lock:
                self._deadline_rejected += 1
            raise DeadlineExpiredError(
                f"deadline_ms={deadline_ms} is already expired; the"
                " request was rejected at admission"
            )
        return TaskDeadline(float(deadline_ms))

    def _open_trace_locked(self, query, method: str, overrides: dict) -> dict | None:
        """Allocate ids + ring entry for one traced submission, or None.

        The check is deliberately cheap when observability is off — one
        attribute test per request, no allocations.
        """
        if self.trace_ring is None and self._slow_log is None:
            return None
        if not overrides.get("trace_enabled", True):
            return None
        snippet = (
            query[:_QUERY_SNIPPET_CHARS].strip()
            if isinstance(query, str)
            else type(query).__name__
        )
        state = {
            "trace_id": new_trace_id(),
            "root_id": new_span_id(),
            "start_epoch": time.time(),
            "t0": time.perf_counter(),
            "query": snippet,
            "method": method,
        }
        if self.trace_ring is not None:
            self.trace_ring.open(
                state["trace_id"],
                query=snippet,
                method=method,
            )
        return state

    def execute(
        self,
        query: str,
        method: str = METHOD_SUMMARY_SEARCH,
        **overrides,
    ):
        """Blocking :meth:`submit` — returns the PackageResult."""
        return self.submit(query, method=method, **overrides).result()

    # --- live data ----------------------------------------------------------

    def apply_update(self, table: str, delta) -> dict:
        """Apply a relation delta to ``table`` through the serving layer.

        ``delta`` is a :class:`~repro.db.delta.RelationDelta` or its
        JSON payload (the ``POST /update`` body).  The catalog applies
        it under its own mutation lock (catalog version bumps, the
        fingerprint lineage is extended) and stale scenario matrices are
        pruned from the shared store.  In-flight queries are not interrupted: they
        finish against their pre-delta snapshot and report the catalog
        version they solved under in ``result.meta``.

        Returns the JSON-ready summary from
        :meth:`~repro.db.catalog.Catalog.apply_delta`.
        """
        from ..db.delta import RelationDelta, lineage
        from ..scale.metrics import scale_metrics

        if not isinstance(delta, RelationDelta):
            delta = RelationDelta.from_payload(delta)
        with self._lock:
            if self._closed:
                raise BrokerClosedError("broker is closed")
        t0 = time.perf_counter()
        start_epoch = time.time()
        summary = self.catalog.apply_delta(table, delta)
        scale_metrics.record_delta_applied(summary["dirty_rows"])
        summary["store_entries_pruned"] = self.store.prune_fingerprints(
            lineage.superseded()
        )
        with self._lock:
            self._deltas_applied += 1
        self._trace_delta(summary, start_epoch, time.perf_counter() - t0)
        return summary

    def _trace_delta(self, summary: dict, start_epoch: float, wall: float) -> None:
        """Record one applied delta as a trace-ring entry and histogram."""
        stage_histograms.observe("delta", wall)
        if self.trace_ring is None:
            return
        trace_id = new_trace_id()
        self.trace_ring.open(
            trace_id,
            query=f"UPDATE {summary['table']}",
            method="delta",
        )
        self.trace_ring.finish(
            trace_id,
            {
                "trace_id": trace_id,
                "span_id": new_span_id(),
                "parent_id": None,
                "name": "delta",
                "start": start_epoch,
                "wall_s": wall,
                "cpu_s": 0.0,
                "attrs": {
                    "table": summary["table"],
                    "catalog_version": summary["catalog_version"],
                    "dirty_rows": summary["dirty_rows"],
                },
            },
        )

    def _serve(self, engine: SPQEngine) -> None:
        """One pool slot: pop the earliest deadline, evaluate, settle.

        Runs :func:`run_request` on this slot's ``engine``.  Futures
        settle outside the lock: their done-callbacks (:meth:`_retire`)
        take it.
        """
        while True:
            with self._lock:
                while not self._queue and not self._closed:
                    self._wakeup.wait()
                if not self._queue:
                    return  # closed and drained
                request = self._queue.pop()
            future = request.future
            if not (future.running() or future.set_running_or_notify_cancel()):
                continue  # cancelled while queued
            overrides = request.overrides
            if request.deadline is not None:
                # Queue time counts against the budget: a request whose
                # budget drained while queued fails here, at dispatch,
                # and only the remainder reaches the anytime path.
                if request.deadline.expired():
                    future.set_exception(
                        DeadlineExpiredError(
                            f"deadline ({request.deadline.deadline_ms:.0f}ms)"
                            " expired while the request was queued"
                        )
                    )
                    continue
                overrides = {
                    **overrides,
                    "deadline_ms": max(request.deadline.remaining_ms(), 1.0),
                }
            ok, value, spans = run_request(
                engine, request.query, request.method, overrides, request.trace
            )
            if spans is not None and self.trace_ring is not None:
                # Ingested before the future settles, so a caller woken
                # by it always finds the evaluation's spans in the ring.
                try:
                    self.trace_ring.add(*spans)
                except Exception:  # observability must never fail a query
                    pass
            if ok:
                future.set_result(value)
            else:
                future.set_exception(value)

    def _retire(self, key: tuple | None, future: Future) -> None:
        with self._lock:
            self._pending -= 1
            if future.cancelled() or future.exception() is not None:
                self._failed += 1
                if not future.cancelled() and isinstance(
                    future.exception(), DeadlineExpiredError
                ):
                    self._deadline_expired += 1
            else:
                self._completed += 1
                anytime = getattr(future.result(), "anytime", None)
                if anytime is not None:
                    if anytime.deadline_met:
                        self._deadline_met += 1
                    else:
                        self._deadline_missed += 1
                gap = getattr(anytime, "gap", None)
                self._last_gap = None if gap is None else float(gap)
            if key is not None and self._inflight.get(key) is future:
                del self._inflight[key]
            state = self._trace_state.pop(future, None)
        if state is not None:
            try:
                self._finish_trace(state, future)
            except Exception:  # observability must never fail a query
                pass

    def _finish_trace(self, state: dict, future: Future) -> None:
        """Close one trace: root span, histogram, ring, slow-query log."""
        wall = time.perf_counter() - state["t0"]
        if future.cancelled():
            error = "cancelled"
        else:
            exception = future.exception()
            error = type(exception).__name__ if exception is not None else None
        attrs = {"method": state["method"]}
        if error is not None:
            attrs["error"] = error
        else:
            anytime = getattr(future.result(), "anytime", None)
            if anytime is not None and not anytime.deadline_met:
                attrs["deadline_missed"] = True
            if anytime is not None and anytime.resources:
                # The per-query resource envelope rides the root span so
                # GET /trace/<id> shows cost next to latency.
                attrs["resources"] = anytime.resources
        root_span = {
            "trace_id": state["trace_id"],
            "span_id": state["root_id"],
            "parent_id": None,
            "name": "query",
            "start": state["start_epoch"],
            "wall_s": wall,
            # Admission-to-retire time is not attributable to one
            # thread's CPU — the evaluation ran elsewhere.
            "cpu_s": 0.0,
            "attrs": attrs,
        }
        stage_histograms.observe("query", wall)
        if self.trace_ring is not None:
            self.trace_ring.finish(state["trace_id"], root_span)
        if self._slow_log is not None:
            entry = {
                "trace_id": state["trace_id"],
                "query": state["query"],
                "method": state["method"],
                "error": error,
                "stages": self._stage_breakdown(state["trace_id"]),
            }
            self._slow_log.record(wall, entry)

    def _stage_breakdown(self, trace_id: str) -> dict:
        """Per-stage wall seconds summed from one ring entry's spans."""
        if self.trace_ring is None:
            return {}
        entry = self.trace_ring.get(trace_id)
        if entry is None:
            return {}
        stages: dict[str, float] = {}
        for span in entry["spans"]:
            name = span.get("name", "?")
            stages[name] = stages.get(name, 0.0) + float(span.get("wall_s", 0.0))
        return {name: round(value, 6) for name, value in stages.items()}

    # --- introspection ------------------------------------------------------

    def metrics(self) -> dict:
        """Telemetry snapshot as actually served (``collect`` shape):
        this process's registries and the broker's store."""
        return collect(self.store)

    def status(self, snapshot: dict | None = None) -> dict:
        """Point-in-time serving state (the ``/status`` payload).

        The ``store`` / ``scale`` / ``resources`` sections come from
        ``snapshot`` (default: a fresh :meth:`metrics`).
        """
        with self._lock:
            state = {
                "pool_size": self.pool_size,
                "max_pending": self.max_pending,
                "pending": self._pending,
                "inflight_keys": len(self._inflight),
                "submitted": self._submitted,
                "completed": self._completed,
                "failed": self._failed,
                "deduplicated": self._deduplicated,
                "rejected": self._rejected,
                "deltas_applied": self._deltas_applied,
                "catalog_version": self.catalog.version,
                # Saturation events, under the name monitoring dashboards
                # expect (mirrors repro_broker_rejected_total on /metrics).
                "rejected_total": self._rejected,
                "uptime_s": time.time() - self.started_at,
                "closed": self._closed,
                # Per-query QoS verdicts (docs/qos.md): met/missed count
                # finished queries by deadline outcome, rejected counts
                # dead-on-arrival admissions, expired_queued counts
                # budgets that drained in the queue.
                "deadline": {
                    "met": self._deadline_met,
                    "missed": self._deadline_missed,
                    "rejected": self._deadline_rejected,
                    "expired_queued": self._deadline_expired,
                    "last_gap": self._last_gap,
                },
            }
        state.update(
            status_sections(snapshot if snapshot is not None else self.metrics())
        )
        return state

    # --- teardown -----------------------------------------------------------

    def close(self, wait: bool = True) -> None:
        """Stop accepting queries; drain the pool; close an owned store.

        Idempotent.  A store supplied by the caller is left open.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._wakeup.notify_all()
        if wait:
            for thread in self._slots:
                thread.join()
        if self._owns_store:
            self.store.close()

    def __enter__(self) -> "QueryBroker":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
