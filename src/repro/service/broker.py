"""Concurrent package-query broker over a pool of engine sessions.

:class:`QueryBroker` is the serving layer's middle tier: it owns a
dispatch backend for concurrent ``execute()`` calls over one catalog —
a pool of :class:`~repro.core.engine.SPQEngine` sessions sharing a
:class:`~repro.service.store.ScenarioStore` (thread backend), or a
:class:`~repro.service.farm.SolveFarm` of worker processes with
private stores (process backend, where ``broker.store`` is ``None``
unless the caller supplied one).  Three properties make it a serving
layer rather than a loop around the engine:

* **Shared realizations** — scenario generation routes through a store
  (the broker's shared one, or each farm worker's private one fed by
  memmap handoffs), so queries over the same tables and stochastic
  attributes reuse realized matrices (each engine's own evaluation may
  further fan generation across the ``repro.parallel`` executor via
  ``config.n_workers``).
* **Admission control** — at most ``pool_size`` queries run at once and
  at most ``max_pending`` are queued or running; beyond that,
  :class:`BrokerSaturatedError` is raised immediately (the HTTP layer
  maps it to 503) instead of building an unbounded backlog.
* **In-flight deduplication** — a query identical to one currently
  running (same text, method, and overrides) attaches to the running
  evaluation's future instead of being dispatched again.

Two dispatch backends (``config.service_backend`` / ``backend=``):

* ``"thread"`` — engine sessions on a :class:`ThreadPoolExecutor`.
  Zero-copy store sharing within the process, but concurrent MILP
  solves contend on the GIL.
* ``"process"`` — a :class:`~repro.service.farm.SolveFarm` of
  persistent worker processes, each hosting one warm engine; solves
  run truly in parallel, scenario matrices travel between workers as
  read-only memmap handoffs, and crashed workers are replaced with
  their in-flight request retried once.  Workers host *private* stores
  (no broker-side store exists); :meth:`QueryBroker.metrics` reports
  their farm-wide aggregate.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor

from ..config import BACKEND_PROCESS, BACKEND_THREAD, DEFAULT_CONFIG, SPQConfig
from ..core.engine import METHOD_SUMMARY_SEARCH, SPQEngine
from ..db.catalog import Catalog
from ..errors import EvaluationError, SPQError
from ..obs import (
    SlowQueryLog,
    TraceRing,
    TraceSession,
    activate,
    collect,
    merge,
    new_span_id,
    new_trace_id,
    stage_histograms,
    status_sections,
)
from .farm import SolveFarm
from .qos import DeadlineExpiredError, TaskDeadline
from .store import ScenarioStore

#: Query-text prefix kept in slow-query log entries and trace metadata.
_QUERY_SNIPPET_CHARS = 200


class BrokerSaturatedError(SPQError):
    """Raised when the broker's pending-query ceiling is reached."""


class QueryBroker:
    """Admission-controlled, deduplicating dispatcher for package queries."""

    def __init__(
        self,
        catalog: Catalog,
        config: SPQConfig | None = None,
        store: ScenarioStore | None = None,
        pool_size: int | None = None,
        max_pending: int | None = None,
        backend: str | None = None,
        recycle_after: int | None = None,
    ):
        self.catalog = catalog
        self.config = config if config is not None else DEFAULT_CONFIG
        self.pool_size = (
            pool_size if pool_size is not None else self.config.service_pool_size
        )
        if self.pool_size < 1:
            raise SPQError("pool_size must be >= 1")
        self.backend = (
            backend if backend is not None else self.config.service_backend
        )
        if self.backend not in (BACKEND_THREAD, BACKEND_PROCESS):
            raise SPQError(
                f"unknown service backend {self.backend!r}; expected"
                f" {BACKEND_THREAD!r} or {BACKEND_PROCESS!r}"
            )
        self.recycle_after = (
            recycle_after
            if recycle_after is not None
            else self.config.worker_recycle_after
        )
        self.max_pending = (
            max_pending
            if max_pending is not None
            else (self.config.service_max_pending or 4 * self.pool_size)
        )
        if self.max_pending < self.pool_size:
            self.max_pending = self.pool_size
        # The broker-side store only exists on the thread backend: farm
        # workers host private stores (aggregated via the farm), and a
        # parent-side store would sit unused, reporting permanently-zero
        # stats to operators.  A caller-supplied store is rejected there
        # rather than silently ignored — its budget/spill settings would
        # not be enforced (workers configure theirs from
        # ``scenario_store_budget`` / ``scenario_store_spill``).
        if store is not None and self.backend == BACKEND_PROCESS:
            raise SPQError(
                "the process backend does not take a shared store: farm"
                " workers host private scenario stores, configured via"
                " config.scenario_store_budget / scenario_store_spill"
            )
        self._owns_store = store is None and self.backend == BACKEND_THREAD
        if store is not None:
            self.store = store
        elif self.backend == BACKEND_THREAD:
            self.store = ScenarioStore(
                budget_bytes=self.config.scenario_store_budget,
                spill=self.config.scenario_store_spill,
            )
        else:
            self.store = None
        self._farm: SolveFarm | None = None
        self._pool: ThreadPoolExecutor | None = None
        self._sessions: "queue.SimpleQueue[SPQEngine]" = queue.SimpleQueue()
        if self.backend == BACKEND_PROCESS:
            self._farm = SolveFarm(
                catalog,
                self.config,
                n_workers=self.pool_size,
                recycle_after=self.recycle_after,
            )
        else:
            self._pool = ThreadPoolExecutor(
                max_workers=self.pool_size, thread_name_prefix="spq-broker"
            )
            # Engine sessions are checked out per evaluation, so one
            # session never serves two queries at once.
            for _ in range(self.pool_size):
                self._sessions.put(
                    SPQEngine(
                        catalog=catalog, config=self.config, store=self.store
                    )
                )
        self._lock = threading.Lock()
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
        # and the last observed optimality gap (0.0 = exact).
        self._deadline_met = 0
        self._deadline_missed = 0
        self._deadline_rejected = 0
        self._deadline_expired = 0
        self._last_gap = 0.0
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
        if self._farm is not None and self.trace_ring is not None:
            self._farm.span_sink = self.trace_ring.add

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
        orders the farm's pending queue earliest-deadline-first, and the
        remainder is forwarded to the evaluator's anytime path.
        """
        deadline = self._admit_deadline(overrides)
        key = self._dedup_key(query, method, overrides)
        with self._lock:
            if self._closed:
                raise SPQError("broker is closed")
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
                (state["trace_id"], state["root_id"], state["profile"])
                if state is not None
                else None
            )
            try:
                if self._farm is not None:
                    future = self._farm.submit(
                        query, method, overrides, trace, deadline
                    )
                else:
                    future = self._pool.submit(
                        self._run, query, method, overrides, trace, deadline
                    )
            except BaseException:
                # No future, no done-callback: give the admission slot
                # back or the broker saturates permanently.
                self._pending -= 1
                self._submitted -= 1
                if state is not None and self.trace_ring is not None:
                    self.trace_ring.discard(state["trace_id"])
                raise
            if state is not None:
                self._trace_state[future] = state
                future.trace_id = state["trace_id"]
            if key is not None:
                self._inflight[key] = future
        # Attached outside the lock: a future that failed fast runs its
        # callbacks synchronously on this thread, and _retire needs the
        # (non-reentrant) lock.
        future.add_done_callback(lambda f, key=key: self._retire(key, f))
        return future

    def _admit_deadline(self, overrides: dict) -> TaskDeadline | None:
        """Validate ``deadline_ms`` and pin it to an absolute instant.

        Dead-on-arrival budgets (``<= 0``) are refused here, before a
        pool slot is taken — solving work that cannot possibly meet its
        SLO only steals capacity from work that still can.
        """
        deadline_ms = overrides.get("deadline_ms")
        if deadline_ms is None:
            return None
        if isinstance(deadline_ms, bool) or not isinstance(
            deadline_ms, (int, float)
        ):
            raise EvaluationError("deadline_ms must be a number or None")
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
            "profile": bool(
                overrides.get("profile_stages", self.config.profile_stages)
            ),
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
                backend=self.backend,
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
        fingerprint lineage is extended), stale scenario matrices are
        pruned from the shared store (thread backend) or the delta is
        broadcast to farm workers, who adopt it before their next task
        (process backend).  In-flight queries are not interrupted: they
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
                raise SPQError("broker is closed")
        t0 = time.perf_counter()
        start_epoch = time.time()
        summary = self.catalog.apply_delta(table, delta)
        scale_metrics.record_delta_applied(summary["dirty_rows"])
        stale = lineage.superseded()
        if self.store is not None:
            summary["store_entries_pruned"] = self.store.prune_fingerprints(
                stale
            )
        if self._farm is not None:
            record = lineage.parent_record(summary["fingerprint"])
            self._farm.broadcast_delta(table, delta.to_payload(), record)
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
            backend=self.backend,
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

    def _run(self, query, method: str, overrides: dict, trace=None, deadline=None):
        if deadline is not None:
            # Same discipline as the farm's dispatch: queue time counts
            # against the budget, and only the remainder reaches the
            # evaluator's anytime path.
            if deadline.expired():
                raise DeadlineExpiredError(
                    f"deadline ({deadline.deadline_ms:.0f}ms) expired"
                    " while the request was queued"
                )
            overrides = dict(overrides)
            overrides["deadline_ms"] = max(deadline.remaining_ms(), 1.0)
        engine = self._sessions.get()
        # Pinned before the solve: a delta landing mid-evaluation must
        # not relabel a pre-delta answer as post-delta (the soak test's
        # staleness check relies on this being the compile-time version).
        version = self.catalog.version
        try:
            if trace is None:
                return self._stamp_version(
                    engine.execute(query, method=method, **overrides), version
                )
            # Pool threads do not inherit the submitter's contextvars:
            # the session is activated here, parented to the broker's
            # root span so ingested spans nest correctly.
            session = TraceSession(trace[0], profile=bool(trace[2]))
            try:
                with activate(session, parent_id=trace[1]):
                    return self._stamp_version(
                        engine.execute(query, method=method, **overrides),
                        version,
                    )
            finally:
                if self.trace_ring is not None:
                    # payload() mirrors TraceRing.add's signature: spans,
                    # dropped count, convergence events, and per-query
                    # resource charges land in one call.
                    self.trace_ring.add(*session.payload())
        finally:
            self._sessions.put(engine)

    @staticmethod
    def _stamp_version(result, version: int):
        """Attach the catalog version an evaluation ran under."""
        meta = getattr(result, "meta", None)
        if isinstance(meta, dict):
            meta.setdefault("catalog_version", version)
        return result

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
                    if anytime.gap is not None:
                        self._last_gap = float(anytime.gap)
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
        attrs = {"method": state["method"], "backend": self.backend}
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
                "backend": self.backend,
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
        """Telemetry snapshot as actually served (``collect`` shape).

        This process's registries and store, plus — on the process
        backend — the farm's aggregate over its workers.  Broker-side
        work (root spans, applied deltas) is counted locally and solve
        work in the workers, so the sum never double-counts.
        """
        local = collect(self.store)
        if self._farm is None:
            return local
        return merge(local, self._farm.metrics())

    def status(self, snapshot: dict | None = None) -> dict:
        """Point-in-time serving state (the ``/status`` payload).

        The ``store`` / ``scale`` / ``resources`` sections come from
        ``snapshot`` (default: a fresh :meth:`metrics`).
        """
        with self._lock:
            state = {
                "backend": self.backend,
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
        if self._farm is not None:
            state["farm"] = self._farm.status()
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
        if self._farm is not None:
            self._farm.close(wait=wait)
        if self._pool is not None:
            self._pool.shutdown(wait=wait)
        if self._owns_store:
            self.store.close()

    def __enter__(self) -> "QueryBroker":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
