"""Process-based solve farm: persistent workers hosting warm engines.

The broker's thread backend serializes concurrent MILP solves on the
GIL — one core does all the work no matter how wide the pool is.
:class:`SolveFarm` replaces the substrate with a pool of persistent
**worker processes**, each hosting one warm :class:`~repro.core.engine.SPQEngine`
session (catalog registered, compile cache hot, private scenario store),
fed over per-worker task queues by a manager thread:

* **Zero-copy scenario sharing** — after every task a worker calls its
  store's :meth:`~repro.service.store.ScenarioStore.handoff`, shipping
  back content-key → memmap-path descriptors instead of matrices.  The
  farm merges them into a registry and forwards it with each dispatch;
  workers :meth:`~repro.service.store.ScenarioStore.adopt` unknown keys
  by opening the files *read-only* (pages shared via the OS cache) and
  verifying the content hash, so a matrix realized by one worker is
  never regenerated by another.
* **Graceful recycling** — after ``recycle_after`` completed tasks a
  worker is asked to exit and a fresh one is forked in its place,
  bounding per-process memory growth without dropping requests.
* **Crash recovery** — a worker that dies mid-solve (OOM-kill,
  ``kill -9``, segfaulting native code) has its in-flight request
  requeued **once** onto another worker; a second death surfaces
  :class:`WorkerCrashError` (an :class:`~repro.errors.EvaluationError`,
  i.e. exit-code-3 / HTTP 409 semantics) while the farm itself stays up
  behind a replacement worker.

Admission control and in-flight dedup stay in
:class:`~repro.service.broker.QueryBroker`, which selects this backend
via ``config.service_backend = "process"``.
"""

from __future__ import annotations

import os
import pickle
import queue
import shutil
import tempfile
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future

from ..config import SPQConfig
from ..errors import EvaluationError, SPQError
from ..obs import TraceSession, activate, collect, diff, merge, stage
from ..parallel.executor import farm_context
from .qos import DeadlineExpiredError, EDFQueue

#: Worker states surfaced on /status and /metrics.
STATE_STARTING = "starting"
STATE_IDLE = "idle"
STATE_BUSY = "busy"
STATE_STOPPING = "stopping"

#: Manager heartbeat: result-queue poll timeout (also bounds how stale
#: liveness checks can be).
_POLL_S = 0.05
#: How long a stopping worker may take to exit before being terminated.
_STOP_GRACE_S = 10.0
#: Ceiling on the handoff registry (distinct content keys).  Beyond it,
#: least-recently-exported descriptors are dropped and their files
#: unlinked, bounding the shared spill directory on long-running farms;
#: a worker still holding a pruned matrix mapped keeps it alive (POSIX
#: unlink semantics), later requests simply regenerate.
_MAX_HANDOFF_KEYS = 512

class WorkerCrashError(EvaluationError):
    """A request's worker died mid-solve twice (original + one retry).

    Subclasses :class:`EvaluationError` so the CLI maps it to exit code
    3 and the HTTP layer to status 409 — a crash must never read as
    "query infeasible".
    """


def _adopt_deltas(catalog, store, deltas) -> None:
    """Apply broadcast relation deltas inside a worker process.

    ``deltas`` is an ordered list of ``(table, payload, record)``
    entries the worker has not yet seen.  Two cases per entry:

    * **ColumnStore-backed tables** share column files with the broker
      process, which already rewrote them when it applied the delta.
      Re-applying here would mutate the files a second time, so the
      worker only :meth:`~repro.scale.columnar.ColumnStore.refresh`\\ es
      its handle, rebinds the stochastic model, re-registers (bumping
      its catalog version in lockstep with the broker's), and installs
      the shipped :class:`~repro.db.delta.LineageRecord` verbatim.
    * **In-memory tables** are private per process; the worker re-applies
      the payload through :meth:`~repro.db.catalog.Catalog.apply_delta`,
      which recomputes the same content fingerprints and lineage link
      (fingerprints are content-addressed, so the chains agree).

    Stale scenario matrices are pruned afterwards so a pre-delta
    descriptor adopted earlier can never serve a post-delta query.
    """
    from ..db.delta import RelationDelta, lineage

    for table, payload, record in deltas:
        relation = catalog.relation(table)
        if hasattr(relation, "refresh"):
            relation.refresh()
            model = catalog.model(table)
            if model is not None:
                from ..mcdb.stochastic import StochasticModel

                model = StochasticModel(
                    relation,
                    {
                        attr: model.vg(attr).unbound_copy()
                        for attr in model.attribute_names
                    },
                )
            catalog.register(relation, model, name=table)
            if record is not None:
                lineage.record(record)
        else:
            catalog.apply_delta(table, RelationDelta.from_payload(payload))
    store.prune_fingerprints(lineage.superseded())


def _worker_main(worker_id: int, inbox, results, catalog, config, spill_dir):
    """Worker process body: one warm engine, tasks until ``stop``.

    The private store spills into the farm's shared directory so every
    matrix it realizes is exportable to siblings; the store never owns
    that directory (the farm removes it on shutdown).
    """
    from ..core.engine import SPQEngine
    from .store import ScenarioStore

    store = ScenarioStore(
        budget_bytes=config.scenario_store_budget,
        spill=config.scenario_store_spill,
        spill_dir=spill_dir,
    )
    engine = SPQEngine(catalog=catalog, config=config, store=store)
    results.put(("ready", worker_id, os.getpid()))
    last_sent: dict = {}
    while True:
        message = inbox.get()
        if message[0] == "stop":
            break
        _, task_id, query, method, overrides, descriptors, deltas, trace = message
        if deltas:
            # Deltas land before descriptor adoption: the adoption-time
            # staleness filter needs the extended lineage to reject
            # pre-delta matrices shipped in the same dispatch.
            _adopt_deltas(catalog, store, deltas)
        if descriptors:
            store.adopt(descriptors)
        version = catalog.version
        # Trace context crosses the forkserver boundary in the task
        # payload: ``trace`` is ``(trace_id, parent_span_id, profile)``
        # or None.  The session is per task — nothing trace-related
        # outlives the request, so worker recycling cannot leak spans.
        session = (
            TraceSession(trace[0], profile=bool(trace[2]))
            if trace is not None
            else None
        )
        try:
            if session is not None:
                with activate(session, parent_id=trace[1]), stage(
                    "worker", worker=worker_id, pid=os.getpid()
                ):
                    ok, payload = True, engine.execute(
                        query, method=method, **overrides
                    )
            else:
                ok, payload = True, engine.execute(
                    query, method=method, **overrides
                )
        except BaseException as error:  # noqa: BLE001 - shipped to the parent
            ok, payload = False, error
        if ok:
            meta = getattr(payload, "meta", None)
            if isinstance(meta, dict):
                # The catalog version this evaluation compiled against
                # (pinned before the solve — a delta adopted for a later
                # task must not relabel this answer).
                meta.setdefault("catalog_version", version)
        exported = store.handoff()
        # The payload is pickled *here*, synchronously: mp.Queue pickles
        # in a background feeder thread, where an unpicklable result
        # would be dropped silently and the request would hang forever.
        try:
            blob = pickle.dumps((ok, payload), protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as error:  # unpicklable payload: fail the task, live on
            blob = pickle.dumps(
                (
                    False,
                    EvaluationError(
                        f"result could not cross the process boundary:"
                        f" {type(error).__name__}: {error}"
                    ),
                )
            )
        # One stats blob: the increment since the previous done message,
        # so the farm's totals never depend on this process outliving it.
        now = collect(store)
        results.put(
            (
                "done",
                task_id,
                worker_id,
                blob,
                exported,
                diff(now, last_sent),
                # This task's spans, events and resource charges —
                # ``TraceSession.payload()`` mirrors ``TraceRing.add``'s
                # signature, so the broker ingests the tuple verbatim.
                session.payload() if session is not None else None,
            )
        )
        last_sent = now
    store.close()


class _Task:
    """One submitted request and its caller-visible future."""

    __slots__ = (
        "id", "query", "method", "overrides", "future", "retries", "trace",
        "deadline",
    )

    def __init__(
        self, task_id: int, query, method: str, overrides: dict, trace=None,
        deadline=None,
    ):
        self.id = task_id
        self.query = query
        self.method = method
        self.overrides = overrides
        self.future: Future = Future()
        self.retries = 0
        #: ``(trace_id, parent_span_id, profile)`` shipped with every
        #: dispatch (crash retries carry the same context), or None.
        self.trace = trace
        #: :class:`~repro.service.qos.TaskDeadline` pinned at admission
        #: (or None): orders the pending queue (EDF) and is re-checked at
        #: dispatch so queue time counts against the budget.
        self.deadline = deadline


class _Worker:
    """Parent-side handle on one worker process."""

    __slots__ = (
        "id", "process", "inbox", "state", "task", "tasks_done", "known",
        "gauges", "deltas_seen",
    )

    def __init__(self, worker_id: int, process, inbox):
        self.id = worker_id
        self.process = process
        self.inbox = inbox
        self.state = STATE_STARTING
        self.task: _Task | None = None
        self.tasks_done = 0
        #: Descriptor paths this worker has already been sent (or sent
        #: us), keyed by content key — dispatches ship only the delta.
        self.known: dict[tuple, str] = {}
        #: The gauges of the worker's latest done message (levels, so
        #: they leave the farm's view with the worker).
        self.gauges: dict = {}
        #: Prefix of the farm's delta log this worker has adopted (or
        #: was spawned with, via the pickled catalog); dispatches ship
        #: only the unseen suffix.
        self.deltas_seen = 0


class SolveFarm:
    """A pool of persistent solver processes behind a task queue."""

    def __init__(
        self,
        catalog,
        config: SPQConfig,
        n_workers: int,
        recycle_after: int | None = None,
        spill_dir: str | None = None,
    ):
        if n_workers < 1:
            raise SPQError("n_workers must be >= 1")
        if recycle_after is not None and recycle_after < 1:
            raise SPQError("recycle_after must be >= 1 or None")
        self.catalog = catalog
        self.config = config
        self.n_workers = n_workers
        self.recycle_after = recycle_after
        self._ctx = farm_context()
        self._results = self._ctx.Queue()
        self._spill_dir = spill_dir or tempfile.mkdtemp(prefix="spq-farm-")
        self._owns_spill_dir = spill_dir is None
        self._lock = threading.Lock()
        # Earliest-deadline-first over queued work; deadline-less tasks
        # keep FIFO order behind every deadlined one.
        self._pending = EDFQueue()
        self._tasks: dict[int, _Task] = {}  # in-flight (queued or assigned)
        self._workers: dict[int, _Worker] = {}
        self._descriptors: "OrderedDict[tuple, dict]" = OrderedDict()
        #: Ordered ``(table, payload, LineageRecord)`` entries from
        #: :meth:`broadcast_delta`; each dispatch ships a worker the
        #: suffix it has not yet adopted.
        self._delta_log: list[tuple] = []
        self._next_task_id = 0
        self._next_worker_id = 0
        self._closed = False
        self._recycled = 0
        self._crashed = 0
        self._retried = 0
        #: Running sum of the counters and histograms of every done
        #: message ever received (see :meth:`metrics`).
        self._totals: dict = {}
        #: Optional callable matching :meth:`TraceSession.payload`'s
        #: tuple — ``(trace_id, spans, dropped, events, events_dropped,
        #: resources)`` — invoked for every done message carrying spans;
        #: the broker points this at its trace ring's ``add``.  Called
        #: under the farm lock, *before* the
        #: task's future settles, so a caller woken by the future always
        #: observes its worker-side spans already ingested.
        self.span_sink = None
        #: Consecutive crashes with no intervening ready/done message;
        #: past the limit the farm stops forking replacements (a worker
        #: that dies on every request must not become a fork storm).
        self._crash_streak = 0
        self._broken = False
        with self._lock:
            for _ in range(n_workers):
                self._spawn_worker_locked()
        self._manager = threading.Thread(
            target=self._manage, name="spq-farm-manager", daemon=True
        )
        self._manager.start()

    # --- submission ---------------------------------------------------------

    def submit(
        self, query, method: str, overrides: dict, trace=None, deadline=None
    ) -> Future:
        """Queue one request; its future resolves from a worker process.

        ``deadline`` (a :class:`~repro.service.qos.TaskDeadline`, or
        None) ranks the task in the EDF queue; a task whose deadline
        passes while queued is failed with
        :class:`~repro.service.qos.DeadlineExpiredError` at dispatch
        time instead of occupying a worker.

        Dispatch happens on the manager thread (woken by a sentinel on
        the result queue), never inline: callers — the broker holds its
        own lock while calling this — must not end up running code that
        could resolve *other* tasks' futures and fire their callbacks.
        """
        with self._lock:
            if self._closed:
                raise SPQError("solve farm is closed")
            if self._broken:
                raise SPQError(
                    "solve farm disabled after repeated worker crashes"
                )
            self._next_task_id += 1
            task = _Task(
                self._next_task_id, query, method, overrides, trace, deadline
            )
            self._tasks[task.id] = task
            self._pending.push(task, deadline=task.deadline)
        self._kick()
        return task.future

    def broadcast_delta(self, table: str, payload: dict, record) -> None:
        """Queue one applied relation delta for adoption by every worker.

        Called by the broker *after* it applied the delta to the shared
        catalog.  Workers adopt pending entries at their next dispatch
        (piggybacked on the task message, like scenario descriptors), so
        a query submitted after this call can only run post-delta.
        ``record`` is the broker-side
        :class:`~repro.db.delta.LineageRecord` — workers holding
        ColumnStore tables install it verbatim instead of re-applying
        the payload against the shared column files.
        """
        with self._lock:
            if self._closed:
                raise SPQError("solve farm is closed")
            self._delta_log.append((table, payload, record))

    def _kick(self) -> None:
        """Wake the manager thread blocking on the result queue."""
        try:
            self._results.put(("wake",))
        except (ValueError, OSError, AssertionError):  # closed queue
            pass

    # --- manager loop ---------------------------------------------------------

    def _manage(self) -> None:
        """Drain results, reap dead/retired workers, assign queued tasks.

        Futures are *never* resolved while holding ``_lock``: resolving
        runs done-callbacks synchronously, and the broker's callback
        takes the broker lock — which other threads hold while calling
        :meth:`submit` (which needs ``_lock``).  Settling under the lock
        would close that ABBA cycle and wedge the service, so every
        locked section collects ``(future, ok, payload)`` settlements
        and applies them after release.
        """
        while True:
            try:
                message = self._results.get(timeout=_POLL_S)
            except queue.Empty:
                message = None
            except (EOFError, OSError):  # queue closed during shutdown
                return
            settle: list[tuple] = []
            with self._lock:
                if message is not None:
                    self._handle_message_locked(message, settle)
                self._reap_locked(settle)
                self._assign_locked(settle)
                finished = self._closed and not self._tasks
            self._settle(settle)
            if finished:
                return

    @staticmethod
    def _settle(settlements: list[tuple]) -> None:
        """Resolve collected futures outside the farm lock."""
        for future, ok, payload in settlements:
            if not future.set_running_or_notify_cancel():
                continue  # cancelled by the caller
            if ok:
                future.set_result(payload)
            else:
                future.set_exception(payload)

    def _handle_message_locked(self, message, settle: list) -> None:
        kind = message[0]
        if kind == "wake":  # submit()/close() nudging the manager
            return
        if kind == "ready":
            self._crash_streak = 0
            worker = self._workers.get(message[1])
            if worker is not None and worker.state == STATE_STARTING:
                worker.state = STATE_IDLE
            return
        _, task_id, worker_id, blob, exported, stats, trace_spans = message
        self._crash_streak = 0
        # Increments count whether or not the sender is still alive: a
        # worker reaped before its last message drained loses nothing.
        self._totals = merge(
            self._totals,
            {"counters": stats["counters"], "histograms": stats["histograms"]},
        )
        worker = self._workers.get(worker_id)
        if worker is not None:
            worker.gauges = stats["gauges"]
        if exported:
            self._merge_descriptors_locked(exported, worker)
        if trace_spans is not None and self.span_sink is not None:
            # Deliver worker-side spans before the future settles (the
            # settle list is applied only after this lock is released).
            try:
                self.span_sink(*trace_spans)
            except Exception:  # observability must never fail a task
                pass
        task = self._tasks.pop(task_id, None)
        if task is not None and task.retries:
            # A crash-requeued task can complete from the dead worker's
            # flushed result while still sitting in the pending queue;
            # drop it there or it gets dispatched again after settling.
            try:
                self._pending.remove(task)
            except ValueError:
                pass
        # Clear the worker by task *id*, not object identity: after a
        # crash-requeue, the dead worker's flushed result settles the
        # task first, and the retry worker's own completion must still
        # return it to the idle pool.
        if (
            worker is not None
            and worker.task is not None
            and worker.task.id == task_id
        ):
            worker.task = None
            worker.tasks_done += 1
            if worker.state == STATE_BUSY:
                worker.state = STATE_IDLE
            if (
                self.recycle_after is not None
                and worker.tasks_done >= self.recycle_after
                and worker.state == STATE_IDLE
            ):
                self._retire_worker_locked(worker)
                self._recycled += 1
                if not self._closed:
                    self._spawn_worker_locked()
        if task is None or task.future.done():
            # Already failed by crash handling (e.g. the worker was
            # reaped between sending this result and being polled).
            return
        try:
            ok, payload = pickle.loads(blob)
        except Exception as error:  # pragma: no cover - defensive
            ok, payload = False, EvaluationError(
                f"result could not be decoded: {type(error).__name__}: {error}"
            )
        settle.append((task.future, ok, payload))

    def _merge_descriptors_locked(self, exported: dict, worker) -> None:
        """Fold one worker's handoff into the registry, bounded.

        A re-export of a grown matrix replaces its descriptor — the
        superseded file is unlinked immediately.  Beyond
        ``_MAX_HANDOFF_KEYS`` the least-recently-exported descriptors
        are pruned (and their files unlinked) so a long-running farm's
        shared spill directory cannot grow without bound; pruned keys
        are dropped from every worker's ``known`` map too, keeping those
        maps bounded by the registry size on long-running farms.
        """
        for key, descriptor in exported.items():
            old = self._descriptors.pop(key, None)
            if old is not None and old["path"] != descriptor["path"]:
                self._unlink_quietly(old["path"])
            self._descriptors[key] = descriptor
            if worker is not None:
                worker.known[key] = descriptor["path"]
        while len(self._descriptors) > _MAX_HANDOFF_KEYS:
            key, pruned = self._descriptors.popitem(last=False)
            self._unlink_quietly(pruned["path"])
            for peer in self._workers.values():
                peer.known.pop(key, None)

    @staticmethod
    def _unlink_quietly(path: str) -> None:
        try:
            os.unlink(path)
        except OSError:
            pass

    def _fail_task_locked(self, task: _Task, error: Exception, settle: list) -> None:
        self._tasks.pop(task.id, None)
        if not task.future.done():
            settle.append((task.future, False, error))

    def _reap_locked(self, settle: list) -> None:
        """Detect dead workers; requeue or fail their in-flight tasks."""
        for worker in list(self._workers.values()):
            if worker.process.is_alive():
                continue
            del self._workers[worker.id]
            if worker.state == STATE_STOPPING:
                continue  # graceful exit (recycle/shutdown), nothing lost
            self._crashed += 1
            self._crash_streak += 1
            if self._crash_streak > max(8, 4 * self.n_workers):
                self._broken = True
            task = worker.task
            if task is not None and self._tasks.get(task.id) is task:
                crash = WorkerCrashError(
                    f"worker process died evaluating this request"
                    f" (task {task.id}); last worker exit code"
                    f" {worker.process.exitcode}"
                )
                if task.retries < 1 and not self._closed and not self._broken:
                    task.retries += 1
                    self._retried += 1
                    # Front retry: the victim keeps its own deadline rank
                    # and only jumps ahead of *equal* urgency — a
                    # deadline-less retry goes to the head of the FIFO
                    # tail, never in front of a tighter deadline
                    # (tests/service/test_qos.py pins this).
                    self._pending.push(
                        task, deadline=task.deadline, front=True
                    )
                else:
                    self._fail_task_locked(task, crash, settle)
            if not self._closed and not self._broken:
                self._spawn_worker_locked()
        if self._broken:
            for task in list(self._tasks.values()):
                self._fail_task_locked(
                    task,
                    WorkerCrashError(
                        "solve farm disabled after repeated worker crashes"
                    ),
                    settle,
                )
            self._pending.clear()

    def _assign_locked(self, settle: list) -> None:
        for worker in self._workers.values():
            if not self._pending:
                return
            if worker.state != STATE_IDLE:
                continue
            task = self._pending.pop()
            if task.future.done():
                self._tasks.pop(task.id, None)
                continue
            if task.deadline is not None and task.deadline.expired():
                # Dead on arrival at a worker: the budget drained while
                # the task sat in the queue.  Failing here (not at
                # admission) keeps the check race-free under EDF — the
                # queue position can change until the moment of dispatch.
                self._fail_task_locked(
                    task,
                    DeadlineExpiredError(
                        f"deadline ({task.deadline.deadline_ms:.0f}ms)"
                        " expired while the request was queued"
                    ),
                    settle,
                )
                continue
            overrides = task.overrides
            if task.deadline is not None:
                # Forward only the *remaining* budget: queue time already
                # consumed part of it, and the evaluator's anytime path
                # enforces what is left.
                overrides = dict(overrides)
                overrides["deadline_ms"] = max(
                    task.deadline.remaining_ms(), 1.0
                )
            # Ship only descriptors this worker has not seen: the
            # registry grows with every distinct matrix ever realized,
            # and re-pickling all of it per dispatch would put an O(keys)
            # cost inside the farm (and broker) locks.
            delta = {
                key: descriptor
                for key, descriptor in self._descriptors.items()
                if worker.known.get(key) != descriptor["path"]
            }
            # Relation deltas piggyback the same way: only the log
            # suffix this worker has not adopted crosses the boundary.
            pending_deltas = self._delta_log[worker.deltas_seen:]
            try:
                worker.inbox.put(
                    (
                        "task",
                        task.id,
                        task.query,
                        task.method,
                        overrides,
                        delta,
                        pending_deltas,
                        task.trace,
                    )
                )
            except Exception as error:  # unpicklable query/overrides
                self._fail_task_locked(
                    task,
                    SPQError(
                        f"request could not cross the process boundary:"
                        f" {type(error).__name__}: {error}"
                    ),
                    settle,
                )
                continue
            worker.known.update(
                (key, descriptor["path"]) for key, descriptor in delta.items()
            )
            worker.deltas_seen = len(self._delta_log)
            worker.task = task
            worker.state = STATE_BUSY

    # --- worker lifecycle -----------------------------------------------------

    def _spawn_worker_locked(self) -> _Worker:
        self._next_worker_id += 1
        inbox = self._ctx.SimpleQueue()
        process = self._ctx.Process(
            target=_worker_main,
            args=(
                self._next_worker_id,
                inbox,
                self._results,
                self.catalog,
                self.config,
                self._spill_dir,
            ),
            name=f"spq-farm-worker-{self._next_worker_id}",
            daemon=True,
        )
        process.start()
        worker = _Worker(self._next_worker_id, process, inbox)
        # The catalog pickled into the new worker already reflects every
        # applied delta; replaying the log would double-apply.
        worker.deltas_seen = len(self._delta_log)
        self._workers[worker.id] = worker
        return worker

    def _retire_worker_locked(self, worker: _Worker) -> None:
        worker.state = STATE_STOPPING
        try:
            worker.inbox.put(("stop",))
        except Exception:  # pragma: no cover - dying worker; reap handles it
            pass

    # --- introspection ------------------------------------------------------

    def metrics(self) -> dict:
        """Telemetry snapshot (:func:`repro.obs.metrics.collect` shape)
        aggregated across worker processes.

        Counters and histograms are the running total of every done
        message, so they are lifetime-monotonic across recycling and
        crashes; gauges are summed over live workers only.
        """
        with self._lock:
            return merge(
                self._totals,
                *({"gauges": w.gauges} for w in self._workers.values()),
            )

    def status(self) -> dict:
        """Worker table + lifetime counters (feeds /status and /metrics)."""
        with self._lock:
            workers = [
                {
                    "id": worker.id,
                    "pid": worker.process.pid,
                    "state": worker.state,
                    "tasks_completed": worker.tasks_done,
                }
                for worker in self._workers.values()
            ]
            return {
                "backend": "process",
                "n_workers": self.n_workers,
                "workers": workers,
                "busy": sum(1 for w in workers if w["state"] == STATE_BUSY),
                "idle": sum(1 for w in workers if w["state"] == STATE_IDLE),
                "recycled_total": self._recycled,
                "crashed_total": self._crashed,
                "retried_total": self._retried,
                "queued": len(self._pending),
                "handoff_entries": len(self._descriptors),
            }

    # --- teardown -----------------------------------------------------------

    def close(self, wait: bool = True, timeout: float = 120.0) -> None:
        """Stop accepting work, drain (optionally), stop workers.  Idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            outstanding = [task.future for task in self._tasks.values()]
        if wait:
            deadline = time.monotonic() + timeout
            for future in outstanding:
                remaining = max(0.0, deadline - time.monotonic())
                try:
                    future.exception(timeout=remaining)
                except BaseException:  # timeout or cancelled: fail it below
                    pass
        settle: list[tuple] = []
        with self._lock:
            for task in list(self._tasks.values()):
                if not task.future.done():
                    settle.append(
                        (task.future, False, SPQError("solve farm is closed"))
                    )
            self._tasks.clear()
            self._pending.clear()
            workers = list(self._workers.values())
            for worker in workers:
                self._retire_worker_locked(worker)
        self._settle(settle)
        self._kick()  # the manager exits as soon as it sees no tasks
        self._manager.join(timeout=_STOP_GRACE_S)
        for worker in workers:
            worker.process.join(timeout=_STOP_GRACE_S)
            if worker.process.is_alive():  # pragma: no cover - wedged worker
                worker.process.terminate()
                worker.process.join(timeout=5.0)
        self._results.close()
        if self._owns_spill_dir:
            shutil.rmtree(self._spill_dir, ignore_errors=True)

    def __enter__(self) -> "SolveFarm":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
