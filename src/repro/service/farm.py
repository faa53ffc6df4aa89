"""Process transport for the broker: one persistent worker per pool slot.

Thread-backend solves serialize on the GIL.  On the process backend
each broker pool slot instead runs its requests on one **worker
process** hosting a warm :class:`~repro.core.engine.SPQEngine` (catalog
registered, compile cache hot, private scenario store).  The queue, the
deadline check and :func:`~repro.service.broker.run_request` are the
broker's, as on the thread backend; :meth:`SolveFarm.run` only carries
one request over the slot's own pipe:

* **Zero-copy scenario sharing** — after every task a worker calls its
  store's :meth:`~repro.service.store.ScenarioStore.handoff`, shipping
  back content-key → memmap-path descriptors instead of matrices.  The
  farm merges them into a registry and forwards it with each dispatch;
  workers :meth:`~repro.service.store.ScenarioStore.adopt` unknown keys
  by opening the files *read-only* (pages shared via the OS cache) and
  verifying the content hash, so a matrix realized by one worker is
  never regenerated by another.
* **Graceful recycling** — after ``recycle_after`` completed tasks a
  worker's pipe is closed (it exits) and a fresh one is forked in its
  place, bounding per-process memory growth without dropping requests.
* **Crash recovery** — a worker that dies mid-solve (OOM-kill,
  ``kill -9``, segfaulting native code) is replaced and
  :class:`WorkerCrashError` (an :class:`~repro.errors.EvaluationError`,
  i.e. exit-code-3 / HTTP 409 semantics) is raised to the broker, which
  requeues the request **once** and surfaces the second death.

The slot thread that sent a request waits on its worker's pipe and
process sentinel; an idle worker's death is noticed at its next
dispatch or the next :meth:`status` / :meth:`metrics` read.
"""

from __future__ import annotations

import os
import pickle
import shutil
import tempfile
import threading
from collections import OrderedDict
from multiprocessing.connection import wait

from ..config import SPQConfig
from ..errors import EvaluationError, SPQError
from ..obs import collect, diff, merge
from ..parallel.executor import farm_context

#: Worker states surfaced on /status and /metrics.
STATE_IDLE = "idle"
STATE_BUSY = "busy"

#: How long a retired worker may take to exit at close before being
#: terminated.
_STOP_GRACE_S = 10.0
#: Ceiling on the handoff registry (distinct content keys).  Beyond it,
#: least-recently-exported descriptors are dropped and their files
#: unlinked, bounding the shared spill directory on long-running farms;
#: a worker still holding a pruned matrix mapped keeps it alive (POSIX
#: unlink semantics), later requests simply regenerate.
_MAX_HANDOFF_KEYS = 512


class WorkerCrashError(EvaluationError):
    """A request's worker process died while evaluating it.

    The broker requeues the request once; the second death reaches the
    caller.  Subclasses :class:`EvaluationError` so the CLI maps it to
    exit code 3 and the HTTP layer to status 409 — a crash must never
    read as "query infeasible".
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


def _worker_main(worker_id: int, conn, catalog, config, spill_dir):
    """Worker process body: one warm engine, requests until the pipe closes.

    The private store spills into the farm's shared directory so every
    matrix it realizes is exportable to siblings; the store never owns
    that directory (the farm removes it on shutdown).
    """
    from ..core import lane
    from ..core.engine import SPQEngine
    from .broker import run_request
    from .store import ScenarioStore

    # The farm's workers are the parallelism here: no ladder lane.
    lane.disable()
    store = ScenarioStore(
        budget_bytes=config.scenario_store_budget,
        spill=config.scenario_store_spill,
        spill_dir=spill_dir,
    )
    engine = SPQEngine(catalog=catalog, config=config, store=store)
    last_sent: dict = {}
    while True:
        try:
            query, method, overrides, trace, descriptors, deltas = conn.recv()
        except (EOFError, OSError):  # the farm closed the pipe: retire
            break
        if deltas:
            # Deltas land before descriptor adoption: the adoption-time
            # staleness filter needs the extended lineage to reject
            # pre-delta matrices shipped in the same dispatch.
            _adopt_deltas(catalog, store, deltas)
        if descriptors:
            store.adopt(descriptors)
        ok, value, spans = run_request(
            engine, query, method, overrides, trace,
            worker=worker_id, pid=os.getpid(),
        )
        exported = store.handoff()
        # The result is pickled *here*, on its own: an unpicklable result
        # fails this request instead of the send (and the worker).
        try:
            blob = pickle.dumps((ok, value), protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as error:
            blob = pickle.dumps(
                (
                    False,
                    EvaluationError(
                        f"result could not cross the process boundary:"
                        f" {type(error).__name__}: {error}"
                    ),
                )
            )
        # One stats blob: the increment since the previous reply, so the
        # farm's totals never depend on this process outliving it.
        now = collect(store)
        conn.send((blob, exported, diff(now, last_sent), spans))
        last_sent = now
    store.close()


class _Worker:
    """Parent-side handle on one worker process and its pipe."""

    __slots__ = (
        "id", "process", "conn", "state", "tasks_done", "known", "gauges",
        "deltas_seen",
    )

    def __init__(self, worker_id: int, process, conn, deltas_seen: int = 0):
        self.id = worker_id
        self.process = process
        self.conn = conn
        self.state = STATE_IDLE
        self.tasks_done = 0
        #: Descriptor paths this worker has already been sent (or sent
        #: us), keyed by content key — dispatches ship only the delta.
        self.known: dict[tuple, str] = {}
        #: The gauges of the worker's latest reply (levels, so they
        #: leave the farm's view with the worker).
        self.gauges: dict = {}
        #: Prefix of the farm's delta log this worker has adopted (or
        #: was spawned with, via the pickled catalog); dispatches ship
        #: only the unseen suffix.
        self.deltas_seen = deltas_seen


class SolveFarm:
    """One persistent solver process per broker pool slot."""

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
        self._spill_dir = spill_dir or tempfile.mkdtemp(prefix="spq-farm-")
        self._owns_spill_dir = spill_dir is None
        self._lock = threading.Lock()
        self._descriptors: "OrderedDict[tuple, dict]" = OrderedDict()
        #: Ordered ``(table, payload, LineageRecord)`` entries from
        #: :meth:`broadcast_delta`; each dispatch ships a worker the
        #: suffix it has not yet adopted.
        self._delta_log: list[tuple] = []
        self._next_worker_id = 0
        self._closed = False
        self._recycled = 0
        self._crashed = 0
        self._retried = 0
        #: Running sum of the counters and histograms of every reply ever
        #: received (see :meth:`metrics`).
        self._totals: dict = {}
        #: Consecutive crashes with no intervening reply; past the limit
        #: the farm stops forking replacements (a worker that dies on
        #: every request must not become a fork storm).
        self._crash_streak = 0
        self._broken = False
        with self._lock:
            #: The live worker of each pool slot, keyed by slot index.
            self._workers: dict[int, _Worker] = {
                slot: self._spawn_worker_locked() for slot in range(n_workers)
            }

    # --- the transport ------------------------------------------------------

    def check_open(self) -> None:
        """Raise :class:`SPQError` when the farm takes no more requests."""
        with self._lock:
            self._check_open_locked()

    def _check_open_locked(self) -> None:
        if self._closed:
            raise SPQError("solve farm is closed")
        if self._broken:
            raise SPQError("solve farm disabled after repeated worker crashes")

    def run(self, slot: int, query, method: str, overrides: dict, trace):
        """Evaluate one request on pool slot ``slot``'s worker process.

        The request carries the handoff descriptors and the suffix of the
        relation-delta log this worker has not seen; the reply's stats
        increment, handoff export and gauges are folded into the farm.
        Returns :func:`~repro.service.broker.run_request`'s
        ``(ok, result_or_error, trace_payload)``.  A worker that dies
        holding the request is replaced, and :class:`WorkerCrashError`
        is raised for the broker to retry or surface.
        """
        with self._lock:
            self._reap_idle_locked()
            self._check_open_locked()
            worker = self._workers[slot]
            # Ship only descriptors this worker has not seen: the
            # registry grows with every distinct matrix ever realized.
            descriptors = {
                key: descriptor
                for key, descriptor in self._descriptors.items()
                if worker.known.get(key) != descriptor["path"]
            }
            try:
                message = pickle.dumps(
                    (
                        query, method, overrides, trace, descriptors,
                        self._delta_log[worker.deltas_seen:],
                    ),
                    protocol=pickle.HIGHEST_PROTOCOL,
                )
            except Exception as error:  # unpicklable query/overrides
                return False, SPQError(
                    f"request could not cross the process boundary:"
                    f" {type(error).__name__}: {error}"
                ), None
            worker.known.update(
                (key, descriptor["path"]) for key, descriptor in descriptors.items()
            )
            worker.deltas_seen = len(self._delta_log)
            worker.state = STATE_BUSY
        # Wait on the pipe and the process sentinel together; a reply
        # written before a death is still read first.
        reply = None
        try:
            worker.conn.send_bytes(message)
            wait([worker.conn, worker.process.sentinel])
            if worker.conn.poll():
                reply = worker.conn.recv()
        except (EOFError, OSError):
            pass
        with self._lock:
            if reply is None:
                self._replace_worker_locked(slot, crashed=True)
                raise WorkerCrashError(
                    f"worker process died evaluating this request; worker"
                    f" exit code {worker.process.exitcode}"
                )
            blob, exported, stats, spans = reply
            self._crash_streak = 0
            self._totals = merge(
                self._totals,
                {"counters": stats["counters"], "histograms": stats["histograms"]},
            )
            worker.gauges = stats["gauges"]
            if exported:
                self._merge_descriptors_locked(exported, worker)
            worker.tasks_done += 1
            worker.state = STATE_IDLE
            if self._closed or (
                self.recycle_after is not None
                and worker.tasks_done >= self.recycle_after
            ):
                self._replace_worker_locked(slot)
        try:
            ok, value = pickle.loads(blob)
        except Exception as error:  # pragma: no cover - defensive
            ok, value = False, EvaluationError(
                f"result could not be decoded: {type(error).__name__}: {error}"
            )
        return ok, value, spans

    def crash_retry(self, retries: int) -> bool:
        """Whether a request whose worker died is requeued (once); counts it."""
        with self._lock:
            if retries >= 1 or self._closed or self._broken:
                return False
            self._retried += 1
            return True

    def broadcast_delta(self, table: str, payload: dict, record) -> None:
        """Queue one applied relation delta for adoption by every worker.

        Called by the broker *after* it applied the delta to the shared
        catalog.  Workers adopt pending entries at their next dispatch
        (piggybacked on the request, like scenario descriptors), so a
        query submitted after this call can only run post-delta.
        ``record`` is the broker-side
        :class:`~repro.db.delta.LineageRecord` — workers holding
        ColumnStore tables install it verbatim instead of re-applying
        the payload against the shared column files.
        """
        with self._lock:
            if self._closed:
                raise SPQError("solve farm is closed")
            self._delta_log.append((table, payload, record))

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

    # --- worker lifecycle -----------------------------------------------------

    def _spawn_worker_locked(self) -> _Worker:
        self._next_worker_id += 1
        conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main,
            args=(
                self._next_worker_id, child_conn, self.catalog, self.config,
                self._spill_dir,
            ),
            name=f"spq-farm-worker-{self._next_worker_id}",
            daemon=True,
        )
        process.start()
        # The worker holds the only other end: its death reads as EOF.
        child_conn.close()
        # The catalog pickled into the new worker already reflects every
        # applied delta; replaying the log would double-apply.
        return _Worker(self._next_worker_id, process, conn, len(self._delta_log))

    def _replace_worker_locked(self, slot: int, crashed: bool = False) -> None:
        """Drop ``slot``'s worker and, unless closing, fork its successor.

        Closing the pipe is how a live worker is told to exit.
        """
        self._workers.pop(slot).conn.close()
        if crashed:
            self._crashed += 1
            self._crash_streak += 1
            if self._crash_streak > max(8, 4 * self.n_workers):
                self._broken = True
        elif not self._closed:
            self._recycled += 1
        if not self._closed and not self._broken:
            self._workers[slot] = self._spawn_worker_locked()

    def _reap_idle_locked(self) -> None:
        """Replace idle workers that died (nothing was in flight)."""
        for slot, worker in list(self._workers.items()):
            if worker.state == STATE_IDLE and not worker.process.is_alive():
                self._replace_worker_locked(slot, crashed=True)

    # --- introspection ------------------------------------------------------

    def metrics(self) -> dict:
        """Telemetry snapshot (:func:`repro.obs.metrics.collect` shape)
        aggregated across worker processes.

        Counters and histograms are the running total of every reply, so
        they are lifetime-monotonic across recycling and crashes; gauges
        are summed over live workers only.
        """
        with self._lock:
            self._reap_idle_locked()
            return merge(
                self._totals,
                *({"gauges": w.gauges} for w in self._workers.values()),
            )

    def status(self, queued: int = 0) -> dict:
        """Worker table + lifetime counters; ``queued`` is the broker's."""
        with self._lock:
            self._reap_idle_locked()
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
                "queued": queued,
                "handoff_entries": len(self._descriptors),
            }

    # --- teardown -----------------------------------------------------------

    def close(self) -> None:
        """Stop idle workers now and busy ones after their reply.  Idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            workers = list(self._workers.values())
            for slot, worker in list(self._workers.items()):
                if worker.state == STATE_IDLE:
                    self._replace_worker_locked(slot)
        for worker in workers:
            worker.process.join(timeout=_STOP_GRACE_S)
            if worker.process.is_alive():  # pragma: no cover - wedged worker
                worker.process.terminate()
                worker.process.join(timeout=5.0)
        if self._owns_spill_dir:
            shutil.rmtree(self._spill_dir, ignore_errors=True)
