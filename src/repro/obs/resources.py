"""Per-query resource accounting.

Answers *what one query cost* beyond wall time: CPU seconds, peak-RSS
growth, scenario bytes realized vs. served from the store, LP solve
count, and the out-of-core chunk-cache hit ratio.  Two cooperating
pieces:

* :func:`charge` — a trace-scoped counter increment (``lp_solves`` from
  the solver backends); charges land on the active
  :class:`~repro.obs.trace.TraceSession` *and* on the process-lifetime
  :data:`resource_counters` exported as ``repro_resource_*`` families on
  ``/metrics`` (see :func:`repro.obs.metrics.collect`).
* :class:`QueryResourceProbe` — created by the engine around one
  evaluation; samples thread-CPU, ``ru_maxrss``, store stats, and scale
  metrics at entry, and on :meth:`~QueryResourceProbe.finish` folds the
  deltas plus the session's charges into one dict attached to the root
  span and the ``AnytimeResult`` envelope.
* :func:`bill` — charges the probe of the query evaluating on this
  context, traced or not, from whichever thread works for it: the
  ladder lane's CPU and rung counts (``core/lane.py``) and the bytes of
  private scenario-cache fills, which no thread-CPU sample or store
  delta of the calling thread sees.

Store/scale deltas are process-wide registries, so under concurrent
queries in one process attribution is approximate — one query's probe
window can absorb a neighbour's bytes.  A query running alone gets
exact deltas.
"""

from __future__ import annotations

import threading
import time
from contextvars import ContextVar

from .metrics import LockedCounters, section_keys
from .trace import current_session

try:  # POSIX-only; the accounting degrades gracefully without it.
    import resource as _resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    _resource = None

#: Lifetime-monotonic process totals behind the ``repro_resource_*``
#: metric families (the ``"resources"`` rows of ``FAMILIES``).
resource_counters = LockedCounters(section_keys("resources"))


def charge(name: str, amount: float = 1.0) -> None:
    """Count one resource use against the process and the active query.

    Always lands on :data:`resource_counters`; additionally lands on the
    current trace session (when one is active) so the per-query view on
    the envelope and root span can report it.
    """
    resource_counters.add(name, amount)
    session = current_session()
    if session is not None:
        session.charge(name, amount)


#: The probe of the query evaluating on this context, or None.
_PROBE: ContextVar = ContextVar("repro_query_probe", default=None)

#: What :func:`bill` accepts, as the usage keys they are reported under.
BILLED = (
    "cpu_s", "scenario_bytes_realized",
    "lane_rungs_started", "lane_rungs_consumed", "lane_rungs_discarded",
)


def bill(name: str, amount: float) -> None:
    """Charge the query evaluating on this context (any thread).

    A thread working for a query runs in a copy of its caller's context
    (``contextvars.copy_context``), so it reaches the same probe.  No-op
    outside an accounted evaluation.
    """
    probe = _PROBE.get()
    if probe is not None:
        probe.add(name, amount)


def peak_rss_kb() -> int | None:
    """This process's lifetime peak RSS in KiB, or None if unavailable."""
    if _resource is None:
        return None
    return int(_resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss)


def _store_snapshot(store) -> dict | None:
    if store is None:
        return None
    try:
        return store.stats().as_dict()
    except Exception:
        return None


def _scale_snapshot() -> dict:
    # Imported lazily: repro.scale imports repro.obs.metrics at module
    # load, and this module is part of the repro.obs package.
    from ..scale.metrics import scale_metrics

    return scale_metrics.snapshot()


def _delta(after: dict | None, before: dict | None, key: str) -> int:
    if after is None or before is None:
        return 0
    return max(0, int(after.get(key, 0)) - int(before.get(key, 0)))


class QueryResourceProbe:
    """Samples process counters around one evaluation (engine-owned)."""

    __slots__ = (
        "_store", "_cpu0", "_rss0", "_store0", "_scale0",
        "_billed", "_lock", "_token",
    )

    def __init__(self, store=None):
        self._store = store
        self._cpu0 = time.thread_time()
        self._rss0 = peak_rss_kb()
        self._store0 = _store_snapshot(store)
        self._scale0 = _scale_snapshot()
        self._billed = dict.fromkeys(BILLED, 0.0)
        self._lock = threading.Lock()
        self._token = _PROBE.set(self)

    def add(self, name: str, amount: float) -> None:
        """One :func:`bill` charge; ``name`` must be in :data:`BILLED`."""
        with self._lock:
            self._billed[name] += amount

    def release(self) -> None:
        """Stop receiving :func:`bill` charges on this context; idempotent."""
        if self._token is not None:
            try:
                _PROBE.reset(self._token)
            except ValueError:  # finished on another context than its own
                pass
            self._token = None

    def finish(self, session=None) -> dict:
        """The per-query resource document; also feeds process totals.

        ``session`` contributes its trace-scoped charges (``lp_solves``
        from the solver backends).  Keys with no usable source (no
        store, non-POSIX RSS) are reported as 0/None rather than
        omitted, so consumers can rely on the shape.
        """
        self.release()
        with self._lock:
            billed = dict(self._billed)
        # Thread-CPU sees the calling thread only; the lane's is billed.
        cpu_s = max(0.0, time.thread_time() - self._cpu0) + billed["cpu_s"]
        rss1 = peak_rss_kb()
        store1 = _store_snapshot(self._store)
        scale1 = _scale_snapshot()
        chunk_hits = _delta(scale1, self._scale0, "chunk_hits")
        chunk_misses = _delta(scale1, self._scale0, "chunk_misses")
        chunk_total = chunk_hits + chunk_misses
        charges = dict(session.resources) if session is not None else {}
        usage = {
            "cpu_s": cpu_s,
            "max_rss_delta_kb": (
                None
                if rss1 is None or self._rss0 is None
                else max(0, rss1 - self._rss0)
            ),
            "scenario_bytes_realized": _delta(
                store1, self._store0, "bytes_realized"
            ) + int(billed["scenario_bytes_realized"]),
            "scenario_bytes_reused": _delta(store1, self._store0, "bytes_reused"),
            "lp_solves": int(charges.get("lp_solves", 0)),
            "chunk_cache_hits": chunk_hits,
            "chunk_cache_misses": chunk_misses,
            "chunk_cache_hit_ratio": (
                None if chunk_total == 0 else chunk_hits / chunk_total
            ),
            "lane_rungs_started": int(billed["lane_rungs_started"]),
            "lane_rungs_consumed": int(billed["lane_rungs_consumed"]),
            "lane_rungs_discarded": int(billed["lane_rungs_discarded"]),
        }
        resource_counters.add_many(
            {"queries_accounted": 1, "query_cpu_seconds": cpu_s}
        )
        return usage
