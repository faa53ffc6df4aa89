"""Shared counters, per-stage latency histograms, and the one snapshot.

:class:`LockedCounters` is the atomic-increment helper every
process-wide registry builds on (``repro.scale.metrics`` and the trace
layer alike): a plain dict behind one lock, because CPython's ``+=`` on
instance attributes is *not* atomic under the broker's thread pool
(LOAD / BINARY_ADD / STORE interleave across threads and lose updates).

:class:`StageHistograms` aggregates observed stage durations into
fixed-bucket histograms, exported on ``/metrics`` in the Prometheus
text format as::

    repro_stage_seconds_bucket{stage="solve",le="0.1"} 12
    repro_stage_seconds_sum{stage="solve"} 3.41
    repro_stage_seconds_count{stage="solve"} 17

:func:`collect` reads every registry of one process (plus a scenario
store) into one plain-dict snapshot ``{"counters", "gauges",
"histograms"}``; :func:`merge` adds snapshots and :func:`diff` takes the
increment between two.  A farm worker ships ``diff(now, last_sent)``
with each reply and the farm adds it to a running total, so no
count is lost when a worker goes away.  :data:`FAMILIES` declares every
``/metrics`` family and where its value sits on ``/status``.
"""

from __future__ import annotations

import threading
from bisect import bisect_left

#: Histogram bucket upper bounds, in seconds.  Sub-millisecond buckets
#: catch cache-hit parse/compile stages; the top buckets cover long
#: MILP solves (the paper's four-hour budgets land in ``+Inf``).
DEFAULT_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)


class LockedCounters:
    """Named float counters guarded by one lock (thread-safe ``+=``)."""

    def __init__(self, names: tuple = ()):
        self._lock = threading.Lock()
        self._values = {name: 0.0 for name in names}

    def add(self, name: str, delta: float = 1.0) -> None:
        """Atomically increment ``name`` by ``delta`` (creating it at 0)."""
        with self._lock:
            self._values[name] = self._values.get(name, 0.0) + delta

    def add_many(self, deltas: dict) -> None:
        """Apply several increments under one lock acquisition."""
        with self._lock:
            for name, delta in deltas.items():
                self._values[name] = self._values.get(name, 0.0) + delta

    def get(self, name: str) -> float:
        with self._lock:
            return self._values.get(name, 0.0)

    def snapshot(self) -> dict:
        """Point-in-time copy of every counter."""
        with self._lock:
            return dict(self._values)

    def reset(self) -> None:
        """Zero every counter, keeping the key set."""
        with self._lock:
            self._values = {name: 0.0 for name in self._values}


class StageHistograms:
    """Per-stage duration histograms with fixed bucket bounds."""

    def __init__(self, buckets: tuple = DEFAULT_BUCKETS):
        self.buckets = tuple(buckets)
        self._lock = threading.Lock()
        self._stages: dict[str, dict] = {}

    def _entry(self, stage: str) -> dict:
        """``stage``'s histogram, made empty on first use (lock held)."""
        entry = self._stages.get(stage)
        if entry is None:
            entry = self._stages[stage] = {
                "counts": [0] * (len(self.buckets) + 1),
                "sum": 0.0,
                "count": 0,
            }
        return entry

    def observe(self, stage: str, seconds: float) -> None:
        """Record one duration for ``stage``."""
        seconds = float(seconds)
        with self._lock:
            entry = self._entry(stage)
            # bisect_left: the first bucket whose bound >= seconds, so an
            # observation exactly on a bound counts toward it (``le``).
            entry["counts"][bisect_left(self.buckets, seconds)] += 1
            entry["sum"] += seconds
            entry["count"] += 1

    def observe_spans(self, spans) -> None:
        """Record every span's wall under its stage name (a finished trace).

        The trace's walls are grouped by stage first, so the lock is
        taken once per trace and each stage's entry looked up once.
        """
        walls: dict[str, list] = {}
        for span in spans:
            walls.setdefault(span["name"], []).append(span["wall_s"])
        buckets = self.buckets
        with self._lock:
            for stage, seconds in walls.items():
                entry = self._entry(stage)
                counts, total = entry["counts"], entry["sum"]
                for wall in seconds:
                    counts[bisect_left(buckets, wall)] += 1
                    total += wall
                entry["sum"] = total
                entry["count"] += len(seconds)

    def snapshot(self) -> dict:
        """Deep-copied ``{stage: {"counts", "sum", "count"}}``."""
        with self._lock:
            return {
                stage: {
                    "counts": list(entry["counts"]),
                    "sum": entry["sum"],
                    "count": entry["count"],
                }
                for stage, entry in self._stages.items()
            }

    def reset(self) -> None:
        """Drop every stage (tests only)."""
        with self._lock:
            self._stages = {}


def histogram_exposition(
    name: str, help_text: str, snapshot: dict, buckets: tuple = DEFAULT_BUCKETS
) -> list[str]:
    """Prometheus text-format lines for one labeled histogram family."""
    lines = [f"# HELP {name} {help_text}", f"# TYPE {name} histogram"]
    for stage in sorted(snapshot):
        entry = snapshot[stage]
        cumulative = 0
        for bound, count in zip(buckets, entry["counts"]):
            cumulative += count
            lines.append(
                f'{name}_bucket{{stage="{stage}",le="{bound:g}"}} {cumulative}'
            )
        cumulative += entry["counts"][len(buckets)]
        lines.append(f'{name}_bucket{{stage="{stage}",le="+Inf"}} {cumulative}')
        lines.append(f'{name}_sum{{stage="{stage}"}} {entry["sum"]}')
        lines.append(f'{name}_count{{stage="{stage}"}} {entry["count"]}')
    return lines


#: The process-wide histogram registry every finished span reports into;
#: farm workers ship its increments back with each reply.
stage_histograms = StageHistograms()


#: One row per ``/metrics`` family: exposition name, Prometheus kind,
#: help text, and the ``/status`` section and key holding its value
#: (section ``None`` = top level).  The ``store`` / ``scale`` /
#: ``resources`` rows double as the key list of :func:`collect`'s
#: snapshot, and their kind says whether a key is a counter or a gauge.
FAMILIES = (
    ("repro_store_hits_total", "counter",
     "Scenario-store lookups served from a cached matrix.", "store", "hits"),
    ("repro_store_misses_total", "counter",
     "Scenario-store lookups that required realization.", "store", "misses"),
    ("repro_store_generations_total", "counter",
     "Scenario matrix (re)generations performed by the store.",
     "store", "generations"),
    ("repro_store_generated_columns_total", "counter",
     "Scenario columns realized by the store.", "store", "generated_columns"),
    ("repro_store_evictions_total", "counter",
     "Store entries evicted outright under the byte budget.",
     "store", "evictions"),
    ("repro_store_spills_total", "counter",
     "Store entries spilled to memmap files under the byte budget.",
     "store", "spills"),
    ("repro_store_adopted_total", "counter",
     "Matrices adopted from sibling workers via memmap handoff.",
     "store", "adopted"),
    ("repro_store_bytes_realized_total", "counter",
     "Scenario-matrix bytes newly realized (generated) by the store.",
     "store", "bytes_realized"),
    ("repro_store_bytes_reused_total", "counter",
     "Scenario-matrix bytes served from cache instead of regenerated.",
     "store", "bytes_reused"),
    ("repro_store_bytes_resident", "gauge",
     "Bytes of scenario matrices resident in RAM.", "store", "bytes_resident"),
    ("repro_store_bytes_spilled", "gauge",
     "Bytes of scenario matrices spilled to disk.", "store", "bytes_spilled"),
    ("repro_store_entries", "gauge",
     "Distinct scenario matrices held by the store.", "store", "entries"),
    ("repro_scale_runs_total", "counter",
     "Completed stochastic SketchRefine evaluations.", "scale", "runs"),
    ("repro_scale_partitions_total", "counter",
     "Partitions processed across SketchRefine evaluations.",
     "scale", "partitions"),
    ("repro_scale_refines_total", "counter",
     "Per-partition refine solves executed.", "scale", "refines"),
    ("repro_scale_sketch_seconds_total", "counter",
     "Wall seconds spent in SketchRefine sketch solves.",
     "scale", "sketch_seconds"),
    ("repro_scale_refine_seconds_total", "counter",
     "Wall seconds spent in SketchRefine refine solves.",
     "scale", "refine_seconds"),
    ("repro_scale_index_hits_total", "counter",
     "Partition-index lookups answered from the persisted index.",
     "scale", "index_hits"),
    ("repro_scale_index_misses_total", "counter",
     "Partition-index lookups that re-partitioned from pilot stats.",
     "scale", "index_misses"),
    ("repro_scale_chunk_hits_total", "counter",
     "ColumnStore chunk-cache lookups served from resident chunks.",
     "scale", "chunk_hits"),
    ("repro_scale_chunk_misses_total", "counter",
     "ColumnStore chunk-cache lookups that decoded from disk.",
     "scale", "chunk_misses"),
    ("repro_resource_queries_total", "counter",
     "Queries with a completed resource-accounting envelope.",
     "resources", "queries_accounted"),
    ("repro_resource_cpu_seconds_total", "counter",
     "Solver-thread CPU seconds consumed by accounted queries.",
     "resources", "query_cpu_seconds"),
    ("repro_resource_lp_solves_total", "counter",
     "LP relaxation solves executed across all evaluations.",
     "resources", "lp_solves"),
    ("repro_delta_applied_total", "counter",
     "Relation deltas applied through the catalog.", "scale", "deltas_applied"),
    ("repro_delta_rows_dirty_total", "counter",
     "Rows dirtied by applied relation deltas.", "scale", "delta_rows_dirty"),
    ("repro_delta_partitions_dirty_total", "counter",
     "Partitions re-refined by delta-repair solves.",
     "scale", "delta_partitions_dirty"),
    ("repro_delta_partitions_reused_total", "counter",
     "Untouched partitions whose sub-packages were reused verbatim.",
     "scale", "delta_partitions_reused"),
    ("repro_delta_index_refreshes_total", "counter",
     "Partition-index entries spliced from a pre-delta ancestor.",
     "scale", "delta_index_refreshes"),
    ("repro_delta_repair_fallbacks_total", "counter",
     "Delta-repair solves that failed validation and re-ran cold.",
     "scale", "delta_repair_fallbacks"),
    ("repro_store_stale_dropped_total", "counter",
     "Scenario-store descriptors refused or pruned as pre-delta stale.",
     "store", "stale_dropped"),
    ("repro_scale_resident_bytes", "gauge",
     "Bytes resident across live ColumnStore chunk caches.",
     "scale", "resident_bytes"),
    ("repro_scale_resident_peak_bytes", "gauge",
     "High-water mark of ColumnStore resident bytes.",
     "scale", "resident_peak_bytes"),
    ("repro_broker_submitted_total", "counter",
     "Queries admitted by the broker.", None, "submitted"),
    ("repro_broker_completed_total", "counter",
     "Queries completed successfully.", None, "completed"),
    ("repro_broker_failed_total", "counter",
     "Queries that failed or were cancelled.", None, "failed"),
    ("repro_broker_deduplicated_total", "counter",
     "Submissions attached to an identical in-flight evaluation.",
     None, "deduplicated"),
    ("repro_broker_rejected_total", "counter",
     "Submissions rejected by admission control (saturated).",
     None, "rejected_total"),
    ("repro_deadline_met_total", "counter",
     "Finished queries that met their latency deadline (or had none).",
     "deadline", "met"),
    ("repro_deadline_missed_total", "counter",
     "Finished queries that returned a truncated anytime incumbent.",
     "deadline", "missed"),
    ("repro_deadline_rejected_total", "counter",
     "Submissions rejected at admission with a dead-on-arrival budget.",
     "deadline", "rejected"),
    ("repro_deadline_expired_total", "counter",
     "Queued queries whose deadline drained before a worker was free.",
     "deadline", "expired_queued"),
    ("repro_query_gap", "gauge",
     "Relative optimality gap of the last finished query;"
     " NaN when the last answer carried no gap.",
     "deadline", "last_gap"),
    ("repro_broker_pending", "gauge",
     "Queries currently queued or running.", None, "pending"),
    ("repro_broker_pool_size", "gauge",
     "Configured evaluation concurrency.", None, "pool_size"),
    ("repro_service_uptime_seconds", "gauge",
     "Seconds since the broker started.", None, "uptime_s"),
    ("repro_farm_workers_busy", "gauge",
     "Farm workers currently evaluating a task.", "farm", "busy"),
    ("repro_farm_workers_idle", "gauge",
     "Farm workers ready for a task.", "farm", "idle"),
    ("repro_farm_queued", "gauge",
     "Tasks waiting for an idle farm worker.", "farm", "queued"),
    ("repro_farm_handoff_entries", "gauge",
     "Distinct scenario matrices in the farm handoff registry.",
     "farm", "handoff_entries"),
    ("repro_farm_recycled_total", "counter",
     "Workers retired and replaced after recycle_after tasks.",
     "farm", "recycled_total"),
    ("repro_farm_crashed_total", "counter",
     "Worker processes that died unexpectedly.", "farm", "crashed_total"),
    ("repro_farm_retried_total", "counter",
     "In-flight tasks requeued after a worker crash.",
     "farm", "retried_total"),
)

_KIND = {(section, key): kind for _, kind, _, section, key in FAMILIES}


def section_keys(section: str, kind: str | None = None) -> tuple:
    """Declared keys of one ``/status`` section, optionally of one kind."""
    return tuple(
        key
        for (row_section, key), row_kind in _KIND.items()
        if row_section == section and kind in (None, row_kind)
    )


def collect(store=None) -> dict:
    """This process's telemetry snapshot (and ``store``'s, if given).

    ``{"counters": {...}, "gauges": {...}, "histograms": {...}}``:
    counters and gauges are keyed ``"<section>.<key>"`` after
    :data:`FAMILIES`; histograms are :data:`stage_histograms`'s
    ``{stage: {"counts", "sum", "count"}}``.
    """
    # Imported here: both modules import this one at load time.
    from ..scale.metrics import scale_metrics
    from .resources import resource_counters

    sections = {
        "scale": scale_metrics.snapshot(),
        "resources": resource_counters.snapshot(),
    }
    if store is not None:
        sections["store"] = store.stats().as_dict()
    snapshot = {
        "counters": {},
        "gauges": {},
        "histograms": stage_histograms.snapshot(),
    }
    for section, values in sections.items():
        for key, value in values.items():
            kind = _KIND.get((section, key), "counter")
            snapshot[kind + "s"][f"{section}.{key}"] = value
    return snapshot


def merge(*snapshots) -> dict:
    """Key-wise sum of snapshots; ``{}`` is the identity."""
    out = {"counters": {}, "gauges": {}, "histograms": {}}
    for snapshot in snapshots:
        for kind, acc in out.items():
            for key, value in snapshot.get(kind, {}).items():
                acc[key] = _add(acc[key], value) if key in acc else _copy(value)
    return out


def diff(now: dict, last: dict) -> dict:
    """The increment from ``last`` to ``now``.

    Counters and histograms subtract, so ``merge(last, diff(now, last))``
    equals ``now`` on both; gauges are levels, not increments, and carry
    ``now``'s values unchanged.
    """

    def minus(kind: str) -> dict:
        prev = last.get(kind, {})
        return {
            key: _add(value, prev[key], -1) if key in prev else _copy(value)
            for key, value in now[kind].items()
        }

    return {
        "counters": minus("counters"),
        "gauges": dict(now["gauges"]),
        "histograms": minus("histograms"),
    }


def _add(a, b, sign: int = 1):
    """``a + sign * b`` for one number or one histogram entry."""
    if not isinstance(a, dict):
        return a + sign * b
    return {
        "counts": [x + sign * y for x, y in zip(a["counts"], b["counts"])],
        "sum": a["sum"] + sign * b["sum"],
        "count": a["count"] + sign * b["count"],
    }


def _copy(value):
    if not isinstance(value, dict):
        return value
    return {**value, "counts": list(value["counts"])}


def status_sections(snapshot: dict) -> dict:
    """The ``/status`` ``store`` / ``scale`` / ``resources`` sections.

    Every declared key is present; one no process has reported yet
    (a farm before its first reply) reads 0.
    """
    values = {**snapshot["counters"], **snapshot["gauges"]}
    return {
        section: {
            key: values.get(f"{section}.{key}", 0)
            for key in section_keys(section)
        }
        for section in ("store", "scale", "resources")
    }
