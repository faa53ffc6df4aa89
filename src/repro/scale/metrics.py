"""Process-wide counters for the out-of-core tier.

The serving layer surfaces these on ``/status`` (as the ``"scale"``
section) and ``/metrics`` (as ``repro_scale_*`` time series); their keys
and kinds are the ``"scale"`` rows of :data:`repro.obs.metrics.FAMILIES`.
Counters are lifetime-monotonic within one process.

Gauges track the resident bytes of every live :class:`ColumnStore` chunk
cache in the process — ``resident_bytes`` is the current total,
``resident_peak_bytes`` the high-water mark — which is what the scale
smoke test asserts stays under the configured budget.
"""

from __future__ import annotations

import threading

from ..obs.metrics import LockedCounters, section_keys


class ScaleMetrics:
    """Thread-safe counter/gauge registry for one process.

    Counters ride on :class:`repro.obs.metrics.LockedCounters` — the
    shared atomic-increment helper — because these are updated from the
    broker's pool threads concurrently, where a bare ``+=`` on instance
    attributes loses updates (LOAD/ADD/STORE interleave).  The resident
    gauges need a compare-against-peak under the same critical section,
    so they keep a dedicated lock.
    """

    def __init__(self) -> None:
        self._counters = LockedCounters(section_keys("scale", "counter"))
        self._gauge_lock = threading.Lock()
        self._resident = 0
        self._resident_peak = 0

    # --- driver counters -----------------------------------------------------

    def record_run(
        self,
        n_partitions: int,
        n_refines: int,
        sketch_seconds: float,
        refine_seconds: float,
    ) -> None:
        """Record one completed stochastic SketchRefine evaluation."""
        self._counters.add_many(
            {
                "runs": 1,
                "partitions": int(n_partitions),
                "refines": int(n_refines),
                "sketch_seconds": float(sketch_seconds),
                "refine_seconds": float(refine_seconds),
            }
        )

    def record_index_lookup(self, hit: bool) -> None:
        """Record one partition-index lookup outcome."""
        self._counters.add("index_hits" if hit else "index_misses")

    def record_chunk_lookup(self, hit: bool) -> None:
        """Record one ColumnStore chunk-cache lookup outcome."""
        self._counters.add("chunk_hits" if hit else "chunk_misses")

    def record_delta_applied(self, n_dirty_rows: int) -> None:
        """Record one applied relation delta."""
        self._counters.add_many(
            {"deltas_applied": 1, "delta_rows_dirty": int(n_dirty_rows)}
        )

    def record_delta_repair(
        self, n_dirty_partitions: int, n_reused_partitions: int
    ) -> None:
        """Record one delta-scoped repair solve's partition reuse."""
        self._counters.add_many(
            {
                "delta_partitions_dirty": int(n_dirty_partitions),
                "delta_partitions_reused": int(n_reused_partitions),
            }
        )

    def record_delta_index_refresh(self) -> None:
        """Record one delta-scoped partition-index refresh (splice)."""
        self._counters.add("delta_index_refreshes")

    def record_delta_repair_fallback(self) -> None:
        """Record one repair solve that failed validation and re-ran cold."""
        self._counters.add("delta_repair_fallbacks")

    # --- resident-byte gauges ------------------------------------------------

    def add_resident(self, delta: int) -> None:
        """Adjust the live ColumnStore resident-byte gauge by ``delta``."""
        with self._gauge_lock:
            self._resident = max(0, self._resident + int(delta))
            if self._resident > self._resident_peak:
                self._resident_peak = self._resident

    # --- snapshots ------------------------------------------------------------

    def snapshot(self) -> dict:
        """Point-in-time copy of every counter and gauge."""
        out = {
            name: (
                int(value)
                if float(value).is_integer() and "seconds" not in name
                else float(value)
            )
            for name, value in self._counters.snapshot().items()
        }
        with self._gauge_lock:
            out["resident_bytes"] = self._resident
            out["resident_peak_bytes"] = self._resident_peak
        return out

    def reset(self) -> None:
        """Zero every counter and gauge (tests only)."""
        self._counters.reset()
        with self._gauge_lock:
            self._resident = 0
            self._resident_peak = 0


#: The process-wide registry every ColumnStore and driver reports into.
scale_metrics = ScaleMetrics()
