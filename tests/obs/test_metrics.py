"""Unit and concurrency tests for counters and stage histograms."""

from __future__ import annotations

import threading

from repro.obs import LockedCounters, StageHistograms, histogram_exposition
from repro.obs.metrics import DEFAULT_BUCKETS
from repro.scale.metrics import ScaleMetrics


def test_locked_counters_basics():
    counters = LockedCounters(("a", "b"))
    counters.add("a")
    counters.add("a", 2.5)
    counters.add_many({"b": 3, "c": 1})
    assert counters.get("a") == 3.5
    assert counters.snapshot() == {"a": 3.5, "b": 3.0, "c": 1.0}
    counters.reset()
    assert counters.snapshot() == {"a": 0.0, "b": 0.0, "c": 0.0}
    assert counters.get("missing") == 0.0


def _hammer(n_threads, n_iters, target):
    threads = [
        threading.Thread(target=target, args=(i,)) for i in range(n_threads)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return n_threads * n_iters


def test_locked_counters_concurrent_increments_are_exact():
    """Regression: plain ``+=`` on a shared attribute loses updates
    under threads (LOAD/ADD/STORE interleave); the locked counter must
    account for every single increment."""
    counters = LockedCounters(("n",))
    n_iters = 5_000

    def worker(_):
        for _ in range(n_iters):
            counters.add("n")
            counters.add_many({"m": 2})

    total = _hammer(8, n_iters, worker)
    assert counters.get("n") == total
    assert counters.get("m") == 2 * total


def test_scale_metrics_concurrent_record_run_is_exact():
    """The shared ``repro.scale.metrics`` registry is hit from broker
    threads concurrently; totals must be exact."""
    metrics = ScaleMetrics()
    n_iters = 2_000

    def worker(i):
        for _ in range(n_iters):
            metrics.record_run(
                n_partitions=4,
                n_refines=2,
                sketch_seconds=0.001,
                refine_seconds=0.002,
            )
            metrics.record_index_lookup(hit=i % 2 == 0)
            metrics.add_resident(64)
            metrics.add_resident(-64)

    total = _hammer(8, n_iters, worker)
    snap = metrics.snapshot()
    assert snap["runs"] == total
    assert snap["partitions"] == 4 * total
    assert snap["refines"] == 2 * total
    assert snap["index_hits"] + snap["index_misses"] == total
    assert abs(snap["sketch_seconds"] - 0.001 * total) < 1e-6
    assert snap["resident_bytes"] == 0
    assert snap["resident_peak_bytes"] >= 64


def test_stage_histograms_bucket_placement():
    hist = StageHistograms(buckets=(0.1, 1.0))
    hist.observe("solve", 0.05)   # -> le=0.1
    hist.observe("solve", 0.1)    # exactly on a bound counts toward it
    hist.observe("solve", 0.5)    # -> le=1.0
    hist.observe("solve", 10.0)   # -> +Inf
    snap = hist.snapshot()["solve"]
    assert snap["counts"] == [2, 1, 1]
    assert snap["count"] == 4
    assert abs(snap["sum"] - 10.65) < 1e-9


def test_stage_histograms_snapshot_is_deep_copy():
    hist = StageHistograms(buckets=(1.0,))
    hist.observe("s", 0.5)
    snap = hist.snapshot()
    snap["s"]["counts"][0] = 99
    assert hist.snapshot()["s"]["counts"][0] == 1


def test_histogram_exposition_prometheus_lines():
    hist = StageHistograms()
    hist.observe("solve", 0.3)
    hist.observe("solve", 120.0)
    lines = histogram_exposition(
        "repro_stage_seconds", "Wall seconds.", hist.snapshot()
    )
    assert lines[0] == "# HELP repro_stage_seconds Wall seconds."
    assert lines[1] == "# TYPE repro_stage_seconds histogram"
    assert 'repro_stage_seconds_bucket{stage="solve",le="+Inf"} 2' in lines
    assert 'repro_stage_seconds_count{stage="solve"} 2' in lines
    # One bucket line per bound, plus +Inf, sum, count.
    assert len(lines) == 2 + len(DEFAULT_BUCKETS) + 3
    # Cumulative counts are monotone non-decreasing across bounds.
    counts = [
        int(line.rsplit(" ", 1)[1])
        for line in lines
        if line.startswith("repro_stage_seconds_bucket")
    ]
    assert counts == sorted(counts)
