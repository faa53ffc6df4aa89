"""One workload, one fresh process.

``run.py`` starts this file once per (workload, traced?) pair with fds 1
and 2 already pointing at ``out/<workload>.stderr.log`` (HiGHS prints
from C on both), BLAS/OpenMP pinned to one thread and a private temp
dir.  Everything the run learned goes to the ``--result`` JSON file.

Phases: set-up (imports, dataset synthesis, catalog/ColumnStore/server
start — timed from the parent's spawn instant), then the cold phase,
then the steady phase.  Per-layer numbers cover the steady phase of a
traced run; the cold phase's spans are written out but not aggregated.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "..", "src"))


def cpu_seconds() -> float:
    """Process CPU, self + reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def quantile(samples, q: float) -> float:
    """Harrell-Davis estimate of the ``q``-quantile.

    A weighted average of all order statistics (weights from a
    Beta((n+1)q, (n+1)(1-q)) law) instead of one of them.  With 25-43
    heterogeneous ops a single order statistic is *one op's* latency,
    and it sits at a cliff between query families: one op slowed by a
    noisy neighbour moved the plain median of ``adhoc_validate`` from
    0.62 s to 1.08 s.
    """
    import numpy
    from scipy.special import betainc

    ordered = numpy.sort(numpy.asarray(samples, dtype=float))
    n = len(ordered)
    cdf = betainc((n + 1) * q, (n + 1) * (1 - q), numpy.arange(n + 1) / n)
    return float(numpy.diff(cdf) @ ordered)


def tail(samples) -> tuple[float, float]:
    """(percentile, value): highest percentile with >= 10 samples beyond.

    With fewer than 20 samples no percentile qualifies and the maximum
    is reported as p100.
    """
    n = len(samples)
    if n < 20:
        return 100.0, max(samples)
    q = (n - 10) / n
    return 100.0 * q, quantile(samples, q)


def run_phase(workload, ops, pins, tracer, label: str) -> dict:
    """Closed loop over ``ops`` with ``workload.clients`` client threads.

    A client takes the first queued op whose key no other client has in
    flight.  Two in-flight requests for one key would be merged by the
    broker's dedup, which skips a whole solve; whether they overlap
    depends on thread timing, and that made the amount of work — and
    ``ops_per_s`` — vary by 12% between otherwise identical runs.
    """
    queue = list(enumerate(ops))
    in_flight: set[str] = set()
    lock = threading.Lock()
    records: list[dict] = []

    def take():
        with lock:
            if not queue:
                return None
            free = (i for i, (_, op) in enumerate(queue) if op.key not in in_flight)
            index, op = queue.pop(next(free, 0))
            in_flight.add(op.key)
            return index, op

    def run_one(index, op) -> None:
        record = {"op": op.key, "pinned": op.pinned}
        started = time.perf_counter()
        try:
            if tracer is None:
                outcome = op.run(None)
            else:
                with tracer.op(f"{label}:{index}") as link:
                    outcome = op.run(link)
        except Exception as error:  # noqa: BLE001 - a failed op, counted
            record["latency_s"] = time.perf_counter() - started
            record["failures"] = [f"{type(error).__name__}: {error}"]
        else:
            record["latency_s"] = time.perf_counter() - started
            record["failures"] = workload.verify(op, outcome, pins)
            record["pin"] = workload.pin_of(op, outcome)
        records.append(record)

    def client() -> None:
        while (taken := take()) is not None:
            try:
                run_one(*taken)
            finally:
                with lock:
                    in_flight.discard(taken[1].key)

    cpu_before = cpu_seconds()
    started = time.perf_counter()
    if workload.clients == 1:
        client()
    else:
        threads = [
            threading.Thread(target=client, name=f"ledger-client-{i}")
            for i in range(workload.clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    return {
        "wall_s": time.perf_counter() - started,
        "cpu_s": cpu_seconds() - cpu_before,
        "records": records,
    }


def end_to_end_metrics(setup_s: float, cold: dict, steady: dict) -> dict:
    latencies = [r["latency_s"] for r in steady["records"]]
    n = len(latencies)
    percentile, tail_value = tail(latencies)
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "cold_s": {"value": cold["wall_s"], "unit": "s", "n": len(cold["records"])},
        "ops_per_s": {"value": n / steady["wall_s"], "unit": "1/s", "n": n},
        "op_s_p50": {"value": quantile(latencies, 0.5), "unit": "s", "n": n},
        "op_s_tail": {
            "value": tail_value,
            "unit": "s",
            "n": n,
            "percentile": round(percentile, 1),
        },
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MB",
        },
        "cpu_s_per_op": {"value": steady["cpu_s"] / n, "unit": "s", "n": n},
    }


def ratio(part: float, whole: float) -> dict:
    """A ratio metric that always carries its base."""
    return {
        "value": (part / whole) if whole else 0.0,
        "unit": "ratio",
        "base": whole,
    }


def layer_metrics(tracer, workload, counts, stats_before, stats_after) -> dict:
    """Per-layer metrics of the steady phase (see README, boundary table)."""
    import trace as ledger_trace

    rows = ledger_trace.self_times(tracer.spans)

    def calls(name):
        return {"value": rows.get(name, {}).get("calls", 0), "unit": "count"}

    def self_s(name):
        return {"value": rows.get(name, {}).get("self_s", 0.0), "unit": "s"}

    def count(key):
        return {"value": counts.get(key, 0), "unit": "count"}

    def delta(section, key, unit="count"):
        before = stats_before.get(section, {}).get(key, 0)
        after = stats_after.get(section, {}).get(key, 0)
        return {"value": after - before, "unit": unit}

    def median_of(samples, unit="s"):
        return {
            "value": statistics.median(samples) if samples else 0.0,
            "unit": unit,
            "n": len(samples),
        }

    root = rows.get("op", {"busy_s": 0.0, "self_s": 0.0, "calls": 0})
    hits, compiles = ledger_trace.compile_cache_hits(tracer.spans)
    n_spans = sum(row["calls"] for name, row in rows.items() if name != "op")
    bookkeeping = n_spans * tracer.overhead_per_span()
    store_hits = delta("store", "hits")["value"]
    store_misses = delta("store", "misses")["value"]
    chunk_hits = delta("scale", "chunk_hits")["value"]
    chunk_misses = delta("scale", "chunk_misses")["value"]
    waits = tracer.queue_waits
    wait_percentile, wait_tail = tail(waits) if waits else (100.0, 0.0)
    overheads = workload.http_overheads
    statuses = workload.http_statuses
    deadline = workload.deadline_samples
    truncated = [d for d in deadline if d["truncated"]]
    reused = sum(r["partitions_reused"] for r in workload.repairs)
    refined = sum(r["partitions_refined"] for r in workload.repairs)
    validations = calls("core.validate")["value"]
    solves = calls("solver.solve")["value"]

    return {
        "spaql.parse.calls": calls("spaql.parse"),
        "spaql.parse.self_s": self_s("spaql.parse"),
        "silp.compile.calls": calls("silp.compile"),
        "silp.compile.self_s": self_s("silp.compile"),
        "core.execute.calls": calls("core.execute"),
        "core.execute.self_s": self_s("core.execute"),
        "core.compile.self_s": self_s("core.compile"),
        "core.compile_cache.hit_ratio": ratio(hits, compiles),
        "core.q0.self_s": self_s("core.q0"),
        "core.bounds.self_s": self_s("core.bounds"),
        "core.csa.calls": calls("core.csa"),
        "core.csa.rounds": count("core.csa.rounds"),
        "core.csa.self_s": self_s("core.csa"),
        "core.formulate.calls": calls("core.formulate"),
        "core.formulate.self_s": self_s("core.formulate"),
        "core.summaries.calls": calls("core.summaries"),
        "core.summaries.self_s": self_s("core.summaries"),
        "core.validate.calls": calls("core.validate"),
        "core.validate.self_s": self_s("core.validate"),
        "core.validate.scenarios": count("core.validate.scenarios"),
        "core.validate.feasible_ratio": ratio(
            counts.get("core.validate.feasible", 0), validations
        ),
        "mcdb.realize.calls": calls("mcdb.realize"),
        "mcdb.realize.self_s": self_s("mcdb.realize"),
        "mcdb.realize.cells": count("mcdb.realize.cells"),
        "mcdb.expectation.calls": calls("mcdb.expectation"),
        "mcdb.expectation.self_s": self_s("mcdb.expectation"),
        "solver.build.calls": calls("solver.build"),
        "solver.build.self_s": self_s("solver.build"),
        "solver.solve.calls": calls("solver.solve"),
        "solver.solve.self_s": self_s("solver.solve"),
        "solver.solve.vars": count("solver.solve.vars"),
        "solver.solve.rows": count("solver.solve.rows"),
        "solver.solve.limit_ratio": ratio(
            counts.get("solver.solve.limited", 0), solves
        ),
        "solver.warmstart.accept_ratio": ratio(
            counts.get("solver.warmstart.accepted", 0),
            counts.get("solver.warmstart.offered", 0),
        ),
        "parallel.fanout.calls": calls("parallel.fanout"),
        "parallel.fanout.self_s": self_s("parallel.fanout"),
        "service.store.self_s": self_s("service.store"),
        "service.store.hits": delta("store", "hits"),
        "service.store.misses": delta("store", "misses"),
        "service.store.hit_ratio": ratio(store_hits, store_hits + store_misses),
        "service.store.bytes_realized": delta("store", "bytes_realized", "B"),
        "service.store.bytes_reused": delta("store", "bytes_reused", "B"),
        "service.store.evictions": delta("store", "evictions"),
        "service.store.spills": delta("store", "spills"),
        "service.store.stale_dropped": delta("store", "stale_dropped"),
        "service.broker.self_s": self_s("service.broker"),
        "service.broker.submitted": delta("broker", "submitted"),
        "service.broker.rejected": delta("broker", "rejected"),
        "service.broker.dedup_joins": delta("broker", "deduplicated"),
        "service.broker.queue_wait_s_p50": median_of(waits),
        "service.broker.queue_wait_s_tail": {
            "value": wait_tail,
            "unit": "s",
            "n": len(waits),
            "percentile": round(wait_percentile, 1),
        },
        "service.http.self_s": self_s("service.http"),
        "service.http.requests": {"value": len(statuses), "unit": "count"},
        "service.http.non_2xx": {
            "value": sum(1 for s in statuses if s // 100 != 2),
            "unit": "count",
        },
        "service.http.overhead_s_p50": median_of(overheads),
        "service.qos.deadline_ops": {"value": len(deadline), "unit": "count"},
        "service.qos.deadline_met_ratio": ratio(
            sum(1 for d in deadline if d["met"]), len(deadline)
        ),
        "service.qos.elapsed_over_deadline_p50": median_of(
            [
                d["elapsed_ms"] / workload.deadline_ms
                for d in deadline
                if d["elapsed_ms"] is not None
            ],
            unit="ratio",
        ),
        "service.qos.truncated_feasible_ratio": ratio(
            sum(1 for d in truncated if d["feasible"]), len(truncated)
        ),
        "scale.columnar.chunk_hits": delta("scale", "chunk_hits"),
        "scale.columnar.chunk_misses": delta("scale", "chunk_misses"),
        "scale.columnar.chunk_hit_ratio": ratio(
            chunk_hits, chunk_hits + chunk_misses
        ),
        "scale.columnar.peak_resident_bytes": {
            "value": stats_after.get("scale", {}).get("resident_peak_bytes", 0),
            "unit": "B",
        },
        "scale.partition.index_hits": delta("scale", "index_hits"),
        "scale.partition.index_misses": delta("scale", "index_misses"),
        "scale.partition.build_self_s": self_s("scale.partition.build"),
        "scale.driver.calls": calls("scale.driver"),
        "scale.driver.self_s": self_s("scale.driver"),
        "scale.driver.sketch_s": delta("scale", "sketch_seconds", "s"),
        "scale.driver.refine_s": delta("scale", "refine_seconds", "s"),
        "scale.driver.partitions_refined": {"value": refined, "unit": "count"},
        "scale.driver.partitions_reused": {"value": reused, "unit": "count"},
        "scale.driver.reuse_ratio": ratio(reused, reused + refined),
        "scale.driver.repair_fallbacks": delta("scale", "delta_repair_fallbacks"),
        "db.delta.applies": calls("db.delta.apply"),
        "db.delta.apply_self_s": self_s("db.delta.apply"),
        "db.delta.dirty_rows": count("db.delta.dirty_rows"),
        "bench.traced_root_s": {
            "value": root["busy_s"],
            "unit": "s",
            "n": root["calls"],
        },
        "bench.unattributed_ratio": ratio(root["self_s"], root["busy_s"]),
        "bench.trace_overhead_ratio": ratio(
            bookkeeping, root["busy_s"] - bookkeeping
        ),
    }


def measure(args, workload, cold_ops, setup_s: float, out_dir: str) -> dict:
    """Cold phase, steady phase, answer checks, metrics."""
    pins = None  # --repin: record answers, compare with nothing
    if not args.repin:
        with open(os.path.join(HERE, "expected.json")) as handle:
            pins = json.load(handle).get(args.workload, {})
    tracer = None
    if args.trace:
        import trace as ledger_trace

        tracer = ledger_trace.Tracer()
        tracer.install()
    cold = run_phase(workload, cold_ops, pins, tracer, "cold")
    cold_spans = []
    counts_before = collections.Counter()
    if tracer is not None:
        cold_spans, tracer.spans = tracer.spans, []
        tracer.queue_waits.clear()
        counts_before = tracer.counts()
    workload.reset_samples()
    stats_before = workload.layer_stats()
    steady = run_phase(workload, workload.steady_ops(), pins, tracer, "steady")
    stats_after = workload.layer_stats()
    records = cold["records"] + steady["records"]
    result = {
        "attempted": len(records),
        "failed": sum(1 for r in records if r["failures"]),
        "failures": [
            {"op": r["op"], "why": r["failures"]} for r in records if r["failures"]
        ],
        "cold_wall_s": cold["wall_s"],
        "steady_wall_s": steady["wall_s"],
        "pins": {r["op"]: r["pin"] for r in records if r.get("pin") and r["pinned"]},
        "ops": [{"op": r["op"], "latency_s": r["latency_s"]} for r in records],
        "metrics": end_to_end_metrics(setup_s, cold, steady),
    }
    if tracer is None:
        return result
    tracer.uninstall()
    counts = tracer.counts()
    counts.subtract(counts_before)
    result["layers"] = layer_metrics(tracer, workload, counts, stats_before, stats_after)
    with open(os.path.join(out_dir, f"{args.workload}.spans.json"), "w") as handle:
        json.dump(
            {
                "fields": ["id", "name", "parent", "op_id", "start", "end", "busy_s", "calls"],
                "spans": cold_spans + tracer.spans,
            },
            handle,
        )
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="stop before the steady phase (and before the cold phase,"
        " unless the workload repeats it per set-up)",
    )
    parser.add_argument("--repin", action="store_true")
    args = parser.parse_args(argv)

    out_dir = os.path.dirname(os.path.abspath(args.result))
    tmp_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir)
    workload = None
    try:
        import numpy
        import scipy

        from workloads import WORKLOADS

        workload = WORKLOADS[args.workload](args.seed, args.seconds, tmp_dir)
        workload.setup()
        cold_ops = workload.cold_ops()
        setup_s = time.time() - args.spawned_at
        result = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "traced": bool(args.trace),
            "inputs": workload.describe(),
            "setup_s": setup_s,
            "provenance": {
                "nproc": os.cpu_count(),
                "python": platform.python_version(),
                "numpy": numpy.__version__,
                "scipy": scipy.__version__,
            },
        }
        if not args.setup_only:
            result.update(measure(args, workload, cold_ops, setup_s, out_dir))
        elif workload.repeat_cold:
            cold = run_phase(workload, cold_ops, None, None, "cold")
            result["cold_wall_s"] = cold["wall_s"]
        with open(args.result, "w") as handle:
            json.dump(result, handle, indent=1)
            handle.write("\n")
        return 0
    finally:
        if workload is not None:
            try:
                workload.close()
            except Exception:  # noqa: BLE001 - teardown must not mask the run
                import traceback

                traceback.print_exc()
        shutil.rmtree(tmp_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
