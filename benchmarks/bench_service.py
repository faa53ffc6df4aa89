"""Serving-layer benchmarks: warm store hits, and backend throughput.

Two acceptance properties of the ``repro.service`` subsystem:

* a second identical query through the broker performs **zero scenario
  regeneration** — the store's hit counter moves, its generation counter
  does not — and completes measurably faster than the first, because the
  solver/validation work is unchanged while realization (optimization
  matrices, probe bounds, and the Pareto Monte-Carlo expectation pass,
  which Galaxy Q5 cannot compute analytically) drops out;
* under **concurrent clients** with evaluation-bound work, the process
  backend (solve farm) outperforms the thread backend, whose Python-side
  evaluation serializes on the GIL — by ≥1.5× on a 4-core machine — while
  returning bit-identical packages.  Results are recorded in
  ``BENCH_service.json`` at the repo root (the serving-layer perf
  trajectory).

Methodology: each round builds a fresh broker + store over the cached
galaxy catalog, pays the cold query once, then repeats the identical
query warm.  Cold and warm minima are compared across rounds, isolating
the realization cost from solver noise.
"""

import json
import os
import time

import numpy as np

from repro.service import QueryBroker, ScenarioStore
from repro.workloads import get_query

from conftest import bench_config, cached_catalog, stamp_record

SCALE = 1500
ROUNDS = 3
WARM_REPEATS = 2

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_RESULTS_PATH = os.path.join(REPO_ROOT, "BENCH_service.json")


def _update_bench_record(name: str, record: dict) -> None:
    """Merge one benchmark's record into ``BENCH_service.json``.

    The file is a ``{"benchmarks": {name: record, ...}}`` document so
    each test updates its own entry without clobbering the others.  (It
    used to hold a single flat record; that legacy shape is migrated on
    first read.)
    """
    try:
        with open(BENCH_RESULTS_PATH) as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError):
        data = {}
    if not isinstance(data, dict) or "benchmarks" not in data:
        legacy = data.get("benchmark") if isinstance(data, dict) else None
        data = {"benchmarks": {legacy: data} if legacy else {}}
    data["benchmarks"][name] = stamp_record(record)
    with open(BENCH_RESULTS_PATH, "w") as handle:
        json.dump(data, handle, indent=2)
        handle.write("\n")


def _stage_breakdown(broker, future) -> dict | None:
    """Per-stage self seconds for one traced broker query, or None."""
    from repro.obs import aggregate_self_times

    trace_id = getattr(future, "trace_id", None)
    if trace_id is None or broker.trace_ring is None:
        return None
    doc = broker.trace_ring.tree(trace_id, wait_s=5.0)
    if doc is None or doc.get("root") is None:
        return None
    return {
        name: round(entry["self_s"], 6)
        for name, entry in sorted(aggregate_self_times(doc["root"]).items())
    }


def _service_config(**overrides):
    defaults = dict(
        n_initial_scenarios=64,
        scenario_increment=64,
        max_scenarios=128,
        n_validation_scenarios=1_000,
        n_expectation_scenarios=6_000,
        epsilon=0.9,
    )
    defaults.update(overrides)
    return bench_config(**defaults)


def test_second_identical_query_is_served_from_store(benchmark):
    spec = get_query("galaxy", "Q5")  # Pareto: Monte-Carlo expectations
    catalog = cached_catalog("galaxy", "Q5", scale=SCALE)
    config = _service_config()

    cold_times, warm_times = [], []
    results = []
    stage_seconds: dict | None = None

    def one_round():
        nonlocal stage_seconds
        with QueryBroker(catalog, config=config, pool_size=2) as broker:
            started = time.perf_counter()
            first = broker.execute(spec.spaql)
            cold = time.perf_counter() - started
            after_first = broker.store.stats()
            assert after_first.generations > 0

            best_warm, second = float("inf"), None
            for _ in range(WARM_REPEATS):
                started = time.perf_counter()
                future = broker.submit(spec.spaql)
                second = future.result()
                best_warm = min(best_warm, time.perf_counter() - started)
            after_warm = broker.store.stats()
            stage_seconds = _stage_breakdown(broker, future) or stage_seconds

            # Zero scenario regeneration on the identical repeats.
            assert after_warm.generations == after_first.generations
            assert after_warm.generated_columns == after_first.generated_columns
            assert after_warm.hits > after_first.hits
            results.append((first, second))
            cold_times.append(cold)
            warm_times.append(best_warm)
            return second

    final = benchmark.pedantic(one_round, rounds=ROUNDS, iterations=1)
    assert final is not None

    # Warm must beat cold: the solve/validation work is identical, the
    # realization work is gone.
    assert min(warm_times) < min(cold_times)
    # And the answers are bit-identical.
    for first, second in results:
        assert first.feasible == second.feasible
        if first.package is not None:
            assert np.array_equal(
                first.package.multiplicities, second.package.multiplicities
            )
        assert first.objective == second.objective

    benchmark.extra_info["cold_min_s"] = min(cold_times)
    benchmark.extra_info["warm_min_s"] = min(warm_times)
    benchmark.extra_info["speedup"] = min(cold_times) / max(min(warm_times), 1e-12)
    benchmark.extra_info["scale"] = SCALE
    _update_bench_record("warm_store_hits", {
        "workload": "galaxy/Q5",
        "scale": SCALE,
        "cold_min_s": round(min(cold_times), 4),
        "warm_min_s": round(min(warm_times), 4),
        "speedup": round(min(cold_times) / max(min(warm_times), 1e-12), 4),
        # Self seconds per traced stage on a warm query — the profile
        # the speedup/regression is attributed against ("validate" is
        # the key shared with BENCH_scale.json's breakdown).
        "stage_seconds": stage_seconds,
    })


def test_store_budget_pressure_is_result_invariant(benchmark):
    """Under a budget far below the working set the store spills to
    memmap, and the served package stays bit-identical to unlimited."""
    spec = get_query("galaxy", "Q5")
    catalog = cached_catalog("galaxy", "Q5", scale=400)
    config = _service_config(n_expectation_scenarios=1_000)

    with ScenarioStore() as unlimited:
        with QueryBroker(catalog, config=config, store=unlimited) as broker:
            reference = broker.execute(spec.spaql)

    def constrained_query():
        with ScenarioStore(budget_bytes=4096) as tiny:
            with QueryBroker(catalog, config=config, store=tiny) as broker:
                result = broker.execute(spec.spaql)
            stats = tiny.stats()
        return result, stats

    result, stats = benchmark.pedantic(constrained_query, rounds=1, iterations=1)
    assert stats.spills > 0
    assert result.feasible == reference.feasible
    if reference.package is not None:
        assert np.array_equal(
            reference.package.multiplicities, result.package.multiplicities
        )
    assert result.objective == reference.objective
    benchmark.extra_info["spills"] = stats.spills
    benchmark.extra_info["budget_bytes"] = 4096


# --- concurrent clients: thread vs process backend ---------------------------

N_CLIENTS = 8
CLIENT_SEEDS = tuple(range(101, 101 + N_CLIENTS))
FARM_POOL = 4


def _throughput_config():
    # Evaluation-bound on purpose: model building, summaries and
    # validation are Python, so the thread backend's concurrent queries
    # serialize on the GIL — exactly the contention the solve farm
    # removes.  The point is the *ratio* under concurrency.
    return bench_config(
        n_validation_scenarios=1_000,
        n_initial_scenarios=16,
        scenario_increment=16,
        max_scenarios=48,
        epsilon=0.6,
    )


def _drive_backend(backend: str, catalog, config):
    """Serve the client mix on one backend.

    Returns ``(wall_s, results, stage_seconds)`` where the last is one
    sampled client's per-stage self-time breakdown (None if untraced).
    """
    with QueryBroker(
        catalog, config=config, pool_size=FARM_POOL, backend=backend
    ) as broker:
        spec = get_query("portfolio", "Q1")
        # Warm-up (excluded from timing): pays fork/session start-up and
        # the first realization for both backends alike.
        broker.execute(spec.spaql, seed=7)
        started = time.perf_counter()
        futures = {
            seed: broker.submit(spec.spaql, seed=seed) for seed in CLIENT_SEEDS
        }
        results = {seed: f.result(timeout=600) for seed, f in futures.items()}
        wall = time.perf_counter() - started
        stages = _stage_breakdown(broker, futures[CLIENT_SEEDS[0]])
    return wall, results, stages


def test_concurrent_clients_process_backend_beats_threads(benchmark):
    """Throughput under 8 concurrent evaluation-bound clients, both backends.

    Asserts bit-identical packages across backends always; asserts the
    ≥1.5× process-over-thread throughput floor on machines with ≥4
    cores (below that the farm cannot physically parallelize — results
    are still recorded so the perf trajectory shows the hardware).
    """
    catalog = cached_catalog("portfolio", "Q1", scale=60)
    config = _throughput_config()

    thread_wall, thread_results, _ = _drive_backend("thread", catalog, config)

    def process_round():
        return _drive_backend("process", catalog, config)

    process_wall, process_results, process_stages = benchmark.pedantic(
        process_round, rounds=1, iterations=1
    )

    # Identical query results across backends: bit-identical packages,
    # same objectives, per seed.
    for seed in CLIENT_SEEDS:
        first, second = thread_results[seed], process_results[seed]
        assert first.feasible == second.feasible
        assert first.objective == second.objective
        if first.package is not None:
            assert np.array_equal(
                first.package.multiplicities, second.package.multiplicities
            )

    speedup = thread_wall / max(process_wall, 1e-12)
    record = {
        "workload": "portfolio/Q1",
        "scale": 60,
        "solver": "highs",
        "n_clients": N_CLIENTS,
        "pool_size": FARM_POOL,
        "cpu_count": os.cpu_count(),
        "thread_wall_s": round(thread_wall, 4),
        "process_wall_s": round(process_wall, 4),
        "thread_qps": round(N_CLIENTS / thread_wall, 4),
        "process_qps": round(N_CLIENTS / process_wall, 4),
        "speedup": round(speedup, 4),
        "identical_packages": True,
        # One sampled process-backend client's per-stage self seconds —
        # attributes the speedup (or its absence) to solve vs overhead.
        "stage_seconds": process_stages,
    }
    _update_bench_record("concurrent_clients_thread_vs_process", record)
    benchmark.extra_info.update(
        {k: v for k, v in record.items() if k != "stage_seconds"}
    )

    if (os.cpu_count() or 1) >= 4:
        assert speedup >= 1.5, (
            f"process backend must beat threads by >= 1.5x on >= 4 cores"
            f" (got {speedup:.2f}x)"
        )


# --- tracing overhead --------------------------------------------------------

#: Stage-enter/exit iterations for the per-span cost measurement.
_OVERHEAD_ITERS = 20_000


def test_trace_overhead_disabled_noop_enabled_under_2pct():
    """Tracing must be a no-op when off and <2% of a warm query when on.

    Wall-clock A/B runs of a whole query cannot resolve a sub-2% delta
    above solver noise, so the bound is established structurally: the
    per-span cost of ``stage()`` (measured over 20k enter/exit cycles)
    times the span count of a real traced warm query must stay under 2%
    of that query's untraced wall time.  Disabled, ``stage()`` must
    return the shared no-op singleton — no allocation, no span.
    """
    from repro.obs import (
        TraceSession, activate, new_trace_id, stage, stage_histograms,
    )
    from repro.obs.trace import _NULL_STAGE, current_session
    from repro.service import ScenarioStore
    from repro.core.engine import SPQEngine

    # Disabled path: the no-op check.  With no active session every
    # stage() call returns the same singleton.
    assert current_session() is None
    assert stage("bench.noop", attr=1) is _NULL_STAGE
    assert stage("bench.other") is _NULL_STAGE

    def per_span_cost() -> float:
        started = time.perf_counter()
        for _ in range(_OVERHEAD_ITERS):
            with stage("bench.noop"):
                pass
        return (time.perf_counter() - started) / _OVERHEAD_ITERS

    disabled_cost = min(per_span_cost() for _ in range(3))
    session = TraceSession(
        new_trace_id(), max_spans=3 * _OVERHEAD_ITERS + 16
    )
    with activate(session):
        enabled_cost = min(per_span_cost() for _ in range(3))
    assert session.dropped == 0
    # A finished trace feeds the stage histograms (the engine and the
    # broker call observe_spans): that share is part of a span's cost.
    started = time.perf_counter()
    stage_histograms.observe_spans(session.spans)
    enabled_cost += (time.perf_counter() - started) / len(session.spans)

    # The real span count of a traced warm query, and its untraced wall.
    spec = get_query("galaxy", "Q5")
    catalog = cached_catalog("galaxy", "Q5", scale=400)
    config = _service_config(n_expectation_scenarios=1_000)
    with ScenarioStore() as store:
        engine = SPQEngine(catalog=catalog, config=config, store=store)
        engine.execute(spec.spaql)  # cold: realize + cache scenarios
        traced = TraceSession(new_trace_id(), max_spans=100_000)
        with activate(traced):
            engine.execute(spec.spaql)
        n_spans = len(traced.spans)
        started = time.perf_counter()
        engine.execute(spec.spaql, trace_enabled=False)
        warm_wall = time.perf_counter() - started
    assert n_spans > 0

    disabled_overhead = n_spans * disabled_cost / warm_wall
    enabled_overhead = n_spans * enabled_cost / warm_wall
    _update_bench_record("trace_overhead", {
        "disabled_ns_per_span": round(disabled_cost * 1e9, 1),
        "enabled_ns_per_span": round(enabled_cost * 1e9, 1),
        "spans_per_warm_query": n_spans,
        "warm_query_s": round(warm_wall, 4),
        "disabled_overhead_pct": round(disabled_overhead * 100.0, 4),
        "enabled_overhead_pct": round(enabled_overhead * 100.0, 4),
    })
    assert disabled_overhead < 0.02, (
        f"disabled tracing costs {disabled_overhead:.2%} of a warm query"
    )
    assert enabled_overhead < 0.02, (
        f"enabled tracing costs {enabled_overhead:.2%} of a warm query"
        f" ({n_spans} spans x {enabled_cost * 1e6:.1f}us"
        f" vs {warm_wall:.3f}s)"
    )
