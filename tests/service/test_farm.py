"""SolveFarm: process backend, memmap handoff, recycling, crash recovery."""

from __future__ import annotations

import os
import signal
import threading
import time
from collections import OrderedDict

import numpy as np
import pytest

from repro import Catalog, Relation, SPQConfig
from repro.errors import SPQError
from repro.mcdb import GaussianNoiseVG, StochasticModel
from repro.obs import status_sections
from repro.service import QueryBroker, WorkerCrashError
from repro.service import farm as farm_module
from repro.service.farm import SolveFarm, _Worker

QUERY = """
SELECT PACKAGE(*) FROM items SUCH THAT
    COUNT(*) <= 3 AND
    SUM(Value) >= 6 WITH PROBABILITY >= 0.8
MINIMIZE EXPECTED SUM(Value)
"""


def _catalog(n_rows: int = 5) -> Catalog:
    if n_rows == 5:
        prices = [5.0, 8.0, 3.0, 6.0, 4.0]
    else:
        prices = np.random.default_rng(0).uniform(1.0, 10.0, n_rows)
    relation = Relation("items", {"price": prices})
    model = StochasticModel(relation, {"Value": GaussianNoiseVG("price", 1.0)})
    out = Catalog()
    out.register(relation, model)
    return out


def _config(**overrides) -> SPQConfig:
    defaults = dict(
        n_validation_scenarios=500,
        n_initial_scenarios=20,
        scenario_increment=20,
        max_scenarios=60,
        epsilon=0.8,
        seed=11,
    )
    defaults.update(overrides)
    return SPQConfig(**defaults)


def _busy_worker(broker: QueryBroker, exclude=(), timeout: float = 60.0) -> dict:
    """Poll /status until a busy worker (not in ``exclude``) appears."""
    deadline = time.time() + timeout
    while time.time() < deadline:
        for worker in broker.status()["farm"]["workers"]:
            if worker["state"] == "busy" and worker["pid"] not in exclude:
                return worker
        time.sleep(0.01)
    raise AssertionError("no busy worker observed before the deadline")


def test_process_backend_matches_thread_backend_bit_identically():
    catalog = _catalog()
    config = _config()
    with QueryBroker(catalog, config=config, pool_size=2, backend="thread") as b:
        reference = b.execute(QUERY)
    with QueryBroker(catalog, config=config, pool_size=2, backend="process") as b:
        result = b.execute(QUERY)
        status = b.status()
    assert status["backend"] == "process"
    assert status["farm"]["n_workers"] == 2
    assert result.feasible == reference.feasible
    assert result.objective == reference.objective
    assert np.array_equal(
        result.package.multiplicities, reference.package.multiplicities
    )


def test_farm_serves_concurrent_queries_and_reports_workers():
    catalog = _catalog()
    config = _config()
    with QueryBroker(catalog, config=config, pool_size=2, backend="process") as b:
        futures = [b.submit(QUERY, seed=s) for s in (1, 2, 3, 4)]
        results = [f.result(timeout=120) for f in futures]
        status = b.status()
    assert all(r is not None for r in results)
    assert status["completed"] == 4
    assert status["failed"] == 0
    farm = status["farm"]
    assert farm["crashed_total"] == 0
    assert {w["state"] for w in farm["workers"]} <= {"idle", "busy", "starting"}
    assert sum(w["tasks_completed"] for w in farm["workers"]) == 4


def test_handoff_descriptors_flow_between_workers():
    # Worker A realizes the matrices; the same query (different worker,
    # same content keys) must adopt them instead of regenerating.
    catalog = _catalog()
    config = _config()
    with QueryBroker(catalog, config=config, pool_size=2, backend="process") as b:
        first = b.execute(QUERY)
        assert b.status()["farm"]["handoff_entries"] > 0
        # Drive every worker through the same query; at least one run
        # lands on the worker that did not realize the matrices.
        results = [b.execute(QUERY, epsilon=0.79) for _ in range(3)]
        farm = b.status()["farm"]
    assert farm["handoff_entries"] > 0
    for result in results:
        assert result.feasible == first.feasible


def test_errors_cross_the_process_boundary():
    catalog = _catalog()
    with QueryBroker(
        catalog, config=_config(), pool_size=1, backend="process"
    ) as b:
        with pytest.raises(SPQError):
            b.execute("SELECT PACKAGE(*) FROM nowhere SUCH THAT COUNT(*) <= 1")
        # The worker survives a failed evaluation.
        assert b.execute(QUERY).feasible
        status = b.status()
    assert status["failed"] == 1
    assert status["completed"] == 1


def test_worker_recycling_replaces_workers_without_dropping_requests():
    catalog = _catalog()
    with QueryBroker(
        catalog,
        config=_config(),
        pool_size=1,
        backend="process",
        recycle_after=2,
    ) as b:
        results = [b.execute(QUERY, seed=s) for s in range(5)]
        deadline = time.time() + 30
        while time.time() < deadline:
            farm = b.status()["farm"]
            if farm["recycled_total"] >= 2 and farm["idle"] + farm["busy"] >= 1:
                break
            time.sleep(0.05)
        farm = b.status()["farm"]
    assert all(r.feasible for r in results)
    assert farm["recycled_total"] >= 2
    assert farm["crashed_total"] == 0


@pytest.mark.parametrize("kills", [1, 2])
def test_killed_worker_requeues_once_then_surfaces_crash(kills):
    # A solver-bound request large enough to give the kill a wide
    # window (hundreds of ms of realization + validation per solve).
    catalog = _catalog(n_rows=400)
    config = _config(
        n_validation_scenarios=300_000,
        n_initial_scenarios=50,
        scenario_increment=50,
        max_scenarios=100,
        epsilon=0.9,
    )
    slow_query = """
    SELECT PACKAGE(*) FROM items SUCH THAT
        COUNT(*) <= 5 AND
        SUM(Value) >= 20 WITH PROBABILITY >= 0.8
    MINIMIZE EXPECTED SUM(Value)
    """
    with QueryBroker(
        catalog, config=config, pool_size=2, backend="process"
    ) as broker:
        future = broker.submit(slow_query)
        killed = []
        for _ in range(kills):
            worker = _busy_worker(broker, exclude=killed)
            killed.append(worker["pid"])
            os.kill(worker["pid"], signal.SIGKILL)
        if kills == 1:
            # Retried once on another worker; the request still succeeds.
            result = future.result(timeout=180)
            assert result.feasible
        else:
            # Second death of the same request: exit-code-3 semantics.
            with pytest.raises(WorkerCrashError):
                future.result(timeout=180)
        farm = broker.status()["farm"]
        assert farm["crashed_total"] >= kills
        assert farm["retried_total"] >= 1
        # The farm replaced the dead workers and keeps serving.
        follow_up = broker.execute(QUERY)
        assert follow_up.feasible
        farm = broker.status()["farm"]
        assert farm["idle"] + farm["busy"] >= 1


def test_future_callbacks_run_outside_the_farm_lock():
    # Done-callbacks run synchronously on the thread that settles the
    # future.  A slot must settle outside the broker and farm locks, or
    # a callback reading broker.status() (which needs both) wedges —
    # and close() with it.
    for backend in ("thread", "process"):
        broker = QueryBroker(
            _catalog(), config=_config(), pool_size=1, backend=backend
        )
        seen = []
        done = threading.Event()

        def callback(_future, broker=broker, seen=seen, done=done):
            seen.append(broker.status()["backend"])
            done.set()

        future = broker.submit(QUERY)
        future.add_done_callback(callback)
        assert future.result(timeout=120).feasible
        assert done.wait(timeout=30), f"callback wedged on {backend}"
        assert seen == [backend]
        # close() on a daemon thread: on a regression a slot is wedged
        # holding a lock and close() would hang the suite forever.
        closer = threading.Thread(target=broker.close, daemon=True)
        closer.start()
        closer.join(timeout=60)
        assert not closer.is_alive()


def test_concurrent_submits_and_completions_do_not_deadlock():
    # Submitting threads (broker lock -> farm submit) race the manager
    # thread completing earlier requests (farm lock -> broker callback);
    # with pool_size 2 completions overlap fresh submissions constantly.
    catalog = _catalog()
    with QueryBroker(
        catalog, config=_config(), pool_size=2, max_pending=32, backend="process"
    ) as broker:
        futures = []
        futures_lock = threading.Lock()

        def client(seed: int) -> None:
            for i in range(2):
                future = broker.submit(QUERY, seed=100 * seed + i)
                with futures_lock:
                    futures.append(future)

        threads = [
            threading.Thread(target=client, args=(s,), daemon=True)
            for s in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
        results = [future.result(timeout=180) for future in futures]
    assert len(results) == 8
    assert all(result.feasible for result in results)


def test_process_backend_rejects_a_caller_supplied_store():
    # Farm workers host private stores; silently ignoring a supplied
    # store would skip its budget/spill settings and report zero stats.
    from repro.service import ScenarioStore

    catalog = _catalog()
    store = ScenarioStore()
    try:
        with pytest.raises(SPQError, match="process backend"):
            QueryBroker(
                catalog, config=_config(), store=store, backend="process"
            )
    finally:
        store.close()


def test_process_backend_aggregates_worker_store_stats():
    # The broker has no store of its own on the process backend; the
    # stats it reports must come from the farm workers' private stores
    # rather than reading permanently zero.
    catalog = _catalog()
    with QueryBroker(
        catalog, config=_config(), pool_size=1, backend="process"
    ) as broker:
        assert broker.store is None
        broker.execute(QUERY)
        stats = broker.status()["store"]
        assert stats["generations"] > 0
        assert stats["entries"] > 0
        # Repeating the query hits the worker's warm store.
        broker.execute(QUERY)
        assert broker.status()["store"]["hits"] > stats["hits"]


def _resources_and_histograms(broker):
    snapshot = broker.metrics()
    return status_sections(snapshot)["resources"], snapshot["histograms"]


def test_descriptor_prune_drops_worker_known_entries(tmp_path, monkeypatch):
    # When the handoff registry evicts past its ceiling, every worker's
    # `known` map must drop the pruned keys too, or long-running farms
    # leak one entry per distinct content key per worker.
    monkeypatch.setattr(farm_module, "_MAX_HANDOFF_KEYS", 2)
    farm = SolveFarm.__new__(SolveFarm)  # no processes: merge logic only
    farm._descriptors = OrderedDict()
    farm._workers = {}
    worker = _Worker(1, process=None, conn=None)
    farm._workers[worker.id] = worker
    paths = []
    for i in range(3):
        path = tmp_path / f"m{i}.f64"
        path.write_bytes(b"\0" * 8)
        paths.append(path)
        farm._merge_descriptors_locked(
            {("key", i): {"path": str(path), "shape": (1, 1)}}, worker
        )
    assert set(farm._descriptors) == {("key", 1), ("key", 2)}
    assert set(worker.known) == {("key", 1), ("key", 2)}
    assert not paths[0].exists()  # pruned descriptor's file unlinked
    assert paths[1].exists() and paths[2].exists()


def test_broker_returns_admission_slot_when_farm_submit_fails():
    # A farm that refuses work (here: closed out from under the broker)
    # must not leak _pending slots — otherwise the broker saturates
    # permanently and turns every real error into a 503.
    catalog = _catalog()
    broker = QueryBroker(
        catalog, config=_config(), pool_size=1, max_pending=2, backend="process"
    )
    try:
        broker._farm.close()
        for _ in range(5):  # more attempts than max_pending
            with pytest.raises(SPQError):
                broker.submit(QUERY)
        assert broker.status()["pending"] == 0
        assert broker.status()["rejected_total"] == 0  # errors, not 503s
    finally:
        broker.close()


def test_farm_close_is_idempotent_and_rejects_new_work():
    catalog = _catalog()
    broker = QueryBroker(
        catalog, config=_config(), pool_size=1, backend="process"
    )
    assert broker.execute(QUERY).feasible
    spill_dir = broker._farm._spill_dir
    assert os.path.isdir(spill_dir)
    broker.close()
    broker.close()  # idempotent
    with pytest.raises(SPQError):
        broker.submit(QUERY)
    # The shared spill directory (handoff memmaps) is removed.
    assert not os.path.exists(spill_dir)


def test_delta_broadcast_reaches_workers_and_matches_rebuild():
    from repro.db.delta import RelationDelta

    catalog = _catalog()
    with QueryBroker(
        catalog, config=_config(), pool_size=2, backend="process"
    ) as broker:
        first = broker.execute(QUERY)
        v0 = first.meta["catalog_version"]
        summary = broker.apply_update(
            "items", {"updates": [[0, {"price": 50.0}]]}
        )
        assert summary["catalog_version"] == v0 + 1
        # Both submissions land after the broadcast; whichever worker
        # picks them up must have adopted the delta first.
        second = broker.execute(QUERY)
        third = broker.execute(QUERY, seed=12)
        assert second.meta["catalog_version"] == v0 + 1
        assert third.meta["catalog_version"] == v0 + 1
        assert broker.status()["deltas_applied"] == 1

    # Ground truth: the same delta applied directly to a fresh catalog,
    # solved on the thread backend — the farm's post-delta answer must
    # be bit-identical (content-addressed scenario draws).
    truth_catalog = _catalog()
    truth_catalog.apply_delta(
        "items", RelationDelta(updates={0: {"price": 50.0}})
    )
    with QueryBroker(
        truth_catalog, config=_config(), pool_size=1, backend="thread"
    ) as broker:
        truth = broker.execute(QUERY)
    assert np.array_equal(
        second.package.multiplicities, truth.package.multiplicities
    )
    assert second.objective == truth.objective


def test_aggregation_invariants_survive_worker_recycling():
    # Lifetime-monotonic invariant: resource counters and stage
    # histograms merged across the farm never regress when workers are
    # recycled — each departing generation's last snapshot is absorbed
    # into farm totals rather than dropped with the process.
    catalog = _catalog()
    with QueryBroker(
        catalog,
        config=_config(),
        pool_size=1,
        backend="process",
        recycle_after=1,
    ) as broker:
        base_res, base_hist = _resources_and_histograms(broker)
        last_res, last_hist = base_res, base_hist
        for n in range(1, 4):
            assert broker.execute(QUERY, seed=n).feasible
            res, hist = _resources_and_histograms(broker)
            # Exactly one query accounted per execute, whichever worker
            # generation served it.
            assert (
                res["queries_accounted"]
                == base_res["queries_accounted"] + n
            )
            assert res["lp_solves"] > last_res["lp_solves"]
            assert res["query_cpu_seconds"] >= last_res["query_cpu_seconds"]
            # Every stage seen so far keeps its observations: merged
            # histograms are cumulative across worker generations.
            for stage, snap in last_hist.items():
                assert hist[stage]["count"] >= snap["count"], stage
                assert hist[stage]["sum"] >= snap["sum"] - 1e-9, stage
            base_queries = base_hist.get("query", {"count": 0})["count"]
            assert hist["query"]["count"] == base_queries + n
            last_res, last_hist = res, hist
        # The pool really did turn over while the counters accumulated.
        deadline = time.time() + 30
        while time.time() < deadline:
            if broker.status()["farm"]["recycled_total"] >= 2:
                break
            time.sleep(0.05)
        assert broker.status()["farm"]["recycled_total"] >= 2


def test_aggregation_invariants_survive_a_worker_crash():
    # Kill an idle worker that already served queries: the reaper
    # absorbs its last snapshots into farm totals, so lifetime counters
    # and histogram observations survive the process exactly.
    catalog = _catalog()
    with QueryBroker(
        catalog, config=_config(), pool_size=1, backend="process"
    ) as broker:
        for seed in range(2):
            assert broker.execute(QUERY, seed=seed).feasible
        before_res, before_hist = _resources_and_histograms(broker)
        # Let the worker's result-queue feeder thread go fully quiescent
        # before the kill: SIGKILL between its send() and the shared
        # write-lock release would wedge the queue for every later
        # writer (the documented mp.Queue abrupt-death hazard — the busy
        # kills above never write results, so they are outside it).
        time.sleep(0.5)
        victim = broker.status()["farm"]["workers"][0]
        os.kill(victim["pid"], signal.SIGKILL)
        deadline = time.time() + 30
        while time.time() < deadline:
            farm = broker.status()["farm"]
            if farm["crashed_total"] >= 1 and farm["idle"] + farm["busy"] >= 1:
                break
            time.sleep(0.05)
        assert broker.status()["farm"]["crashed_total"] >= 1
        after_res, after_hist = _resources_and_histograms(broker)
        # Nothing was in flight, so the totals are preserved bit-exactly:
        # the dead worker's contribution moved from its live snapshot
        # into the absorbed totals.
        assert after_res == before_res
        for stage, snap in before_hist.items():
            assert after_hist[stage]["count"] == snap["count"], stage
        # The replacement worker keeps counting from there.
        assert broker.execute(QUERY, seed=9).feasible
        final_res, _ = _resources_and_histograms(broker)
        assert (
            final_res["queries_accounted"]
            == before_res["queries_accounted"] + 1
        )
