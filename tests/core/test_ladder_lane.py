"""The ladder lane (``core/lane.py``): same answers, counted rungs.

SummarySearch hands the rung its ladder's branch leads to next to one
helper thread while the caller solves the current rung, and consumes
rungs in ladder order.  Every case is evaluated with the lane off and
forced on (``forced_lane``: on any box, after every first transition);
the two must agree on the package, the objective, ε, the gap, every
``IterationRecord`` and, rung by consumed rung, every ``CSAIteration``
(timings aside).  The query's bill counts the rungs the lane started,
consumed and discarded.
"""

from __future__ import annotations

import dataclasses
import pickle
import threading

import numpy as np
import pytest

import repro.core.summarysearch as summarysearch
from repro import Catalog, SPQConfig, SPQEngine
from repro.core import lane
from repro.datasets.portfolio import (
    PortfolioParams,
    build_portfolio,
    build_portfolio_store,
)
from repro.obs import epsilon_events
from repro.obs.profile import iter_tree
from repro.scale import refine_cache
from repro.scale.partition import PartitionIndex
from repro.service import ScenarioStore
from repro.workloads import get_query

DATASET_SEED = 42

CONFIG = SPQConfig(
    n_validation_scenarios=1_000,
    n_initial_scenarios=20,
    scenario_increment=20,
    max_scenarios=60,
    n_expectation_scenarios=400,
    n_probe_scenarios=16,
    epsilon=0.5,
    scale_pilot_scenarios=8,
)

UNTIMED = dict(solve_time=0.0, validate_time=0.0, summary_time=0.0)

#: ``lane.usable_cpus`` as shipped (``forced_lane`` replaces it).
USABLE_CPUS = lane.usable_cpus


@pytest.fixture(autouse=True)
def _leave_no_process_caches_behind():
    yield
    PartitionIndex.clear_memory()
    refine_cache.clear()


def workload(name, query, scale):
    spec = get_query(name, query)

    def register(engine, directory):
        relation, model = spec.build_dataset(scale, seed=DATASET_SEED)
        engine.register(relation, model)
        return relation

    return register, spec.spaql


def portfolio_q1(n_stocks, on_disk):
    """portfolio/Q1 for the scale driver, in memory or as a ColumnStore."""
    params = PortfolioParams(n_stocks=n_stocks, seed=7)

    def register(engine, directory):
        if on_disk:
            relation, model = build_portfolio_store(params, directory, chunk_rows=32)
        else:
            relation, model = build_portfolio(params)
        engine.register(relation, model)
        return relation

    return register, get_query("portfolio", "Q1").spaql


def evaluate(register, query, method, config, store, directory=None):
    """One evaluation: (comparable outcome, the query's lane counts).

    The outcome holds, in ladder order, the CSA-Solve results the ladders
    consumed: the caller's own rungs and the ones :meth:`_Ahead.take`
    handed over from the lane — never a rung the lane solved and the
    ladder discarded.
    """
    PartitionIndex.clear_memory()
    refine_cache.clear()
    consumed = []
    with pytest.MonkeyPatch.context() as patch:
        real_solve_rung = summarysearch._solve_rung
        real_take = summarysearch._Ahead.take

        def solve_rung(*args, **kwargs):
            outcome = real_solve_rung(*args, **kwargs)
            if threading.current_thread().name != lane.THREAD_NAME:
                consumed.append(outcome[0])
            return outcome

        def take(self, rung):
            outcome = real_take(self, rung)
            if outcome is not None:
                consumed.append(outcome[0])
            return outcome

        patch.setattr(summarysearch, "_solve_rung", solve_rung)
        patch.setattr(summarysearch._Ahead, "take", take)
        engine = SPQEngine(config=config, store=store)
        relation = register(engine, directory)
        try:
            result = engine.execute(query, method=method)
        finally:
            if hasattr(relation, "close"):
                relation.close()
    outcome = {
        "feasible": result.feasible,
        "multiplicities": (
            None if result.package is None
            else result.package.multiplicities.tolist()
        ),
        "objective": result.objective,
        "epsilon_upper": result.epsilon_upper,
        "gap": result.anytime.gap,
        "message": result.message,
        "records": [
            dataclasses.replace(r, **UNTIMED) for r in result.stats.iterations
        ],
        "rungs": [
            (
                None if r.x is None else r.x.tolist(),
                r.feasible, r.eps_ok, r.cycle_detected,
                None if r.report is None else dataclasses.asdict(r.report),
                [dataclasses.replace(i, **UNTIMED) for i in r.iterations],
            )
            for r in consumed
        ],
    }
    usage = result.anytime.resources
    counts = {
        kind: usage[f"lane_rungs_{kind}"]
        for kind in ("started", "consumed", "discarded")
    }
    return outcome, counts


# (id, dataset, method, overrides, a ladder takes a predicted branch)
CASES = [
    ("portfolio-q3-quality-ladder", workload("portfolio", "Q3", 60),
     "summarysearch", dict(seed=1), True),
    ("tpch-q8-infeasible-ladder", workload("tpch", "Q8", 100),
     "summarysearch", dict(seed=2), True),
    ("scale-driver-memory", portfolio_q1(30, on_disk=False), "sketchrefine",
     dict(seed=5, scale_n_partitions=3), True),
    ("scale-driver-column-store", portfolio_q1(40, on_disk=True),
     "sketchrefine", dict(seed=5, scale_n_partitions=3), True),
]


@pytest.mark.parametrize("with_store", [False, True], ids=["private", "store"])
@pytest.mark.parametrize(
    "dataset, method, overrides, takes",
    [pytest.param(*case[1:], id=case[0]) for case in CASES],
)
def test_lane_on_and_off_give_identical_records(
    dataset, method, overrides, takes, with_store, tmp_path, monkeypatch,
    forced_lane,
):
    register, query = dataset
    config = CONFIG.replace(**overrides)
    monkeypatch.setattr(lane, "ENABLED", False)
    off, off_counts = evaluate(
        register, query, method, config,
        ScenarioStore() if with_store else None, tmp_path / "off",
    )
    monkeypatch.setattr(lane, "ENABLED", True)
    on, on_counts = evaluate(
        register, query, method, config,
        ScenarioStore() if with_store else None, tmp_path / "on",
    )
    assert off == on
    assert off_counts == dict(started=0, consumed=0, discarded=0)
    assert on_counts["started"] == on_counts["consumed"] + on_counts["discarded"]
    if takes:
        assert on_counts["consumed"] >= 1


def test_a_single_rung_query_starts_no_lane_rung(
    forced_lane, items_relation, items_model, fast_config
):
    def register(engine, directory):
        engine.register(items_relation, items_model)
        return items_relation

    query = (
        "SELECT PACKAGE(*) FROM items SUCH THAT COUNT(*) <= 3 AND"
        " SUM(Value) >= 6 WITH PROBABILITY >= 0.8"
        " MINIMIZE EXPECTED SUM(Value)"
    )
    outcome, counts = evaluate(register, query, "summarysearch", fast_config, None)
    assert len(outcome["records"]) == 1 and outcome["feasible"]
    assert counts == dict(started=0, consumed=0, discarded=0)


def test_a_memo_replayed_repeat_starts_no_lane_rung(monkeypatch):
    """Replayed rungs spend next to nothing in the solver: no lane."""
    monkeypatch.setattr(lane, "usable_cpus", lambda: 2)
    register, query = workload("portfolio", "Q3", 60)
    store = ScenarioStore()
    config = CONFIG.replace(seed=1)
    first, _ = evaluate(register, query, "summarysearch", config, store)
    repeat, counts = evaluate(register, query, "summarysearch", config, store)
    assert repeat == first and len(repeat["records"]) > 2
    assert counts == dict(started=0, consumed=0, discarded=0)


def test_a_single_cpu_affinity_starts_no_thread(forced_lane, monkeypatch):
    monkeypatch.setattr(lane, "usable_cpus", USABLE_CPUS)
    monkeypatch.setattr(lane.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(lane.os, "cpu_count", lambda: 1)

    def no_thread():
        raise AssertionError("the lane was started on one CPU")

    monkeypatch.setattr(lane, "_ensure_started", no_thread)
    register, query = workload("portfolio", "Q3", 60)
    outcome, counts = evaluate(
        register, query, "summarysearch", CONFIG.replace(seed=1), None
    )
    assert len(outcome["records"]) > 2
    assert counts == dict(started=0, consumed=0, discarded=0)


def test_a_farm_worker_runs_its_ladders_alone(forced_lane, tmp_path):
    """The solve farm's worker body switches the lane off for its process."""
    from repro.service.farm import _worker_main

    class OneRequest:
        def __init__(self, request):
            self.requests = [request]
            self.sent = []

        def recv(self):
            if not self.requests:
                raise EOFError
            return self.requests.pop()

        def send(self, message):
            self.sent.append(message)

    spec = get_query("portfolio", "Q3")
    catalog = Catalog()
    catalog.register(*spec.build_dataset(60, seed=DATASET_SEED))
    pipe = OneRequest((spec.spaql, "summarysearch", {}, None, None, None))
    _worker_main(0, pipe, catalog, CONFIG.replace(seed=1), str(tmp_path))
    ok, result = pickle.loads(pipe.sent[0][0])
    assert ok and len(result.stats.iterations) > 2
    assert result.anytime.resources["lane_rungs_started"] == 0
    assert lane.ENABLED is False


def test_a_refine_worker_runs_its_ladders_alone(monkeypatch):
    from repro.scale import driver

    monkeypatch.setattr(lane, "ENABLED", True)
    monkeypatch.setattr(driver, "_REFINE_STATE", None)
    driver._init_refine_worker({})
    assert lane.ENABLED is False


def test_a_solver_bound_partition_ladder_consumes_lane_rungs(monkeypatch):
    """The rule as shipped (no forcing beyond a second CPU): a 250-row
    portfolio/Q1 partition at M = 20 climbs a quality ladder whose rungs
    are nearly all HiGHS, so the lane solves some of them."""
    monkeypatch.setattr(lane, "usable_cpus", lambda: 2)
    params = PortfolioParams(n_stocks=125, seed=DATASET_SEED)
    config = SPQConfig(
        n_validation_scenarios=2_000, n_initial_scenarios=20,
        scenario_increment=20, max_scenarios=60, n_expectation_scenarios=500,
        epsilon=0.5, solver_time_limit=15.0, seed=17,
    )

    def register(engine, directory):
        relation, model = build_portfolio(params)
        engine.register(relation, model)
        return relation

    query = get_query("portfolio", "Q1").spaql
    on, counts = evaluate(register, query, "summarysearch", config, None)
    assert counts["consumed"] >= 1
    monkeypatch.setattr(lane, "ENABLED", False)
    off, _ = evaluate(register, query, "summarysearch", config, None)
    assert on == off


def test_a_traced_query_merges_consumed_rungs_in_ladder_order(forced_lane):
    spec = get_query("portfolio", "Q3")
    config = CONFIG.replace(seed=1, trace_enabled=True)
    documents = []
    for enabled in (False, True):
        lane.ENABLED = enabled
        engine = SPQEngine(config=config)
        engine.register(*spec.build_dataset(60, seed=DATASET_SEED))
        result = engine.execute(spec.spaql, method="summarysearch")
        documents.append((engine.last_trace, result))

    def trajectory(document):
        # The memo flags say which thread asked first; everything else
        # is the ladder's.
        return [
            {k: v for k, v in e.items()
             if k not in ("ts", "solve_memo", "validate_memo")}
            for e in epsilon_events(document["events"])
        ]

    (off, off_result), (on, on_result) = documents
    assert trajectory(on) == trajectory(off)
    usage = on_result.anytime.resources
    assert usage["lane_rungs_consumed"] >= 1
    assert usage["cpu_s"] > 0.0
    csa = [s for s in iter_tree(on["root"]) if s["name"] == "csa"]
    assert len(csa) == len(on_result.stats.iterations)
    assert sum(bool(s["attrs"].get("lane")) for s in csa) == (
        usage["lane_rungs_consumed"]
    )
    assert sorted(s["attrs"]["iteration"] for s in csa) == list(
        range(1, len(csa) + 1)
    )
    assert on["resources"]["lp_solves"] > 0


def test_a_discarded_rung_is_cut_short_and_waited_for(
    forced_lane, chance_context, monkeypatch
):
    """A rung the ladder does not take sees its deadline expire at once,
    and the ladder returns only after the rung ended; both are billed."""
    import time

    from repro.obs import QueryResourceProbe
    from repro.utils.timing import Deadline

    ended = threading.Event()

    def until_cut_short(ctx, validator, bounds, start_x, rung, epsilon,
                        deadline, *args, **kwargs):
        give_up = time.monotonic() + 30
        while not deadline.expired() and time.monotonic() < give_up:
            time.sleep(0.001)
        ended.set()
        return None, deadline.expired()

    monkeypatch.setattr(summarysearch, "_solve_rung", until_cut_short)
    probe = QueryResourceProbe()
    ahead = summarysearch._Ahead(
        chance_context, None, np.zeros(5, dtype=np.int64), 0.5, Deadline(60.0)
    )
    ahead.start((20, 2, 1), iteration=2)
    assert ahead.take((40, 1)) is None  # not the rung the ladder needs
    started = time.monotonic()
    ahead.close()
    assert ended.is_set() and time.monotonic() - started < 10
    usage = probe.finish()
    assert (usage["lane_rungs_started"], usage["lane_rungs_discarded"]) == (1, 1)
    assert usage["lane_rungs_consumed"] == 0
