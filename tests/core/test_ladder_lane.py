"""The ladder lane (``core/lane.py``): same answers, counted rungs.

SummarySearch hands the rung its ladder's branch leads to next to one
helper thread while the caller solves the current rung, and consumes
rungs in ladder order.  On equals off is the lane row of the exactness
harness (``tests/exact/harness.py``): a case evaluated with the lane off
and forced on (on any box, after every first transition) agrees on every
record, consumed rung by consumed rung.  The tests below pin when the
lane starts no rung, and how a query's bill counts the rungs it started,
consumed and discarded.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

import repro.core.summarysearch as summarysearch
from exact.harness import (
    CASES,
    DATASET_SEED,
    LADDER_CASES,
    Case,
    check,
    evaluate,
    force_lane,
    portfolio_q1,
    run,
)
from repro import SPQConfig
from repro.core import lane
from repro.obs.profile import iter_tree
from repro.service import ScenarioStore

#: ``lane.usable_cpus`` as shipped.
USABLE_CPUS = lane.usable_cpus


def shipped_lane(patch) -> None:
    """The lane as shipped on a box with a second CPU."""
    patch.setattr(lane, "ENABLED", True)
    patch.setattr(lane, "usable_cpus", lambda: 2)


def lane_counts(out) -> tuple:
    return tuple(out.counts[f"lane_{k}"] for k in ("started", "consumed", "discarded"))


@pytest.mark.parametrize("with_store", [False, True], ids=["private", "store"])
@pytest.mark.parametrize("cases", list(LADDER_CASES.values()), ids=list(LADDER_CASES))
def test_lane_on_and_off_give_identical_records(cases, with_store):
    check("lane", cases[with_store])


def test_a_single_rung_query_starts_no_lane_rung():
    forced = evaluate(CASES["items-chance"], force_lane)
    assert len(forced.records["records"]) == 1 and forced.records["feasible"]
    assert lane_counts(forced) == (0, 0, 0)


def test_a_memo_replayed_repeat_starts_no_lane_rung():
    """Replayed rungs spend next to nothing in the solver: no lane."""
    case, store = CASES["portfolio-q3-store"], ScenarioStore()
    first = evaluate(case, shipped_lane, store)
    repeat = evaluate(case, shipped_lane, store)
    assert repeat.records == first.records and len(repeat.records["records"]) > 2
    assert lane_counts(repeat) == (0, 0, 0)


def test_a_single_cpu_affinity_starts_no_thread():
    def no_thread():
        raise AssertionError("the lane was started on one CPU")

    def one_cpu(patch):
        force_lane(patch)
        patch.setattr(lane, "usable_cpus", USABLE_CPUS)
        patch.setattr(lane.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        patch.setattr(lane.os, "cpu_count", lambda: 1)
        patch.setattr(lane, "_ensure_started", no_thread)

    out = evaluate(CASES["portfolio-q3"], one_cpu)
    assert len(out.records["records"]) > 2
    assert lane_counts(out) == (0, 0, 0)


def test_a_refine_worker_runs_its_ladders_alone(monkeypatch):
    from repro.scale import driver

    monkeypatch.setattr(lane, "ENABLED", True)
    monkeypatch.setattr(driver, "_REFINE_STATE", None)
    driver._init_refine_worker({})
    assert lane.ENABLED is False


def test_a_solver_bound_partition_ladder_consumes_lane_rungs():
    """The rule as shipped (no forcing beyond a second CPU): a 250-row
    portfolio/Q1 partition at M = 20 climbs a quality ladder whose rungs
    are nearly all HiGHS, so the lane solves some of them."""
    case = Case(
        portfolio_q1(125, seed=DATASET_SEED),
        config=SPQConfig(
            n_validation_scenarios=2_000, n_initial_scenarios=20,
            scenario_increment=20, max_scenarios=60, n_expectation_scenarios=500,
            epsilon=0.5, solver_time_limit=15.0, seed=17,
        ),
    )
    on = evaluate(case, shipped_lane)
    assert on.counts["lane_consumed"] >= 1
    assert on.records == evaluate(case).records


def test_a_traced_query_merges_consumed_rungs_in_ladder_order():
    check("lane", "portfolio-q3")  # the ε trajectory is in the records
    on = run("portfolio-q3", "lane")
    consumed = on.counts["lane_consumed"]
    assert consumed >= 1
    assert on.counts["cpu_s"] > 0.0
    csa = [s for s in iter_tree(on.trace["root"]) if s["name"] == "csa"]
    assert len(csa) == len(on.records["records"])
    assert sum(bool(s["attrs"].get("lane")) for s in csa) == consumed
    assert sorted(s["attrs"]["iteration"] for s in csa) == list(
        range(1, len(csa) + 1)
    )
    assert on.trace["resources"]["lp_solves"] > 0


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
