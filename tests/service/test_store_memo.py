"""The ScenarioStore's answer memo: byte bound, lifecycle, concurrency.

Exactness of what the memo serves is pinned in
``tests/core/test_memo_exact.py``; these tests pin the container — LRU
order under a byte bound, which entries a superseded fingerprint takes
with it, that ``clear``/``close`` empty it, and that racing writers and
racing queries leave one consistent entry and one answer.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import Catalog, SPQConfig, SPQEngine
from repro.datasets.portfolio import PortfolioParams, build_portfolio
from repro.db.delta import RelationDelta, lineage
from repro.service.store import (
    AnswerMemo,
    ScenarioStore,
    _MEMO_LIMIT_BYTES,
    _footprint,
    model_fingerprint,
)
from repro.workloads import get_query

CONFIG = SPQConfig(
    seed=5,
    n_validation_scenarios=400,
    n_initial_scenarios=20,
    scenario_increment=20,
    max_scenarios=40,
    n_expectation_scenarios=200,
    n_probe_scenarios=16,
    epsilon=0.5,
)


@pytest.fixture(autouse=True)
def _clean_lineage():
    lineage.clear()
    yield
    lineage.clear()


def answer(n: int) -> np.ndarray:
    return np.full(n, float(n))


def test_store_memo_is_bounded_by_the_module_constant():
    assert ScenarioStore().memo.limit_bytes == _MEMO_LIMIT_BYTES


def test_least_recently_used_answers_leave_first_under_the_byte_bound():
    size = _footprint(("k", 0)) + _footprint(answer(100))
    memo = AnswerMemo(limit_bytes=3 * size)
    for k in range(3):
        memo[("k", k)] = answer(100)
    assert memo.nbytes == 3 * size
    # A read refreshes recency: ("k", 0) outlives ("k", 1).
    assert memo.get(("k", 0)) is not None
    memo[("k", 3)] = answer(100)
    assert memo.keys() == [("k", 2), ("k", 0), ("k", 3)]
    assert memo.get(("k", 1)) is None and memo.get(("k", 1), "miss") == "miss"
    assert memo.nbytes == 3 * size
    # Overwriting a key re-bills it rather than double counting.
    memo[("k", 2)] = answer(100)
    assert memo.nbytes == 3 * size and len(memo) == 3
    # An answer larger than the whole bound is not kept.
    memo[("k", 9)] = answer(1000)
    assert memo.get(("k", 9)) is None and len(memo) == 3


def test_racing_writers_of_one_key_leave_one_consistent_entry():
    memo = AnswerMemo()
    key, value = ("race",), answer(50)
    for _ in range(50):
        memo.clear()
        barrier = threading.Barrier(2)
        seen = []

        def writer():
            barrier.wait()
            memo[key] = value
            seen.append(memo.get(key))

        threads = [threading.Thread(target=writer) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(memo) == 1
        assert memo.nbytes == _footprint(key) + _footprint(value)
        assert all(got is value for got in seen)


def run_portfolio(engine: SPQEngine):
    result = engine.execute(get_query("portfolio", "Q1").spaql)
    return (
        result.feasible,
        result.objective,
        result.epsilon_upper,
        result.package.multiplicities.tolist(),
    )


def test_two_queries_racing_on_one_store_get_the_sequential_answer():
    catalog = Catalog()
    catalog.register(*build_portfolio(PortfolioParams(n_stocks=30, seed=7)))
    expected = run_portfolio(SPQEngine(catalog, CONFIG))
    store = ScenarioStore()
    barrier = threading.Barrier(2)
    answers = []

    def client():
        engine = SPQEngine(catalog, CONFIG, store=store)
        barrier.wait()
        answers.append(run_portfolio(engine))

    threads = [threading.Thread(target=client) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert answers == [expected, expected]
    # ... and a third, sequential repeat is served from the memo.
    assert run_portfolio(SPQEngine(catalog, CONFIG, store=store)) == expected


def test_a_superseded_fingerprint_takes_its_validation_and_round_answers_along():
    catalog = Catalog()
    relation, model = build_portfolio(PortfolioParams(n_stocks=30, seed=7))
    catalog.register(relation, model)
    old = model_fingerprint(model)
    store = ScenarioStore()
    run_portfolio(SPQEngine(catalog, CONFIG, store=store))
    keyed = [k for k in store.memo.keys() if isinstance(k, tuple) and k[0] == old]
    others = [k for k in store.memo.keys() if k not in keyed]
    assert {k[1] for k in keyed} == {"validate", "round"}
    assert others and all(isinstance(k, bytes) for k in others)

    catalog.apply_delta(relation.name, RelationDelta(updates={3: {"price": 18.0}}))
    assert old in lineage.superseded()
    store.prune_fingerprints(lineage.superseded())
    assert store.memo.keys() == others
    assert store.memo.nbytes == sum(
        _footprint(k) + _footprint(store.memo.get(k)) for k in others
    )


@pytest.mark.parametrize("teardown", ["clear", "close"])
def test_clear_and_close_empty_the_memo(teardown):
    catalog = Catalog()
    catalog.register(*build_portfolio(PortfolioParams(n_stocks=30, seed=7)))
    store = ScenarioStore()
    run_portfolio(SPQEngine(catalog, CONFIG, store=store))
    assert len(store.memo) > 0
    getattr(store, teardown)()
    assert len(store.memo) == 0 and store.memo.nbytes == 0
