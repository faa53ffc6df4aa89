"""ScenarioStore: content keys, LRU budget enforcement, spill, concurrency."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro import Catalog, Relation, SPQConfig, SPQEngine
from repro.config import STREAM_OPTIMIZATION
from repro.db.expressions import parse_expression
from repro.mcdb import GaussianNoiseVG, StochasticModel
from repro.mcdb.scenarios import ScenarioGenerator
from repro.service.store import (
    ScenarioStore,
    model_fingerprint,
    relation_fingerprint,
    store_key,
)

N_ROWS = 8


def fill_for(key_id: int, counter=None):
    """Deterministic fill: column j of key k holds k*1000 + j."""

    def fill(start, stop):
        if counter is not None:
            counter.append((start, stop))
        cols = np.arange(start, stop, dtype=float)[None, :] + 1000.0 * key_id
        return np.broadcast_to(cols, (N_ROWS, stop - start)).copy()

    return fill


def expected(key_id: int, n: int) -> np.ndarray:
    return np.broadcast_to(
        np.arange(n, dtype=float)[None, :] + 1000.0 * key_id, (N_ROWS, n)
    ).copy()


def entry_bytes(n_cols: int) -> int:
    return N_ROWS * n_cols * 8


# --- basic hit/miss/growth -------------------------------------------------


def test_miss_then_hit_then_growth():
    store = ScenarioStore()
    calls = []
    got = store.coefficient_matrix(("k",), 4, fill_for(1, calls))
    assert np.array_equal(got, expected(1, 4))
    assert calls == [(0, 4)]
    # Prefix request: pure hit, no generation.
    again = store.coefficient_matrix(("k",), 3, fill_for(1, calls))
    assert np.array_equal(again, expected(1, 3))
    assert calls == [(0, 4)]
    # Growth generates only the missing suffix.
    grown = store.coefficient_matrix(("k",), 7, fill_for(1, calls))
    assert np.array_equal(grown, expected(1, 7))
    assert calls == [(0, 4), (4, 7)]
    stats = store.stats()
    assert stats.hits == 1
    assert stats.misses == 2
    assert stats.generations == 2
    assert stats.generated_columns == 7
    store.close()


def test_lru_eviction_order_under_byte_pressure():
    # Budget fits exactly two 4-column entries; spilling disabled so the
    # least-recently-used entry is dropped outright.
    store = ScenarioStore(budget_bytes=2 * entry_bytes(4), spill=False)
    store.coefficient_matrix(("a",), 4, fill_for(1))
    store.coefficient_matrix(("b",), 4, fill_for(2))
    # Touch "a": it becomes most-recently-used, so "b" is the LRU victim.
    store.coefficient_matrix(("a",), 4, fill_for(1))
    store.coefficient_matrix(("c",), 4, fill_for(3))
    assert store.stats().evictions == 1
    assert store.keys() == [("a",), ("c",)]
    # The evicted entry regenerates on demand (results unchanged).
    calls = []
    got = store.coefficient_matrix(("b",), 4, fill_for(2, calls))
    assert calls == [(0, 4)]
    assert np.array_equal(got, expected(2, 4))
    store.close()


def test_spill_to_memmap_round_trip_bit_identical(tmp_path):
    store = ScenarioStore(
        budget_bytes=entry_bytes(4), spill=True, spill_dir=str(tmp_path)
    )
    first = store.coefficient_matrix(("a",), 4, fill_for(1))
    reference = np.array(first)
    # Inserting a second entry pushes "a" over budget and spills it.
    store.coefficient_matrix(("b",), 4, fill_for(2))
    stats = store.stats()
    assert stats.spills >= 1
    assert stats.bytes_spilled >= entry_bytes(4)
    spill_files = list(tmp_path.iterdir())
    assert spill_files, "expected a spill file on disk"
    # Reads from the spilled entry are bit-identical and count as hits.
    got = store.coefficient_matrix(("a",), 4, fill_for(1, counter := []))
    assert counter == [], "spilled entry must not regenerate"
    assert np.array_equal(np.asarray(got), reference)
    store.close()
    assert not list(tmp_path.iterdir()), "close() must remove spill files"


def test_clear_releases_spill_files_and_is_idempotent(tmp_path):
    store = ScenarioStore(
        budget_bytes=entry_bytes(2), spill=True, spill_dir=str(tmp_path)
    )
    store.coefficient_matrix(("a",), 4, fill_for(1))
    store.coefficient_matrix(("b",), 4, fill_for(2))
    assert list(tmp_path.iterdir())
    store.clear()
    assert not list(tmp_path.iterdir())
    assert store.stats().entries == 0
    store.clear()  # idempotent
    # The store stays usable after clear().
    got = store.coefficient_matrix(("a",), 2, fill_for(1))
    assert np.array_equal(got, expected(1, 2))
    store.close()
    store.close()  # idempotent
    assert store.closed


def test_closed_store_degrades_to_direct_generation():
    store = ScenarioStore()
    store.close()
    calls = []
    got = store.coefficient_matrix(("k",), 3, fill_for(4, calls))
    assert calls == [(0, 3)]
    assert np.array_equal(got, expected(4, 3))
    assert store.stats().entries == 0


def test_concurrent_same_key_generates_once():
    store = ScenarioStore()
    barrier = threading.Barrier(2)
    generations = []
    gate = threading.Event()

    def slow_fill(start, stop):
        generations.append((start, stop))
        gate.wait(10)
        return fill_for(7)(start, stop)

    results = [None, None]

    def worker(i):
        barrier.wait(10)
        results[i] = store.coefficient_matrix(("k",), 5, slow_fill)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    # Both threads are racing on the key; exactly one may generate.
    deadline = time.time() + 10
    while not generations and time.time() < deadline:
        time.sleep(0.001)
    gate.set()
    for t in threads:
        t.join(10)
    assert generations == [(0, 5)], "single generation for concurrent callers"
    assert np.array_equal(results[0], expected(7, 5))
    assert np.array_equal(results[1], expected(7, 5))
    stats = store.stats()
    assert stats.generations == 1
    assert stats.hits + stats.misses == 2
    store.close()


def test_clear_during_growth_retries_instead_of_corrupting():
    # A clear() racing a suffix generation must not let the suffix be
    # served (or cached) as the full [0, n) matrix.
    store = ScenarioStore()
    store.coefficient_matrix(("k",), 3, fill_for(1))
    in_fill = threading.Event()
    gate = threading.Event()
    calls = []

    def gated_fill(start, stop):
        calls.append((start, stop))
        if start > 0:  # only gate the growth pass
            in_fill.set()
            gate.wait(10)
        return fill_for(1)(start, stop)

    result = []
    grower = threading.Thread(
        target=lambda: result.append(
            store.coefficient_matrix(("k",), 6, gated_fill)
        )
    )
    grower.start()
    assert in_fill.wait(10)
    store.clear()  # drops the prefix while the suffix is in flight
    gate.set()
    grower.join(10)
    assert np.array_equal(result[0], expected(1, 6))
    # The retry regenerated from scratch rather than stitching a lost
    # prefix: the last fill covered [0, 6).
    assert calls[-1] == (0, 6)
    # And the cached entry is the full matrix.
    assert np.array_equal(
        store.coefficient_matrix(("k",), 6, fill_for(1)), expected(1, 6)
    )
    store.close()


def test_growing_keys_are_not_evicted_under_pressure():
    # Budget pressure while a key grows: the grower's prefix survives.
    store = ScenarioStore(budget_bytes=entry_bytes(4), spill=False)
    store.coefficient_matrix(("grow",), 4, fill_for(1))
    in_fill = threading.Event()
    gate = threading.Event()

    def gated_fill(start, stop):
        in_fill.set()
        gate.wait(10)
        return fill_for(1)(start, stop)

    result = []
    grower = threading.Thread(
        target=lambda: result.append(
            store.coefficient_matrix(("grow",), 8, gated_fill)
        )
    )
    grower.start()
    assert in_fill.wait(10)
    # Over-budget insert during the growth: "grow" must not be evicted.
    store.coefficient_matrix(("other",), 4, fill_for(2))
    assert ("grow",) in store.keys()
    gate.set()
    grower.join(10)
    assert np.array_equal(result[0], expected(1, 8))
    store.close()


def test_failed_generation_releases_the_key():
    store = ScenarioStore()

    def boom(start, stop):
        raise RuntimeError("fill failed")

    with pytest.raises(RuntimeError):
        store.coefficient_matrix(("k",), 2, boom)
    # The key is not wedged: a later request generates normally.
    got = store.coefficient_matrix(("k",), 2, fill_for(1))
    assert np.array_equal(got, expected(1, 2))
    store.close()


# --- content keys ----------------------------------------------------------


def _items(name="items"):
    relation = Relation(name, {"price": [5.0, 8.0, 3.0, 6.0, 4.0]})
    model = StochasticModel(relation, {"Value": GaussianNoiseVG("price", 1.0)})
    return relation, model


def test_content_keys_share_across_names_and_parses():
    _, model_a = _items("items")
    _, model_b = _items("renamed")
    gen_a = ScenarioGenerator(model_a, 42, STREAM_OPTIMIZATION)
    gen_b = ScenarioGenerator(model_b, 42, STREAM_OPTIMIZATION)
    expr_a = parse_expression("Value * 2")
    expr_b = parse_expression("Value  *  2")  # distinct object, same text
    assert store_key(gen_a, expr_a) == store_key(gen_b, expr_b)


def test_content_keys_distinguish_data_seed_and_stream():
    relation, model = _items()
    other_relation = Relation("items", {"price": [5.0, 8.0, 3.0, 6.0, 4.1]})
    other_model = StochasticModel(
        other_relation, {"Value": GaussianNoiseVG("price", 1.0)}
    )
    expr = parse_expression("Value")
    base = store_key(ScenarioGenerator(model, 42, 0), expr)
    assert store_key(ScenarioGenerator(other_model, 42, 0), expr) != base
    assert store_key(ScenarioGenerator(model, 43, 0), expr) != base
    assert store_key(ScenarioGenerator(model, 42, 1), expr) != base
    assert relation_fingerprint(relation) != relation_fingerprint(other_relation)
    assert model_fingerprint(model) == model_fingerprint(model)  # cached


# --- end-to-end budget invariance ------------------------------------------

QUERY = """
SELECT PACKAGE(*) FROM items SUCH THAT
    COUNT(*) <= 3 AND
    SUM(Value) >= 6 WITH PROBABILITY >= 0.8
MINIMIZE EXPECTED SUM(Value)
"""


def _engine(store):
    relation, model = _items()
    catalog = Catalog()
    catalog.register(relation, model)
    config = SPQConfig(
        n_validation_scenarios=500,
        n_initial_scenarios=20,
        scenario_increment=20,
        max_scenarios=60,
        epsilon=0.8,
        seed=11,
    )
    return SPQEngine(catalog=catalog, config=config, store=store)


def test_tiny_budget_is_bit_identical_to_unlimited(tmp_path):
    with ScenarioStore() as unlimited:
        reference = _engine(unlimited).execute(QUERY)
    # A budget far below the working set forces spills on every insert.
    with ScenarioStore(budget_bytes=64, spill_dir=str(tmp_path)) as tiny:
        constrained = _engine(tiny).execute(QUERY)
        assert tiny.stats().spills > 0
    assert np.array_equal(
        reference.package.multiplicities, constrained.package.multiplicities
    )
    assert reference.objective == constrained.objective
    assert not list(tmp_path.iterdir())


def test_evicting_budget_is_bit_identical_to_unlimited():
    with ScenarioStore() as unlimited:
        reference = _engine(unlimited).execute(QUERY)
    with ScenarioStore(budget_bytes=64, spill=False) as tiny:
        constrained = _engine(tiny).execute(QUERY)
        assert tiny.stats().evictions > 0
    assert np.array_equal(
        reference.package.multiplicities, constrained.package.multiplicities
    )
    assert reference.objective == constrained.objective


# --- delta staleness (docs/live_data.md) ------------------------------------


def test_prune_fingerprints_drops_matching_entries():
    store = ScenarioStore()
    store.coefficient_matrix(("fp-a", "e1"), 3, fill_for(1))
    store.coefficient_matrix(("fp-a", "e2"), 3, fill_for(2))
    store.coefficient_matrix(("fp-b", "e1"), 3, fill_for(3))
    assert store.prune_fingerprints({"fp-a"}) == 2
    assert store.stats().entries == 1
    assert store.stats().stale_dropped == 2
    calls = []
    store.coefficient_matrix(("fp-b", "e1"), 3, fill_for(3, calls))
    assert calls == []  # untouched fingerprint survives
    store.coefficient_matrix(("fp-a", "e1"), 3, fill_for(1, calls))
    assert calls == [(0, 3)]  # pruned entry regenerates
    assert store.prune_fingerprints({"zzz"}) == 0
    assert store.prune_fingerprints(set()) == 0
    store.close()


def test_prune_fingerprints_releases_spill_files(tmp_path):
    store = ScenarioStore(budget_bytes=64, spill_dir=str(tmp_path))
    store.coefficient_matrix(("fp", "e"), 4, fill_for(1))
    store.coefficient_matrix(("fp2", "e"), 4, fill_for(2))  # spills fp
    assert store.prune_fingerprints({"fp", "fp2"}) == 2
    store.close()
    assert not list(tmp_path.iterdir())
