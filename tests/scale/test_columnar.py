"""Chunked columnar storage: round trips, pushdown, budget."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Catalog, Relation
from repro.db.expressions import parse_expression
from repro.errors import SchemaError
from repro.scale import ColumnStore, ColumnStoreWriter, open_store
from repro.scale.metrics import scale_metrics
from repro.service.store import relation_fingerprint
from repro.silp.compile import compile_query


@pytest.fixture
def mixed_relation() -> Relation:
    rng = np.random.default_rng(5)
    n = 900
    return Relation(
        "mixed",
        {
            "price": np.round(rng.uniform(1, 100, n), 2),
            "qty": rng.integers(0, 50, n),
            "sector": np.array([f"SEC{i % 7}" for i in range(n)], dtype=object),
            "flag": rng.integers(0, 2, n).astype(bool),
        },
    )


def test_round_trip_preserves_every_dtype_and_value(mixed_relation, tmp_path):
    store = mixed_relation.to_disk(tmp_path / "m", chunk_rows=128)
    assert store.n_rows == mixed_relation.n_rows
    assert store.n_chunks == 8
    assert store.column_names == mixed_relation.column_names
    for name in mixed_relation.column_names:
        expected = mixed_relation.column(name)
        got = store.column(name)
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)
    # Content fingerprints match the in-memory relation: every
    # fingerprint-keyed cache is shared between representations.
    assert relation_fingerprint(store) == relation_fingerprint(mixed_relation)
    store.close()


def test_missing_key_column_synthesized_positionally(tmp_path):
    writer = ColumnStoreWriter(tmp_path / "s", name="s", chunk_rows=10)
    writer.append({"x": np.arange(25, dtype=float)})
    writer.close()
    store = open_store(tmp_path / "s")
    assert np.array_equal(store.key_values(), np.arange(25))
    store.close()


def test_writer_widens_int_to_float_across_batches(tmp_path):
    writer = ColumnStoreWriter(tmp_path / "w", name="w", chunk_rows=4)
    writer.append({"v": np.array([1, 2, 3])})
    writer.append({"v": np.array([4.5, 5.5])})
    writer.close()
    store = open_store(tmp_path / "w")
    assert np.array_equal(store.column("v"), [1.0, 2.0, 3.0, 4.5, 5.5])
    store.close()


def test_writer_rejects_schema_drift(tmp_path):
    writer = ColumnStoreWriter(tmp_path / "d", name="d")
    writer.append({"a": [1.0], "b": [2.0]})
    with pytest.raises(SchemaError):
        writer.append({"a": [1.0]})


def test_predicate_pushdown_matches_full_evaluation(mixed_relation, tmp_path):
    store = mixed_relation.to_disk(tmp_path / "m", chunk_rows=64)
    predicate = parse_expression("price <= 40 AND qty > 5")
    positions = store.filter_positions(predicate)
    expected = mixed_relation.filter(predicate)
    assert np.array_equal(
        store.take(positions).column("price"), expected.column("price")
    )
    # Equality predicates over dictionary-encoded text columns work too.
    sec = store.filter_positions(parse_expression("sector = 'SEC3'"))
    assert np.array_equal(
        store.take(sec).column("sector"),
        mixed_relation.filter(parse_expression("sector = 'SEC3'")).column(
            "sector"
        ),
    )
    store.close()


def test_compile_routes_where_through_pushdown(mixed_relation, tmp_path):
    store = mixed_relation.to_disk(tmp_path / "m", chunk_rows=64)
    catalog_mem = Catalog()
    catalog_mem.register(mixed_relation)
    catalog_disk = Catalog()
    catalog_disk.register(store)
    query = (
        "SELECT PACKAGE(*) FROM mixed WHERE price <= 30 SUCH THAT"
        " COUNT(*) <= 5 MINIMIZE SUM(price)"
    )
    mem = compile_query(query, catalog_mem)
    disk = compile_query(query, catalog_disk)
    assert np.array_equal(mem.active_rows, disk.active_rows)
    store.close()


def test_take_preserves_requested_order(mixed_relation, tmp_path):
    store = mixed_relation.to_disk(tmp_path / "m", chunk_rows=100)
    indices = np.array([700, 3, 512, 3 + 100, 899, 0])
    taken = store.take(indices)
    for name in mixed_relation.column_names:
        assert np.array_equal(
            taken.column(name), mixed_relation.column(name)[indices]
        )
    with pytest.raises(SchemaError):
        store.take(np.array([900]))
    store.close()


def test_resident_budget_bounds_chunk_cache(mixed_relation, tmp_path):
    mixed_relation.to_disk(tmp_path / "m", chunk_rows=64)
    budget = 4_000
    store = Relation.from_disk(tmp_path / "m", resident_budget=budget)
    before = scale_metrics.snapshot()["resident_bytes"]
    for chunk in range(store.n_chunks):
        store.column_chunk("price", chunk)
        store.column_chunk("qty", chunk)
        assert store.resident_bytes <= budget
    assert store.peak_resident_bytes <= budget
    assert scale_metrics.snapshot()["resident_bytes"] >= before
    store.close()
    # close() returns the bytes to the process-wide gauge.
    assert store.resident_bytes == 0


def test_chunk_reads_are_cached(mixed_relation, tmp_path):
    store = mixed_relation.to_disk(tmp_path / "m", chunk_rows=64)
    first = store.column_chunk("price", 2)
    assert store.column_chunk("price", 2) is first
    store.close()


def test_open_missing_store_raises_file_not_found(tmp_path):
    (tmp_path / "empty-dir").mkdir()
    with pytest.raises(FileNotFoundError):
        ColumnStore(tmp_path / "empty-dir")


def test_iter_rows_and_row_access(mixed_relation, tmp_path):
    store = mixed_relation.to_disk(tmp_path / "m", chunk_rows=200)
    rows = list(store.iter_rows())
    assert len(rows) == store.n_rows
    assert rows[450] == store.row(450)
    assert rows[450] == mixed_relation.row(450)
    store.close()


def test_empty_relation_round_trips(tmp_path):
    empty = Relation("e", {"a": np.empty(0, dtype=float)})
    store = empty.to_disk(tmp_path / "e", chunk_rows=8)
    assert store.n_rows == 0
    assert store.column("a").shape == (0,)
    assert store.key_values().shape == (0,)
    assert relation_fingerprint(store) == relation_fingerprint(empty)
    assert list(store.iter_rows()) == []
    store.close()


def test_concurrent_chunk_loads_account_once(mixed_relation, tmp_path):
    """Racing loaders of one chunk must not inflate resident accounting."""
    import threading

    store = mixed_relation.to_disk(tmp_path / "m", chunk_rows=64)
    barrier = threading.Barrier(8)

    def hammer():
        barrier.wait()
        for _ in range(50):
            for chunk in range(4):
                store.column_chunk("price", chunk)
                store.column_chunk("qty", chunk)

    threads = [threading.Thread(target=hammer) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    expected = sum(
        store.column_chunk(name, chunk).nbytes
        for name in ("price", "qty")
        for chunk in range(4)
    )
    assert store.resident_bytes == expected
    store.close()
