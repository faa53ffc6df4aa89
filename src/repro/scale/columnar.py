"""Chunked, disk-backed columnar relations.

A :class:`ColumnStore` holds one relation on disk — one raw binary file
per column, logically divided into fixed-size row chunks — and
implements the ``Relation`` column protocol the compiler, the scenario
generators, and the evaluators consume (``n_rows``, ``column``,
``columns_mapping``, ``key_values``, ``take``, …).  Three properties
make it the out-of-core tier's storage layer rather than a file format:

* **Lazy chunk loads under a byte budget.**  Chunk reads go through an
  LRU cache bounded by ``resident_budget`` bytes; over-budget chunks are
  dropped (they are plain copies of disk pages, re-readable at will), so
  chunk-at-a-time consumers touch relations far larger than RAM.  The
  cache reports its resident bytes to :data:`repro.scale.metrics.scale_metrics`,
  which is what the ``repro_scale_resident_bytes`` gauges expose.
* **Predicate pushdown.**  :meth:`ColumnStore.filter_positions`
  evaluates a WHERE expression chunk-at-a-time, materializing only the
  referenced columns of one chunk at a time; the compiler
  (:func:`repro.silp.compile.compile_query`) routes WHERE clauses through
  it whenever the relation provides it.
* **Dictionary-encoded text.**  Text columns are stored as ``int32``
  codes plus a vocabulary in the manifest, so string-heavy relations
  (stock tickers, sectors) stay compact and memmap-friendly; decoded
  chunks are bit-identical object arrays, keeping fingerprints equal to
  the in-memory relation's.

The bridge to the in-memory world is deliberately symmetric:
:meth:`repro.db.relation.Relation.to_disk` writes a store,
:func:`open_store` (or ``Relation.from_disk``) opens one, and
:meth:`ColumnStore.take` / :meth:`ColumnStore.to_relation` gather rows
back into ordinary in-memory relations — the same bytes either way, so
every fingerprint-keyed cache (scenario store, partition index) is
shared between the two representations.
"""

from __future__ import annotations

import json
import os
import threading
from collections import OrderedDict
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from ..errors import SchemaError
from ..db.expressions import Expr, attributes_of, evaluate
from ..db.types import DType, coerce_column
from .metrics import scale_metrics

#: Rows per logical chunk (also the writer's flush granularity).
DEFAULT_CHUNK_ROWS = 65_536

_MANIFEST = "manifest.json"
_FORMAT = "repro-columnar-v1"

#: kind -> (storage numpy dtype, decoded numpy dtype or None for text)
_KINDS = {
    "float": ("<f8", np.float64),
    "int": ("<i8", np.int64),
    "bool": ("<i1", np.bool_),
    "text": ("<i4", None),
}


def _kind_of(arr: np.ndarray) -> str:
    k = arr.dtype.kind
    if k == "f":
        return "float"
    if k in ("i", "u"):
        return "int"
    if k == "b":
        return "bool"
    if k in ("U", "S", "O"):
        return "text"
    raise SchemaError(f"unsupported column dtype {arr.dtype!r}")


class ColumnStoreWriter:
    """Streams row batches into a new on-disk column store.

    The schema (column names and kinds) is fixed by the first
    :meth:`append`; later batches must supply the same columns (numeric
    columns may widen ``int`` → ``float``, which rewrites nothing — the
    column's storage kind is finalized from the widest batch seen, and
    earlier batches are buffered as... no: batches are written
    immediately, so widening re-encodes the already-written prefix once,
    in chunks).  A missing ``id`` key column is synthesized positionally
    at :meth:`close`, exactly as :class:`~repro.db.relation.Relation`
    does in memory.
    """

    def __init__(
        self,
        path: str,
        name: str | None = None,
        key: str = "id",
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
    ):
        if chunk_rows < 1:
            raise SchemaError("chunk_rows must be >= 1")
        self.path = str(path)
        self.name = name or os.path.basename(os.path.normpath(self.path))
        self.key = key
        self.chunk_rows = int(chunk_rows)
        os.makedirs(self.path, exist_ok=True)
        if os.path.exists(os.path.join(self.path, _MANIFEST)):
            raise SchemaError(f"column store already exists at {self.path!r}")
        self._n_rows = 0
        #: name -> {"kind", "file", "handle", "vocab", "codes"}
        self._columns: "OrderedDict[str, dict]" = OrderedDict()
        self._closed = False

    # --- appending -----------------------------------------------------------

    def _open_column(self, col_name: str, kind: str) -> dict:
        file_name = f"col-{len(self._columns):04d}.bin"
        meta = {
            "kind": kind,
            "file": file_name,
            "handle": open(os.path.join(self.path, file_name), "wb"),
            "vocab": {} if kind == "text" else None,
        }
        self._columns[col_name] = meta
        return meta

    def _widen_to_float(self, col_name: str, meta: dict) -> None:
        """Re-encode an int column's written prefix as float64."""
        meta["handle"].close()
        path = os.path.join(self.path, meta["file"])
        tmp = path + ".widen"
        with open(path, "rb") as src, open(tmp, "wb") as dst:
            while True:
                raw = src.read(self.chunk_rows * 8)
                if not raw:
                    break
                dst.write(
                    np.frombuffer(raw, dtype="<i8").astype("<f8").tobytes()
                )
        os.replace(tmp, path)
        meta["kind"] = "float"
        meta["handle"] = open(path, "ab")

    def append(self, columns: Mapping[str, Iterable]) -> None:
        """Write one batch of rows (equal-length columns)."""
        if self._closed:
            raise SchemaError("writer is closed")
        arrays = {
            col_name: coerce_column(values, col_name)
            for col_name, values in columns.items()
        }
        if not arrays:
            raise SchemaError("append needs at least one column")
        lengths = {len(arr) for arr in arrays.values()}
        if len(lengths) != 1:
            raise SchemaError("append columns must have equal lengths")
        (batch_rows,) = lengths
        if self._columns and set(arrays) != set(self._columns):
            raise SchemaError(
                f"append columns {sorted(arrays)} do not match the schema"
                f" {sorted(self._columns)}"
            )
        for col_name, arr in arrays.items():
            kind = _kind_of(arr)
            meta = self._columns.get(col_name)
            if meta is None:
                meta = self._open_column(col_name, kind)
            if kind != meta["kind"]:
                if meta["kind"] == "int" and kind == "float":
                    self._widen_to_float(col_name, meta)
                elif meta["kind"] == "float" and kind == "int":
                    kind = "float"
                else:
                    raise SchemaError(
                        f"column {col_name!r} changed kind from"
                        f" {meta['kind']!r} to {kind!r} mid-stream"
                    )
            if meta["kind"] == "text":
                # Vectorized dictionary encoding: unique + inverse in C,
                # Python only touches each *distinct* value once.
                vocab = meta["vocab"]
                if len(arr):
                    uniques, inverse = np.unique(
                        arr.astype(str), return_inverse=True
                    )
                    lookup = np.fromiter(
                        (
                            vocab.setdefault(str(value), len(vocab))
                            for value in uniques
                        ),
                        dtype="<i4",
                        count=len(uniques),
                    )
                    codes = lookup[inverse].astype("<i4", copy=False)
                else:
                    codes = np.empty(0, dtype="<i4")
                meta["handle"].write(codes.tobytes())
            else:
                storage_dtype, _ = _KINDS[meta["kind"]]
                meta["handle"].write(
                    np.ascontiguousarray(arr).astype(storage_dtype).tobytes()
                )
        self._n_rows += batch_rows

    # --- finalization --------------------------------------------------------

    def close(self) -> str:
        """Flush files, synthesize a missing key, write the manifest."""
        if self._closed:
            return self.path
        if not self._columns:
            raise SchemaError("column store needs at least one column")
        if self.key not in self._columns:
            if self.key != "id":
                raise SchemaError(
                    f"key column {self.key!r} not found in store {self.name!r}"
                )
            meta = self._open_column("id", "int")
            start = 0
            while start < self._n_rows:
                stop = min(start + self.chunk_rows, self._n_rows)
                meta["handle"].write(
                    np.arange(start, stop, dtype="<i8").tobytes()
                )
                start = stop
        manifest = {
            "format": _FORMAT,
            "name": self.name,
            "key": self.key,
            "n_rows": self._n_rows,
            "chunk_rows": self.chunk_rows,
            "columns": [],
        }
        for col_name, meta in self._columns.items():
            meta["handle"].close()
            entry = {"name": col_name, "kind": meta["kind"], "file": meta["file"]}
            if meta["kind"] == "text":
                entry["vocab"] = list(meta["vocab"])
            manifest["columns"].append(entry)
        with open(os.path.join(self.path, _MANIFEST), "w") as handle:
            json.dump(manifest, handle)
        self._closed = True
        return self.path

    def __enter__(self) -> "ColumnStoreWriter":
        return self

    def __exit__(self, exc_type, *exc_info) -> None:
        if exc_type is None:
            self.close()


class _LazyColumns(Mapping):
    """Column resolver that materializes columns on first access."""

    def __init__(self, store: "ColumnStore"):
        self._store = store

    def __getitem__(self, name: str) -> np.ndarray:
        return self._store.column(name)

    def __iter__(self):
        return iter(self._store.column_names)

    def __len__(self) -> int:
        return len(self._store.column_names)

    def __contains__(self, name) -> bool:
        return self._store.has_column(name)


class ColumnStore:
    """A disk-backed columnar relation with a bounded chunk cache.

    Implements the read side of the ``Relation`` protocol; derivation
    methods return ordinary in-memory relations (:meth:`take`,
    :meth:`filter`).  The store is immutable-by-convention: the one
    sanctioned mutation is :meth:`apply_delta`, which rewrites column
    files through atomic replaces (pre-delta readers keep a consistent
    snapshot) and reports the dirty rows for delta-scoped cache
    invalidation.  A store is read in the process that opened it: the
    scale driver refines its partitions in the query's own process.
    """

    def __init__(self, path: str, resident_budget: int | None = None):
        self.path = str(path)
        manifest_path = os.path.join(self.path, _MANIFEST)
        if not os.path.isfile(manifest_path):
            raise FileNotFoundError(manifest_path)
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        if manifest.get("format") != _FORMAT:
            raise SchemaError(
                f"unsupported column-store format {manifest.get('format')!r}"
            )
        if resident_budget is not None and resident_budget < 1:
            raise SchemaError("resident_budget must be positive or None")
        self.name = manifest["name"]
        self.key = manifest["key"]
        self.resident_budget = resident_budget
        self._n_rows = int(manifest["n_rows"])
        self.chunk_rows = int(manifest["chunk_rows"])
        self._meta: "OrderedDict[str, dict]" = OrderedDict()
        for entry in manifest["columns"]:
            meta = dict(entry)
            if meta["kind"] == "text":
                meta["vocab_array"] = np.array(meta["vocab"], dtype=object)
            self._meta[entry["name"]] = meta
        self._lock = threading.RLock()
        self._mmaps: dict[str, np.memmap] = {}
        self._cache: "OrderedDict[tuple[str, int], np.ndarray]" = OrderedDict()
        self._resident = 0
        self._peak = 0

    # --- basic accessors ------------------------------------------------------

    @property
    def n_rows(self) -> int:
        return self._n_rows

    def __len__(self) -> int:
        return self._n_rows

    @property
    def column_names(self) -> list[str]:
        return list(self._meta)

    def has_column(self, name: str) -> bool:
        return name in self._meta

    def dtype(self, name: str) -> DType:
        kind = self._require(name)["kind"]
        return {
            "float": DType.FLOAT,
            "int": DType.INT,
            "bool": DType.BOOL,
            "text": DType.TEXT,
        }[kind]

    @property
    def n_chunks(self) -> int:
        return (self._n_rows + self.chunk_rows - 1) // self.chunk_rows

    def chunk_bounds(self, chunk: int) -> tuple[int, int]:
        """Row range ``[start, stop)`` of logical chunk ``chunk``."""
        start = chunk * self.chunk_rows
        return start, min(start + self.chunk_rows, self._n_rows)

    def _require(self, name: str) -> dict:
        try:
            return self._meta[name]
        except KeyError:
            raise SchemaError(
                f"relation {self.name!r} has no column {name!r};"
                f" available: {sorted(self._meta)}"
            ) from None

    def _memmap(self, name: str) -> np.ndarray:
        meta = self._require(name)
        storage_dtype, _ = _KINDS[meta["kind"]]
        if self._n_rows == 0:
            # Zero-byte files cannot be memmapped; serve empty columns.
            return np.empty(0, dtype=storage_dtype)
        with self._lock:
            mm = self._mmaps.get(name)
            if mm is None:
                mm = np.memmap(
                    os.path.join(self.path, meta["file"]),
                    dtype=storage_dtype,
                    mode="r",
                    shape=(self._n_rows,),
                )
                self._mmaps[name] = mm
            return mm

    def _decode(self, meta: dict, raw: np.ndarray) -> np.ndarray:
        if meta["kind"] == "text":
            return meta["vocab_array"][np.asarray(raw, dtype=np.int64)]
        _, decoded = _KINDS[meta["kind"]]
        return np.asarray(raw).astype(decoded)

    # --- chunk cache ----------------------------------------------------------

    def column_chunk(self, name: str, chunk: int) -> np.ndarray:
        """Decoded rows of logical chunk ``chunk`` (LRU-cached)."""
        if not 0 <= chunk < max(self.n_chunks, 1):
            raise SchemaError(f"chunk {chunk} out of range")
        key = (name, chunk)
        with self._lock:
            cached = self._cache.get(key)
            if cached is not None:
                self._cache.move_to_end(key)
                scale_metrics.record_chunk_lookup(hit=True)
                return cached
        scale_metrics.record_chunk_lookup(hit=False)
        meta = self._require(name)
        start, stop = self.chunk_bounds(chunk)
        data = self._decode(meta, self._memmap(name)[start:stop])
        data.setflags(write=False)
        with self._lock:
            # Re-check under the same lock as the insert: a concurrent
            # loader may have won the race, and double-inserting would
            # leak its bytes from the resident accounting for good.
            cached = self._cache.get(key)
            if cached is not None:
                self._cache.move_to_end(key)
                return cached
            self._make_room(int(data.nbytes))
            self._cache[key] = data
            self._account(int(data.nbytes))
        return data

    def _account(self, delta: int) -> None:
        self._resident += delta
        if self._resident > self._peak:
            self._peak = self._resident
        scale_metrics.add_resident(delta)

    def _make_room(self, incoming: int) -> None:
        """Evict LRU chunks until ``incoming`` bytes fit the budget.

        Eviction happens *before* the insert, so resident bytes never
        exceed the budget — the property the scale smoke test asserts.
        A single chunk larger than the whole budget still caches (the
        cache would otherwise thrash uselessly); size budgets to hold at
        least one decoded chunk.
        """
        if self.resident_budget is None:
            return
        while self._cache and self._resident + incoming > self.resident_budget:
            _, victim = self._cache.popitem(last=False)
            self._account(-int(victim.nbytes))

    @property
    def resident_bytes(self) -> int:
        """Bytes currently held by the chunk cache."""
        with self._lock:
            return self._resident

    @property
    def peak_resident_bytes(self) -> int:
        """High-water mark of the chunk cache."""
        with self._lock:
            return self._peak

    # --- full-column materialization ------------------------------------------

    def column(self, name: str) -> np.ndarray:
        """The full column as an in-memory array.

        This is the compatibility path for consumers of the in-memory
        protocol (fingerprinting, VG binding, mean-coefficient
        evaluation); it bypasses the chunk cache — a full column is a
        working-set decision for the caller, not cache pressure.
        """
        meta = self._require(name)
        return self._decode(meta, self._memmap(name)[:])

    def __getitem__(self, name: str) -> np.ndarray:
        return self.column(name)

    def columns_mapping(self) -> Mapping[str, np.ndarray]:
        """Lazy column resolver (materializes only accessed columns)."""
        return _LazyColumns(self)

    def key_values(self) -> np.ndarray:
        return self.column(self.key)

    def positions_for_keys(self, keys: Iterable) -> np.ndarray:
        lookup = {k: i for i, k in enumerate(self.key_values().tolist())}
        out = []
        for k in keys:
            if k not in lookup:
                raise SchemaError(
                    f"unknown key value {k!r} in relation {self.name!r}"
                )
            out.append(lookup[k])
        return np.asarray(out, dtype=np.int64)

    # --- chunked evaluation ---------------------------------------------------

    def filter_positions(self, predicate: Expr) -> np.ndarray:
        """Row positions satisfying ``predicate``, chunk-at-a-time.

        This is the WHERE pushdown entry point: only the referenced
        columns of one chunk are resident at a time, and the result is
        exactly what evaluating the predicate over the full columns
        would produce.
        """
        referenced = attributes_of(predicate)
        out: list[np.ndarray] = []
        for chunk in range(self.n_chunks):
            start, stop = self.chunk_bounds(chunk)
            resolver = {
                name: self.column_chunk(name, chunk) for name in referenced
            }
            mask = np.asarray(evaluate(predicate, resolver), dtype=bool)
            if mask.shape != (stop - start,):
                raise SchemaError(
                    "predicate did not evaluate to one boolean per row"
                )
            out.append(np.nonzero(mask)[0].astype(np.int64) + start)
        if not out:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(out)

    # --- gathering back into memory -------------------------------------------

    def take(self, indices: np.ndarray) -> "Relation":
        """Positional row selection as an in-memory relation.

        Rows are gathered chunk-at-a-time in ascending chunk order (each
        chunk is touched once), then placed at their requested output
        positions, so the result preserves the given order.
        """
        from ..db.relation import Relation

        idx = np.asarray(indices, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= self._n_rows):
            raise SchemaError("row index out of range")
        chunk_of = idx // self.chunk_rows if idx.size else idx
        columns: dict[str, np.ndarray] = {}
        for name, meta in self._meta.items():
            if meta["kind"] == "text":
                out = np.empty(len(idx), dtype=object)
            else:
                _, decoded = _KINDS[meta["kind"]]
                out = np.empty(len(idx), dtype=decoded)
            for chunk in np.unique(chunk_of):
                sel = np.nonzero(chunk_of == chunk)[0]
                local = idx[sel] - int(chunk) * self.chunk_rows
                out[sel] = self.column_chunk(name, int(chunk))[local]
            columns[name] = out
        return Relation(self.name, columns, key=self.key)

    def filter(self, predicate: Expr) -> "Relation":
        """Rows satisfying ``predicate`` as an in-memory relation."""
        return self.take(self.filter_positions(predicate))

    def head(self, n: int = 5) -> "Relation":
        return self.take(np.arange(min(n, self._n_rows)))

    def to_relation(self) -> "Relation":
        """Materialize the whole store as an in-memory relation."""
        from ..db.relation import Relation

        return Relation(
            self.name,
            {name: self.column(name) for name in self._meta},
            key=self.key,
        )

    def iter_rows(self) -> Iterator[dict]:
        names = self.column_names
        for chunk in range(self.n_chunks):
            arrays = [self.column_chunk(n, chunk) for n in names]
            for i in range(len(arrays[0])):
                yield {n: arr[i] for n, arr in zip(names, arrays)}

    def row(self, index: int) -> dict:
        chunk, local = divmod(int(index), self.chunk_rows)
        return {
            n: self.column_chunk(n, chunk)[local] for n in self.column_names
        }

    def to_text(self, limit: int = 10) -> str:
        return self.head(limit).to_text(limit=limit)

    # --- live data ------------------------------------------------------------

    def apply_delta(self, inserts=None, updates=None, deletes=None):
        """Apply one mutation batch in place; returns ``(self, application)``.

        Every touched column file is rewritten through a temp file and
        ``os.replace``, and the manifest is republished last — readers
        holding pre-delta memmaps keep a consistent pre-delta snapshot
        (the old inodes stay alive until their maps close), while fresh
        opens and this store's own reloaded state see the post-delta
        rows.  Inserts append rows; updates rewrite values in place;
        deletes compact the column (dirtying every position at or past
        the first deleted row — see ``docs/live_data.md``).  Type
        widening (e.g. a float into an int column) is not supported and
        raises :class:`SchemaError` before anything is written.
        """
        from ..db.delta import (
            DeltaApplication,
            RelationDelta,
            dirty_positions,
            normalize_inserts,
        )

        delta = (
            inserts
            if isinstance(inserts, RelationDelta)
            else RelationDelta(inserts, updates, deletes)
        )
        key_arr = self.key_values()
        n_before = self._n_rows
        upd_pos = self.positions_for_keys(delta.updates.keys())
        del_pos = self.positions_for_keys(delta.deletes)
        for changes in delta.updates.values():
            if self.key in changes:
                raise SchemaError(
                    f"cannot update key column {self.key!r};"
                    " delete and re-insert"
                )
            for col in changes:
                self._require(col)
        keep = np.ones(n_before, dtype=bool)
        keep[del_pos] = False
        insert_rows = normalize_inserts(
            delta,
            key=self.key,
            column_names=self.column_names,
            key_values=key_arr,
            keep=keep,
            relation_name=self.name,
        )
        # Validate every value before touching any file, so a bad delta
        # leaves the store untouched.
        encoded_updates: dict[str, dict[int, object]] = {}
        for (key_value, changes), pos in zip(delta.updates.items(), upd_pos):
            for col, value in changes.items():
                encoded_updates.setdefault(col, {})[int(pos)] = (
                    self._encode_value(self._meta[col], value, col)
                )
        encoded_inserts = {
            name: [
                self._encode_value(meta, row[name], name)
                for row in insert_rows
            ]
            for name, meta in self._meta.items()
        }

        self.close()  # drop cached chunks and this process's memmaps
        for name, meta in self._meta.items():
            self._rewrite_column(
                name,
                meta,
                encoded_updates.get(name),
                keep if len(del_pos) else None,
                encoded_inserts[name],
            )
        n_after = n_before - len(del_pos) + len(insert_rows)
        self._n_rows = n_after
        self._publish_manifest()
        for meta in self._meta.values():
            if meta["kind"] == "text":
                meta["vocab_array"] = np.array(meta["vocab"], dtype=object)
        dirty, shifted_from, _ = dirty_positions(
            n_before, upd_pos, del_pos, len(insert_rows)
        )
        application = DeltaApplication(
            digest=delta.digest(),
            n_rows_before=n_before,
            n_rows_after=n_after,
            dirty=dirty,
            shifted_from=shifted_from,
        )
        return self, application

    def _encode_value(self, meta: dict, value, col: str):
        """Encode one scalar for ``col``'s storage kind (extends vocab)."""
        kind = meta["kind"]
        if kind == "text":
            text = str(value)
            vocab = meta["vocab"]
            index = meta.get("_vocab_index")
            if index is None:
                index = {v: i for i, v in enumerate(vocab)}
                meta["_vocab_index"] = index
            code = index.get(text)
            if code is None:
                code = len(vocab)
                vocab.append(text)
                index[text] = code
            return np.int32(code)
        if kind == "int":
            coerced = np.asarray(value)
            if np.issubdtype(coerced.dtype, np.integer) or (
                np.issubdtype(coerced.dtype, np.floating)
                and float(coerced) == int(coerced)
            ):
                return np.int64(value)
            raise SchemaError(
                f"cannot assign {value!r} to integer column {col!r}"
                " (type widening is not supported by deltas)"
            )
        if kind == "bool":
            return np.int8(bool(value))
        return np.float64(value)

    def _rewrite_column(
        self, name, meta, updates, keep, appended
    ) -> None:
        """Rewrite one column file (temp file + atomic replace)."""
        storage_dtype, _ = _KINDS[meta["kind"]]
        path = os.path.join(self.path, meta["file"])
        if self._n_rows:
            raw = np.fromfile(path, dtype=storage_dtype, count=self._n_rows)
        else:
            raw = np.empty(0, dtype=storage_dtype)
        if updates:
            positions = np.fromiter(updates, dtype=np.int64, count=len(updates))
            raw[positions] = np.asarray(
                list(updates.values()), dtype=storage_dtype
            )
        if keep is not None:
            raw = raw[keep]
        if appended:
            raw = np.concatenate(
                [raw, np.asarray(appended, dtype=storage_dtype)]
            )
        tmp = path + ".delta"
        raw.astype(storage_dtype, copy=False).tofile(tmp)
        os.replace(tmp, path)

    def _publish_manifest(self) -> None:
        """Atomically rewrite the manifest from the in-memory schema."""
        manifest = {
            "format": _FORMAT,
            "name": self.name,
            "key": self.key,
            "n_rows": self._n_rows,
            "chunk_rows": self.chunk_rows,
            "columns": [],
        }
        for col_name, meta in self._meta.items():
            entry = {
                "name": col_name, "kind": meta["kind"], "file": meta["file"],
            }
            if meta["kind"] == "text":
                entry["vocab"] = list(meta["vocab"])
            manifest["columns"].append(entry)
        manifest_path = os.path.join(self.path, _MANIFEST)
        tmp = manifest_path + ".delta"
        with open(tmp, "w") as handle:
            json.dump(manifest, handle)
        os.replace(tmp, manifest_path)

    def refresh(self) -> "ColumnStore":
        """Re-read the manifest after an external in-place mutation.

        A handle opened before another handle applied a delta to the
        same directory calls this: cached chunks and memmaps are dropped
        and the new row count/vocabularies are read without
        re-constructing the object (the catalog keeps its reference).
        """
        name = self.name
        budget = self.resident_budget
        self.close()
        self.__init__(self.path, resident_budget=budget)
        self.name = name
        return self

    # --- teardown -------------------------------------------------------------

    def close(self) -> None:
        """Drop cached chunks and close memmaps.  Idempotent.

        A closed store keeps working (chunks reload on demand after the
        manifest check at construction); close releases memory and file
        handles, it does not invalidate the object.
        """
        with self._lock:
            freed = self._resident
            self._cache.clear()
            self._resident = 0
            if freed:
                scale_metrics.add_resident(-freed)
            for mm in self._mmaps.values():
                inner = getattr(mm, "_mmap", None)
                if inner is not None:
                    try:
                        inner.close()
                    except BufferError:  # live views keep it alive
                        pass
            self._mmaps.clear()

    def __enter__(self) -> "ColumnStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ColumnStore({self.path!r}, rows={self._n_rows},"
            f" chunk_rows={self.chunk_rows}, columns={self.column_names})"
        )


def write_store(
    relation,
    path: str,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
    resident_budget: int | None = None,
) -> ColumnStore:
    """Write an in-memory relation to ``path`` and open the result.

    Rows are streamed in ``chunk_rows`` slices, so peak memory beyond
    the source relation is one chunk.
    """
    writer = ColumnStoreWriter(
        path, name=relation.name, key=relation.key, chunk_rows=chunk_rows
    )
    names = relation.column_names
    start = 0
    n = relation.n_rows
    while start < n:
        stop = min(start + chunk_rows, n)
        writer.append({name: relation.column(name)[start:stop] for name in names})
        start = stop
    if n == 0:
        writer.append({name: relation.column(name)[:0] for name in names})
    writer.close()
    return ColumnStore(path, resident_budget=resident_budget)


def open_store(path: str, resident_budget: int | None = None) -> ColumnStore:
    """Open an existing on-disk column store."""
    return ColumnStore(path, resident_budget=resident_budget)
