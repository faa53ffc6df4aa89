"""Live-relation deltas: mutation records, dirty-row scoping, lineage.

Relations are immutable-by-convention; a :class:`RelationDelta` is the
one sanctioned way to change one.  Applying a delta produces a *new*
relation (in-memory) or rewrites the column files in place (ColumnStore)
together with a :class:`DeltaApplication` record describing exactly which
row positions of the post-delta relation can differ from the pre-delta
relation — the *dirty rows*.

The dirty-row rule follows from how scenario realization consumes
randomness: scenario-wise draws are positional and sequential over the
whole relation.  ``vg.sample_all`` draws block by block, in block order,
and as many values per block as the block has draw steps (a row-wise VG
has one single-row block per row, in row order; a GBM stock has one
step per distinct horizon).  So

* an **update** dirties only the updated row's position,
* an **insert** (always an append) dirties only the appended positions —
  the existing prefix keeps its draws,
* a **delete** shifts every later row down one position, dirtying every
  position at or beyond the first deleted row (``shifted_from``).

For block VGs this holds while a delta keeps block membership and every
block's step count.  A delta that changes them shifts the draws of
every later block, which this rule does not track.  Examples are an
update to a stock's key or horizon, and an insert that adds a new
horizon to an existing stock.

The :class:`FingerprintLineage` registry turns the content fingerprint
into an incrementally-maintained *chain*: each applied delta records
``parent fingerprint → child fingerprint`` plus the dirty positions, so
a cache keyed on a pre-delta fingerprint is reusable via an explicit
ancestor lookup (``ancestor_fingerprints``/``dirty_mask``) instead of a
cold miss.  See ``docs/live_data.md``.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from ..errors import SchemaError

#: Lineage records kept per process; chains older than this fall off and
#: their caches degrade to cold misses (correct, just slower).
_LINEAGE_LIMIT = 256

#: Longest ancestor chain walked on a cache lookup.
_MAX_CHAIN = 16


def _canonical(value):
    """JSON-safe canonical form of a delta payload value."""
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, np.ndarray):
        return [_canonical(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    return value


class RelationDelta:
    """One batch of mutations against a relation.

    * ``inserts`` — a sequence of row dicts appended at the end, in
      order.  Every non-key column must be present; a numeric key column
      may be omitted (fresh keys are assigned past the current maximum).
    * ``updates`` — ``{key_value: {column: new_value}}``.  The key
      column itself cannot be updated (delete + insert instead).
    * ``deletes`` — a sequence of key values to remove.

    A key may appear in at most one of ``updates``/``deletes``, and
    inserted keys must not collide with surviving rows — violations
    raise :class:`SchemaError` before anything is touched.
    """

    __slots__ = ("inserts", "updates", "deletes")

    def __init__(self, inserts=None, updates=None, deletes=None):
        self.inserts = [dict(row) for row in (inserts or [])]
        self.updates = {k: dict(v) for k, v in (updates or {}).items()}
        self.deletes = list(deletes or [])
        if not (self.inserts or self.updates or self.deletes):
            raise SchemaError("empty delta: nothing to insert/update/delete")
        overlap = set(self.updates) & set(self.deletes)
        if overlap:
            raise SchemaError(
                f"keys both updated and deleted: {sorted(overlap)!r}"
            )

    @property
    def is_empty(self) -> bool:
        return not (self.inserts or self.updates or self.deletes)

    def to_payload(self) -> dict:
        """JSON-ready document (HTTP body, ``--apply-delta`` file)."""
        return {
            "inserts": [_canonical(row) for row in self.inserts],
            "updates": [
                [_canonical(k), _canonical(v)]
                for k, v in self.updates.items()
            ],
            "deletes": [_canonical(k) for k in self.deletes],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "RelationDelta":
        """Inverse of :meth:`to_payload`; validates shapes."""
        if not isinstance(payload, dict):
            raise SchemaError("delta payload must be a JSON object")
        updates_raw = payload.get("updates") or []
        if isinstance(updates_raw, dict):
            updates = dict(updates_raw)
        else:
            updates = {}
            for pair in updates_raw:
                if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                    raise SchemaError(
                        "delta updates must be [key, {column: value}] pairs"
                    )
                updates[pair[0]] = pair[1]
        return cls(
            inserts=payload.get("inserts") or [],
            updates=updates,
            deletes=payload.get("deletes") or [],
        )

    def digest(self) -> str:
        """Stable SHA-256 over the delta's canonical JSON form."""
        text = json.dumps(
            self.to_payload(), sort_keys=True, separators=(",", ":"),
            default=str,
        )
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RelationDelta(inserts={len(self.inserts)},"
            f" updates={len(self.updates)}, deletes={len(self.deletes)})"
        )


@dataclass
class DeltaApplication:
    """What one applied delta touched, in *post-delta* row coordinates.

    ``dirty`` is the sorted array of positions whose content or
    realized scenario draws can differ from the pre-delta relation;
    ``shifted_from`` is the first position at which row coordinates
    shifted (the minimum deleted position), or ``None`` when the delta
    contained no deletes (positions are then stable across the delta).
    """

    digest: str
    n_rows_before: int
    n_rows_after: int
    dirty: np.ndarray
    shifted_from: int | None

    def as_dict(self) -> dict:
        return {
            "digest": self.digest,
            "n_rows_before": int(self.n_rows_before),
            "n_rows_after": int(self.n_rows_after),
            "dirty_rows": int(len(self.dirty)),
            "shifted_from": (
                None if self.shifted_from is None else int(self.shifted_from)
            ),
        }


def dirty_positions(
    n_rows_before: int,
    update_positions: np.ndarray,
    delete_positions: np.ndarray,
    n_inserts: int,
) -> tuple[np.ndarray, int | None, int]:
    """(dirty child positions, shifted_from, n_rows_after) for one delta."""
    n_after = n_rows_before - len(delete_positions) + n_inserts
    if len(delete_positions):
        shifted_from = int(np.min(delete_positions))
        below = np.asarray(update_positions, dtype=np.int64)
        below = below[below < shifted_from]
        dirty = np.union1d(below, np.arange(shifted_from, n_after))
        return dirty.astype(np.int64), shifted_from, n_after
    dirty = np.union1d(
        np.asarray(update_positions, dtype=np.int64),
        np.arange(n_rows_before, n_after, dtype=np.int64),
    )
    return dirty.astype(np.int64), None, n_after


# --- fingerprint lineage ----------------------------------------------------


@dataclass
class LineageRecord:
    """One link in a fingerprint chain: parent → child via one delta."""

    parent: str
    child: str
    digest: str
    n_rows: int  # rows of the *child* relation
    dirty: np.ndarray  # child-coordinate positions, sorted
    shifted_from: int | None
    catalog_version: int | None = None
    table: str | None = None
    n_rows_parent: int | None = None  # rows of the *parent* relation


class FingerprintLineage:
    """Process-wide, bounded registry of fingerprint chains.

    Keyed by child fingerprint; answers ancestor walks and merged
    dirty-row masks so fingerprint-keyed caches (partition index,
    refine cache, scenario matrices) can be *reused* across deltas
    instead of cold-missing.  Thread-safe; bounded at
    ``_LINEAGE_LIMIT`` records (oldest evicted).
    """

    def __init__(self):
        self._records: OrderedDict[str, LineageRecord] = OrderedDict()
        self._lock = threading.Lock()

    def record(self, rec: LineageRecord) -> None:
        with self._lock:
            self._records[rec.child] = rec
            self._records.move_to_end(rec.child)
            while len(self._records) > _LINEAGE_LIMIT:
                self._records.popitem(last=False)

    def record_delta(
        self,
        parent_fp: str,
        child_fp: str,
        application: DeltaApplication,
        catalog_version: int | None = None,
        table: str | None = None,
    ) -> LineageRecord:
        """Convenience wrapper: build and store the record for one delta."""
        rec = LineageRecord(
            parent=parent_fp,
            child=child_fp,
            digest=application.digest,
            n_rows=application.n_rows_after,
            dirty=np.asarray(application.dirty, dtype=np.int64),
            shifted_from=application.shifted_from,
            catalog_version=catalog_version,
            table=table,
            n_rows_parent=application.n_rows_before,
        )
        self.record(rec)
        return rec

    def parent_record(self, fingerprint: str) -> LineageRecord | None:
        with self._lock:
            return self._records.get(fingerprint)

    def chain(self, fingerprint: str) -> list[LineageRecord]:
        """Records from ``fingerprint`` back towards its oldest ancestor."""
        out: list[LineageRecord] = []
        seen = {fingerprint}
        current = fingerprint
        while len(out) < _MAX_CHAIN:
            rec = self.parent_record(current)
            if rec is None or rec.parent in seen:
                break
            out.append(rec)
            seen.add(rec.parent)
            current = rec.parent
        return out

    def ancestor_fingerprints(self, fingerprint: str) -> list[str]:
        """Ancestor fingerprints, nearest first."""
        return [rec.parent for rec in self.chain(fingerprint)]

    def ancestors(self, fingerprint: str) -> list[tuple[str, int | None]]:
        """``(ancestor fingerprint, ancestor row count)`` pairs, nearest first."""
        return [
            (rec.parent, rec.n_rows_parent) for rec in self.chain(fingerprint)
        ]

    def dirty_mask(
        self, ancestor_fp: str, fingerprint: str, n_rows: int
    ) -> np.ndarray | None:
        """Boolean mask over the *current* relation's rows that may differ
        from ``ancestor_fp``'s content/draws; ``None`` if the chain from
        ``fingerprint`` back to ``ancestor_fp`` is unknown.

        Positions are stable across delta steps without deletes, so the
        per-step dirty sets union directly; a step with deletes already
        marks everything at or beyond its shift point dirty, which
        absorbs any coordinate drift conservatively.
        """
        mask = np.zeros(n_rows, dtype=bool)
        found = False
        for rec in self.chain(fingerprint):
            dirty = rec.dirty[rec.dirty < n_rows]
            mask[dirty] = True
            if rec.shifted_from is not None:
                mask[min(rec.shifted_from, n_rows):] = True
            if rec.parent == ancestor_fp:
                found = True
                break
        return mask if found else None

    def superseded(self) -> set:
        """Every fingerprint known to have been mutated past (stale)."""
        with self._lock:
            return {rec.parent for rec in self._records.values()}

    def is_stale(self, fingerprint: str) -> bool:
        """Whether a delta has been applied on top of ``fingerprint``."""
        with self._lock:
            return any(
                rec.parent == fingerprint for rec in self._records.values()
            )

    def clear(self) -> None:
        with self._lock:
            self._records.clear()


#: Process-wide registry; tests reset it via ``lineage.clear()``.
lineage = FingerprintLineage()


# --- application to in-memory relations ------------------------------------


def apply_delta_to_relation(relation, delta: RelationDelta):
    """Apply ``delta`` to an in-memory Relation.

    Returns ``(new_relation, DeltaApplication)``.  The source relation
    is untouched (columns are copied, not aliased).
    """
    from .relation import Relation

    key = relation.key
    n_before = relation.n_rows
    upd_pos = relation.positions_for_keys(delta.updates.keys())
    del_pos = relation.positions_for_keys(delta.deletes)
    for changes in delta.updates.values():
        if key in changes:
            raise SchemaError(
                f"cannot update key column {key!r}; delete and re-insert"
            )
        for col in changes:
            if not relation.has_column(col):
                raise SchemaError(
                    f"relation {relation.name!r} has no column {col!r}"
                )

    columns: dict[str, np.ndarray] = {
        name: np.array(relation.column(name), copy=True)
        for name in relation.column_names
    }

    # Updates in place (pre-delete coordinates).
    for (key_value, changes), pos in zip(delta.updates.items(), upd_pos):
        for col, value in changes.items():
            _check_assignable(columns[col], value, col)
            columns[col][pos] = value

    keep = np.ones(n_before, dtype=bool)
    keep[del_pos] = False

    inserts = normalize_inserts(
        delta,
        key=key,
        column_names=relation.column_names,
        key_values=columns[key],
        keep=keep,
        relation_name=relation.name,
    )
    for row in inserts:
        for col, value in row.items():
            _check_assignable(columns[col], value, col)

    new_columns: dict[str, np.ndarray] = {}
    for name, arr in columns.items():
        kept = arr[keep]
        if inserts:
            appended = np.asarray([row[name] for row in inserts])
            kept = np.concatenate([kept, appended.astype(kept.dtype, copy=False)])
        new_columns[name] = kept

    new_relation = Relation(relation.name, new_columns, key=key)
    dirty, shifted_from, n_after = dirty_positions(
        n_before, upd_pos, del_pos, len(inserts)
    )
    application = DeltaApplication(
        digest=delta.digest(),
        n_rows_before=n_before,
        n_rows_after=n_after,
        dirty=dirty,
        shifted_from=shifted_from,
    )
    return new_relation, application


def _check_assignable(arr: np.ndarray, value, col: str) -> None:
    """Reject lossy assignments (e.g. a float into an int column)."""
    if np.issubdtype(arr.dtype, np.integer):
        coerced = np.asarray(value)
        if not (
            np.issubdtype(coerced.dtype, np.integer)
            or (np.issubdtype(coerced.dtype, np.floating)
                and float(coerced) == int(coerced))
        ):
            raise SchemaError(
                f"cannot assign {value!r} to integer column {col!r}"
                " (type widening is not supported by deltas)"
            )


def normalize_inserts(
    delta: RelationDelta,
    key: str,
    column_names,
    key_values: np.ndarray,
    keep: np.ndarray,
    relation_name: str,
) -> list[dict]:
    """Insert rows with every column present (fresh numeric keys filled).

    ``keep`` masks out deletes so key collisions are checked against
    surviving rows only.  Shared by the in-memory and ColumnStore
    delta-application paths so both assign identical auto keys — the
    delta-equivalence property depends on that.
    """
    if not delta.inserts:
        return []
    key_arr = np.asarray(key_values)
    surviving = set(key_arr[keep].tolist())
    numeric_key = np.issubdtype(key_arr.dtype, np.number)
    next_key = (int(np.max(key_arr)) + 1) if numeric_key and len(key_arr) else 0
    out = []
    for row in delta.inserts:
        row = dict(row)
        if key not in row:
            if not numeric_key:
                raise SchemaError(
                    f"insert must provide key column {key!r}"
                    f" (non-numeric keys cannot be auto-assigned)"
                )
            while next_key in surviving:
                next_key += 1
            row[key] = next_key
            next_key += 1
        if row[key] in surviving:
            raise SchemaError(
                f"insert key {row[key]!r} already exists in {relation_name!r}"
            )
        surviving.add(row[key])
        missing = [n for n in column_names if n not in row]
        if missing:
            raise SchemaError(
                f"insert row missing columns {missing!r}"
                f" for relation {relation_name!r}"
            )
        unknown = [n for n in row if n not in set(column_names)]
        if unknown:
            raise SchemaError(
                f"insert row has unknown columns {unknown!r}"
                f" for relation {relation_name!r}"
            )
        out.append(row)
    return out
