"""Shared, evictable store of realized scenario matrices.

Realized scenario matrices are the dominant memory/CPU cost of stochastic
package query evaluation (the MCDB-style Monte Carlo realization of
Section 3).  :class:`ScenarioStore` shares them *across* engine sessions
and queries: entries are content-keyed on

* a **source fingerprint** — a SHA-256 over the relation's column content
  and the stochastic model's VG functions, so two registrations of the
  same data share entries while any data change invalidates them;
* the **expression** — the canonical sPaQL rendering of the coefficient
  expression (structurally equal expressions from different parses share);
* the **RNG identity** — ``(seed, stream, substream, mode)``, the exact
  key material of :mod:`repro.utils.rngkeys`, so entries can never leak
  across streams or seeds;
* the **scenario range** — entries hold the prefix ``[0, width)`` of the
  scenario-wise stream (scenario ``j`` is a pure function of its RNG key,
  so prefixes are stable); a request for more scenarios generates only
  the missing suffix.

The store is thread-safe with *single-flight* generation: when two
callers race on the same key, one generates and the other waits for the
result — the generation counter increments once and both are served.

Memory is bounded by a configurable byte budget over resident entries.
Under pressure, least-recently-used entries are spilled to disk-backed
``np.memmap`` files (reads stay bit-identical) or, with spilling
disabled, evicted outright (a later request regenerates them).

Beside the matrices the store owns :attr:`ScenarioStore.memo`, an
:class:`AnswerMemo` of the exact answers an evaluation computes from
them — raw solver outcomes, validation counts and CSA round outcomes
(α updates included) — so a repeated query replays its own CSA search
instead of re-running it.  Its keys are content too
(``docs/architecture.md``, "Ask once"), so a delta needs no
invalidation rule.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import threading
import uuid
from collections import OrderedDict
from dataclasses import asdict, dataclass, replace

import numpy as np

from ..db.expressions import Expr, render
from ..obs import stage

#: Byte bound on :attr:`ScenarioStore.memo`.  The ledger's ``serve_hot``
#: hot set (12 query/seed keys, default config) leaves 703 answers in it
#: (297 of them CSA rounds, keyed by their α histories), 1.68 MB; the
#: bound keeps about ten such working sets before the least-recently-used
#: answers go.
_MEMO_LIMIT_BYTES = 16 * 1024**2

#: Attribute used to cache a model's fingerprint on the instance (the
#: hash covers the full relation content; compute it once per model).
_FINGERPRINT_ATTR = "_spq_content_fingerprint"


def _column_parts(relation, name):
    """Yield a column's content in pieces.

    Relations exposing the chunk protocol (``repro.scale.ColumnStore``)
    are read chunk-at-a-time so fingerprinting never materializes a
    full column; in-memory relations yield the column whole.  The
    hashed byte stream is identical either way.
    """
    if hasattr(relation, "column_chunk") and hasattr(relation, "n_chunks"):
        # max(..., 1): a zero-row store still yields one (empty) part so
        # the column dtype is hashed exactly like the in-memory path.
        for chunk in range(max(relation.n_chunks, 1)):
            yield relation.column_chunk(name, chunk)
        return
    yield relation.column(name)


def relation_fingerprint(relation) -> str:
    """SHA-256 over a relation's column names, dtypes, and content.

    The relation *name* is deliberately excluded: the store is
    content-keyed, so the same data registered under two names shares
    scenario matrices.  Content is hashed in chunk-composable form
    (numeric columns as raw bytes, object columns element-wise), so
    disk-backed and in-memory representations of the same data — and
    chunked versus whole reads — produce one fingerprint.
    """
    digest = hashlib.sha256()
    digest.update(repr(relation.key).encode())
    for name in sorted(relation.column_names):
        digest.update(name.encode())
        first = True
        for part in _column_parts(relation, name):
            part = np.asarray(part)
            if first:
                digest.update(str(part.dtype).encode())
                first = False
            if part.dtype.kind == "O":
                for value in part:
                    digest.update(repr(value).encode())
                    digest.update(b"\x1f")
            else:
                digest.update(np.ascontiguousarray(part).tobytes())
    return digest.hexdigest()


def _vg_state(vg) -> tuple:
    """A VG function's identity minus its bound relation reference.

    VGs descending from :class:`repro.mcdb.VGFunction` contribute their
    :meth:`~repro.mcdb.VGFunction.params_fingerprint` — a stable hash of
    the class plus every constructor parameter — so two configurations
    of the same family (e.g. copulas differing only in ``rho``) can
    never share store entries.  Exotic VG-like objects without the
    method fall back to their pickled state.  The relation's *content*
    is hashed separately (name-free), so two models over
    identically-valued relations with different names share
    fingerprints.
    """
    fingerprint = getattr(vg, "params_fingerprint", None)
    if callable(fingerprint):
        return (type(vg).__module__, type(vg).__qualname__, fingerprint())
    state = dict(vg.__dict__)
    state.pop("_relation", None)
    return (type(vg).__module__, type(vg).__qualname__, sorted(state.items()))


def model_fingerprint(model) -> str:
    """SHA-256 over a stochastic model's relation content and VG functions.

    VG functions are hashed through :func:`_vg_state` (parameter
    fingerprints, or pickled bound state for legacy objects).  If a VG's
    state cannot be serialized, the model gets a unique fallback
    fingerprint — still internally consistent, just never shared with
    another model.  The result is cached on the model instance.
    """
    cached = getattr(model, _FINGERPRINT_ATTR, None)
    if cached is not None:
        return cached
    digest = hashlib.sha256()
    digest.update(relation_fingerprint(model.relation).encode())
    try:
        payload = pickle.dumps(
            [
                (name, _vg_state(model.vg(name)))
                for name in model.attribute_names
            ],
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        digest.update(payload)
        fingerprint = digest.hexdigest()
    except Exception:
        fingerprint = f"unpicklable-{uuid.uuid4().hex}"
    try:
        setattr(model, _FINGERPRINT_ATTR, fingerprint)
    except AttributeError:  # pragma: no cover - exotic model classes
        pass
    return fingerprint


def store_key(generator, expr: Expr) -> tuple:
    """Content key for ``expr``'s coefficient matrix under ``generator``."""
    return (
        model_fingerprint(generator.model),
        render(expr),
        (generator.seed, generator.stream, generator.substream, generator.mode),
    )


def _footprint(obj) -> int:
    """Approximate bytes held by a memo key or answer."""
    if isinstance(obj, np.ndarray):
        return 112 + obj.nbytes
    if isinstance(obj, (bytes, str)):
        return 49 + len(obj)
    if isinstance(obj, dict):
        return 64 + sum(_footprint(k) + _footprint(v) for k, v in obj.items())
    if isinstance(obj, (tuple, list)):
        return 56 + sum(_footprint(item) for item in obj)
    return 32


class AnswerMemo:
    """Thread-safe LRU mapping of exact answers, bounded in bytes.

    Only ``get`` and item assignment are used by the evaluators, so a
    plain ``dict`` stands in for it wherever no store is attached.
    Entries over the bound are evicted, never spilled; an answer larger
    than the whole bound is not kept.
    """

    def __init__(self, limit_bytes: int = _MEMO_LIMIT_BYTES):
        self.limit_bytes = limit_bytes
        self._entries: "OrderedDict[object, tuple]" = OrderedDict()
        self._lock = threading.Lock()
        self.nbytes = 0

    def get(self, key, default=None):
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return default
            self._entries.move_to_end(key)
            return entry[0]

    def __setitem__(self, key, value) -> None:
        size = _footprint(key) + _footprint(value)
        if size > self.limit_bytes:
            return
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self.nbytes -= old[1]
            self._entries[key] = (value, size)
            self.nbytes += size
            while self.nbytes > self.limit_bytes:
                self.nbytes -= self._entries.popitem(last=False)[1][1]

    def __len__(self) -> int:
        return len(self._entries)

    def keys(self) -> list:
        """Keys in LRU-to-MRU order (for tests/inspection)."""
        with self._lock:
            return list(self._entries)

    def prune(self, fingerprints: "set[str]") -> None:
        """Drop entries keyed under a model fingerprint in ``fingerprints``."""
        with self._lock:
            for key in [
                k for k in self._entries
                if isinstance(k, tuple) and k and k[0] in fingerprints
            ]:
                self.nbytes -= self._entries.pop(key)[1]

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.nbytes = 0


@dataclass
class StoreStats:
    """Counters exposed on ``/metrics`` and in experiment reports."""

    hits: int = 0
    misses: int = 0
    generations: int = 0
    generated_columns: int = 0
    evictions: int = 0
    spills: int = 0
    stale_dropped: int = 0
    bytes_resident: int = 0
    bytes_spilled: int = 0
    entries: int = 0
    #: Lifetime bytes of freshly generated scenario columns vs. bytes
    #: served straight from cached matrices — the realized/reused split
    #: of the per-query resource accounting.
    bytes_realized: int = 0
    bytes_reused: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class _Entry:
    key: tuple
    data: np.ndarray  # resident ndarray or disk-backed np.memmap
    path: str | None = None  # spill file, when data is a memmap
    #: Set while a thread copies this entry to disk outside the lock;
    #: keeps concurrent budget passes from double-spilling it.
    spilling: bool = False

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def nbytes(self) -> int:
        return int(self.data.size * self.data.itemsize)

    @property
    def spilled(self) -> bool:
        return self.path is not None


class ScenarioStore:
    """Concurrent, content-keyed cache of scenario coefficient matrices.

    Parameters
    ----------
    budget_bytes:
        Byte budget for *resident* (in-RAM) matrices; ``None`` means
        unlimited.  Spilled matrices do not count against the budget.
    spill:
        Whether over-budget entries are spilled to ``np.memmap`` files
        (``True``, default) or evicted outright (``False``).
    spill_dir:
        Directory for spill files; a private temporary directory is
        created lazily when omitted and removed on :meth:`close`.
    """

    def __init__(
        self,
        budget_bytes: int | None = None,
        spill: bool = True,
        spill_dir: str | None = None,
    ):
        if budget_bytes is not None and budget_bytes < 1:
            raise ValueError("budget_bytes must be positive or None")
        self.budget_bytes = budget_bytes
        self.spill = spill
        self._spill_dir = spill_dir
        self._owns_spill_dir = spill_dir is None
        self._entries: "OrderedDict[tuple, _Entry]" = OrderedDict()
        self._growing: set[tuple] = set()
        self._cond = threading.Condition()
        self._stats = StoreStats()
        self._closed = False
        #: Exact answers derived from the stored matrices (module docstring).
        self.memo = AnswerMemo()

    # --- lookup / fill ------------------------------------------------------

    def coefficient_matrix(self, key: tuple, n_scenarios: int, fill) -> np.ndarray:
        """The first ``n_scenarios`` coefficient columns under ``key``.

        ``fill(start, stop)`` must return the full-relation columns
        ``[start, stop)`` of the keyed stream; it is invoked (outside the
        store lock) only for columns the store does not yet hold, and at
        most once per missing range even under concurrent requests.

        A closed store degrades to direct generation (``fill(0, n)``)
        rather than failing — callers holding a stale handle keep
        working, they just stop sharing.
        """
        if n_scenarios < 1:
            raise ValueError("n_scenarios must be >= 1")
        with stage("scenario.realize", n_scenarios=int(n_scenarios)) as span:
            return self._coefficient_matrix(key, n_scenarios, fill, span)

    def _coefficient_matrix(self, key: tuple, n_scenarios: int, fill, span):
        if self._closed:
            return fill(0, n_scenarios)
        with self._cond:
            while True:
                if self._closed:
                    break
                entry = self._entries.get(key)
                if entry is not None and entry.width >= n_scenarios:
                    self._stats.hits += 1
                    self._stats.bytes_reused += (
                        entry.data.shape[0] * n_scenarios * entry.data.itemsize
                    )
                    self._entries.move_to_end(key)
                    span.set("hit", True)
                    return entry.data[:, :n_scenarios]
                if key not in self._growing:
                    self._growing.add(key)
                    self._stats.misses += 1
                    span.set("hit", False)
                    start = 0 if entry is None else entry.width
                    break
                # Another thread is realizing this key: wait for it, then
                # re-check (single generation, both callers served).
                self._cond.wait()
        if self._closed:
            return fill(0, n_scenarios)
        try:
            new_columns = np.ascontiguousarray(
                fill(start, n_scenarios), dtype=np.float64
            )
        except BaseException:
            with self._cond:
                self._growing.discard(key)
                self._cond.notify_all()
            raise
        prefix_lost = False
        victims: list[_Entry] = []
        with self._cond:
            self._growing.discard(key)
            entry = self._entries.get(key)
            if entry is not None and entry.width != start:
                entry = None
            if entry is None and start > 0:
                # The stored prefix vanished while the suffix was being
                # generated (store closed, or a concurrent clear()).
                # The suffix alone is not the answer to [0, n): retry
                # from scratch rather than caching a corrupt matrix.
                prefix_lost = True
            else:
                if entry is None:
                    matrix = new_columns
                else:
                    # Growth: append the new suffix after the stored
                    # prefix (reading it back from its memmap if
                    # spilled).  Only this thread can touch the entry's
                    # width — the key is in _growing — so the prefix is
                    # exactly [0, start).
                    matrix = np.empty(
                        (new_columns.shape[0], n_scenarios), dtype=np.float64
                    )
                    matrix[:, :start] = entry.data[:, :start]
                    matrix[:, start:] = new_columns
                    self._release_entry(entry)
                    del self._entries[key]
                self._stats.generations += 1
                self._stats.generated_columns += new_columns.shape[1]
                self._stats.bytes_realized += int(new_columns.nbytes)
                if not self._closed:
                    self._entries[key] = _Entry(key=key, data=matrix)
                victims = self._evict_over_budget()
            self._cond.notify_all()
        if prefix_lost:
            return self._coefficient_matrix(key, n_scenarios, fill, span)
        if victims:
            self._spill_outside_lock(victims)
        return matrix[:, :n_scenarios]

    # --- budget enforcement -------------------------------------------------

    def _resident_bytes(self) -> int:
        return sum(
            e.nbytes
            for e in self._entries.values()
            if not e.spilled and not e.spilling
        )

    def _evict_over_budget(self) -> list[_Entry]:
        """Bring resident bytes under budget (caller holds the lock).

        With spilling disabled, LRU entries are released immediately.
        With spilling enabled, LRU victims are *marked* and returned —
        the disk write happens outside the lock (see
        :meth:`_spill_outside_lock`) so concurrent hits on other keys
        are not stalled behind the copy; marked entries already stop
        counting as resident.  Keys being grown are never victims (the
        grower holds a reference to the prefix).
        """
        if self.budget_bytes is None:
            return []
        victims: list[_Entry] = []
        for key in list(self._entries):
            if self._resident_bytes() <= self.budget_bytes:
                break
            entry = self._entries[key]
            if entry.spilled or entry.spilling or key in self._growing:
                continue
            if self.spill:
                entry.spilling = True
                victims.append(entry)
            else:
                self._release_entry(entry)
                del self._entries[key]
                self._stats.evictions += 1
        return victims

    def _ensure_spill_dir(self) -> str:
        if self._spill_dir is None:
            self._spill_dir = tempfile.mkdtemp(prefix="spq-store-")
        else:
            os.makedirs(self._spill_dir, exist_ok=True)
        return self._spill_dir

    def _spill_outside_lock(self, victims: list[_Entry]) -> None:
        """Copy marked victims to disk memmaps, then swap them in.

        The resident array stays readable during the copy; the swap
        happens under the lock with an identity check, so a victim that
        was meanwhile released (clear/close) just discards its file.
        """
        with self._cond:
            # Created under the lock: concurrent spillers must agree on
            # one directory, or close() would leak the losers'.
            spill_dir = self._ensure_spill_dir()
        for entry in victims:
            data = entry.data
            path = os.path.join(spill_dir, f"scenario-{uuid.uuid4().hex}.f64")
            spilled = np.memmap(path, dtype=np.float64, mode="w+", shape=data.shape)
            spilled[:] = data
            spilled.flush()
            with self._cond:
                if self._entries.get(entry.key) is entry and entry.data is data:
                    entry.data = spilled
                    entry.path = path
                    entry.spilling = False
                    self._stats.spills += 1
                else:
                    del spilled
                    try:
                        os.unlink(path)
                    except OSError:
                        pass

    # --- teardown -----------------------------------------------------------

    @staticmethod
    def _release_entry(entry: _Entry) -> None:
        """Drop an entry's array, closing its memmap and spill file."""
        data = entry.data
        path = entry.path
        entry.data = np.empty((0, 0))
        entry.path = None
        if isinstance(data, np.memmap):
            mm = getattr(data, "_mmap", None)
            del data
            if mm is not None:
                try:
                    mm.close()
                except BufferError:  # live views keep the mapping alive
                    pass
        if path is not None:
            try:
                os.unlink(path)
            except OSError:
                pass

    def prune_fingerprints(self, fingerprints: "set[str]") -> int:
        """Drop entries whose model fingerprint is in ``fingerprints``.

        Called after a delta supersedes a fingerprint so already-resident
        pre-delta matrices can't be served to queries that (incorrectly)
        reuse the old fingerprint, and so their memory is reclaimed
        promptly — post-delta queries key on the new fingerprint and
        would never hit them anyway.  Returns the number dropped
        (counted under ``stale_dropped``).  Validation and CSA round
        answers keyed under those fingerprints leave :attr:`memo` too,
        uncounted.
        """
        if not fingerprints:
            return 0
        self.memo.prune(fingerprints)
        dropped = 0
        with self._cond:
            victims = [
                key
                for key in self._entries
                if isinstance(key, tuple) and key and key[0] in fingerprints
            ]
            for key in victims:
                self._release_entry(self._entries.pop(key))
                self._stats.stale_dropped += 1
                dropped += 1
            if victims:
                self._cond.notify_all()
        return dropped

    def clear(self) -> None:
        """Drop every entry and memo answer, releasing memmap handles and
        spill files.

        Counters survive (they describe the store's lifetime); the store
        stays usable.  Idempotent.
        """
        self.memo.clear()
        with self._cond:
            for entry in self._entries.values():
                self._release_entry(entry)
            self._entries.clear()
            self._cond.notify_all()

    def close(self) -> None:
        """Release all entries and the private spill directory.  Idempotent.

        A closed store serves subsequent requests by direct generation
        (no caching), so stale handles degrade gracefully.
        """
        self.memo.clear()
        with self._cond:
            if self._closed:
                return
            self._closed = True
            for entry in self._entries.values():
                self._release_entry(entry)
            self._entries.clear()
            self._cond.notify_all()
        if self._owns_spill_dir and self._spill_dir is not None:
            try:
                os.rmdir(self._spill_dir)
            except OSError:
                pass
            self._spill_dir = None

    def __enter__(self) -> "ScenarioStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # --- introspection ------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def stats(self) -> StoreStats:
        """A point-in-time snapshot of the store's counters."""
        with self._cond:
            snapshot = replace(
                self._stats,
                bytes_resident=self._resident_bytes(),
                bytes_spilled=sum(
                    e.nbytes for e in self._entries.values() if e.spilled
                ),
                entries=len(self._entries),
            )
        return snapshot

    def keys(self) -> list[tuple]:
        """Current entry keys in LRU-to-MRU order (for tests/inspection)."""
        with self._cond:
            return list(self._entries)
