"""Seed-stable partitioning of active tuples by stochastic behaviour.

Stochastic SketchRefine needs groups whose members behave alike *as
random variables*, not just in their deterministic attributes — a
partition representative must stand in for its members in both the
expectation and the tail of the constraint scores.  The partitioner
therefore works from **pilot statistics**: a small batch of pilot
scenarios (its own RNG stream, ``STREAM_PARTITION``) is realized for
every stochastic attribute referenced by the query's probabilistic
parts, and each active tuple is summarized by the mean and standard
deviation of its pilot coefficients.  Tuples are then cut into quantile
groups on (mean, std) — a deterministic two-level quantile scheme, so
partitioning is a pure function of (data content, query, seed): the same
labels come back for any worker count, any service backend, and either
storage representation of the same relation.

Pilot realization routes through the shared
:class:`repro.service.ScenarioStore` when one is attached, so pilots are
cached across queries like every other realized matrix.

The resulting labels are persisted in a **partition index** keyed by
(relation/model fingerprint, predicate, seed, partition count, pilot
size): repeated queries — and sibling processes working on the same
on-disk relation — skip repartitioning entirely.  For
:class:`~repro.scale.columnar.ColumnStore`-backed relations the index
lives next to the data (``<store>/partition-index/``); in-memory
relations fall back to a bounded in-process cache.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from ..config import STREAM_PARTITION, SPQConfig
from ..db.expressions import Attr, attributes_of, render
from ..errors import EvaluationError
from ..mcdb.scenarios import MODE_SCENARIO_WISE, ScenarioCache, ScenarioGenerator
from ..silp.model import StochasticPackageProblem
from .metrics import scale_metrics

#: In-process fallback index entries kept for relations without a disk home.
_MEMORY_INDEX_LIMIT = 64

#: Ceiling on a pilot coefficient matrix (n_rows x pilot scenarios x 8B)
#: going through the ScenarioStore.  Past it, pilot statistics stream
#: scenario-by-scenario instead — one full-row vector resident at a
#: time — so pilot memory stays O(n_rows), not O(n_rows x pilot).  The
#: path choice is a pure function of (n_rows, pilot size), so every
#: representation/worker/backend of the same relation picks the same
#: path and the statistics stay bit-identical across them.
_PILOT_MATRIX_BYTES_CAP = 256 * 1024**2

#: On-disk partition-index entries kept per store (oldest pruned).
_DISK_INDEX_LIMIT = 64


@dataclass
class PilotStats:
    """Per-active-tuple pilot summaries driving the partition cut.

    ``mean``/``std`` are the composite partition keys (summed over the
    probed stochastic attributes); ``per_attr`` maps each attribute name
    to its own per-tuple ``(mean, std)`` pair — the driver builds the
    sketch representatives' VG parameters from these.
    """

    mean: np.ndarray
    std: np.ndarray
    per_attr: dict[str, tuple[np.ndarray, np.ndarray]]
    n_pilot: int


def probed_attributes(problem: StochasticPackageProblem) -> list[str]:
    """Stochastic attributes referenced by constraints or the objective.

    All of them are probed — expectation constraints over a stochastic
    attribute need sketch representatives for it just as chance
    constraints do.
    """
    if problem.model is None:
        return []
    names: set[str] = set()
    for constraint in problem.constraints:
        names |= attributes_of(constraint.expr)
    objective = problem.objective
    expr = getattr(objective, "expr", None)
    if expr is not None:
        names |= attributes_of(expr)
    return sorted(n for n in names if problem.model.is_stochastic(n))


def pilot_statistics(
    problem: StochasticPackageProblem,
    config: SPQConfig,
    store=None,
) -> PilotStats:
    """Realize the pilot batch and summarize each active tuple.

    Pilot scenarios come from their own stream (``STREAM_PARTITION``) so
    they never collide with optimization, validation, or probe draws;
    realization is scenario-wise (prefix-stable) and store-backed, so a
    repeated query reuses the cached matrix.
    """
    attrs = probed_attributes(problem)
    if not attrs:
        raise EvaluationError(
            "stochastic sketchrefine needs at least one stochastic"
            " attribute in the probabilistic query parts"
        )
    n_pilot = int(config.scale_pilot_scenarios)
    per_attr = pilot_per_attr(
        problem.model,
        problem.relation.n_rows,
        problem.active_rows,
        attrs,
        n_pilot,
        config.seed,
        store=store,
    )
    return compose_pilot_stats(per_attr, n_pilot)


def pilot_per_attr(
    model,
    n_rows: int,
    active_rows,
    attrs,
    n_pilot: int,
    seed: int,
    store=None,
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Per-active-tuple pilot ``(mean, std)`` for each probed attribute.

    The realization workhorse behind :func:`pilot_statistics`, shared
    with the delta-refresh path (which realizes *dirty rows only* as a
    standalone sub-relation).
    """
    active_rows = np.asarray(active_rows)
    generator = ScenarioGenerator(
        model, seed, STREAM_PARTITION, mode=MODE_SCENARIO_WISE
    )
    matrix_bytes = n_rows * n_pilot * 8
    per_attr: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    if matrix_bytes <= _PILOT_MATRIX_BYTES_CAP:
        cache = ScenarioCache(generator, store=store)
        for attr in attrs:
            matrix = cache.coefficient_matrix(Attr(attr), n_pilot)
            restricted = matrix[active_rows, :]
            per_attr[attr] = (restricted.mean(axis=1), restricted.std(axis=1))
    else:
        # Out-of-core sizes: the full pilot matrix would dwarf any
        # resident budget, so accumulate per-scenario instead (one
        # full-row coefficient vector at a time).
        for attr in attrs:
            total = np.zeros(len(active_rows))
            total_sq = np.zeros(len(active_rows))
            for j in range(n_pilot):
                vector = generator.coefficient_scenario(Attr(attr), j)[
                    active_rows
                ]
                total += vector
                total_sq += vector * vector
            mean = total / n_pilot
            variance = np.maximum(total_sq / n_pilot - mean * mean, 0.0)
            per_attr[attr] = (mean, np.sqrt(variance))
    return per_attr


def compose_pilot_stats(
    per_attr: dict[str, tuple[np.ndarray, np.ndarray]], n_pilot: int
) -> PilotStats:
    """Fold per-attribute summaries into the composite partition keys."""
    total_mean: np.ndarray | None = None
    total_var: np.ndarray | None = None
    for mean, std in per_attr.values():
        total_mean = mean if total_mean is None else total_mean + mean
        total_var = std**2 if total_var is None else total_var + std**2
    assert total_mean is not None and total_var is not None
    return PilotStats(
        mean=total_mean,
        std=np.sqrt(total_var),
        per_attr=per_attr,
        n_pilot=n_pilot,
    )


def partition_labels(stats: PilotStats, n_partitions: int) -> np.ndarray:
    """Quantile-cut active tuples into groups of similar pilot behaviour.

    A two-level scheme: tuples are first cut into quantile bands by
    pilot *mean*, then each band is cut by pilot *std*, yielding at most
    ``n_partitions`` compactly-labeled groups.  Both cuts use stable
    argsorts over the pilot arrays, so labels are a deterministic
    function of the statistics alone.
    """
    n = len(stats.mean)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    k = max(1, min(int(n_partitions), n))
    # Band counts: ~sqrt split between the two levels, biased toward the
    # mean axis (the constraint scores are linear in the means).
    mean_bands = max(1, int(np.ceil(np.sqrt(k))))
    std_bands = max(1, k // mean_bands)
    mean_bands = max(1, k // std_bands)
    labels = np.empty(n, dtype=np.int64)
    order = np.argsort(stats.mean, kind="stable")
    next_label = 0
    for band in np.array_split(order, mean_bands):
        if not len(band):
            continue
        sub_order = band[np.argsort(stats.std[band], kind="stable")]
        for group in np.array_split(sub_order, min(std_bands, len(band))):
            if not len(group):
                continue
            labels[group] = next_label
            next_label += 1
    return labels


# --- persisted partition index ---------------------------------------------------


def partition_index_key(
    problem: StochasticPackageProblem, config: SPQConfig, n_partitions: int
) -> str:
    """Digest identifying one partitioning decision.

    Covers the relation *content* and stochastic model (via the store's
    model fingerprint), the probed attribute set (two queries over the
    same relation constraining different stochastic attributes must
    never share pilot statistics), the WHERE predicate (canonical text
    when the compiled query is available, the exact active-row set
    otherwise), the seed, the pilot size, and the partition count —
    everything the labels are a function of.
    """
    from ..service.store import model_fingerprint

    return partition_index_key_for(
        model_fingerprint(problem.model),
        problem,
        config,
        n_partitions,
        problem.active_rows,
    )


def partition_index_key_for(
    fingerprint: str,
    problem: StochasticPackageProblem,
    config: SPQConfig,
    n_partitions: int,
    active_rows,
) -> str:
    """:func:`partition_index_key` with an explicit fingerprint/row set.

    The delta-refresh path uses this to reconstruct an *ancestor*
    relation's index key from the lineage chain (same query, same
    config, pre-delta fingerprint and row count).
    """
    digest = hashlib.sha256()
    digest.update(fingerprint.encode())
    digest.update(("attrs:" + ",".join(probed_attributes(problem))).encode())
    where = getattr(problem.source_query, "where", None)
    if where is not None:
        digest.update(b"where:" + render(where).encode())
    else:
        digest.update(b"rows:")
        digest.update(np.ascontiguousarray(active_rows).tobytes())
    digest.update(f":{config.seed}:{config.scale_pilot_scenarios}".encode())
    digest.update(f":{n_partitions}".encode())
    return digest.hexdigest()


class PartitionIndex:
    """Label cache keyed by :func:`partition_index_key`.

    Disk-backed when the relation supplies a home directory (a
    :class:`~repro.scale.columnar.ColumnStore`'s path), so repeated
    queries — including from other processes — skip the pilot batch and
    the cut; otherwise a bounded in-process dictionary.
    """

    _memory: "OrderedDict[str, dict]" = OrderedDict()
    _lock = threading.Lock()

    def __init__(self, relation):
        base = getattr(relation, "path", None)
        self._dir = (
            os.path.join(str(base), "partition-index")
            if base is not None and os.path.isdir(str(base))
            else None
        )

    def _file(self, key: str) -> str:
        assert self._dir is not None
        return os.path.join(self._dir, f"{key}.npz")

    @staticmethod
    def _pack(
        labels: np.ndarray, pilot: PilotStats, active_rows=None
    ) -> dict[str, np.ndarray]:
        payload = {
            "labels": np.asarray(labels, dtype=np.int64),
            "key_mean": pilot.mean,
            "key_std": pilot.std,
            "n_pilot": np.asarray([pilot.n_pilot], dtype=np.int64),
        }
        if active_rows is not None:
            payload["active_rows"] = np.asarray(active_rows, dtype=np.int64)
        for attr, (mean, std) in pilot.per_attr.items():
            payload[f"mean:{attr}"] = mean
            payload[f"std:{attr}"] = std
        return payload

    @staticmethod
    def _unpack(payload) -> tuple[np.ndarray, PilotStats, np.ndarray | None]:
        per_attr = {}
        for name in payload:
            if name.startswith("mean:"):
                attr = name[len("mean:"):]
                per_attr[attr] = (payload[name], payload[f"std:{attr}"])
        pilot = PilotStats(
            mean=payload["key_mean"],
            std=payload["key_std"],
            per_attr=per_attr,
            n_pilot=int(payload["n_pilot"][0]),
        )
        active = (
            np.asarray(payload["active_rows"], dtype=np.int64)
            if "active_rows" in payload
            else None
        )
        return np.asarray(payload["labels"], dtype=np.int64), pilot, active

    def _load(
        self, key: str
    ) -> tuple[np.ndarray, PilotStats, np.ndarray | None] | None:
        if self._dir is not None:
            try:
                with np.load(self._file(key)) as payload:
                    return self._unpack(payload)
            except (OSError, ValueError, KeyError):
                pass
        with self._lock:
            payload = self._memory.get(key)
            if payload is not None:
                self._memory.move_to_end(key)
        if payload is not None:
            return self._unpack(payload)
        return None

    def get(self, key: str) -> tuple[np.ndarray, PilotStats] | None:
        """Cached ``(labels, pilot)`` for ``key``, or None.

        A hit skips both the pilot batch and the quantile cut; misses
        and hits are recorded on the ``repro_scale_index_*`` counters.
        """
        found = self._load(key)
        scale_metrics.record_index_lookup(hit=found is not None)
        return None if found is None else found[:2]

    def peek(
        self, key: str
    ) -> tuple[np.ndarray, PilotStats, np.ndarray | None] | None:
        """:meth:`get` plus the stored active-row positions, metrics-free.

        Used by the delta-refresh path to probe *ancestor* entries
        without skewing the hit/miss counters for the current query.
        """
        return self._load(key)

    def put(
        self,
        key: str,
        labels: np.ndarray,
        pilot: PilotStats,
        active_rows=None,
    ) -> None:
        """Persist one partitioning decision (best-effort on disk)."""
        payload = self._pack(labels, pilot, active_rows)
        if self._dir is not None:
            try:
                os.makedirs(self._dir, exist_ok=True)
                # Atomic publish: concurrent writers race benignly.
                fd, tmp = tempfile.mkstemp(dir=self._dir, suffix=".tmp")
                with os.fdopen(fd, "wb") as handle:
                    np.savez(handle, **payload)
                os.replace(tmp, self._file(key))
                self._prune_disk()
                return
            except OSError:  # fall through to the in-process cache
                pass
        with self._lock:
            self._memory[key] = payload
            self._memory.move_to_end(key)
            while len(self._memory) > _MEMORY_INDEX_LIMIT:
                self._memory.popitem(last=False)

    def _prune_disk(self) -> None:
        """Keep the newest ``_DISK_INDEX_LIMIT`` entries on disk.

        Each entry is O(active rows); without a bound a long-running
        server answering queries with varying predicates/seeds would
        fill the disk.  Races with concurrent
        writers/readers are benign: a pruned file simply misses and the
        cut re-runs.
        """
        assert self._dir is not None
        try:
            entries = [
                os.path.join(self._dir, name)
                for name in os.listdir(self._dir)
                if name.endswith(".npz")
            ]
            if len(entries) <= _DISK_INDEX_LIMIT:
                return
            entries.sort(key=lambda path: os.path.getmtime(path))
            for path in entries[: len(entries) - _DISK_INDEX_LIMIT]:
                try:
                    os.unlink(path)
                except OSError:
                    pass
        except OSError:  # pragma: no cover - listing raced a removal
            pass

    @classmethod
    def clear_memory(cls) -> None:
        """Drop the in-process fallback cache (tests only)."""
        with cls._lock:
            cls._memory.clear()


# --- delta-scoped index refresh --------------------------------------------------


def delta_refresh_index(
    problem: StochasticPackageProblem,
    config: SPQConfig,
    n_partitions: int,
    index: PartitionIndex,
    index_key: str,
    store=None,
) -> tuple[np.ndarray, PilotStats, int] | None:
    """Rebuild a missing index entry from an ancestor's, delta-scoped.

    When the current fingerprint descends from an ancestor whose index
    entry is still cached (same query/config, pre-delta key via the
    lineage chain), clean rows keep their labels and pilot statistics;
    only *dirty* rows — the delta's touched positions — get fresh pilot
    draws (realized as a standalone sub-relation, O(delta) work) and are
    assigned to the nearest existing group signature.  The refreshed
    entry is persisted under the current key, so a rebuilt-from-scratch
    relation with identical content shares it (delta-equivalence holds
    by construction).

    Returns ``(labels, pilot, n_dirty_active)`` or ``None`` when no
    usable ancestor entry exists (the caller falls back to a cold cut).
    """
    from ..db.delta import lineage
    from ..service.store import model_fingerprint

    fp = model_fingerprint(problem.model)
    active = np.asarray(problem.active_rows)
    n_rows = problem.relation.n_rows
    for ancestor_fp, parent_rows in lineage.ancestors(fp):
        if parent_rows is None:
            continue
        ancestor_key = partition_index_key_for(
            ancestor_fp,
            problem,
            config,
            n_partitions,
            np.arange(parent_rows, dtype=np.int64),
        )
        prev = index.peek(ancestor_key)
        if prev is None or prev[2] is None:
            continue
        mask = lineage.dirty_mask(ancestor_fp, fp, n_rows)
        if mask is None:
            continue
        refreshed = _splice_entry(
            problem, config, mask, prev[0], prev[1], prev[2], parent_rows
        )
        if refreshed is None:
            continue
        labels, pilot, n_dirty = refreshed
        index.put(index_key, labels, pilot, active_rows=active)
        scale_metrics.record_delta_index_refresh()
        return labels, pilot, n_dirty
    return None


def _splice_entry(
    problem,
    config,
    mask: np.ndarray,
    prev_labels: np.ndarray,
    prev_pilot: PilotStats,
    prev_active: np.ndarray,
    parent_rows: int,
):
    """Merge an ancestor entry with fresh stats for the dirty rows."""
    active = np.asarray(problem.active_rows)
    attrs = probed_attributes(problem)
    if set(prev_pilot.per_attr) != set(attrs):
        return None
    if prev_pilot.n_pilot != int(config.scale_pilot_scenarios):
        return None
    n_groups = int(prev_labels.max()) + 1 if len(prev_labels) else 0
    if n_groups == 0 or len(prev_labels) != len(prev_active):
        return None
    dirty_active = mask[active]
    clean_positions = active[~dirty_active]
    # Clean rows kept their base position and content across the delta,
    # so the predicate verdict is unchanged: each must appear in the
    # ancestor's active set at the same position.  Anything else means
    # the lineage is inconsistent — refuse and let the cold cut run.
    if np.any(clean_positions >= parent_rows):
        return None
    prev_index_of = np.full(parent_rows, -1, dtype=np.int64)
    prev_index_of[prev_active] = np.arange(len(prev_active))
    j = prev_index_of[clean_positions]
    if np.any(j < 0):
        return None
    labels = np.empty(len(active), dtype=np.int64)
    labels[~dirty_active] = prev_labels[j]
    dirty_rows = active[dirty_active]
    if len(dirty_rows):
        local = _local_pilot_per_attr(problem, config, dirty_rows, attrs)
    else:
        local = {attr: (np.empty(0), np.empty(0)) for attr in attrs}
    per_attr: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for attr in attrs:
        mean = np.empty(len(active))
        std = np.empty(len(active))
        prev_mean, prev_std = prev_pilot.per_attr[attr]
        mean[~dirty_active] = prev_mean[j]
        std[~dirty_active] = prev_std[j]
        local_mean, local_std = local[attr]
        mean[dirty_active] = local_mean
        std[dirty_active] = local_std
        per_attr[attr] = (mean, std)
    pilot = compose_pilot_stats(per_attr, prev_pilot.n_pilot)
    if len(dirty_rows):
        # Nearest existing group signature (squared distance over the
        # composite (mean, std) plane); ties break to the lowest label.
        centroid_mean = np.array(
            [prev_pilot.mean[prev_labels == g].mean() for g in range(n_groups)]
        )
        centroid_std = np.array(
            [prev_pilot.std[prev_labels == g].mean() for g in range(n_groups)]
        )
        dm = pilot.mean[dirty_active]
        ds = pilot.std[dirty_active]
        distance = (dm[:, None] - centroid_mean[None, :]) ** 2 + (
            ds[:, None] - centroid_std[None, :]
        ) ** 2
        labels[dirty_active] = np.argmin(distance, axis=1)
    # Compact away groups left empty (all members dirtied and moved):
    # the driver builds one sketch representative per label, and an
    # empty group would centroid to NaN.
    used = np.unique(labels)
    if len(used) != n_groups:
        remap = np.full(n_groups, -1, dtype=np.int64)
        remap[used] = np.arange(len(used), dtype=np.int64)
        labels = remap[labels]
    return labels, pilot, int(dirty_active.sum())


def _local_pilot_per_attr(problem, config, rows: np.ndarray, attrs):
    """Pilot stats for ``rows`` realized as a standalone sub-relation.

    Draws differ from the full-relation positional stream — these stats
    feed the *grouping heuristic* only, never constraint scores, and the
    spliced entry is persisted content-keyed so every solve path sees
    the same labels.
    """
    from ..mcdb.stochastic import StochasticModel

    model = problem.model
    sub_relation = problem.relation.take(np.asarray(rows))
    sub_model = StochasticModel(
        sub_relation,
        {
            name: model.vg(name).unbound_copy()
            for name in model.attribute_names
        },
    )
    return pilot_per_attr(
        sub_model,
        sub_relation.n_rows,
        np.arange(sub_relation.n_rows, dtype=np.int64),
        attrs,
        int(config.scale_pilot_scenarios),
        config.seed,
        store=None,
    )
