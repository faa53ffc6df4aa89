"""Per-query solve artifacts for delta-scoped refine reuse.

One stochastic SketchRefine run produces, per refined partition, a
sub-package that cost a full SummarySearch solve.  After a relation
delta, partitions whose member rows are untouched would re-derive
bit-identical sub-relations — the expensive part of a repair solve is
pointless re-refinement.  This registry keeps the last few runs'
per-partition outcomes keyed by ``(model fingerprint, query digest)``;
the driver walks the fingerprint lineage
(:data:`repro.db.delta.lineage`) to find the pre-delta run, reuses
clean partitions' sub-packages verbatim, warm-starts dirty partitions
from their previous multiplicities, and re-validates the combined
package out-of-sample against the original constraints — the validator,
not the reuse, decides feasibility (see ``docs/live_data.md``).

The registry is process-wide and bounded like the lineage registry;
eviction degrades a repair to a cold solve, never to a wrong answer.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from ..db.expressions import render
from ..silp.model import MeanConstraint

#: Artifacts kept per process (oldest evicted).
_ARTIFACT_LIMIT = 32

#: Config fields excluded from the query digest: time budgets, resident
#: budgets, serving and observability settings never change the solved
#: answer, so artifacts stay reusable across deadline and service
#: changes.  Every other field is hashed, so a new field fails safe: it
#: costs a refine reuse until it is listed here, never a wrong answer.
_EXCLUDED_CONFIG_FIELDS = {
    "deadline_ms",
    "time_limit",
    "scale_resident_budget",
    # serving
    "scenario_store_budget",
    "scenario_store_spill",
    "service_pool_size",
    "service_max_pending",
    # observability
    "trace_enabled",
    "trace_ring_size",
    "slow_query_threshold_s",
    "slow_query_log",
    "slow_query_log_max_bytes",
}


def query_digest(problem, config) -> str:
    """Digest of everything a refine outcome is a function of, minus data.

    Covers the objective, every constraint (rendered canonically), the
    repeat bound, and the solve-relevant config fields.  The relation
    content is deliberately absent — that is the artifact key's
    fingerprint half, matched through the lineage chain.
    """
    import dataclasses

    digest = hashlib.sha256()
    objective = problem.objective
    expr = getattr(objective, "expr", None)
    digest.update(
        f"obj:{type(objective).__name__}"
        f":{'' if expr is None else render(expr)}"
        f":{getattr(objective, 'sense', '')}".encode()
    )
    for constraint in problem.constraints:
        if isinstance(constraint, MeanConstraint):
            part = (
                f"mean:{render(constraint.expr)}:{constraint.op}"
                f":{float(constraint.rhs)!r}"
            )
        else:
            part = (
                f"chance:{render(constraint.expr)}:{constraint.inner_op}"
                f":{float(constraint.rhs)!r}"
                f":{float(constraint.probability)!r}"
            )
        digest.update(part.encode())
    digest.update(f"repeat:{problem.repeat}".encode())
    for f in sorted(dataclasses.fields(config), key=lambda f: f.name):
        if f.name in _EXCLUDED_CONFIG_FIELDS:
            continue
        digest.update(f"{f.name}={getattr(config, f.name)!r};".encode())
    return digest.hexdigest()


@dataclass
class SolveArtifact:
    """One completed SketchRefine run's reusable per-partition outcomes.

    ``group_rows`` holds each partition's member *base* row positions
    (the coordinate clean rows keep across delete-free deltas — reuse
    matches on exact equality of these arrays).  ``multiplicities`` and
    ``group_keys`` cover refined partitions only: the chosen package
    counts and the members' key values, for reuse and for aligning
    warm-start hints when membership drifted.
    """

    fingerprint: str
    query_digest: str
    group_rows: list = field(default_factory=list)
    multiplicities: dict = field(default_factory=dict)
    group_keys: dict = field(default_factory=dict)


class RefineCache:
    """Bounded, thread-safe registry of :class:`SolveArtifact`."""

    def __init__(self) -> None:
        self._artifacts: "OrderedDict[tuple[str, str], SolveArtifact]" = (
            OrderedDict()
        )
        self._lock = threading.Lock()

    def record(self, artifact: SolveArtifact) -> None:
        key = (artifact.fingerprint, artifact.query_digest)
        with self._lock:
            self._artifacts[key] = artifact
            self._artifacts.move_to_end(key)
            while len(self._artifacts) > _ARTIFACT_LIMIT:
                self._artifacts.popitem(last=False)

    def get(self, fingerprint: str, qdigest: str) -> SolveArtifact | None:
        with self._lock:
            return self._artifacts.get((fingerprint, qdigest))

    def lookup_repair(
        self, fingerprint: str, qdigest: str, n_rows: int
    ) -> tuple[SolveArtifact, np.ndarray] | None:
        """The nearest ancestor's artifact for this query, plus the
        dirty-row mask from that ancestor to ``fingerprint``.

        Walks the process-wide lineage; returns ``None`` when no
        ancestor ran this query (cold solve).  An artifact recorded for
        ``fingerprint`` itself is not a repair.  The content-keyed
        scenario and partition caches make same-content reuse cheap for
        realization and partitioning, but not for solving: an identical
        repeat makes every sketch and refine solver call again.  The
        ledger's ``scale_live`` repeat op makes the first query's 73
        solver calls again, 2.7 s traced on a 2-CPU box.
        """
        from ..db.delta import lineage

        for ancestor_fp in lineage.ancestor_fingerprints(fingerprint):
            artifact = self.get(ancestor_fp, qdigest)
            if artifact is None:
                continue
            mask = lineage.dirty_mask(ancestor_fp, fingerprint, n_rows)
            if mask is None:
                continue
            return artifact, mask
        return None

    def clear(self) -> None:
        with self._lock:
            self._artifacts.clear()


#: Process-wide registry; tests reset it via ``refine_cache.clear()``.
refine_cache = RefineCache()
