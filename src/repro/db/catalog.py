"""Catalog: named relations plus their stochastic models.

The engine resolves ``FROM`` clauses against a catalog.  A relation may
be registered together with a :class:`repro.mcdb.StochasticModel`
describing its uncertain attributes and their VG functions; relations
without a model are fully deterministic (plain PaQL behaviour).
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Iterator

from ..errors import SchemaError
from .relation import Relation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..mcdb.stochastic import StochasticModel


class Catalog:
    """A case-insensitive mapping of table names to (relation, model)."""

    def __init__(self) -> None:
        self._tables: dict[str, tuple[Relation, "StochasticModel | None"]] = {}
        #: Bumped on every mutation.  Engine sessions sharing this
        #: catalog key their compiled-problem caches on it, so a
        #: registration through *any* session (or directly on the
        #: catalog) invalidates every session's cache.  Mutations are
        #: serialized under a lock: concurrent registrations losing an
        #: increment to each other would leave the counter unchanged
        #: after the second one landed, letting stale compiled problems
        #: read as current.
        self.version = 0
        self._mutate_lock = threading.Lock()

    @staticmethod
    def _norm(name: str) -> str:
        return name.lower()

    def register(
        self,
        relation: Relation,
        model: "StochasticModel | None" = None,
        name: str | None = None,
    ) -> None:
        """Register ``relation`` (optionally with its stochastic model).

        Re-registering a name replaces the previous entry, mirroring
        ``CREATE OR REPLACE``.
        """
        table_name = self._norm(name or relation.name)
        if model is not None:
            model.check_against(relation)
        with self._mutate_lock:
            self._tables[table_name] = (relation, model)
            self.version += 1

    def relation(self, name: str) -> Relation:
        """The relation registered under ``name``."""
        return self._entry(name)[0]

    def model(self, name: str) -> "StochasticModel | None":
        """The stochastic model registered under ``name`` (or None)."""
        return self._entry(name)[1]

    def _entry(self, name: str) -> tuple[Relation, "StochasticModel | None"]:
        key = self._norm(name)
        if key not in self._tables:
            raise SchemaError(
                f"unknown table {name!r}; registered: {sorted(self._tables)}"
            )
        return self._tables[key]

    def __contains__(self, name: str) -> bool:
        return self._norm(name) in self._tables

    def __iter__(self) -> Iterator[str]:
        return iter(self._tables)

    def __len__(self) -> int:
        return len(self._tables)

    def apply_delta(self, name: str, delta) -> dict:
        """Apply a :class:`~repro.db.delta.RelationDelta` to a table.

        The relation is mutated (ColumnStore) or replaced (in-memory),
        the stochastic model — if any — is rebound against the new rows
        via each VG's ``unbound_copy``, the version counter bumps (which
        invalidates every sharing session's compile cache), and the
        fingerprint chain is extended in the process-wide
        :data:`repro.db.delta.lineage` registry so fingerprint-keyed
        caches can be reused delta-scoped instead of cold-missing.

        Returns a JSON-ready summary (old/new fingerprint, dirty rows,
        catalog version) — the ``POST /update`` response body.
        """
        from ..service.store import model_fingerprint, relation_fingerprint
        from .delta import lineage

        relation, model = self._entry(name)
        parent_fp = (
            model_fingerprint(model)
            if model is not None
            else relation_fingerprint(relation)
        )
        new_relation, application = relation.apply_delta(delta)
        new_model = None
        if model is not None:
            from ..mcdb.stochastic import StochasticModel

            new_model = StochasticModel(
                new_relation,
                {
                    attr: model.vg(attr).unbound_copy()
                    for attr in model.attribute_names
                },
            )
        child_fp = (
            model_fingerprint(new_model)
            if new_model is not None
            else relation_fingerprint(new_relation)
        )
        self.register(new_relation, new_model, name=name)
        record = lineage.record_delta(
            parent_fp,
            child_fp,
            application,
            catalog_version=self.version,
            table=self._norm(name),
        )
        return {
            "table": self._norm(name),
            "catalog_version": self.version,
            "fingerprint": child_fp,
            "parent_fingerprint": parent_fp,
            "n_rows": new_relation.n_rows,
            **application.as_dict(),
            "lineage_recorded": record is not None,
        }

    def drop(self, name: str) -> None:
        """Remove a registered table."""
        key = self._norm(name)
        if key not in self._tables:
            raise SchemaError(f"unknown table {name!r}")
        del self._tables[key]
        self.version += 1
