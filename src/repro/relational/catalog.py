"""A registry of named relations and indexes.

A large statistical database "may consist of several thousand tables"
(SS2.3); the catalog is the flat namespace the relational engine and the
SQL-subset parser resolve names against.  Richer navigation over the
meta-data lives in :mod:`repro.metadata.subject`.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.core.errors import CatalogError
from repro.relational.relation import Relation, StoredRelation


class Catalog:
    """Name -> relation mapping with optional secondary index registry."""

    def __init__(self) -> None:
        self._relations: dict[str, Any] = {}
        self._indexes: dict[tuple[str, str], Any] = {}

    def register(self, relation: Relation | StoredRelation, name: str | None = None) -> None:
        """Register a relation, defaulting to its own name."""
        key = name or relation.name
        if key in self._relations:
            raise CatalogError(f"relation {key!r} already registered")
        self._relations[key] = relation

    def replace(self, relation: Relation | StoredRelation, name: str | None = None) -> None:
        """Register or overwrite a relation."""
        self._relations[name or relation.name] = relation

    def unregister(self, name: str) -> None:
        """Remove a relation (and its indexes)."""
        if name not in self._relations:
            raise CatalogError(f"no relation {name!r}")
        del self._relations[name]
        for key in [k for k in self._indexes if k[0] == name]:
            del self._indexes[key]

    def get(self, name: str) -> Any:
        """Look up a relation by name."""
        try:
            return self._relations[name]
        except KeyError:
            raise CatalogError(
                f"no relation {name!r}; catalog has {sorted(self._relations)}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def names(self) -> list[str]:
        """All registered relation names, sorted."""
        return sorted(self._relations)

    def __iter__(self) -> Iterator[tuple[str, Any]]:
        return iter(sorted(self._relations.items()))

    # -- indexes -------------------------------------------------------------

    def register_index(self, relation: str, attribute: str, index: Any) -> None:
        """Let the planner use ``index`` (``relation.index_on(attribute)``)."""
        self.get(relation)
        self._indexes[(relation, attribute)] = index

    def index_for(self, relation: str, attribute: str) -> Any | None:
        """The index on (relation, attribute), if any."""
        return self._indexes.get((relation, attribute))
