"""View definitions and materialization from the raw (tape) database.

"Because of its enormous size, the raw database will almost always reside
on slow secondary storage devices such as tapes.  A typical analysis will
require access to a small portion of the database, which for reasons of
efficiency, must be migrated to disk storage while in use ...  the cost of
materializing the view is amortized over its period of use" (SS2.3).

A :class:`ViewDefinition` is an algebra tree over raw dataset names with a
canonical form (used by :mod:`repro.views.sharing` to detect duplicate
requests).  :func:`materialize` evaluates the tree against a
:class:`RawDatabase` (datasets serialized on a simulated tape), optionally
loads the result into a transposed file on disk, and reports the tape and
disk costs it incurred.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from repro.core.errors import ViewError
from repro.relational.aggregates import AggregateSpec, GroupBy
from repro.relational.expressions import Expr
from repro.relational.operators import HashJoin, Project, Select
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.relational.vectorized import (
    VecGroupBy,
    VecProject,
    VecSelect,
    as_chunk_pipeline,
)
from repro.storage.records import RecordCodec
from repro.storage.tape import TapeArchive, TapeStats


# -- definition tree -----------------------------------------------------------


class DefNode:
    """Base class for view-definition nodes.

    Equality and hashing go through :meth:`canonical` because predicate
    expressions overload ``==`` for the fluent query API.
    """

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DefNode) and self.canonical() == other.canonical()

    def __hash__(self) -> int:
        return hash(self.canonical())

    def canonical(self) -> str:
        """Normalized textual form; equal trees produce equal strings."""
        raise NotImplementedError

    def sources(self) -> set[str]:
        """Raw dataset names the subtree reads."""
        raise NotImplementedError


@dataclass(frozen=True, eq=False)
class SourceNode(DefNode):
    """A raw dataset read from tape."""

    dataset: str

    def canonical(self) -> str:
        return f"source({self.dataset})"

    def sources(self) -> set[str]:
        return {self.dataset}


@dataclass(frozen=True, eq=False)
class SelectNode(DefNode):
    """Selection by predicate."""

    child: DefNode
    predicate: Expr

    def canonical(self) -> str:
        return f"select[{self.predicate.canonical()}]({self.child.canonical()})"

    def sources(self) -> set[str]:
        return self.child.sources()


@dataclass(frozen=True, eq=False)
class ProjectNode(DefNode):
    """Projection to named attributes."""

    child: DefNode
    attributes: tuple[str, ...]

    def canonical(self) -> str:
        inner = ",".join(self.attributes)
        return f"project[{inner}]({self.child.canonical()})"

    def sources(self) -> set[str]:
        return self.child.sources()


@dataclass(frozen=True, eq=False)
class JoinNode(DefNode):
    """Equi-join of two subtrees."""

    left: DefNode
    right: DefNode
    left_keys: tuple[str, ...]
    right_keys: tuple[str, ...]

    def canonical(self) -> str:
        keys = ",".join(f"{l}={r}" for l, r in zip(self.left_keys, self.right_keys))
        return f"join[{keys}]({self.left.canonical()},{self.right.canonical()})"

    def sources(self) -> set[str]:
        return self.left.sources() | self.right.sources()


@dataclass(frozen=True, eq=False)
class AggregateNode(DefNode):
    """Group-by aggregation (the paper's SS2.2 coarsening example)."""

    child: DefNode
    keys: tuple[str, ...]
    specs: tuple[AggregateSpec, ...]

    def canonical(self) -> str:
        keys = ",".join(self.keys)
        specs = ";".join(
            f"{s.func}:{s.attr}:{s.alias}:{s.weight}" for s in self.specs
        )
        return f"aggregate[{keys}|{specs}]({self.child.canonical()})"

    def sources(self) -> set[str]:
        return self.child.sources()


@dataclass(frozen=True)
class ViewDefinition:
    """A named definition: the operations that materialize the view.

    Stored in the Management Database so "the specification of the
    operations that were utilized to materialize the view" survives (SS5.1).
    """

    name: str
    root: DefNode

    def canonical(self) -> str:
        """Canonical form of the whole definition."""
        return self.root.canonical()

    def sources(self) -> set[str]:
        """Raw datasets the view reads."""
        return self.root.sources()


# -- raw database on tape ---------------------------------------------------------


class RawDatabase:
    """The raw statistical database: datasets serialized on simulated tape.

    Dataset schemas live in memory (they belong to the Management
    Database); the data itself is on tape, so every read pays the
    sequential-streaming cost :class:`TapeArchive` models.
    """

    def __init__(self, tape: TapeArchive | None = None) -> None:
        self.tape = tape or TapeArchive()
        self._schemas: dict[str, Schema] = {}

    @property
    def dataset_names(self) -> list[str]:
        """Datasets on the tape."""
        return sorted(self._schemas)

    def schema_of(self, name: str) -> Schema:
        """Schema of a dataset."""
        try:
            return self._schemas[name]
        except KeyError:
            raise ViewError(f"no raw dataset {name!r}") from None

    def store(self, relation: Relation) -> int:
        """Serialize a relation onto the tape; returns blocks written."""
        if relation.name in self._schemas:
            raise ViewError(f"raw dataset {relation.name!r} already on tape")
        codec = RecordCodec(relation.schema.types)
        payload = bytearray()
        payload += len(relation).to_bytes(8, "little")
        for row in relation:
            payload += codec.encode(row)
        blocks = self.tape.write_dataset(relation.name, bytes(payload))
        self._schemas[relation.name] = relation.schema
        return blocks

    def read(self, name: str) -> Relation:
        """Stream a dataset off the tape into memory (accounted)."""
        schema = self.schema_of(name)
        raw = self.tape.read_dataset_bytes(name)
        count = int.from_bytes(raw[:8], "little")
        codec = RecordCodec(schema.types)
        rows = []
        pos = 8
        for _ in range(count):
            values, consumed = codec.decode(raw, pos)
            rows.append(values)
            pos += consumed
        return Relation(name, schema, rows)


# -- materialization -----------------------------------------------------------------


@dataclass(frozen=True)
class MaterializationReport:
    """Costs incurred while materializing one view."""

    rows: int
    tape: TapeStats
    tape_time_ms: float

    def __str__(self) -> str:
        return (
            f"{self.rows} rows; tape: {self.tape.mounts} mounts, "
            f"{self.tape.blocks_streamed} blocks streamed, "
            f"{self.tape_time_ms:.0f}ms model time"
        )


def evaluate(node: DefNode, raw_db: RawDatabase) -> Any:
    """Evaluate a definition subtree into an operator pipeline/relation.

    Select/project/aggregate run on the vectorized engine whenever the
    child pipeline can feed column chunks (a tape read lands in an
    in-memory relation, which always can, and the hash join is a chunk
    operator whatever its inputs).
    """
    if isinstance(node, SourceNode):
        return raw_db.read(node.dataset)
    if isinstance(node, SelectNode):
        child = evaluate(node.child, raw_db)
        chunked = as_chunk_pipeline(child)
        if chunked is not None:
            return VecSelect(chunked, node.predicate)
        return Select(child, node.predicate)
    if isinstance(node, ProjectNode):
        child = evaluate(node.child, raw_db)
        chunked = as_chunk_pipeline(child, columns=list(dict.fromkeys(node.attributes)))
        if chunked is not None:
            return VecProject(chunked, list(node.attributes))
        return Project(child, list(node.attributes))
    if isinstance(node, JoinNode):
        return HashJoin(
            evaluate(node.left, raw_db),
            evaluate(node.right, raw_db),
            left_keys=list(node.left_keys),
            right_keys=list(node.right_keys),
        )
    if isinstance(node, AggregateNode):
        child = evaluate(node.child, raw_db)
        chunked = as_chunk_pipeline(child)
        if chunked is not None:
            return VecGroupBy(chunked, list(node.keys), list(node.specs))
        return GroupBy(child, list(node.keys), list(node.specs))
    raise ViewError(f"unknown definition node {type(node).__name__}")


def materialize(
    definition: ViewDefinition, raw_db: RawDatabase
) -> tuple[Relation, MaterializationReport]:
    """Evaluate a view definition against the raw database.

    Returns the materialized relation and the tape cost it took — the
    quantity benchmark E8 amortizes over the analysis lifetime.
    """
    before = raw_db.tape.stats.snapshot()
    pipeline = evaluate(definition.root, raw_db)
    relation = Relation.from_operator(definition.name, pipeline)
    after = raw_db.tape.stats.snapshot()
    delta = TapeStats(
        mounts=after.mounts - before.mounts,
        rewinds=after.rewinds - before.rewinds,
        blocks_streamed=after.blocks_streamed - before.blocks_streamed,
        blocks_written=after.blocks_written - before.blocks_written,
    )
    report = MaterializationReport(
        rows=len(relation),
        tape=delta,
        tape_time_ms=raw_db.tape.cost_model.time_ms(delta),
    )
    return relation, report
