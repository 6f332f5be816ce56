"""Per-view update histories with undo and rollback.

"It should be possible for [the analyst] to 'undo' recent changes to the
view if he discovers, through subsequent analysis, that the changes made to
the view were incorrect" (SS2.3); "keeping a history of updates for each
view will enable the DBMS to roll a view back to a previous state" and lets
other analysts reuse the data-checking work recorded there (SS3.2).

Each :class:`Operation` captures the old values it overwrote, so undo is
O(cells changed), never a view rescan.
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from dataclasses import dataclass
from typing import Any, Sequence

from repro.core.errors import HistoryError
from repro.incremental.differencing import Delta
from repro.relational.relation import Relation


class OpKind(enum.Enum):
    """Kinds of recorded view operations."""

    UPDATE = "update"
    INVALIDATE = "invalidate"


@dataclass(frozen=True)
class CellChange:
    """One cell's transition."""

    row: int
    old: Any
    new: Any


@dataclass(frozen=True)
class Operation:
    """One entry of a view's update history — what the WAL logs, what

    propagation consumes (:attr:`rows`, :meth:`delta`), what undo inverts."""

    version: int
    kind: OpKind
    attribute: str
    changes: tuple[CellChange, ...]
    description: str = ""

    @property
    def cells_changed(self) -> int:
        """Number of cells this operation touched."""
        return len(self.changes)

    @property
    def rows(self) -> list[int]:
        """The row index of every change, in change order."""
        return [change.row for change in self.changes]

    def delta(self, inverse: bool = False) -> Delta:
        """The (old, new) transitions as an update burst, or the (new, old)

        burst that undoes this operation."""
        if inverse:
            return Delta(updates=[(c.new, c.old) for c in self.changes])
        return Delta(updates=[(c.old, c.new) for c in self.changes])


class UpdateHistory:
    """An append-only operation log supporting undo and rollback."""

    def __init__(self, view_name: str) -> None:
        self.view_name = view_name
        self._operations: list[Operation] = []
        self._next_version = 1

    # -- recording ------------------------------------------------------------

    @property
    def version(self) -> int:
        """High-water version mark of the history (0 = never updated).

        Versions are *monotonic*: undoing operations never hands their
        version numbers back out, because a peer that already consumed the
        log through :meth:`operations_since`/:meth:`replay_onto` must never
        see two different operations under the same version.
        """
        return self._next_version - 1

    def __len__(self) -> int:
        return len(self._operations)

    def record(
        self,
        kind: OpKind,
        attribute: str,
        changes: Sequence[CellChange],
        description: str = "",
    ) -> Operation:
        """Append one operation, assigning it the next version."""
        operation = Operation(
            version=self._next_version,
            kind=kind,
            attribute=attribute,
            changes=tuple(changes),
            description=description,
        )
        self._operations.append(operation)
        self._next_version += 1
        return operation

    def restore(self, operation: Operation) -> Operation:
        """Re-append a previously logged operation, keeping its version.

        The write-ahead-log replay path (:mod:`repro.durability.recovery`)
        rebuilds histories from framed records whose versions were assigned
        before the crash; they must be preserved so sharing peers that
        consumed the log via :meth:`operations_since` see the same
        operations under the same versions after recovery.  Versions must
        arrive in increasing order — a replayed version at or below the
        current high-water mark is a duplicate.
        """
        if operation.version < self._next_version:
            raise HistoryError(
                f"cannot restore operation v{operation.version}: history is "
                f"already at v{self.version}"
            )
        self._operations.append(operation)
        self._next_version = operation.version + 1
        return operation

    def operations(self) -> list[Operation]:
        """The full log, oldest first."""
        return list(self._operations)

    def operations_since(self, version: int) -> list[Operation]:
        """Operations applied after ``version``."""
        return self._operations[self._cut(version) :]

    def operations_upto(self, version: int) -> list[Operation]:
        """Operations at or below ``version``, oldest first.

        This is the snapshot-read access path of the multi-analyst layer:
        a read transaction pins the view's version high-water mark at
        start and consumes the history only up to that mark, so a
        concurrently committing writer's operations never leak into an
        in-flight reader's picture of the edit log (paper SS3.2 — peers
        consume each other's data-checking work through the history).
        """
        return self._operations[: self._cut(version)]

    def _cut(self, version: int) -> int:
        """How many (strictly increasing) logged versions are <= ``version``."""
        if version >= self.version:
            return len(self._operations)
        return bisect_right(self._operations, version, key=lambda op: op.version)

    def tail_versions(self, count: int) -> list[int]:
        """The last ``count`` operations' versions, newest first.

        Recovery and the undo-idempotence guard both need "what exactly is
        on the tail" without copying whole operations.
        """
        if count <= 0:
            return []
        return [op.version for op in reversed(self._operations[-count:])]

    # -- undo / rollback ----------------------------------------------------------

    def undo_last(self, relation: Relation, count: int = 1) -> list[Operation]:
        """Reverse the last ``count`` operations against ``relation``.

        Returns the undone operations (newest first); each operation's
        changes are restored newest first too, so a cell written twice ends
        at the value it held before the operation.  Each write is
        ``Relation.set_value``, so the indexes and copy-on-write epochs
        follow.  Cost is proportional to the cells changed.  The version
        counter does not move backwards: the undone versions stay burned.
        """
        if count < 1:
            raise HistoryError(f"count must be >= 1, got {count}")
        if count > len(self._operations):
            raise HistoryError(
                f"cannot undo {count} operations; history has {len(self._operations)}"
            )
        undone: list[Operation] = []
        for _ in range(count):
            operation = self._operations.pop()
            for change in reversed(operation.changes):
                relation.set_value(change.row, operation.attribute, change.old)
            undone.append(operation)
        return undone

    def rollback_to(self, relation: Relation, version: int) -> list[Operation]:
        """Roll the view back to the state just after ``version``."""
        if version < 0 or version > self.version:
            raise HistoryError(
                f"version {version} out of range [0, {self.version}]"
            )
        to_undo = len([op for op in self._operations if op.version > version])
        if to_undo == 0:
            return []
        return self.undo_last(relation, to_undo)

    # -- replay (publishing clean data, SS3.2) -----------------------------------

    def replay_onto(self, relation: Relation) -> int:
        """Re-apply every logged operation to another copy of the data.

        "Rather than repeating the mundane and time consuming data checking
        operations they can examine what actions were taken by their
        predecessors and use the 'clean' data" — replay is how a second
        analyst adopts the first one's edits.  Returns cells changed.
        """
        cells = 0
        for operation in self._operations:
            for change in operation.changes:
                relation.set_value(change.row, operation.attribute, change.new)
                cells += 1
        return cells
