"""Disk-resident Summary Database storage.

"To enhance access to the Summary Database (which may itself become
relatively large), we envision the use of a secondary index on function
name-attribute name.  Data will most likely be clustered on attribute name
to facilitate efficient access to all results on a given column" (SS3.2).

:class:`StoredSummaryStore` realizes that design on the real substrate:
entries are serialized (key + varying-length result) into a heap file in
attribute-clustered order, a B+-tree maps (attribute, function) to RIDs,
and attribute sweeps and exact lookups pay genuine page I/O — confirming
with measured block reads what the in-memory layout simulation of
:meth:`SummaryDatabase.pages_for_attribute` models.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.errors import SummaryError
from repro.relational.types import DataType
from repro.storage.btree import BPlusTree
from repro.storage.heapfile import HeapFile
from repro.storage.pager import BufferPool
from repro.storage.records import RID
from repro.summary.entries import SummaryKey, decode_result, encode_result
from repro.summary.summarydb import SummaryDatabase

# Stored record: function | attributes (\x1f-joined) | encoded result hex.
_TYPES = [DataType.STR, DataType.STR, DataType.STR]
_SEP = "\x1f"


class StoredSummaryStore:
    """A Summary Database persisted to heap-file pages with a B+-tree index."""

    def __init__(self, pool: BufferPool, name: str = "summary_store") -> None:
        self.pool = pool
        self.heap = HeapFile(pool, _TYPES, name=name)
        self.index = BPlusTree(order=16)

    def __len__(self) -> int:
        return len(self.heap)

    @property
    def page_count(self) -> int:
        """Pages the stored entries occupy."""
        return self.heap.page_count

    # -- writing ------------------------------------------------------------

    def save(self, summary: SummaryDatabase) -> int:
        """Persist every entry of an in-memory Summary Database.

        Entries are written in attribute-clustered (index) order so that
        one attribute's results sit on adjacent pages — the paper's layout.
        Returns the number of entries written.
        """
        if len(self.heap) > 0:
            raise SummaryError("store already holds a snapshot; use a fresh store")
        written = 0
        for entry in summary.entries():  # clustered order
            self._insert(entry.key, entry.result)
            written += 1
        self.pool.flush_all()
        return written

    def _insert(self, key: SummaryKey, result: object) -> RID:
        payload = encode_result(result).hex()
        rid = self.heap.insert(
            (key.function, _SEP.join(key.attributes), payload)
        )
        self.index.insert((key.primary_attribute, key.function), rid)
        return rid

    # -- reading -------------------------------------------------------------

    def lookup(self, function: str, attributes: tuple[str, ...] | str) -> object:
        """Exact (function, attribute) search via the secondary index."""
        if isinstance(attributes, str):
            attributes = (attributes,)
        rids = self.index.search((attributes[0], function))
        for rid in rids:
            record = self.heap.get(rid)
            if record[0] == function and tuple(record[1].split(_SEP)) == attributes:
                return decode_result(bytes.fromhex(record[2]))
        raise SummaryError(f"no stored entry for {function}({', '.join(attributes)})")

    def entries_for_attribute(self, attribute: str) -> Iterator[tuple[SummaryKey, object]]:
        """The clustered attribute sweep of SS4.1, against real pages."""
        for _, rid in self.index.prefix_scan((attribute,)):
            record = self.heap.get(rid)
            key = SummaryKey(record[0], tuple(record[1].split(_SEP)))
            yield key, decode_result(bytes.fromhex(record[2]))

    def restore(self) -> SummaryDatabase:
        """Rebuild an in-memory Summary Database from the stored snapshot."""
        summary = SummaryDatabase(view_name="restored")
        for _, record in self.heap.scan():
            key = SummaryKey(record[0], tuple(record[1].split(_SEP)))
            summary.insert(
                key.function, key.attributes, decode_result(bytes.fromhex(record[2]))
            )
        return summary
