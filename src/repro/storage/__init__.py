"""Storage substrate: simulated devices, buffer pool, files, indexes.

This package plays the role of WiSS (the Wisconsin Storage System) in the
paper's planned implementation (SS5.2): page-based storage structures and
access methods with explicit I/O accounting, plus the simulated tape that
holds the raw statistical database (SS2.3).
"""

from repro.storage.btree import BPlusTree
from repro.storage.dbmachine import (
    AssociativeDisk,
    ConventionalSearchModel,
    FilteringProcessor,
    MachineComparison,
)
from repro.storage.disk import DiskCostModel, IOStats, SimulatedDisk
from repro.storage.heapfile import HeapFile
from repro.storage.pager import (
    BufferPool,
    BufferStats,
    ClockPolicy,
    FIFOPolicy,
    LRUPolicy,
    MRUPolicy,
    ReplacementPolicy,
)
from repro.storage.records import RID, RecordCodec
from repro.storage.sharded import ShardedTransposedFile
from repro.storage.tape import TapeArchive, TapeCostModel, TapeStats
from repro.storage.transposed import TransposedFile

__all__ = [
    "AssociativeDisk",
    "BPlusTree",
    "ConventionalSearchModel",
    "FilteringProcessor",
    "MachineComparison",
    "BufferPool",
    "BufferStats",
    "ClockPolicy",
    "DiskCostModel",
    "FIFOPolicy",
    "HeapFile",
    "IOStats",
    "LRUPolicy",
    "MRUPolicy",
    "RecordCodec",
    "ReplacementPolicy",
    "RID",
    "ShardedTransposedFile",
    "SimulatedDisk",
    "TapeArchive",
    "TapeCostModel",
    "TapeStats",
    "TransposedFile",
]
