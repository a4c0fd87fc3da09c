"""Paged storage engine used as a BerkeleyDB substitute.

The ICDE 2005 SVR paper implements its inverted lists on top of BerkeleyDB:
long inverted lists are stored as binary objects read a page at a time, short
lists and the Score/ListScore/ListChunk tables live in B+-trees that stay
cache-resident, and queries run against a cold cache for the long lists.

This package reproduces exactly those mechanics in pure Python so the paper's
query/update trade-offs can be measured:

* :class:`~repro.storage.disk.SimulatedDisk` — a page store that accounts for
  every read and write and exposes a configurable cost model.
* :class:`~repro.storage.buffer_pool.BufferPool` — an LRU cache of pages with
  hit/miss statistics.
* :class:`~repro.storage.btree.BPlusTree` — an ordered map over byte-string
  keys and values with range scans, used for primary keys, secondary
  indexes, short lists and lookup tables.
* :class:`~repro.storage.heap_file.HeapFile` — append-only segments holding
  immutable serialized long inverted lists.
* :class:`~repro.storage.kvstore.KVStore` — a BerkeleyDB-flavoured facade
  over a B+-tree whose key and value codecs turn tuples and values into
  order-preserving bytes.
* :class:`~repro.storage.environment.StorageEnvironment` — a named collection
  of stores sharing one disk + buffer pool, with global I/O statistics.
* :class:`~repro.storage.sharding.ShardedEnvironment` — the term space
  partitioned across N such environments (one buffer pool each) behind the
  same API, with deterministic term→shard routing and per-category aggregated
  statistics.
"""

from repro.storage.buffer_pool import BufferPool, BufferPoolStats
from repro.storage.btree import BPlusTree
from repro.storage.disk import DiskCostModel, DiskStats, SimulatedDisk
from repro.storage.environment import StorageEnvironment
from repro.storage.faults import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    FaultStats,
    merged_fault_stats,
    run_with_retries,
)
from repro.storage.heap_file import HeapFile, SegmentHandle
from repro.storage.kvstore import Cursor, KVStore
from repro.storage.pager import PAGE_SIZE, Page
from repro.storage.persistence import (
    FileBackedDisk,
    ScrubReport,
    WriteAheadLog,
    open_any_environment,
    open_environment,
    open_sharded_environment,
)
from repro.storage.sharding import (
    ShardedEnvironment,
    ShardedHeapFile,
    ShardedKVStore,
    ShardLoad,
    shard_load,
    shard_of_doc,
    shard_of_term,
)

__all__ = [
    "PAGE_SIZE",
    "Page",
    "DiskCostModel",
    "DiskStats",
    "SimulatedDisk",
    "BufferPool",
    "BufferPoolStats",
    "BPlusTree",
    "HeapFile",
    "SegmentHandle",
    "KVStore",
    "Cursor",
    "StorageEnvironment",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "FaultStats",
    "merged_fault_stats",
    "run_with_retries",
    "FileBackedDisk",
    "ScrubReport",
    "WriteAheadLog",
    "open_environment",
    "open_sharded_environment",
    "open_any_environment",
    "ShardedEnvironment",
    "ShardedKVStore",
    "ShardedHeapFile",
    "ShardLoad",
    "shard_load",
    "shard_of_term",
    "shard_of_doc",
]
