"""Term-partitioned storage: N independent environments behind one facade.

The paper runs every index method against a single BerkeleyDB-style
environment; a production deployment serving heavy mixed query/update traffic
partitions the term space across several environments, each with its own
buffer pool, so that hot terms do not evict each other's working sets and
per-shard load can be measured (and rebalanced).  This module provides that
layer while keeping the single-environment behaviour bit-for-bit reachable:

* :func:`shard_of_term` / :func:`shard_of_doc` — deterministic routing that
  does **not** depend on ``PYTHONHASHSEED`` (CRC-32 of the term bytes, modulo
  arithmetic on document ids), so a layout built today is the layout built in
  any future process.
* :class:`ShardedEnvironment` — ``shard_count`` private
  :class:`~repro.storage.environment.StorageEnvironment` instances (one
  simulated disk + buffer pool each; the page cache budget is split across
  them) plus a catalogue of *logical* stores.
* :class:`ShardedKVStore` / :class:`ShardedHeapFile` — store facades with the
  ``KVStore``/``HeapFile`` API that route every keyed operation to the shard
  owning the key and merge cross-shard scans in key order.

Accounting policy: routing is computed from the key alone — the facades never
probe shards to locate data, so no hit/miss/eviction/disk counter is ever
charged twice, and aggregate statistics are the **per-category sum** of the
per-shard counters.  Because sums of snapshots are linear,
``delta_since(snapshot)`` on the aggregate equals the per-category sum of the
per-shard deltas.  With ``shard_count == 1`` every facade operation delegates
1:1 to the single underlying store, which is what makes the sharded engine
fingerprint-identical to the classic single-environment layout (pinned by
``tests/core/test_shard_invariance.py``).
"""

from __future__ import annotations

import heapq
import os
import pickle
import threading
import zlib
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.errors import StorageError
from repro.storage.buffer_pool import BufferPoolStats
from repro.storage.disk import DiskStats
from repro.storage.environment import IODelta, IOSnapshot, StorageEnvironment
from repro.storage.heap_file import HeapFile, SegmentHandle
from repro.storage.kvstore import Cursor, KVStore
from repro.storage.pager import PAGE_SIZE


# ---------------------------------------------------------------------------
# Routing
# ---------------------------------------------------------------------------


def shard_of_term(term: str, shard_count: int) -> int:
    """Deterministic term → shard mapping (CRC-32, ``PYTHONHASHSEED``-proof)."""
    if shard_count <= 1:
        return 0
    return zlib.crc32(term.encode("utf-8")) % shard_count


def shard_of_doc(doc_id: int, shard_count: int) -> int:
    """Deterministic document-id → shard mapping."""
    if shard_count <= 1:
        return 0
    return int(doc_id) % shard_count


def _first_component(key: Any) -> Any:
    return key[0] if isinstance(key, tuple) else key


#: Named routing policies for :meth:`ShardedEnvironment.create_kvstore`:
#: ``"term"`` routes on the (first component of the) key as a term string,
#: ``"doc"`` on the key as a document id.
_KEY_SHARD_POLICIES: dict[str, Callable[[Any, int], int]] = {
    "term": lambda key, count: shard_of_term(_first_component(key), count),
    "doc": lambda key, count: shard_of_doc(_first_component(key), count),
}


#: Root-level metadata file of a durable sharded environment.
_REGISTRY_FILE = "sharded.pkl"


def _shard_path(path: "str | None", index: int) -> "str | None":
    """Per-shard directory inside a durable sharded environment's root."""
    if path is None:
        return None
    return os.path.join(path, f"shard-{index:04d}")


def _resolve_policy(key_shard: str) -> Callable[[Any, int], int]:
    policy = _KEY_SHARD_POLICIES.get(key_shard)
    if policy is None:
        raise StorageError(
            f"unknown key_shard policy {key_shard!r}; "
            f"available: {sorted(_KEY_SHARD_POLICIES)}"
        )
    return policy


# ---------------------------------------------------------------------------
# Load / skew reporting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShardLoad:
    """Per-shard load counters plus the skew summary experiments report.

    ``skew`` is ``max / mean`` of per-shard buffer-pool accesses: 1.0 means
    perfectly balanced, ``shard_count`` means one shard absorbed everything.
    """

    accesses: tuple[int, ...]
    page_reads: tuple[int, ...]
    page_writes: tuple[int, ...]

    @property
    def shard_count(self) -> int:
        return len(self.accesses)

    @property
    def total_accesses(self) -> int:
        return sum(self.accesses)

    @property
    def skew(self) -> float:
        total = self.total_accesses
        if total == 0 or not self.accesses:
            return 1.0
        mean = total / len(self.accesses)
        return max(self.accesses) / mean

    def diff(self, earlier: "ShardLoad") -> "ShardLoad":
        """Per-shard counter deltas since ``earlier`` (same shard count)."""
        if earlier.shard_count != self.shard_count:
            raise StorageError(
                f"cannot diff loads over {earlier.shard_count} and "
                f"{self.shard_count} shards"
            )
        return ShardLoad(
            accesses=tuple(now - then for now, then
                           in zip(self.accesses, earlier.accesses)),
            page_reads=tuple(now - then for now, then
                             in zip(self.page_reads, earlier.page_reads)),
            page_writes=tuple(now - then for now, then
                              in zip(self.page_writes, earlier.page_writes)),
        )

    def as_row(self) -> dict[str, float | int]:
        """Flat representation for experiment tables."""
        return {
            "shards": self.shard_count,
            "total_accesses": self.total_accesses,
            "skew": round(self.skew, 4),
        }


def shard_load(env: "StorageEnvironment | ShardedEnvironment") -> ShardLoad:
    """Lifetime per-shard load of any environment (single env = one shard).

    Reads existing counters only (no page access), so measuring never
    perturbs the measured workload.
    """
    if isinstance(env, ShardedEnvironment):
        shards = env.shards
    else:
        shards = [env]
    return ShardLoad(
        accesses=tuple(shard.pool.stats.accesses for shard in shards),
        page_reads=tuple(shard.disk.stats.reads for shard in shards),
        page_writes=tuple(shard.disk.stats.writes for shard in shards),
    )


# ---------------------------------------------------------------------------
# Store facades
# ---------------------------------------------------------------------------


class ShardedKVStore:
    """The ``KVStore`` API routed across one store per shard.

    Point operations go straight to the shard owning the key; bulk operations
    partition the (caller-sorted) batch into per-shard subsequences — which
    stay sorted, so each shard still gets one sorted bulk pass; cross-shard
    scans merge the per-shard streams in key order.  With a single part every
    call delegates 1:1, adding no accounting and no reordering.
    """

    def __init__(self, name: str,
                 parts: Sequence[tuple[StorageEnvironment, KVStore]],
                 route: Callable[[Any], int]) -> None:
        if not parts:
            raise StorageError(f"sharded store {name!r} needs at least one part")
        self.name = name
        self._envs = [env for env, _store in parts]
        self._parts = [store for _env, store in parts]
        self._route = route
        self._single = self._parts[0] if len(self._parts) == 1 else None

    # -- routing ---------------------------------------------------------------

    @property
    def shard_count(self) -> int:
        return len(self._parts)

    def shard_of(self, key: Any) -> int:
        """The shard index that owns ``key``."""
        if self._single is not None:
            return 0
        return self._route(key)

    def shard_store(self, shard: int) -> KVStore:
        """The underlying per-shard store (tests and skew reports)."""
        return self._parts[shard]

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        for part in self._parts:
            part.close()

    @property
    def closed(self) -> bool:
        return all(part.closed for part in self._parts)

    # -- point operations ------------------------------------------------------
    # These are the hottest facade calls (every candidate's score/deleted
    # lookup during a query merge), so each routes inline.

    def put(self, key: Any, value: Any) -> None:
        part = self._single if self._single is not None else self._parts[self._route(key)]
        part.put(key, value)

    def get(self, key: Any, default: Any = ...) -> Any:
        part = self._single if self._single is not None else self._parts[self._route(key)]
        return part.get(key, default=default)

    def get_many(self, keys: "Iterable[Any]") -> dict:
        if self._single is not None:
            return self._single.get_many(keys)
        found: dict = {}
        for shard, bucket in enumerate(self._buckets(keys, self._route)):
            if bucket:
                found.update(self._parts[shard].get_many(bucket))
        return found

    def delete(self, key: Any) -> Any:
        part = self._single if self._single is not None else self._parts[self._route(key)]
        return part.delete(key)

    def delete_if_present(self, key: Any) -> bool:
        part = self._single if self._single is not None else self._parts[self._route(key)]
        return part.delete_if_present(key)

    def contains(self, key: Any) -> bool:
        part = self._single if self._single is not None else self._parts[self._route(key)]
        return part.contains(key)

    def __contains__(self, key: Any) -> bool:
        return self.contains(key)

    def __len__(self) -> int:
        return sum(len(part) for part in self._parts)

    # -- bulk operations -------------------------------------------------------
    # The (caller-sorted) batch is partitioned into per-shard subsequences,
    # which stay sorted, and each shard's bucket is applied inline in shard
    # order: every shard sees exactly the operation sequence a single-shard
    # engine over its keys would, so per-shard accounting is unchanged.

    def _buckets(self, entries: Iterable, route: Callable[[Any], int]) -> list[list]:
        buckets: list[list] = [[] for _ in self._parts]
        for entry in entries:
            buckets[route(entry)].append(entry)
        return buckets

    def put_many(self, items: "Iterable[tuple[Any, Any]]") -> int:
        if self._single is not None:
            return self._single.put_many(items)
        buckets = self._buckets(items, lambda item: self._route(item[0]))
        return sum(self._parts[shard].put_many(bucket)
                   for shard, bucket in enumerate(buckets) if bucket)

    def delete_many(self, keys: "Iterable[Any]", ignore_missing: bool = False) -> int:
        if self._single is not None:
            return self._single.delete_many(keys, ignore_missing=ignore_missing)
        buckets = self._buckets(keys, self._route)
        return sum(self._parts[shard].delete_many(bucket, ignore_missing=ignore_missing)
                   for shard, bucket in enumerate(buckets) if bucket)

    # -- range operations --------------------------------------------------------

    def items(self, low: Any = None, high: Any = None) -> Iterator[tuple[Any, Any]]:
        if self._single is not None:
            return self._single.items(low=low, high=high)
        return heapq.merge(
            *(part.items(low=low, high=high) for part in self._parts),
            key=lambda pair: pair[0],
        )

    def prefix_items(self, prefix: Any) -> Iterator[tuple[Any, Any]]:
        """Prefix scan; the prefix must pin the routing component (it does for
        every per-term short list, whose keys lead with the term)."""
        if self._single is not None:
            return self._single.prefix_items(prefix)
        return self._parts[self._route(tuple(prefix))].prefix_items(prefix)

    def cursor(self, low: Any = None, high: Any = None,
               inclusive: tuple[bool, bool] = (True, True)) -> Cursor:
        if self._single is not None:
            return self._single.cursor(low=low, high=high, inclusive=inclusive)
        return Cursor(
            iterator=heapq.merge(
                *(part.cursor(low=low, high=high, inclusive=inclusive)
                  for part in self._parts),
                key=lambda pair: pair[0],
            )
        )

    # -- statistics ----------------------------------------------------------------

    def size_bytes(self) -> int:
        return sum(part.size_bytes() for part in self._parts)

    def drop_from_cache(self, accounted: bool = False) -> None:
        """Evict this store's pages from every shard's buffer pool.

        ``accounted=True`` charges each shard's page enumeration like a normal
        read sequence (the Score method's cold-cache ritual); the drop itself
        is free, exactly as in the single-pool engine.
        """
        for env, part in zip(self._envs, self._parts):
            env.pool.drop(part.page_ids(accounted=accounted))

    def _replace_part(self, shard: int, env: StorageEnvironment,
                      store: KVStore) -> None:
        """Swap in a recovered shard's environment and store (shard reopen)."""
        self._envs[shard] = env
        self._parts[shard] = store
        if len(self._parts) == 1:
            self._single = store


@dataclass(frozen=True)
class ShardedSegmentHandle:
    """A heap-file segment handle tagged with the shard that stores it."""

    shard: int
    handle: SegmentHandle

    @property
    def length(self) -> int:
        return self.handle.length

    @property
    def page_count(self) -> int:
        return self.handle.page_count


class ShardedHeapFile:
    """The ``HeapFile`` API with per-term segment routing.

    ``write`` takes the routing key (the term whose long list the payload is)
    and returns a :class:`ShardedSegmentHandle`; reads dispatch on the handle's
    shard tag, so early-terminating scans behave exactly as before.
    """

    def __init__(self, name: str,
                 parts: Sequence[tuple[StorageEnvironment, HeapFile]],
                 route: Callable[[Any], int]) -> None:
        if not parts:
            raise StorageError(f"sharded heap file {name!r} needs at least one part")
        self.name = name
        self._envs = [env for env, _heap in parts]
        self._parts = [heap for _env, heap in parts]
        self._route = route

    @property
    def shard_count(self) -> int:
        return len(self._parts)

    def shard_heap(self, shard: int) -> HeapFile:
        """The underlying per-shard heap file (tests and skew reports)."""
        return self._parts[shard]

    def write(self, payload: bytes, key: Any = None) -> ShardedSegmentHandle:
        if len(self._parts) == 1:
            shard = 0
        elif key is None:
            raise StorageError(
                f"sharded heap file {self.name!r} needs a routing key to write"
            )
        else:
            shard = self._route(key)
        return ShardedSegmentHandle(shard=shard, handle=self._parts[shard].write(payload))

    def read(self, handle: ShardedSegmentHandle) -> bytes:
        return self._parts[handle.shard].read(handle.handle)

    def iter_pages(self, handle: ShardedSegmentHandle) -> Iterator[bytes]:
        return self._parts[handle.shard].iter_pages(handle.handle)

    def peek_pages(self, handle: ShardedSegmentHandle) -> Iterator[bytes]:
        return self._parts[handle.shard].peek_pages(handle.handle)

    def delete(self, handle: ShardedSegmentHandle) -> None:
        self._parts[handle.shard].delete(handle.handle)

    def drop_from_cache(self) -> None:
        for part in self._parts:
            part.drop_from_cache()

    def _replace_part(self, shard: int, env: StorageEnvironment,
                      heap: HeapFile) -> None:
        """Swap in a recovered shard's environment and heap (shard reopen)."""
        self._envs[shard] = env
        self._parts[shard] = heap

    @property
    def segment_count(self) -> int:
        return sum(part.segment_count for part in self._parts)

    def total_bytes(self) -> int:
        return sum(part.total_bytes() for part in self._parts)

    def total_pages(self) -> int:
        return sum(part.total_pages() for part in self._parts)


# ---------------------------------------------------------------------------
# The sharded environment
# ---------------------------------------------------------------------------


class ShardedEnvironment:
    """N private storage environments behind the ``StorageEnvironment`` API.

    Parameters
    ----------
    shard_count:
        Number of term-space partitions.  1 is a valid (and fingerprint-
        identical) degenerate case.
    cache_pages:
        **Total** buffer-pool budget; split as evenly as possible across the
        shards (remainder pages go to the lowest-numbered shards, minimum one
        page each) so that changing the shard count never changes the memory
        the engine is allowed to use.
    page_size:
        Page size shared by every shard.
    """

    def __init__(self, shard_count: int = 1, cache_pages: int = 4096,
                 page_size: int = PAGE_SIZE, path: str | None = None) -> None:
        if shard_count < 1:
            raise StorageError(f"shard_count must be at least 1, got {shard_count}")
        self.shard_count = shard_count
        self.cache_pages = cache_pages
        self.page_size = page_size
        self.path = path
        self.recovered = False
        self._closed = False
        self._lifecycle_lock = threading.Lock()
        if path is not None:
            os.makedirs(path, exist_ok=True)
        base, remainder = divmod(cache_pages, shard_count)
        self.shards = [
            StorageEnvironment(
                cache_pages=max(1, base + (1 if index < remainder else 0)),
                page_size=page_size,
                path=_shard_path(path, index),
            )
            for index in range(shard_count)
        ]
        for index, shard in enumerate(self.shards):
            shard.obs_shard = index
        self._kvstores: dict[str, ShardedKVStore] = {}
        self._heapfiles: dict[str, ShardedHeapFile] = {}
        #: Logical store registry: name -> (kind, key_shard, order).  Persisted
        #: so recovery can rebuild the routing facades around the per-shard
        #: stores each shard's own catalog restores.
        self._store_policies: dict[str, tuple[str, str, "int | None"]] = {}
        if path is not None:
            self._write_registry()

    # -- durability ---------------------------------------------------------------

    @property
    def durable(self) -> bool:
        """Whether the shards persist pages to files (one directory each)."""
        return self.path is not None

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def committed_batches(self) -> int:
        """Group commits so far (shard 0 carries the commit point)."""
        return self.shards[0].committed_batches

    @property
    def recovered_app_state(self) -> Any:
        """Application blob recovered with shard 0's last commit."""
        return self.shards[0].recovered_app_state

    def _write_registry(self) -> None:
        registry = {
            "shard_count": self.shard_count,
            "cache_pages": self.cache_pages,
            "page_size": self.page_size,
            "stores": {
                name: {"kind": kind, "key_shard": key_shard, "order": order}
                for name, (kind, key_shard, order) in self._store_policies.items()
            },
        }
        tmp = os.path.join(self.path, _REGISTRY_FILE + ".tmp")
        with open(tmp, "wb") as handle:
            pickle.dump(registry, handle, protocol=pickle.HIGHEST_PROTOCOL)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, os.path.join(self.path, _REGISTRY_FILE))
        from repro.storage.persistence.file_disk import fsync_directory

        fsync_directory(self.path)

    def commit(self, app_state: Any = None,
               skip: "Iterable[int]" = ()) -> int:
        """Group-commit every shard; shard 0 (committed last) carries the blob.

        Shard 0's ``COMMIT`` record is the batch's commit point: it is written
        only after every other shard has durably committed, so recovering all
        shards to their own last commit yields a consistent batch boundary
        whenever the crash fell outside this fan-out window.  (A crash *inside*
        the window can leave shards one batch apart — the restart workload
        injects crashes between batches, where the boundary is exact.)

        ``skip`` names quarantined shard indices excluded from the fan-out
        (degraded commit): a skipped shard simply falls behind shard 0's batch
        counter, which recovery accepts (only a shard *ahead* of shard 0
        indicates a torn fan-out).  Shard 0 is the commit point and can never
        be skipped.
        """
        skipped = set(skip)
        if 0 in skipped:
            raise StorageError(
                "shard 0 carries the commit point and cannot be skipped; "
                "reopen it before committing"
            )
        for index, shard in enumerate(self.shards[1:], start=1):
            if index not in skipped:
                shard.commit()
        return self.shards[0].commit(app_state=app_state)

    def checkpoint(self, app_state: Any = None,
                   skip: "Iterable[int]" = ()) -> int:
        """Checkpoint every shard (commit, fold WAL into the paged file).

        Two-phase: first the normal commit fan-out reaches the batch boundary
        on every shard (shard 0's record last, as the commit point), and only
        then does each shard fold its log into its paged file.  A crash or an
        injected storage fault during a fold therefore finds every shard at
        the *same* committed batch with its log intact — recoverable — rather
        than one shard compacted ahead of a commit point that never got
        written, which no replay could roll back.

        ``skip`` excludes quarantined shards, as in :meth:`commit`.
        """
        batch = self.commit(app_state=app_state, skip=skip)
        skipped = set(skip)
        for index, shard in enumerate(self.shards):
            if index not in skipped:
                shard.fold()
        return batch

    def close(self, app_state: Any = None) -> None:
        """Checkpoint (when durable) and close every shard.

        Idempotent and safe under concurrent teardown: the lifecycle lock
        makes exactly one caller perform the shard close fan-out, so two
        client threads closing at once (or a ``close`` racing a ``crash``)
        can never double-close a shard's WAL handle.
        Closing after :meth:`crash` is a no-op.
        """
        with self._lifecycle_lock:
            if self._closed:
                return
            for shard in self.shards[1:]:
                shard.close()
            self.shards[0].close(app_state=app_state)
            self._closed = True

    def crash(self) -> None:
        """Simulate a crash on every shard (nothing committed, handles dropped).

        Idempotent and thread-safe like :meth:`close`; crashing after a close
        (or a second crash) is a no-op.
        """
        with self._lifecycle_lock:
            if self._closed:
                return
            for shard in self.shards:
                shard.crash()
            self._closed = True

    def __enter__(self) -> "ShardedEnvironment":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None and self.durable:
            self.crash()
        else:
            self.close()

    @classmethod
    def from_recovery(cls, path: str, shards: "list[StorageEnvironment]",
                      registry: dict) -> "ShardedEnvironment":
        """Rebuild a sharded environment around recovered per-shard environments."""
        env = cls.__new__(cls)
        env.shard_count = registry["shard_count"]
        env.cache_pages = registry["cache_pages"]
        env.page_size = registry["page_size"]
        env.path = path
        env.recovered = True
        env._closed = False
        env._lifecycle_lock = threading.Lock()
        env.shards = shards
        for index, shard in enumerate(shards):
            shard.obs_shard = index
        env._kvstores = {}
        env._heapfiles = {}
        env._store_policies = {}
        for name, spec in registry["stores"].items():
            policy = _resolve_policy(spec["key_shard"])
            count = env.shard_count
            route = (lambda p: lambda key: p(key, count))(policy)
            if spec["kind"] == "kv":
                parts = [(shard, shard.kvstore(name)) for shard in shards]
                env._kvstores[name] = ShardedKVStore(name, parts, route=route)
            else:
                parts = [(shard, shard.heapfile(name)) for shard in shards]
                env._heapfiles[name] = ShardedHeapFile(name, parts, route=route)
            env._store_policies[name] = (spec["kind"], spec["key_shard"], spec["order"])
        return env

    # -- routing ---------------------------------------------------------------

    def shard_of_term(self, term: str) -> int:
        """The shard owning a term's lists (the resolver queries route through)."""
        return shard_of_term(term, self.shard_count)

    # -- fault injection ---------------------------------------------------------

    def inject_faults(self, plan: Any) -> None:
        """Attach a fault plan to every shard, each with its own derived seed.

        Per-shard seeds (see :meth:`repro.storage.faults.FaultPlan.for_shard`)
        keep shard schedules independent, and escalated hard errors carry the
        shard index as their failure-domain tag — the router's quarantine
        attribution.
        """
        for index, shard in enumerate(self.shards):
            shard.inject_faults(plan.for_shard(index), shard=index)

    def clear_faults(self) -> None:
        """Detach every shard's injector."""
        for shard in self.shards:
            shard.clear_faults()

    def fault_stats(self) -> Any:
        """Aggregated :class:`~repro.storage.faults.FaultStats` across shards
        (``None`` when no shard has an injector attached)."""
        from repro.storage.faults import merged_fault_stats

        stats = [s for s in (shard.fault_stats() for shard in self.shards)
                 if s is not None]
        return merged_fault_stats(stats) if stats else None

    def scrub(self) -> list:
        """Per-shard checksum scrub reports, in shard order (durable only)."""
        return [shard.scrub() for shard in self.shards]

    def reopen_shard(self, index: int) -> StorageEnvironment:
        """Crash one shard and recover it from its own checkpoint + WAL.

        The quarantine re-admission path: the shard's environment is replaced
        by a fresh recovery to its last committed batch, and every store
        facade is re-pointed at the recovered per-shard stores — facade
        objects (and therefore the index methods holding them) stay stable.
        Durable environments only; a memory shard has no durable state to
        recover from.
        """
        if not self.durable:
            raise StorageError(
                "reopen_shard requires a durable environment; a memory shard "
                "has no checkpoint to recover from"
            )
        if not 0 <= index < self.shard_count:
            raise StorageError(
                f"shard index {index} out of range for {self.shard_count} shards"
            )
        from repro.storage.persistence import open_environment

        old = self.shards[index]
        cache_pages = old.cache_pages
        old.crash()
        env = open_environment(_shard_path(self.path, index),
                               cache_pages=cache_pages)
        env.obs_shard = index
        self.shards[index] = env
        for name, (kind, _key_shard, _order) in self._store_policies.items():
            if kind == "kv":
                self._kvstores[name]._replace_part(index, env, env.kvstore(name))
            else:
                self._heapfiles[name]._replace_part(index, env, env.heapfile(name))
        return env

    # -- store management -------------------------------------------------------

    def create_kvstore(self, name: str, order: int | None = None,
                       key_shard: str = "term") -> ShardedKVStore:
        """Create a logical key-value store partitioned by ``key_shard``.

        ``key_shard`` names the routing policy: ``"term"`` for stores keyed by
        ``(term, ...)`` tuples, ``"doc"`` for stores keyed by document id.
        """
        if name in self._kvstores or name in self._heapfiles:
            raise StorageError(f"store {name!r} already exists")
        policy = _resolve_policy(key_shard)
        parts = [(shard, shard.create_kvstore(name, order=order)) for shard in self.shards]
        count = self.shard_count
        store = ShardedKVStore(name, parts, route=lambda key: policy(key, count))
        self._kvstores[name] = store
        self._store_policies[name] = ("kv", key_shard, order)
        if self.durable:
            self._write_registry()
        return store

    def create_heapfile(self, name: str, key_shard: str = "term") -> ShardedHeapFile:
        """Create a logical heap file whose segments are routed by ``key_shard``."""
        if name in self._kvstores or name in self._heapfiles:
            raise StorageError(f"store {name!r} already exists")
        policy = _resolve_policy(key_shard)
        parts = [(shard, shard.create_heapfile(name)) for shard in self.shards]
        count = self.shard_count
        heap = ShardedHeapFile(name, parts, route=lambda key: policy(key, count))
        self._heapfiles[name] = heap
        self._store_policies[name] = ("heap", key_shard, None)
        if self.durable:
            self._write_registry()
        return heap

    def kvstore(self, name: str) -> ShardedKVStore:
        store = self._kvstores.get(name)
        if store is None:
            raise StorageError(f"unknown kv store {name!r}")
        return store

    def heapfile(self, name: str) -> ShardedHeapFile:
        heap = self._heapfiles.get(name)
        if heap is None:
            raise StorageError(f"unknown heap file {name!r}")
        return heap

    def store_names(self) -> list[str]:
        """Names of all logical stores (each once, however many shards back it)."""
        return sorted([*self._kvstores, *self._heapfiles])

    def kvstore_names(self) -> list[str]:
        """Names of the logical ordered key-value stores only."""
        return sorted(self._kvstores)

    # -- statistics --------------------------------------------------------------

    def snapshot(self) -> IOSnapshot:
        """Aggregate snapshot: per-category sums of the per-shard counters."""
        return IOSnapshot(
            disk=DiskStats.sum_of(shard.disk.stats for shard in self.shards),
            pool=BufferPoolStats.sum_of(shard.pool.stats for shard in self.shards),
        )

    def delta_since(self, earlier: IOSnapshot) -> IODelta:
        """Aggregate deltas; equals the per-category sum of per-shard deltas."""
        current = self.snapshot()
        return IODelta(
            disk=current.disk.diff(earlier.disk),
            pool=current.pool.diff(earlier.pool),
        )

    def shard_snapshots(self) -> list[IOSnapshot]:
        """One :class:`IOSnapshot` per shard, in shard order."""
        return [shard.snapshot() for shard in self.shards]

    def shard_deltas(self, earlier: Sequence[IOSnapshot]) -> list[IODelta]:
        """Per-shard deltas since :meth:`shard_snapshots`."""
        if len(earlier) != self.shard_count:
            raise StorageError(
                f"expected {self.shard_count} shard snapshots, got {len(earlier)}"
            )
        return [
            shard.delta_since(snapshot)
            for shard, snapshot in zip(self.shards, earlier)
        ]

    def shard_load(self) -> ShardLoad:
        """Lifetime per-shard load and skew (see :func:`shard_load`)."""
        return shard_load(self)

    def reset_stats(self) -> None:
        for shard in self.shards:
            shard.reset_stats()

    def drop_cache(self) -> None:
        for shard in self.shards:
            shard.drop_cache()

    def total_size_bytes(self) -> int:
        return sum(shard.total_size_bytes() for shard in self.shards)
