"""Storage environment: the shared disk, buffer pool and named stores.

A :class:`StorageEnvironment` plays the role of a BerkeleyDB environment in
the paper's implementation: one page cache shared by every table and index,
plus a catalogue of named stores.  Experiments grab I/O snapshots from here to
attribute page reads/writes to individual operations.

With ``path=`` the environment becomes durable: pages live in a
:class:`~repro.storage.persistence.file_disk.FileBackedDisk` (one paged file
plus a write-ahead log) with **identical accounting**, :meth:`commit` group-
commits a batch of work, :meth:`checkpoint` folds the log into the paged file,
and :func:`repro.storage.persistence.open_environment` recovers the
environment — stores included — to the last committed batch boundary after a
crash.  Setting ``REPRO_BACKEND=file`` in the process environment routes
every ``path``-less environment onto a fresh file-backed directory (under
``REPRO_BACKEND_DIR`` when set), which is how CI runs the whole test suite
against the durable engine.
"""

from __future__ import annotations

import os
import tempfile
import threading
from dataclasses import dataclass
from typing import Any

from repro.errors import StorageError, StoreClosedError
from repro.obs.events import EVENTS
from repro.obs.trace import span
from repro.storage.buffer_pool import BufferPool, BufferPoolStats
from repro.storage.disk import DiskCostModel, DiskStats, SimulatedDisk
from repro.storage.heap_file import HeapFile
from repro.storage.kvstore import KVStore
from repro.storage.pager import PAGE_SIZE


@dataclass(frozen=True)
class IOSnapshot:
    """Immutable snapshot of disk and buffer-pool counters."""

    disk: DiskStats
    pool: BufferPoolStats

    def cost_ms(self, model: DiskCostModel | None = None) -> float:
        """Estimated elapsed milliseconds implied by the disk counters."""
        return (model or DiskCostModel()).cost_ms(self.disk)


@dataclass(frozen=True)
class IODelta:
    """Difference between two :class:`IOSnapshot` instances."""

    disk: DiskStats
    pool: BufferPoolStats

    @property
    def page_reads(self) -> int:
        """Pages read from the simulated disk (buffer-pool misses)."""
        return self.disk.reads

    @property
    def page_writes(self) -> int:
        """Pages written to the simulated disk."""
        return self.disk.writes

    @property
    def pool_hits(self) -> int:
        """Buffer-pool hits (pages served without disk I/O)."""
        return self.pool.hits

    def cost_ms(self, model: DiskCostModel | None = None) -> float:
        """Estimated elapsed milliseconds implied by the disk counter deltas."""
        return (model or DiskCostModel()).cost_ms(self.disk)


def _backend_path_from_environ() -> str | None:
    """A fresh file-backend directory when ``REPRO_BACKEND=file`` is set."""
    if os.environ.get("REPRO_BACKEND", "").lower() != "file":
        return None
    root = os.environ.get("REPRO_BACKEND_DIR") or None
    if root is not None:
        os.makedirs(root, exist_ok=True)
    return tempfile.mkdtemp(prefix="repro-env-", dir=root)


class StorageEnvironment:
    """One simulated disk + buffer pool and a catalogue of named stores.

    Parameters
    ----------
    cache_pages:
        Buffer-pool capacity in pages.  The paper used a 100 MB cache over an
        805 MB data set (~12%); experiments typically scale this down with the
        corpus.
    page_size:
        Page size in bytes.
    path:
        Optional directory for a durable, file-backed environment.  ``None``
        keeps the memory-backed engine (unless ``REPRO_BACKEND=file`` routes
        it onto a temporary file-backed directory).  Accounting is identical
        either way.
    """

    def __init__(self, cache_pages: int = 4096, page_size: int = PAGE_SIZE,
                 path: str | None = None) -> None:
        if path is None:
            path = _backend_path_from_environ()
        if path is None:
            self.disk: SimulatedDisk = SimulatedDisk(page_size=page_size)
        else:
            from repro.storage.persistence.file_disk import FileBackedDisk

            self.disk = FileBackedDisk(path, page_size=page_size)
        self.path = path
        self.cache_pages = cache_pages
        self.pool = BufferPool(self.disk, capacity_pages=cache_pages)
        self._kvstores: dict[str, KVStore] = {}
        self._heapfiles: dict[str, HeapFile] = {}
        self._closed = False
        self._lifecycle_lock = threading.Lock()
        self._app_state: Any = None
        #: Shard index for observability tags (set by ``ShardedEnvironment``;
        #: ``None`` for unsharded environments and during bootstrap).
        self.obs_shard: "int | None" = None
        #: Engine-owned event log this environment emits into (attached by
        #: the router); ``None`` falls back to the process-wide stream.
        self.event_sink = None
        #: True when this environment was rebuilt by ``open_environment``;
        #: index constructors attach to the restored stores instead of
        #: creating fresh ones.
        self.recovered = False
        if self.durable:
            # An initial checkpoint makes the directory recoverable from the
            # very first group commit (meta.pkl anchors the WAL replay).
            self.checkpoint()

    @classmethod
    def from_recovery(cls, disk: Any, catalog: dict, path: str,
                      cache_pages: int | None = None) -> "StorageEnvironment":
        """Rebuild an environment around a recovered disk and its catalog.

        Used by :func:`repro.storage.persistence.open_environment`; the page
        cache starts cold and all statistics start at zero — counters describe
        a process lifetime, not the lifetime of the data.
        """
        env = cls.__new__(cls)
        env.disk = disk
        env.path = path
        env.cache_pages = cache_pages if cache_pages is not None else catalog["cache_pages"]
        env.pool = BufferPool(disk, capacity_pages=env.cache_pages)
        env._kvstores = {}
        env._heapfiles = {}
        env._closed = False
        env._lifecycle_lock = threading.Lock()
        env._app_state = catalog.get("app")
        env.obs_shard = None
        env.event_sink = None
        env.recovered = True
        env._restore_stores(catalog.get("stores", {}))
        return env

    # -- durability ---------------------------------------------------------------

    @property
    def durable(self) -> bool:
        """Whether this environment persists pages to files."""
        return self.path is not None

    @property
    def recovered_app_state(self) -> Any:
        """Application blob of the commit this environment was recovered to."""
        return self._app_state

    @property
    def committed_batches(self) -> int:
        """Number of group commits so far (0 for a memory environment)."""
        return getattr(self.disk, "committed_batches", 0)

    def _store_catalog(self) -> dict:
        return {
            "kv": {name: store.state() for name, store in self._kvstores.items()},
            "heap": {name: heap.state() for name, heap in self._heapfiles.items()},
        }

    def _restore_stores(self, catalog: dict) -> None:
        for name, state in catalog.get("kv", {}).items():
            self._kvstores[name] = KVStore.attach(self.pool, name, state)
        for name, state in catalog.get("heap", {}).items():
            self._heapfiles[name] = HeapFile.attach(self.pool, name, state)

    def _commit_payload(self, app_state: Any) -> dict:
        return {
            "stores": self._store_catalog(),
            "app": app_state,
            "cache_pages": self.cache_pages,
            "page_size": self.disk.page_size,
        }

    def commit(self, app_state: Any = None) -> int:
        """Group-commit the current batch of work (a durability boundary).

        Flushes the buffer pool — which is charged identically on every
        backend — and, on a durable environment, appends the batch's page
        images plus a ``COMMIT`` record (carrying the store catalog and the
        optional ``app_state`` blob) to the write-ahead log in one fsync.
        After a crash, recovery lands exactly on the last committed boundary.

        Returns the committed batch id (0 on a memory environment).
        """
        self._check_open()
        if app_state is not None:
            self._app_state = app_state
        with span("storage.commit", shard=self.obs_shard):
            self.pool.flush()
            if not self.durable:
                return 0
            return self.disk.commit_batch(self._commit_payload(self._app_state))

    def checkpoint(self, app_state: Any = None) -> int:
        """Commit, then fold the WAL into the paged file and truncate it.

        A checkpoint bounds recovery time and the WAL's disk footprint; the
        store catalog and application blob are rewritten atomically alongside.
        No-op beyond the flush on a memory environment.
        """
        batch = self.commit(app_state=app_state)
        self.fold()
        return batch

    def fold(self) -> None:
        """Fold the committed WAL into the paged file (checkpoint's second half).

        Separated from :meth:`commit` so a sharded checkpoint can reach the
        commit point on *every* shard before any shard compacts: a crash or
        injected fault during a fold then leaves all shards at the same batch
        id with their logs intact, instead of one shard folded ahead of the
        commit point (which nothing can roll back).  No-op on a memory
        environment.
        """
        if self.durable:
            with span("storage.fold", shard=self.obs_shard):
                self.disk.checkpoint(self._commit_payload(self._app_state))
            sink = self.event_sink if self.event_sink is not None else EVENTS
            sink.emit("checkpoint", shard=self.obs_shard,
                      batch=self.committed_batches)

    def close(self, app_state: Any = None) -> None:
        """Checkpoint (when durable) and release every handle, idempotently.

        Closing twice is fine, as is closing after :meth:`crash` (the crash
        already dropped the file handles; nothing is re-opened or re-closed).
        The lifecycle lock makes concurrent teardown safe: exactly one caller
        performs the checkpoint-and-close, so a client thread closing while
        a context manager exits can never double-close the WAL file handle.  Operations on a closed environment raise
        :class:`~repro.errors.StoreClosedError`.
        """
        with self._lifecycle_lock:
            if self._closed:
                return
            if self.durable and not self.disk.closed:
                self.checkpoint(app_state=app_state)
                self.disk.close()
            for store in self._kvstores.values():
                store.close()
            self._closed = True

    def __enter__(self) -> "StorageEnvironment":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # After an exception the in-memory state may be mid-operation; a
        # checkpoint would persist it as if committed.  Crash-close instead:
        # the WAL guarantees recovery to the last commit.
        if exc_type is not None and self.durable:
            self.crash()
        else:
            self.close()

    def crash(self) -> None:
        """Simulate a crash: drop file handles without committing anything.

        Work since the last :meth:`commit` is lost; recovery through
        :func:`repro.storage.persistence.open_environment` replays the WAL to
        the last committed batch boundary.  On a memory environment this just
        marks the environment closed.
        """
        with self._lifecycle_lock:
            if self._closed:
                return
            if self.durable and not self.disk.closed:
                self.disk.close()
            for store in self._kvstores.values():
                store.close()
            self._closed = True

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` (or :meth:`crash`) has been called."""
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise StoreClosedError("the storage environment is closed")

    # -- fault injection ---------------------------------------------------------

    def inject_faults(self, plan: Any, shard: "int | None" = None) -> None:
        """Attach a :class:`~repro.storage.faults.FaultPlan` to this environment.

        One injector instance is shared by the disk and (when durable) the
        write-ahead log, so every injection site draws from the same
        deterministic per-op occurrence counters.  ``shard`` names the failure
        domain tagged onto escalated hard errors.
        """
        from repro.storage.faults import FaultInjector

        self._check_open()
        injector = FaultInjector(plan, shard=shard) if plan.enabled else None
        self.disk.fault_injector = injector
        wal = getattr(self.disk, "wal", None)
        if wal is not None:
            wal.fault_injector = injector

    def clear_faults(self) -> None:
        """Detach any fault injector (every site back on the fast path)."""
        self.disk.fault_injector = None
        wal = getattr(self.disk, "wal", None)
        if wal is not None:
            wal.fault_injector = None

    def fault_stats(self) -> Any:
        """The attached injector's :class:`~repro.storage.faults.FaultStats`
        (``None`` when no injector is attached)."""
        injector = self.disk.fault_injector
        return injector.stats if injector is not None else None

    def scrub(self) -> Any:
        """Verify per-page checksums of data at rest (durable backend only).

        Returns a :class:`~repro.storage.persistence.file_disk.ScrubReport`;
        ``None`` on a memory environment, which has no data at rest to rot.
        """
        self._check_open()
        scrub = getattr(self.disk, "scrub", None)
        return scrub() if scrub is not None else None

    # -- store management -------------------------------------------------------

    def create_kvstore(self, name: str, order: int | None = None) -> KVStore:
        """Create (or raise if it exists) a named ordered key-value store."""
        self._check_open()
        if name in self._kvstores or name in self._heapfiles:
            raise StorageError(f"store {name!r} already exists")
        store = KVStore(self.pool, name=name, order=order)
        self._kvstores[name] = store
        return store

    def create_heapfile(self, name: str) -> HeapFile:
        """Create (or raise if it exists) a named heap file."""
        self._check_open()
        if name in self._kvstores or name in self._heapfiles:
            raise StorageError(f"store {name!r} already exists")
        heap = HeapFile(self.pool, name=name)
        self._heapfiles[name] = heap
        return heap

    def kvstore(self, name: str) -> KVStore:
        """Look up an existing key-value store by name."""
        store = self._kvstores.get(name)
        if store is None:
            raise StorageError(f"unknown kv store {name!r}")
        return store

    def heapfile(self, name: str) -> HeapFile:
        """Look up an existing heap file by name."""
        heap = self._heapfiles.get(name)
        if heap is None:
            raise StorageError(f"unknown heap file {name!r}")
        return heap

    def store_names(self) -> list[str]:
        """Names of all stores (key-value stores and heap files)."""
        return sorted([*self._kvstores, *self._heapfiles])

    def kvstore_names(self) -> list[str]:
        """Names of the ordered key-value stores only.

        The batch-equivalence harness snapshots every key-value store to
        compare batched against sequential application; heap files (immutable
        long lists) are excluded because score updates never rewrite them.
        """
        return sorted(self._kvstores)

    # -- statistics --------------------------------------------------------------

    def snapshot(self) -> IOSnapshot:
        """Capture the current disk and buffer-pool counters."""
        return IOSnapshot(disk=self.disk.stats.snapshot(), pool=self.pool.stats.snapshot())

    def delta_since(self, earlier: IOSnapshot) -> IODelta:
        """Counter deltas since ``earlier``."""
        return IODelta(
            disk=self.disk.stats.diff(earlier.disk),
            pool=self.pool.stats.diff(earlier.pool),
        )

    def reset_stats(self) -> None:
        """Zero all disk and buffer-pool counters."""
        self.disk.stats.reset()
        self.pool.stats.reset()

    def drop_cache(self) -> None:
        """Evict every cached page (flushing dirty pages first)."""
        self.pool.drop()

    def total_size_bytes(self) -> int:
        """Serialized size of all stores, in bytes."""
        total = sum(store.size_bytes() for store in self._kvstores.values())
        total += sum(heap.total_bytes() for heap in self._heapfiles.values())
        return total
