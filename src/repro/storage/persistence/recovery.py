"""Crash recovery: reopen durable environments from their directories.

Recovery is the read side of the redo protocol: load the checkpoint catalog
(``meta.pkl``), replay the write-ahead log's longest valid committed prefix on
top of the paged file, truncate the torn/uncommitted tail, and rebuild the
environment's stores from the catalog of the last commit.  The recovered
state is exactly the state at the last committed batch boundary — work since
then is gone, work before then is intact, and there is no third possibility.

A sharded environment recovers shard by shard (each shard directory is a
complete plain environment); the routing facades are rebuilt from the root
registry (``sharded.pkl``), and shard 0 — always committed last — carries the
application blob and the batch id of the commit point.
"""

from __future__ import annotations

import os

from repro.errors import StorageError
from repro.obs.events import emit
from repro.storage.environment import StorageEnvironment
from repro.storage.persistence.file_disk import (
    DEFAULT_WAL_BUFFER_BYTES,
    FileBackedDisk,
    _META_FILE,
    check_format_version,
)
from repro.storage.sharding import (
    ShardedEnvironment,
    _REGISTRY_FILE,
    _shard_path,
)


def is_environment_dir(path: str) -> bool:
    """Whether ``path`` holds a recoverable (plain or sharded) environment."""
    return (os.path.exists(os.path.join(path, _META_FILE))
            or os.path.exists(os.path.join(path, _REGISTRY_FILE)))


def open_environment(path: str, cache_pages: int | None = None,
                     wal_buffer_bytes: int = DEFAULT_WAL_BUFFER_BYTES,
                     max_batch: int | None = None) -> StorageEnvironment:
    """Recover a plain durable environment to its last committed batch.

    ``cache_pages`` overrides the persisted buffer-pool capacity (the cache
    starts cold either way).  The recovered environment's ``recovered_app_state``
    holds the application blob of the commit it landed on.  ``max_batch`` caps
    the WAL replay at a batch id (see :meth:`FileBackedDisk.open`).
    """
    disk, catalog = FileBackedDisk.open(path, wal_buffer_bytes=wal_buffer_bytes,
                                        max_batch=max_batch)
    env = StorageEnvironment.from_recovery(
        disk, catalog, path=path, cache_pages=cache_pages
    )
    emit("recovery", path=path, batch=env.committed_batches)
    return env


def open_sharded_environment(path: str, cache_pages: int | None = None,
                             allow_inconsistent: bool = False
                             ) -> ShardedEnvironment:
    """Recover a sharded durable environment, shard by shard.

    Each shard replays its own WAL; the logical store facades are rebuilt
    from the root registry.  Commits fan out with shard 0 last, so in normal
    operation every shard recovers to the same batch id.  A crash (or an
    injected commit fault) *inside* the fan-out window leaves some shard
    *ahead* of shard 0 (the commit point); such a shard is rolled back to the
    commit point by replaying its WAL only up to shard 0's batch id — the
    overshooting commits are still in its log (fold happens at checkpoint,
    and checkpoints also fan out with shard 0 last), so the rollback is a
    prefix cut.  Only when the overshoot is *not* in the log any more (it
    predates the shard's last checkpoint — a state no crash inside one
    fan-out window can produce) does recovery refuse with a
    :class:`StorageError` naming the per-shard batch ids; pass
    ``allow_inconsistent=True`` to get the environment anyway (for salvage
    tooling that understands the skew).

    A shard *behind* shard 0 is accepted: degraded commits legitimately skip
    quarantined shards (see ``ShardedEnvironment.commit(skip=...)``), so a
    lower batch id only means the shard missed batches while quarantined —
    its own state is still a consistent commit boundary.
    """
    registry_path = os.path.join(path, _REGISTRY_FILE)
    if not os.path.exists(registry_path):
        raise StorageError(f"{path!r} does not hold a sharded environment")
    import pickle

    with open(registry_path, "rb") as handle:
        registry = pickle.load(handle)
    check_format_version(path, registry.get("format", 1))
    shard_count = registry["shard_count"]
    per_shard = None
    if cache_pages is not None:
        base, remainder = divmod(cache_pages, shard_count)
        per_shard = [max(1, base + (1 if i < remainder else 0))
                     for i in range(shard_count)]
        registry = dict(registry, cache_pages=cache_pages)
    shards = [
        open_environment(
            _shard_path(path, index),
            cache_pages=per_shard[index] if per_shard is not None else None,
        )
        for index in range(shard_count)
    ]
    batches = [shard.committed_batches for shard in shards]
    if any(b > batches[0] for b in batches):
        # Torn group-commit fan-out: some shard committed a batch whose
        # commit point (shard 0's record) never landed.  Its overshooting
        # commits are still in its WAL — folds happen strictly after the
        # whole fan-out — so roll it back by replaying only up to shard 0.
        for index, batch in enumerate(batches):
            if batch <= batches[0]:
                continue
            emit("shard_rollback", shard=index, from_batch=batch,
                 to_batch=batches[0])
            shards[index].crash()
            shards[index] = open_environment(
                _shard_path(path, index),
                cache_pages=per_shard[index] if per_shard is not None else None,
                max_batch=batches[0],
            )
        batches = [shard.committed_batches for shard in shards]
    if not allow_inconsistent and any(b > batches[0] for b in batches):
        for shard in shards:
            shard.crash()
        raise StorageError(
            f"{path!r}: torn commit fan-out — per-shard committed batch ids "
            f"{batches} run ahead of the commit point (shard 0), and the "
            "overshoot predates those shards' last checkpoint (not in their "
            "logs any more), so they cannot be rolled back to the common "
            "boundary"
        )
    return ShardedEnvironment.from_recovery(path, shards, registry)


def open_any_environment(path: str, cache_pages: int | None = None
                         ) -> "StorageEnvironment | ShardedEnvironment":
    """Recover whatever kind of environment lives at ``path``."""
    if os.path.exists(os.path.join(path, _REGISTRY_FILE)):
        return open_sharded_environment(path, cache_pages=cache_pages)
    if os.path.exists(os.path.join(path, _META_FILE)):
        return open_environment(path, cache_pages=cache_pages)
    raise StorageError(f"{path!r} does not hold a persistent environment")
