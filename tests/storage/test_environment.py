"""Tests for the storage environment (named stores + global I/O accounting)."""

import pytest

from repro.errors import StorageError
from repro.storage.environment import StorageEnvironment


class TestStoreManagement:
    def test_create_and_lookup_stores(self):
        env = StorageEnvironment(cache_pages=32)
        kv = env.create_kvstore("scores")
        heap = env.create_heapfile("long_lists")
        assert env.kvstore("scores") is kv
        assert env.heapfile("long_lists") is heap
        assert env.store_names() == ["long_lists", "scores"]

    def test_duplicate_names_rejected_across_store_kinds(self):
        env = StorageEnvironment(cache_pages=32)
        env.create_kvstore("x")
        with pytest.raises(StorageError):
            env.create_kvstore("x")
        with pytest.raises(StorageError):
            env.create_heapfile("x")

    def test_unknown_store_lookup_raises(self):
        env = StorageEnvironment(cache_pages=32)
        with pytest.raises(StorageError):
            env.kvstore("nope")
        with pytest.raises(StorageError):
            env.heapfile("nope")

    def test_total_size_accounts_all_stores(self):
        env = StorageEnvironment(cache_pages=32)
        kv = env.create_kvstore("kv")
        heap = env.create_heapfile("heap")
        kv.put(1, "value")
        heap.write(b"x" * 100)
        assert env.total_size_bytes() >= 100


class TestIOAccounting:
    def test_snapshot_delta_captures_activity(self):
        env = StorageEnvironment(cache_pages=4)
        heap = env.create_heapfile("heap")
        handle = heap.write(b"a" * 4096 * 3)
        env.drop_cache()
        before = env.snapshot()
        heap.read(handle)
        delta = env.delta_since(before)
        assert delta.page_reads >= 3
        assert delta.cost_ms() > 0.0

    def test_delta_is_zero_without_activity(self):
        env = StorageEnvironment(cache_pages=8)
        before = env.snapshot()
        delta = env.delta_since(before)
        assert delta.page_reads == 0
        assert delta.page_writes == 0
        assert delta.pool_hits == 0

    def test_reset_stats(self):
        env = StorageEnvironment(cache_pages=8)
        kv = env.create_kvstore("kv")
        kv.put(1, 1)
        env.reset_stats()
        assert env.disk.stats.reads == 0
        assert env.pool.stats.accesses == 0

    def test_drop_cache_then_read_counts_misses(self):
        env = StorageEnvironment(cache_pages=16)
        kv = env.create_kvstore("kv")
        for i in range(50):
            kv.put(i, i)
        env.drop_cache()
        before = env.snapshot()
        kv.get(25)
        delta = env.delta_since(before)
        assert delta.page_reads >= 1


class TestLifecycleIdempotence:
    """close()/crash() are idempotent and safe under concurrent teardown.

    The executor pool's shutdown path and a context manager's __exit__ can
    both reach close() — a WAL file handle must never be double-closed
    (satellite of the concurrent-execution PR).
    """

    def test_close_twice_is_noop(self):
        env = StorageEnvironment(cache_pages=8)
        env.create_kvstore("kv").put(1, 1)
        env.close()
        env.close()
        assert env.closed

    def test_close_after_crash_is_noop(self, tmp_path):
        env = StorageEnvironment(cache_pages=8, path=str(tmp_path / "env"))
        env.create_kvstore("kv").put(1, 1)
        env.crash()
        env.close()   # must not reopen or re-close the WAL handle
        env.crash()   # and crashing again is equally safe
        assert env.closed

    def test_exit_after_crash_does_not_raise(self, tmp_path):
        with StorageEnvironment(cache_pages=8, path=str(tmp_path / "env")) as env:
            env.create_kvstore("kv").put(1, 1)
            env.crash()
        assert env.closed

    def test_concurrent_close_single_winner(self, tmp_path):
        import threading

        env = StorageEnvironment(cache_pages=8, path=str(tmp_path / "env"))
        env.create_kvstore("kv").put(1, 1)
        errors = []

        def teardown():
            try:
                env.close()
            except BaseException as exc:  # pragma: no cover - the regression
                errors.append(exc)

        threads = [threading.Thread(target=teardown) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert env.closed

    def test_sharded_lifecycle_idempotent(self, tmp_path):
        import threading

        from repro.storage.sharding import ShardedEnvironment

        env = ShardedEnvironment(shard_count=3, cache_pages=24,
                                 path=str(tmp_path / "sharded"))
        env.create_kvstore("kv", key_shard="doc").put(1, 1)
        errors = []

        def teardown(action):
            try:
                action()
            except BaseException as exc:  # pragma: no cover - the regression
                errors.append(exc)

        threads = [threading.Thread(target=teardown, args=(env.close,))
                   for _ in range(4)]
        threads += [threading.Thread(target=teardown, args=(env.crash,))
                    for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert env.closed
        env.close()
        env.crash()
