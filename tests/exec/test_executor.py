"""Unit tests for the concurrent execution subsystem (repro.exec)."""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import (
    ExecutorClosedError,
    ExecutorError,
    ShardTimeoutError,
)
from repro.exec.executor import ExecutorPool, ShardExecutor, ShardFuture
from repro.exec.fanout import StreamPump
from repro.exec.locks import ReadWriteLock


class TestShardFuture:
    def test_completed(self):
        future = ShardFuture.completed(42)
        assert future.done
        assert future.result() == 42

    def test_failed(self):
        future = ShardFuture.failed(ValueError("boom"))
        with pytest.raises(ValueError):
            future.result()

    def test_steal_runs_on_caller(self):
        ran_in = []
        future = ShardFuture(lambda: ran_in.append(threading.get_ident()) or "ok")
        assert future.result(steal=True) == "ok"
        assert ran_in == [threading.get_ident()]

    def test_cancel_prevents_execution(self):
        ran = []
        future = ShardFuture(lambda: ran.append(1))
        assert future.cancel()
        assert future.result() is None
        assert ran == []

    def test_cancel_loses_to_completed_run(self):
        future = ShardFuture(lambda: "value")
        assert future.result(steal=True) == "value"
        assert not future.cancel()
        assert future.result() == "value"


class TestShardExecutor:
    def test_tasks_run_in_submission_order_on_one_thread(self):
        executor = ShardExecutor("t-exec")
        try:
            order, threads = [], set()

            def task(i):
                def run():
                    order.append(i)
                    threads.add(threading.get_ident())
                return run

            futures = [executor.submit(task(i)) for i in range(20)]
            for future in futures:
                future.result()
            assert order == list(range(20))
            assert len(threads) == 1
            assert threading.get_ident() not in threads
        finally:
            executor.close()

    def test_exception_propagates(self):
        executor = ShardExecutor("t-exec-err")
        try:
            def boom():
                raise RuntimeError("task failed")

            with pytest.raises(RuntimeError, match="task failed"):
                executor.submit(boom).result()
            # the worker survives a failed task
            assert executor.submit(lambda: "next").result() == "next"
        finally:
            executor.close()

    def test_close_idempotent_and_rejects_submissions(self):
        executor = ShardExecutor("t-exec-close")
        executor.close()
        executor.close()
        with pytest.raises(ExecutorClosedError):
            executor.submit(lambda: None)

    def test_kill_rejects_submissions_until_revived(self):
        executor = ShardExecutor("t-exec-kill")
        assert executor.submit(lambda: 1).result() == 1
        executor.kill()
        executor.kill()  # idempotent
        assert executor.dead and not executor.closed
        with pytest.raises(ExecutorClosedError, match="dead"):
            executor.submit(lambda: None)
        executor.close()

    def test_timeout_raises_typed_and_builtin_compatible_error(self):
        future = ShardFuture()  # never resolves
        with pytest.raises(ShardTimeoutError):
            future.result(timeout=0.01)
        with pytest.raises(TimeoutError):  # builtin idiom keeps working
            future.result(timeout=0.01)
        with pytest.raises(ExecutorError):
            future.result(timeout=0.01)


class TestExecutorPool:
    def test_inline_mode_creates_no_threads(self):
        pool = ExecutorPool(shard_count=4, threads=1)
        assert not pool.parallel
        assert pool.worker_count == 0
        assert pool.executor_for(2) is None
        assert pool.run_on(2, lambda: threading.get_ident()) == threading.get_ident()
        pool.close()

    def test_inline_mode_propagates_errors(self):
        pool = ExecutorPool(shard_count=1, threads=1)

        def boom():
            raise KeyError("inline")

        with pytest.raises(KeyError):
            pool.run_on(0, boom)

    def test_shard_to_executor_mapping_is_stable_single_writer(self):
        with ExecutorPool(shard_count=4, threads=2) as pool:
            assert pool.parallel
            assert pool.worker_count == 2
            for shard in range(4):
                assert pool.executor_for(shard) is pool.executor_for(shard)
            # shards sharing a worker still serialize through one mailbox
            assert pool.executor_for(0) is pool.executor_for(2)
            assert pool.executor_for(1) is pool.executor_for(3)

    def test_map_shards_gathers_all_and_raises_first_error(self):
        with ExecutorPool(shard_count=4, threads=4) as pool:
            done = []

            def ok(i):
                return lambda: done.append(i) or i

            def bad():
                raise ValueError("shard 2 broke")

            with pytest.raises(ValueError, match="shard 2 broke"):
                pool.map_shards([(0, ok(0)), (1, ok(1)), (2, bad), (3, ok(3))])
            assert sorted(done) == [0, 1, 3]

    def test_map_shards_results_in_task_order(self):
        with ExecutorPool(shard_count=3, threads=3) as pool:
            results = pool.map_shards([(s, (lambda s=s: s * 10)) for s in range(3)])
            assert results == [0, 10, 20]

    def test_killed_executor_failure_is_shard_tagged_and_revivable(self):
        with ExecutorPool(shard_count=2, threads=2) as pool:
            assert pool.kill_executor(1)
            with pytest.raises(ExecutorClosedError) as info:
                pool.submit(1, lambda: None)
            assert info.value.shard == 1
            # the other shard's executor is unaffected, barrier skips the dead one
            assert pool.run_on(0, lambda: "ok") == "ok"
            pool.barrier()
            assert pool.revive(1)
            assert not pool.revive(1)  # already live
            assert pool.run_on(1, lambda: "back") == "back"

    def test_inline_pool_has_no_executor_to_kill(self):
        pool = ExecutorPool(shard_count=2, threads=1)
        assert not pool.kill_executor(0)
        assert not pool.revive(0)


class TestReadWriteLock:
    def test_readers_share_writers_exclude(self):
        lock = ReadWriteLock()
        lock.acquire_read()
        lock.acquire_read()
        assert not lock.try_acquire_write()
        lock.release_read()
        lock.release_read()
        assert lock.try_acquire_write()
        lock.release_write()

    def test_writer_blocks_readers(self):
        lock = ReadWriteLock()
        entered = threading.Event()
        with lock.write_locked():
            reader = threading.Thread(
                target=lambda: (lock.acquire_read(), entered.set(),
                                lock.release_read()))
            reader.start()
            time.sleep(0.02)
            assert not entered.is_set()
        reader.join(timeout=2.0)
        assert entered.is_set()

    def test_concurrent_counter_integrity(self):
        lock = ReadWriteLock()
        state = {"value": 0}

        def writer():
            for _ in range(200):
                with lock.write_locked():
                    current = state["value"]
                    state["value"] = current + 1

        def reader():
            for _ in range(200):
                with lock.read_locked():
                    assert state["value"] >= 0

        threads = [threading.Thread(target=writer) for _ in range(3)]
        threads += [threading.Thread(target=reader) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert state["value"] == 600


class TestStreamPump:
    @pytest.mark.parametrize("length", [0, 1, 31, 32, 33, 100, 1000])
    @pytest.mark.parametrize("scatter", [False, True])
    def test_pumped_stream_equals_plain_iteration(self, length, scatter):
        with ExecutorPool(shard_count=2, threads=2, scatter=scatter) as pool:
            pump = StreamPump(pool, shard=1, plan=lambda: iter(range(length)),
                              block_size=64, initial_block=8)
            assert list(pump.stream()) == list(range(length))
            pump.close()

    def test_plan_builds_on_first_pull_not_constructor_in_lazy_mode(self):
        with ExecutorPool(shard_count=1, threads=2, scatter=False) as pool:
            built = []

            def plan():
                built.append(True)
                return iter([1, 2, 3])

            pump = StreamPump(pool, shard=0, plan=plan, initial_block=2)
            assert built == []  # lazy thunk: nothing ran yet
            assert list(pump.stream()) == [1, 2, 3]
            assert built == [True]
            pump.close()

    def test_geometric_block_growth_bounds_over_scan(self):
        with ExecutorPool(shard_count=1, threads=2, scatter=False) as pool:
            pulled = []

            def plan():
                def gen():
                    for i in range(1000):
                        pulled.append(i)
                        yield i
                return gen()

            pump = StreamPump(pool, shard=0, plan=plan,
                              block_size=256, initial_block=16)
            stream = pump.stream()
            for _ in range(10):  # consume only 10 postings
                next(stream)
            pump.close()
            # one 16-posting block materialized; no runaway prefetch
            assert len(pulled) == 16

    @pytest.mark.parametrize("scatter", [False, True])
    def test_bundled_items_are_sized_in_postings(self, scatter):
        """Items that bundle postings (chunk fragments) fill a block by
        postings, so the first block reads no further ahead than a posting
        stream's would."""
        items = [[i] * (1 + i % 5) for i in range(300)]
        with ExecutorPool(shard_count=1, threads=2, scatter=scatter) as pool:
            pump = StreamPump(pool, shard=0, plan=lambda: iter(items),
                              block_size=64, initial_block=8, postings_of=len)
            first = pump.next_block()
            # 1 + 2 + 3 + 4 postings: the fourth item reaches 8.
            assert first == items[:4]
            assert first + list(pump.stream()) == items
            pump.close()

    def test_latch_serializes_block_pulls(self):
        latch = threading.RLock()
        with ExecutorPool(shard_count=1, threads=2, scatter=True) as pool:
            pump = StreamPump(pool, shard=0,
                              plan=lambda: iter(range(200)),
                              latch=latch, block_size=32, initial_block=32)
            with latch:
                # holding the latch must not deadlock the consumer thread:
                # RLock is re-entrant per-thread, so steal-executed pulls
                # from this thread still proceed.
                first = pump.next_block()
            rest = list(pump.stream())
            pump.close()
            assert first + rest == list(range(200))


class TestScatterDefault:
    def test_scatter_auto_follows_cpu_count(self, monkeypatch):
        import repro.exec.executor as executor_module

        monkeypatch.setattr(executor_module.os, "cpu_count", lambda: 1)
        assert not ExecutorPool(1, threads=2).scatter
        monkeypatch.setattr(executor_module.os, "cpu_count", lambda: 8)
        assert ExecutorPool(1, threads=2).scatter
