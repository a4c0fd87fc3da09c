"""Unit tests for the inline executor stubs (repro.exec)."""

from __future__ import annotations

import threading

import pytest

from repro.exec.executor import ExecutorPool, ShardFuture


class TestShardFuture:
    def test_completed(self):
        assert ShardFuture(42).result() == 42

    def test_failed(self):
        future = ShardFuture(error=ValueError("boom"))
        with pytest.raises(ValueError):
            future.result()


class TestExecutorPool:
    def test_inline_mode_creates_no_threads(self):
        before = threading.active_count()
        pool = ExecutorPool()
        assert pool.submit(2, threading.get_ident).result() == threading.get_ident()
        assert threading.active_count() == before

    def test_inline_mode_propagates_errors(self):
        def boom():
            raise KeyError("inline")

        future = ExecutorPool().submit(0, boom)
        with pytest.raises(KeyError):
            future.result()

    def test_map_shards_gathers_all_and_raises_first_error(self):
        done = []

        def ok(i):
            return lambda: done.append(i) or i

        def bad():
            raise ValueError("shard 2 broke")

        with pytest.raises(ValueError, match="shard 2 broke"):
            ExecutorPool().map_shards([(0, ok(0)), (1, ok(1)), (2, bad), (3, ok(3))])
        assert done == [0, 1, 3]

    def test_map_shards_results_in_task_order(self):
        results = ExecutorPool().map_shards([(s, (lambda s=s: s * 10)) for s in range(3)])
        assert results == [0, 10, 20]
