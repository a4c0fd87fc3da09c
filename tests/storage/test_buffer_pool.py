"""Tests for the LRU buffer pool."""

import pytest

from repro.errors import BufferPoolError
from repro.storage.buffer_pool import BufferPool, BufferPoolStats
from repro.storage.disk import SimulatedDisk


def make_pool(capacity=3):
    disk = SimulatedDisk(page_size=128)
    return BufferPool(disk, capacity_pages=capacity), disk


class TestBufferPool:
    def test_capacity_must_be_positive(self):
        with pytest.raises(BufferPoolError):
            BufferPool(SimulatedDisk(), capacity_pages=0)

    def test_hit_and_miss_accounting(self):
        pool, _disk = make_pool()
        page = pool.allocate()
        pool.get(page.page_id)
        pool.get(page.page_id)
        assert pool.stats.hits == 2
        assert pool.stats.misses == 0
        pool.drop()
        pool.get(page.page_id)
        assert pool.stats.misses == 1

    def test_hits_plus_misses_equals_accesses(self):
        pool, _disk = make_pool(capacity=2)
        pages = [pool.allocate() for _ in range(4)]
        for page in pages:
            pool.get(page.page_id)
        stats = pool.stats
        assert stats.accesses == stats.hits + stats.misses

    def test_lru_eviction_order(self):
        pool, disk = make_pool(capacity=2)
        a = pool.allocate()
        b = pool.allocate()
        pool.get(a.page_id)            # a becomes most recently used
        c = pool.allocate()            # evicts b (least recently used)
        assert pool.contains(a.page_id)
        assert pool.contains(c.page_id)
        assert not pool.contains(b.page_id)
        assert pool.stats.evictions >= 1
        assert disk.contains(b.page_id)

    def test_never_exceeds_capacity(self):
        pool, _disk = make_pool(capacity=3)
        for _ in range(10):
            pool.allocate()
        assert pool.cached_pages <= 3

    def test_dirty_pages_written_back_on_eviction(self):
        pool, disk = make_pool(capacity=1)
        page = pool.allocate()
        page.write(b"dirty content")
        pool.put(page)
        pool.allocate()                # forces eviction of the dirty page
        assert disk.read(page.page_id).data == b"dirty content"

    def test_flush_writes_dirty_pages_without_dropping(self):
        pool, disk = make_pool()
        page = pool.allocate()
        page.write(b"payload")
        pool.put(page)
        pool.flush()
        assert disk.read(page.page_id).data == b"payload"
        assert pool.contains(page.page_id)

    def test_targeted_drop_only_evicts_requested_pages(self):
        pool, _disk = make_pool(capacity=4)
        pages = [pool.allocate() for _ in range(3)]
        pool.drop({pages[0].page_id})
        assert not pool.contains(pages[0].page_id)
        assert pool.contains(pages[1].page_id)
        assert pool.contains(pages[2].page_id)

    def test_get_after_drop_reads_from_disk(self):
        pool, disk = make_pool()
        page = pool.allocate()
        page.write(b"stored")
        pool.put(page)
        pool.drop()
        disk.stats.reset()
        fetched = pool.get(page.page_id)
        assert fetched.data == b"stored"
        assert disk.stats.reads == 1


    def test_data_integrity_across_evictions(self):
        """Pages written through a pool smaller than the working set read back intact."""
        pool, _disk = make_pool(capacity=4)
        pages = []
        for i in range(12):
            page = pool.allocate()
            page.write(bytes([i]) * 8)
            pool.put(page)
            pages.append(page.page_id)
        for i, page_id in enumerate(pages):
            assert pool.get(page_id).data == bytes([i]) * 8

    def test_lru_loses_hot_set_on_oversized_scan(self):
        pool, _disk = make_pool(capacity=8)
        hot = [pool.allocate().page_id for _ in range(4)]
        for page_id in hot:
            pool.get(page_id)
        for _ in range(20):
            pool.allocate()
        assert not any(pool.contains(page_id) for page_id in hot)


class TestBufferPoolStats:
    def test_hit_rate(self):
        stats = BufferPoolStats(hits=3, misses=1)
        assert stats.hit_rate == pytest.approx(0.75)
        assert BufferPoolStats().hit_rate == 0.0

    def test_diff(self):
        stats = BufferPoolStats(hits=5, misses=2, evictions=1)
        snap = stats.snapshot()
        stats.hits += 1
        delta = stats.diff(snap)
        assert delta.hits == 1 and delta.misses == 0
