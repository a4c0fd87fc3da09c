"""The term-partitioned storage layer: routing, facades, accounting.

Three properties carry the sharded engine:

* **Deterministic routing** — term→shard and doc→shard mappings must not
  depend on ``PYTHONHASHSEED`` (they are CRC-32 / modulo based), or a layout
  built today would be unreachable tomorrow.
* **Single-shard fidelity** — a ``ShardedEnvironment(shard_count=1)`` must be
  *fingerprint-identical* to a plain ``StorageEnvironment``: same store
  contents, same page bytes, same counter in every accounting category.
* **Aggregation linearity** — aggregate snapshots/deltas are the per-category
  sums of the per-shard counters, and *measuring* (size reporting, skew
  reports, routing) never charges any counter — the "no double-charging on
  router-side peeks" rule.
"""

from __future__ import annotations

import random
import zlib

import pytest

from repro.errors import StorageError
from repro.storage.environment import StorageEnvironment
from repro.storage.sharding import (
    ShardedEnvironment,
    shard_load,
    shard_of_doc,
    shard_of_term,
)
from tests.helpers import category_fingerprint, disk_page_bytes


class TestRouting:
    def test_term_routing_is_crc32_based(self):
        for term in ("apple", "zebra", "w042", ""):
            assert shard_of_term(term, 4) == zlib.crc32(term.encode()) % 4

    def test_doc_routing_is_modulo(self):
        assert shard_of_doc(10, 4) == 2
        assert shard_of_doc(10, 1) == 0

    def test_single_shard_always_routes_to_zero(self):
        assert shard_of_term("anything", 1) == 0

    def test_terms_spread_across_shards(self):
        shards = {shard_of_term(f"term{i}", 4) for i in range(200)}
        assert shards == {0, 1, 2, 3}

    def test_unknown_policy_rejected(self):
        env = ShardedEnvironment(shard_count=2, cache_pages=16)
        with pytest.raises(StorageError, match="key_shard"):
            env.create_kvstore("bad", key_shard="rainbow")


class TestShardedEnvironment:
    def test_cache_budget_is_split_not_multiplied(self):
        env = ShardedEnvironment(shard_count=3, cache_pages=100)
        capacities = [shard.pool.capacity_pages for shard in env.shards]
        assert sum(capacities) == 100
        assert max(capacities) - min(capacities) <= 1

    def test_single_shard_keeps_the_full_budget(self):
        env = ShardedEnvironment(shard_count=1, cache_pages=256)
        assert env.shards[0].pool.capacity_pages == 256

    def test_shard_count_must_be_positive(self):
        with pytest.raises(StorageError):
            ShardedEnvironment(shard_count=0)

    def test_duplicate_store_names_rejected(self):
        env = ShardedEnvironment(shard_count=2, cache_pages=16)
        env.create_kvstore("x", key_shard="term")
        with pytest.raises(StorageError):
            env.create_kvstore("x", key_shard="doc")
        with pytest.raises(StorageError):
            env.create_heapfile("x")

    def test_store_catalogue_lists_logical_names_once(self):
        env = ShardedEnvironment(shard_count=3, cache_pages=16)
        env.create_kvstore("kv", key_shard="term")
        env.create_heapfile("heap")
        assert env.store_names() == ["heap", "kv"]
        assert env.kvstore_names() == ["kv"]


class TestShardedKVStore:
    def _store(self, shard_count=3):
        env = ShardedEnvironment(shard_count=shard_count, cache_pages=64, page_size=512)
        return env, env.create_kvstore("short", key_shard="term")

    def test_point_operations_match_model_dict(self):
        env, store = self._store()
        rng = random.Random(7)
        model: dict = {}
        terms = [f"t{i:02d}" for i in range(12)]
        for _ in range(400):
            term, doc = rng.choice(terms), rng.randrange(40)
            key = (term, doc)
            if rng.random() < 0.7:
                model[key] = ("ADD", doc * 0.5)
                store.put(key, ("ADD", doc * 0.5))
            elif key in model:
                del model[key]
                assert store.delete_if_present(key)
            else:
                assert not store.delete_if_present(key)
        assert len(store) == len(model)
        for key, value in model.items():
            assert store.get(key) == value
            assert key in store
        assert list(store.items()) == sorted(model.items())
        probes = [(term, doc) for term in terms for doc in range(45)]
        assert store.get_many(probes) == model

    def test_prefix_items_stays_on_the_owning_shard(self):
        env, store = self._store()
        for term in ("alpha", "beta", "gamma"):
            for doc in range(5):
                store.put((term, doc), term)
        for term in ("alpha", "beta", "gamma"):
            pairs = list(store.prefix_items((term,)))
            assert pairs == [((term, doc), term) for doc in range(5)]

    def test_bulk_operations_partition_and_stay_sorted(self):
        env, store = self._store()
        items = sorted(((f"t{i % 9}", i), i) for i in range(120))
        assert store.put_many(items) == 120
        assert list(store.items()) == items
        keys = [key for key, _v in items[::2]]
        assert store.delete_many(keys) == len(keys)
        assert store.delete_many(keys, ignore_missing=True) == 0
        assert list(store.items()) == [pair for pair in items if pair[0] not in set(keys)]

    def test_cursor_merges_across_shards_in_key_order(self):
        env, store = self._store()
        items = sorted(((f"t{i % 5}", i), None) for i in range(30))
        store.put_many(items)
        cursor = store.cursor()
        seen = list(cursor)
        assert seen == items
        assert cursor.next() is None

    def test_routing_is_deterministic_per_key(self):
        env, store = self._store(shard_count=4)
        for i in range(50):
            key = (f"term{i}", i)
            shard = store.shard_of(key)
            assert shard == shard_of_term(f"term{i}", 4)
            store.put(key, i)
            assert store.shard_store(shard).contains(key)


class TestShardedHeapFile:
    def test_write_routes_by_term_and_reads_back(self):
        env = ShardedEnvironment(shard_count=3, cache_pages=64, page_size=256)
        heap = env.create_heapfile("long")
        payloads = {f"term{i}": bytes([i]) * (300 + i) for i in range(9)}
        handles = {term: heap.write(payload, key=term)
                   for term, payload in payloads.items()}
        for term, handle in handles.items():
            assert handle.shard == shard_of_term(term, 3)
            assert heap.read(handle) == payloads[term]
            assert b"".join(heap.iter_pages(handle)) == payloads[term]
        assert heap.total_bytes() == sum(len(p) for p in payloads.values())
        assert heap.segment_count == len(payloads)

    def test_multi_shard_write_requires_key(self):
        env = ShardedEnvironment(shard_count=2, cache_pages=16)
        heap = env.create_heapfile("long")
        with pytest.raises(StorageError, match="routing key"):
            heap.write(b"payload")

    def test_drop_from_cache_clears_every_shard(self):
        env = ShardedEnvironment(shard_count=2, cache_pages=64, page_size=256)
        heap = env.create_heapfile("long")
        for i in range(6):
            heap.write(b"x" * 600, key=f"term{i}")
        assert any(shard.pool.cached_pages for shard in env.shards)
        heap.drop_from_cache()
        assert all(shard.pool.cached_pages == 0 for shard in env.shards)


def _exercise(env_like) -> None:
    """A fixed op script: inserts, overwrites, deletes, scans, bulk passes."""
    kv = env_like.create_kvstore("kv", order=None) if isinstance(
        env_like, StorageEnvironment) else env_like.create_kvstore("kv", key_shard="term")
    heap = env_like.create_heapfile("heap")
    for i in range(200):
        kv.put((f"t{i % 17:02d}", i), ("ADD", float(i)))
    for i in range(0, 200, 3):
        kv.delete_if_present((f"t{i % 17:02d}", i))
    kv.put_many(sorted(((f"u{i % 5}", i), i) for i in range(80)))
    kv.delete_many(sorted((f"u{i % 5}", i) for i in range(0, 80, 2)))
    for term_id in range(17):
        list(kv.prefix_items((f"t{term_id:02d}",)))
    list(kv.items())
    handle = heap.write(b"z" * 1500, key="t00")
    b"".join(heap.iter_pages(handle))
    heap.drop_from_cache()


class TestSingleShardFidelity:
    """Shard count 1 == the classic engine, counter for counter, byte for byte."""

    def test_category_fingerprint_and_pages_identical(self):
        plain = StorageEnvironment(cache_pages=32, page_size=512)
        sharded = ShardedEnvironment(shard_count=1, cache_pages=32, page_size=512)
        _exercise(plain)
        _exercise(sharded)
        single = sharded.shards[0]
        assert category_fingerprint(plain) == category_fingerprint(single)
        assert disk_page_bytes(plain) == disk_page_bytes(single)
        assert plain.total_size_bytes() == sharded.total_size_bytes()

    def test_aggregate_snapshot_equals_single_shard_snapshot(self):
        sharded = ShardedEnvironment(shard_count=1, cache_pages=32, page_size=512)
        _exercise(sharded)
        aggregate = sharded.snapshot()
        single = sharded.shards[0].snapshot()
        assert aggregate.pool == single.pool
        assert aggregate.disk == single.disk


class TestAggregation:
    def test_aggregate_delta_is_per_category_sum_of_shard_deltas(self):
        env = ShardedEnvironment(shard_count=3, cache_pages=24, page_size=512)
        store = env.create_kvstore("kv", key_shard="term")
        before = env.snapshot()
        shard_before = env.shard_snapshots()
        for i in range(300):
            store.put((f"term{i % 23}", i), i)
        list(store.items())
        delta = env.delta_since(before)
        shard_deltas = env.shard_deltas(shard_before)
        for category in ("hits", "misses", "evictions", "dirty_writebacks"):
            assert getattr(delta.pool, category) == sum(
                getattr(d.pool, category) for d in shard_deltas
            ), category
        for category in ("reads", "writes", "random_reads", "sequential_reads"):
            assert getattr(delta.disk, category) == sum(
                getattr(d.disk, category) for d in shard_deltas
            ), category
        assert delta.pool.accesses > 0

    def test_reporting_is_accounting_free(self):
        """size/skew/routing reporting must not charge a single counter."""
        env = ShardedEnvironment(shard_count=3, cache_pages=24, page_size=512)
        store = env.create_kvstore("kv", key_shard="term")
        heap = env.create_heapfile("heap")
        for i in range(120):
            store.put((f"term{i % 11}", i), i)
        heap.write(b"y" * 900, key="term0")
        before = env.snapshot()
        store.size_bytes()
        env.total_size_bytes()
        heap.total_bytes()
        env.shard_load()
        shard_load(env)
        store.shard_of(("term3", 1))
        delta = env.delta_since(before)
        assert delta.pool.accesses == 0
        assert delta.disk.reads == 0
        assert delta.disk.writes == 0

    def test_shard_load_skew(self):
        env = ShardedEnvironment(shard_count=2, cache_pages=16, page_size=512)
        store = env.create_kvstore("kv", key_shard="term")
        # Find a term on shard 0 and hammer it.
        hot = next(t for t in (f"t{i}" for i in range(50)) if shard_of_term(t, 2) == 0)
        for i in range(200):
            store.put((hot, i), i)
        load = env.shard_load()
        assert load.shard_count == 2
        assert load.skew > 1.5  # all traffic on one of two shards -> skew ~2
        row = load.as_row()
        assert row["shards"] == 2 and row["total_accesses"] == load.total_accesses

    def test_plain_environment_reports_one_balanced_shard(self):
        env = StorageEnvironment(cache_pages=16)
        load = shard_load(env)
        assert load.shard_count == 1
        assert load.skew == 1.0
