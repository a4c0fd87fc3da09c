"""Tests for the bulk B+-tree operations behind the batched update pipeline.

``insert_many``/``delete_many`` must be observably equivalent to applying the
same operations one key at a time in sorted order — same contents, same split
sequence (and therefore the same page layout), same failure atomicity — while
charging strictly fewer buffer-pool accesses.  The randomized interleavings
run the bulk operations against a model dict through mid-run leaf splits and
the oversized-split rollback path.
"""

import random

import pytest

from repro.errors import DuplicateKeyError, KeyNotFoundError, StorageError
from repro.storage.buffer_pool import BufferPool
from repro.storage.disk import SimulatedDisk
from repro.storage.kvstore import KVStore


def make_tree(order=6, page_size=4096, cache_pages=64):
    pool = BufferPool(SimulatedDisk(page_size=page_size), capacity_pages=cache_pages)
    return KVStore(pool, "bulk", order=order)


def tree_layout(tree):
    """Physical shape fingerprint: contents plus node structure and size."""
    return (
        list(tree.items()),
        tree.tree.height(),
        tree.tree.node_count(),
        tree.size_bytes(),
    )


class TestBulkInsert:
    def test_insert_many_matches_model(self):
        tree = make_tree()
        items = [(key, key * 3) for key in range(200)]
        random.Random(5).shuffle(items)
        inserted = tree.put_many(items)
        assert inserted == 200
        assert len(tree) == 200
        assert list(tree.items()) == [(key, key * 3) for key in range(200)]

    def test_insert_many_overwrites_and_counts_only_new_keys(self):
        tree = make_tree()
        tree.put_many([(key, "old") for key in range(10)])
        inserted = tree.put_many([(key, "new") for key in range(5, 15)])
        assert inserted == 5
        assert tree.get(7) == "new"
        assert tree.get(2) == "old"
        assert len(tree) == 15

    def test_within_batch_duplicates_follow_sequential_order(self):
        tree = make_tree()
        tree.put_many([(1, "first"), (2, "x"), (1, "second"), (1, "third")])
        assert tree.get(1) == "third"
        assert len(tree) == 2

    def test_duplicate_raises_but_commits_prior_entries(self):
        tree = make_tree()
        tree.put(5, "existing")
        with pytest.raises(DuplicateKeyError):
            tree.tree.insert_many([(tree.key_codec.encode(key), tree.value_codec.encode(value))
                                   for key, value in [(1, "a"), (5, "clash"), (9, "b")]],
                                  overwrite=False)
        # Keys sorted before application: 1 committed, 5 raised, 9 never ran.
        assert tree.get(1) == "a"
        assert tree.get(5) == "existing"
        assert 9 not in tree

    def test_bulk_layout_identical_to_sequential_sorted_inserts(self):
        """Same split decisions per entry => bit-identical page layout."""
        rng = random.Random(11)
        items = [
            ((f"t{rng.randrange(50):03d}", -rng.uniform(0, 1000), doc), None)
            for doc in range(600)
        ]
        sequential = make_tree(order=8, page_size=512)
        for key, value in sorted(items, key=lambda item: item[0]):
            sequential.put(key, value)
        bulk = make_tree(order=8, page_size=512)
        bulk.put_many(items)
        assert tree_layout(bulk) == tree_layout(sequential)

    def test_mid_run_leaf_splits_keep_contents(self):
        """A single sorted run long enough to split the same leaf repeatedly."""
        tree = make_tree(order=64, page_size=512)
        items = [(key, "v" * 40) for key in range(300)]
        tree.put_many(items)
        assert tree.tree.height() > 1
        assert [key for key, _ in tree.items()] == list(range(300))

    def test_oversized_entry_fails_atomically_mid_batch(self):
        """The oversized-split rollback path, hit from inside a bulk run.

        Entries before the failing one are committed (sequential semantics);
        the failing entry is fully unwound, including the size counter, and
        reads agree with write-back afterwards.
        """
        pool = BufferPool(SimulatedDisk(page_size=512), capacity_pages=4)
        tree = KVStore(pool, "tiny", order=64)
        tree.put_many([(key, "x" * 100) for key in range(3)])
        with pytest.raises(StorageError, match="HeapFile"):
            tree.put_many([(3, "x" * 100), (4, "y" * 400), (5, "z")])
        assert len(tree) == 4  # keys 0-3 committed, 4 unwound, 5 never ran
        assert [key for key, _ in tree.items()] == [0, 1, 2, 3]
        pool.drop()  # force re-decode from disk: views must agree
        assert [key for key, _ in tree.items()] == [0, 1, 2, 3]

    def test_oversized_entry_on_unsplittable_leaf_unwinds_cleanly(self):
        """An entry too big for a leaf that cannot split (fewer than two keys)
        must fail at that entry without corrupting the tree or leaving a
        frame whose write-back crashes every later flush."""
        pool = BufferPool(SimulatedDisk(page_size=512), capacity_pages=4)
        tree = KVStore(pool, "tiny", order=64)
        with pytest.raises(StorageError, match="HeapFile"):
            tree.put_many([(1, "x" * 1000)])
        assert len(tree) == 0
        assert 1 not in tree
        pool.flush()  # the frame must serialise (i.e. hold committed state)
        # Prior entries of the same batch still commit (sequential semantics).
        with pytest.raises(StorageError, match="HeapFile"):
            tree.put_many([(0, "ok"), (1, "y" * 1000), (2, "never")])
        assert list(tree.items()) == [(0, "ok")]
        assert 2 not in tree
        pool.flush()
        pool.drop()
        assert list(tree.items()) == [(0, "ok")]

    def test_empty_batch_is_a_noop(self):
        tree = make_tree()
        before = tree.tree.pool.stats.snapshot()
        assert tree.put_many([]) == 0
        assert tree.delete_many([]) == 0
        delta = tree.tree.pool.stats.diff(before)
        assert delta.hits == 0 and delta.misses == 0


class TestBulkDelete:
    def test_delete_many_matches_model(self):
        tree = make_tree()
        tree.put_many([(key, key) for key in range(100)])
        removed = tree.delete_many(range(0, 100, 3))
        assert removed == len(range(0, 100, 3))
        expected = [key for key in range(100) if key % 3 != 0]
        assert [key for key, _ in tree.items()] == expected
        assert len(tree) == len(expected)

    def test_missing_key_raises_after_committing_prior_deletes(self):
        tree = make_tree()
        tree.put_many([(key, key) for key in range(10)])
        with pytest.raises(KeyNotFoundError):
            # Applied in sorted order: 3 commits, 4.5 raises, 7 is never reached.
            tree.delete_many([7, 4.5, 3])
        assert 3 not in tree
        assert 7 in tree

    def test_ignore_missing_skips_absent_keys(self):
        tree = make_tree()
        tree.put_many([(key, key) for key in range(10)])
        assert tree.delete_many([5, 50, 7, 70], ignore_missing=True) == 2
        assert 5 not in tree and 7 not in tree

    def test_duplicate_keys_in_batch_delete_once(self):
        tree = make_tree()
        tree.put_many([(key, key) for key in range(5)])
        assert tree.delete_many([3, 3, 3], ignore_missing=True) == 1
        assert len(tree) == 4


class TestRandomizedInterleavings:
    @pytest.mark.parametrize("seed", [1, 17, 404])
    def test_bulk_and_single_ops_against_model(self, seed):
        """Random mix of single and bulk operations stays equal to a dict."""
        rng = random.Random(seed)
        tree = make_tree(order=8, page_size=512, cache_pages=16)
        model = {}
        key_space = [
            (f"t{term:02d}", round(-rng.uniform(0, 100), 3), doc)
            for term in range(12)
            for doc in range(40)
        ]
        for _ in range(30):
            action = rng.random()
            if action < 0.4:
                batch = [(rng.choice(key_space), rng.randrange(1000))
                         for _ in range(rng.randrange(1, 60))]
                tree.put_many(batch)
                for key, value in batch:
                    model[key] = value
            elif action < 0.6 and model:
                victims = rng.sample(sorted(model), min(len(model), rng.randrange(1, 25)))
                extras = [rng.choice(key_space) for _ in range(3)]
                targets = victims + [key for key in extras if key not in model]
                removed = tree.delete_many(targets, ignore_missing=True)
                assert removed == len(victims)
                for key in victims:
                    del model[key]
            elif action < 0.8:
                key = rng.choice(key_space)
                value = rng.randrange(1000)
                tree.put(key, value)
                model[key] = value
            elif model:
                key = rng.choice(sorted(model))
                assert tree.delete(key) == model.pop(key)
        assert dict(tree.items()) == model
        assert len(tree) == len(model)
        assert [key for key, _ in tree.items()] == sorted(model)


class TestBulkAccounting:
    """The BufferPoolStats contract of the batch path.

    Bulk descents must charge the same hit/miss/eviction/write-back
    categories as single-key operations — every node access goes through the
    charging ``pool.get`` path, never through the accounting-free ``peek`` —
    while sharing descents across a leaf run (strictly fewer accesses than
    per-key application, never zero).
    """

    def test_bulk_ops_never_use_the_accounting_free_peek_path(self, monkeypatch):
        tree = make_tree(order=8, page_size=512)
        tree.put_many([(key, key) for key in range(50)])

        def forbidden(page_id):
            raise AssertionError("bulk operations must charge every page access")

        monkeypatch.setattr(tree.tree.pool, "peek", forbidden)
        monkeypatch.setattr(tree.tree.pool.disk, "peek", forbidden)
        tree.put_many([(key, key) for key in range(50, 120)])
        tree.delete_many(range(0, 120, 4))

    def test_counter_fingerprint_is_deterministic(self):
        """Two identical bulk runs produce identical counter fingerprints."""
        fingerprints = []
        for _ in range(2):
            tree = make_tree(order=8, page_size=512, cache_pages=8)
            tree.put_many([(key, "v" * 30) for key in range(400)])
            tree.delete_many(range(0, 400, 5))
            stats = tree.tree.pool.stats
            fingerprints.append(
                (stats.hits, stats.misses, stats.evictions, stats.dirty_writebacks)
            )
        assert fingerprints[0] == fingerprints[1]

    def test_bulk_charges_fewer_accesses_than_per_key_but_not_zero(self):
        items = [(key, key) for key in range(500)]
        single = make_tree(order=8, page_size=1024)
        for key, value in items:
            single.put(key, value)
        single_accesses = single.tree.pool.stats.accesses

        bulk = make_tree(order=8, page_size=1024)
        bulk.put_many(items)
        bulk_accesses = bulk.tree.pool.stats.accesses
        assert 0 < bulk_accesses < single_accesses
        # Same layout => the follow-up charges are identical too.
        assert tree_layout(bulk) == tree_layout(single)

    def test_warm_and_cold_runs_charge_the_right_categories(self):
        tree = make_tree(order=8, page_size=1024, cache_pages=256)
        tree.put_many([(key, key) for key in range(300)])
        tree.tree.pool.stats.reset()
        # Warm pool: a bulk delete touches only resident pages.
        tree.delete_many(range(0, 300, 10))
        warm = tree.tree.pool.stats.snapshot()
        assert warm.hits > 0 and warm.misses == 0
        # Cold pool: the same kind of pass must charge misses.
        tree.tree.pool.drop()
        tree.tree.pool.stats.reset()
        tree.delete_many(range(5, 300, 10))
        cold = tree.tree.pool.stats.snapshot()
        assert cold.misses > 0

    def test_evictions_and_writebacks_are_charged_under_pressure(self):
        tree = make_tree(order=8, page_size=512, cache_pages=4)
        tree.put_many([(key, "v" * 40) for key in range(400)])
        stats = tree.tree.pool.stats
        assert stats.evictions > 0
        assert stats.dirty_writebacks > 0
        assert stats.accesses == stats.hits + stats.misses
        assert [key for key, _ in tree.items()] == list(range(400))


class TestBulkGet:
    """``get_many`` is the read-side twin of ``insert_many``."""

    @staticmethod
    def _build(count, order=8, page_size=512):
        tree = make_tree(order=order, page_size=page_size, cache_pages=512)
        tree.put_many([(2 * key, f"v{key}") for key in range(count)])
        return tree

    @pytest.mark.parametrize("seed", [3, 29, 511])
    def test_get_many_matches_model(self, seed):
        rng = random.Random(seed)
        tree = make_tree(order=8, page_size=512, cache_pages=32)
        model = {}
        for _ in range(400):
            key = (f"t{rng.randrange(9)}", rng.randrange(300))
            model[key] = rng.randrange(1000)
            tree.put(key, model[key])
        for _ in range(20):
            keys = [(f"t{rng.randrange(10)}", rng.randrange(320))
                    for _ in range(rng.randrange(0, 80))]
            assert tree.get_many(keys) == {key: model[key] for key in keys if key in model}

    def test_every_leaf_boundary_and_the_rightmost_spine(self):
        tree = self._build(300)
        assert tree.tree.height() > 2
        # Every present key (first and last of each leaf included), every gap
        # between two keys, and keys beyond both ends of the tree.
        keys = list(range(-3, 604))
        random.Random(8).shuffle(keys)
        assert tree.get_many(keys) == {2 * key: f"v{key}" for key in range(300)}
        assert tree.get_many([598, 599, 10 ** 9]) == {598: "v299"}

    def test_empty_tree_single_key_and_empty_batch(self):
        empty = make_tree()
        assert empty.get_many([1, 2, 3]) == {}
        assert empty.get_many([]) == {}
        single = make_tree()
        single.put(7, "seven")
        assert single.get_many([6, 7, 7, 8]) == {7: "seven"}

    @pytest.mark.parametrize("seed", [1, 5, 42])
    def test_same_disk_reads_and_no_more_hits_than_point_gets(self, seed, monkeypatch):
        """Cold pool, same keys: ``get_many`` reads exactly the pages the
        point gets read, and shares descents instead of re-hitting them."""
        rng = random.Random(seed)
        tree = self._build(500)
        keys = [rng.randrange(-5, 1005) for _ in range(rng.randrange(1, 120))]
        disk = tree.tree.pool.disk
        read_log = []
        original_read = disk.read

        def logged_read(page_id):
            read_log.append(page_id)
            return original_read(page_id)

        monkeypatch.setattr(disk, "read", logged_read)

        def cold_run(lookup):
            tree.tree.pool.drop()
            read_log.clear()
            before = tree.tree.pool.stats.snapshot()
            result = lookup()
            return result, sorted(read_log), tree.tree.pool.stats.diff(before)

        point, point_reads, point_stats = cold_run(
            lambda: {key: value for key in keys
                     if (value := tree.get(key, None)) is not None})
        bulk, bulk_reads, bulk_stats = cold_run(lambda: tree.get_many(keys))
        assert bulk == point
        assert bulk_reads == point_reads
        assert bulk_stats.misses == point_stats.misses
        assert bulk_stats.hits <= point_stats.hits


def _pages(store):
    """Every page of a store's tree: page id and node bytes (accounting-free)."""
    tree = store.tree
    return [(page_id, tree._encode(tree._peek_node(page_id)))
            for page_id in sorted(tree.page_ids())]


def _counters(pool):
    disk = pool.disk.stats
    return (disk.reads, disk.writes, disk.sequential_reads, disk.random_reads,
            pool.stats.misses, pool.stats.evictions, pool.stats.dirty_writebacks)


class TestRekey:
    """``rekey`` against the ``delete_if_present`` + ``put`` loop it replaces."""

    @staticmethod
    def _moves(seed, count=300):
        rng = random.Random(seed)
        heads = [f"t{index:02d}" for index in range(12)]
        scores = {doc: float(rng.randint(0, 30)) for doc in range(60)}
        moves = []
        for _ in range(count):
            doc = rng.randrange(60)
            # Mostly small moves (same leaf), some jumps (another leaf).
            new = scores[doc] + rng.choice([-1.0, 1.0, 0.5, -40.0, 40.0])
            moves.append((sorted(rng.sample(heads, rng.randint(1, 8))),
                          (-scores[doc], doc), (-new, doc)))
            scores[doc] = new
        return scores, moves

    @pytest.mark.parametrize("codecs", [("sfu", "none"), ("*", "pickle")])
    def test_rekey_reads_and_writes_like_the_per_key_loop(self, codecs):
        stores = []
        for _side in range(2):
            pool = BufferPool(SimulatedDisk(page_size=256), capacity_pages=6)
            store = KVStore(pool, "lists", key_codec=codecs[0], value_codec=codecs[1])
            stores.append(store)
        _scores, moves = self._moves(3)
        value = None if codecs[1] == "none" else "v"
        initial = {}
        for heads, (old_score, doc), _new in moves:
            for head in heads:
                initial.setdefault((head, doc), old_score)
        for store in stores:
            store.put_many(((head, score, doc), value)
                           for (head, doc), score in sorted(initial.items()))
        loop, call = stores
        # The loop's values, kept here so that reading one charges no page.
        values = {(head, score, doc): value for (head, doc), score in initial.items()}
        for heads, old_suffix, new_suffix in moves:
            found = 0
            for head in heads:
                old_value = values.pop((head, *old_suffix), None)
                found += loop.delete_if_present((head, *old_suffix))
                loop.put((head, *new_suffix), old_value)
                values[(head, *new_suffix)] = old_value
            assert call.rekey(heads, old_suffix, new_suffix) == found
            assert _counters(call.tree.pool) == _counters(loop.tree.pool)
            assert call.tree.pool.stats.hits == loop.tree.pool.stats.hits
        assert _pages(call) == _pages(loop)
        assert list(call.items()) == list(loop.items())
        assert len(call) == len(loop)

    def test_absent_old_key_puts_none(self):
        store = KVStore(BufferPool(SimulatedDisk()), "lists", key_codec="sfu",
                        value_codec="pickle")
        store.put(("a", -1.0, 7), "kept")
        assert store.rekey(["a", "b"], (-1.0, 7), (-2.0, 7)) == 1
        assert list(store.items()) == [(("a", -2.0, 7), "kept"), (("b", -2.0, 7), None)]

    def test_sharded_rekey_routes_each_head(self):
        from repro.storage.sharding import ShardedEnvironment

        envs = [ShardedEnvironment(shard_count=3, cache_pages=12, page_size=256)
                for _side in range(2)]
        loop, call = [env.create_kvstore("lists", key_codec="sfu", value_codec="none")
                      for env in envs]
        scores, moves = self._moves(5, count=120)
        for store in (loop, call):
            store.put_many(((head, old_score, doc), None)
                           for heads, (old_score, doc), _new in moves[:40]
                           for head in heads)
        for heads, old_suffix, new_suffix in moves:
            for head in heads:
                loop.delete_if_present((head, *old_suffix))
                loop.put((head, *new_suffix), None)
            call.rekey(heads, old_suffix, new_suffix)
        assert list(call.items()) == list(loop.items())
        for shard in range(3):
            assert _pages(call.shard_store(shard)) == _pages(loop.shard_store(shard))
            assert (_counters(envs[1].shards[shard].pool)
                    == _counters(envs[0].shards[shard].pool))
