"""Tests for the paged B+-tree."""

import pytest

from repro.errors import DuplicateKeyError, KeyNotFoundError, StorageError
from repro.storage.btree import BPlusTree, default_order
from repro.storage.buffer_pool import BufferPool
from repro.storage.disk import SimulatedDisk
from repro.storage.kvstore import KVStore


def make_tree(order=6, page_size=4096, cache_pages=64):
    """A tree behind the generic store codecs (any scalar or tuple key,
    pickled values), so the tests speak in Python keys and values."""
    pool = BufferPool(SimulatedDisk(page_size=page_size), capacity_pages=cache_pages)
    return KVStore(pool, "test", order=order)


def reverse_items(store, low=None, high=None, inclusive=(True, True)):
    """The store's pairs in descending key order (the tree's reverse scan)."""
    encode = store.key_codec.encode
    pairs = store.tree.items(None if low is None else encode(low),
                             None if high is None else encode(high),
                             inclusive=inclusive, reverse=True)
    return ((store.key_codec.decode(key), store.value_codec.decode(value))
            for key, value in pairs)


class TestBasicOperations:
    def test_insert_and_get(self):
        tree = make_tree()
        tree.put(5, "five")
        tree.put(1, "one")
        assert tree.get(5) == "five"
        assert tree.get(1) == "one"
        assert len(tree) == 2

    def test_get_missing_key_raises_or_returns_default(self):
        tree = make_tree()
        with pytest.raises(KeyNotFoundError):
            tree.get(99)
        assert tree.get(99, default="fallback") == "fallback"

    def test_overwrite_and_duplicate_detection(self):
        tree = make_tree()
        tree.put("k", 1)
        tree.put("k", 2)
        assert tree.get("k") == 2
        assert len(tree) == 1
        with pytest.raises(DuplicateKeyError):
            tree.tree.insert(tree.key_codec.encode("k"), tree.value_codec.encode(3),
                             overwrite=False)

    def test_delete(self):
        tree = make_tree()
        tree.put(1, "a")
        tree.put(2, "b")
        assert tree.delete(1) == "a"
        assert 1 not in tree
        assert len(tree) == 1
        with pytest.raises(KeyNotFoundError):
            tree.delete(1)

    def test_contains(self):
        tree = make_tree()
        tree.put(10, None)
        assert 10 in tree
        assert 11 not in tree

    def test_update_value(self):
        tree = make_tree()
        tree.put("counter", 1)
        tree.put("counter", tree.get("counter") + 1)
        assert tree.get("counter") == 2
        assert len(tree) == 1
        with pytest.raises(KeyNotFoundError):
            tree.get("missing")

    def test_clear(self):
        tree = make_tree()
        for i in range(20):
            tree.put(i, i)
        tree.tree.clear()
        assert len(tree) == 0
        assert list(tree.items()) == []


class TestOrderingAndRangeScans:
    def test_items_sorted_after_random_inserts(self):
        tree = make_tree(order=6)
        import random

        rng = random.Random(3)
        keys = list(range(500))
        rng.shuffle(keys)
        for key in keys:
            tree.put(key, key * 2)
        assert [key for key, _ in tree.items()] == sorted(keys)
        assert all(value == key * 2 for key, value in tree.items())

    def test_range_scan_bounds(self):
        tree = make_tree()
        for key in range(100):
            tree.put(key, None)
        assert [k for k, _ in tree.items(low=10, high=15)] == [10, 11, 12, 13, 14, 15]
        assert [k for k, _ in tree.items(low=10, high=15, inclusive=(False, False))] == [
            11, 12, 13, 14,
        ]
        assert [k for k, _ in tree.items(low=97)] == [97, 98, 99]
        assert [k for k, _ in tree.items(high=2)] == [0, 1, 2]

    def test_reverse_iteration(self):
        tree = make_tree()
        for key in range(10):
            tree.put(key, None)
        assert [k for k, _ in reverse_items(tree)] == list(reversed(range(10)))

    def test_first_and_last(self):
        tree = make_tree()
        assert next(tree.items(), None) is None
        assert next(reverse_items(tree), None) is None
        for key in (5, 1, 9):
            tree.put(key, str(key))
        assert next(tree.items()) == (1, "1")
        assert next(reverse_items(tree)) == (9, "9")

    def test_tuple_keys_order_lexicographically(self):
        tree = make_tree()
        tree.put(("b", 2), "b2")
        tree.put(("a", 9), "a9")
        tree.put(("a", 1), "a1")
        assert [key for key, _ in tree.items()] == [("a", 1), ("a", 9), ("b", 2)]


class TestStructure:
    def test_height_grows_with_size(self):
        tree = make_tree(order=6)
        assert tree.tree.height() == 1
        for key in range(200):
            tree.put(key, None)
        assert tree.tree.height() >= 3
        assert tree.tree.node_count() > 30

    def test_order_validation(self):
        with pytest.raises(StorageError):
            make_tree(order=2)

    def test_default_order_scales_with_page_size(self):
        assert default_order(4096) > default_order(512) >= 6

    def test_oversized_value_raises_clear_error(self):
        tree = make_tree(order=6, page_size=256)
        with pytest.raises(StorageError, match="HeapFile"):
            tree.put(1, "x" * 5000)

    def test_page_ids_cover_all_nodes(self):
        tree = make_tree(order=6)
        for key in range(100):
            tree.put(key, None)
        assert len(tree.page_ids()) == tree.tree.node_count()

    def test_size_bytes_positive_and_grows(self):
        tree = make_tree()
        empty_size = tree.size_bytes()
        for key in range(50):
            tree.put(key, "payload")
        assert tree.size_bytes() > empty_size


class TestExactNodeSize:
    def test_size_is_the_exact_encoded_size(self):
        """Every node's tracked size equals the length of its encoding.

        The split rule compares that integer with the page capacity, so it
        must stay exact through inserts, overwrites that change a value's
        length, deletes and splits.
        """
        import random

        tree = make_tree(order=32, page_size=512, cache_pages=256)
        rng = random.Random(11)
        for step in range(600):
            key = (f"t{rng.randrange(40):03d}", rng.randrange(200))
            action = rng.random()
            if action < 0.6:
                tree.put(key, rng.random() * 100)
            elif action < 0.8:
                tree.put(key, "payload-" + "x" * rng.randrange(30))
            else:
                try:
                    tree.delete(key)
                except Exception:
                    pass
        inner = tree.tree
        checked = 0
        for page_id in tree.page_ids():
            node = inner._peek_node(page_id)
            encoded = inner._encode(node)
            assert node.size == len(encoded)
            assert len(encoded) <= tree.tree.pool.disk.page_size
            assert inner._decode(page_id, encoded).keys == node.keys
            checked += 1
        assert checked == tree.tree.node_count()
        assert tree.size_bytes() == sum(
            len(inner._encode(inner._peek_node(page_id))) for page_id in tree.page_ids())

    def test_nodes_fill_to_the_page_and_always_fit(self):
        """Splits happen on the exact size: a node may fill its page to the
        last byte, never past it, and values of any size below the page's
        share never trip the oversized-node error."""
        import random

        page_size = 512
        tree = make_tree(order=64, page_size=page_size, cache_pages=128)
        rng = random.Random(5)
        for key in range(300):
            tree.put(key, "v" * rng.randrange(0, 120))
        assert len(tree) == 300
        inner = tree.tree
        sizes = [inner._peek_node(page_id).size for page_id in tree.page_ids()]
        assert max(sizes) <= page_size
        # Fixed-width entries land exactly on the capacity before splitting.
        pool = BufferPool(SimulatedDisk(page_size=page_size), capacity_pages=64)
        fixed = BPlusTree(pool, order=500, value_width=8)
        entry = 1 + 4 + 8  # key length byte, 4-byte key, 8-byte value
        fits = (page_size - 7) // entry
        for key in range(fits):
            fixed.insert(key.to_bytes(4, "big"), bytes(8))
        assert fixed.height() == 1 and fixed.size_bytes() == 7 + fits * entry
        fixed.insert(fits.to_bytes(4, "big"), bytes(8))
        assert fixed.height() == 2


class TestMaintenanceAccounting:
    def make_loaded(self, cache_pages=256):
        pool = BufferPool(SimulatedDisk(page_size=512), capacity_pages=cache_pages)
        tree = KVStore(pool, "maint", order=8)
        for key in range(400):
            tree.put(key, key)
        return pool, tree

    def test_size_and_page_enumeration_charge_nothing(self):
        pool, tree = self.make_loaded()
        before_pool = pool.stats.snapshot()
        before_disk = pool.disk.stats.snapshot()
        tree.size_bytes()
        tree.page_ids()
        tree.tree.node_count()
        tree.tree.height()
        assert pool.stats.diff(before_pool).hits == 0
        assert pool.stats.diff(before_pool).misses == 0
        delta = pool.disk.stats.diff(before_disk)
        assert delta.reads == 0 and delta.writes == 0

    def test_maintenance_does_not_touch_lru_order(self):
        pool, tree = self.make_loaded(cache_pages=8)
        resident_before = sorted(
            page_id for page_id in tree.page_ids() if pool.contains(page_id)
        )
        tree.size_bytes()
        resident_after = sorted(
            page_id for page_id in tree.page_ids() if pool.contains(page_id)
        )
        assert resident_before == resident_after

    def test_accounted_page_ids_charges_reads(self):
        pool, tree = self.make_loaded()
        before = pool.stats.snapshot()
        ids = tree.page_ids(accounted=True)
        assert len(ids) == tree.tree.node_count()
        assert pool.stats.diff(before).accesses >= len(ids)

    def test_last_reads_only_one_root_to_leaf_path(self):
        pool, tree = self.make_loaded()
        before = pool.stats.snapshot()
        assert next(reverse_items(tree)) == (399, 399)
        accesses = pool.stats.diff(before).hits + pool.stats.diff(before).misses
        assert accesses <= tree.tree.height() + 1

    def test_bounded_reverse_scan_stops_reading_leaves(self):
        from itertools import islice

        pool, tree = self.make_loaded()
        before = pool.stats.snapshot()
        top = [key for key, _ in islice(reverse_items(tree), 5)]
        assert top == [399, 398, 397, 396, 395]
        accesses = pool.stats.diff(before).accesses
        # A materialising implementation reads every leaf (~dozens of pages).
        assert accesses <= tree.tree.height() + 3

    def test_reverse_iteration_with_bounds(self):
        _pool, tree = self.make_loaded()
        assert [k for k, _ in reverse_items(tree, low=10, high=15)] == [
            15, 14, 13, 12, 11, 10,
        ]
        assert [k for k, _ in reverse_items(tree, low=10, high=15,
                                            inclusive=(False, False))] == [14, 13, 12, 11]
        assert [k for k, _ in reverse_items(tree, high=3)] == [3, 2, 1, 0]
        assert [k for k, _ in reverse_items(tree, low=396)] == [399, 398, 397, 396]

    def test_reverse_iteration_after_deletes(self):
        _pool, tree = self.make_loaded()
        for key in range(350, 400):
            tree.delete(key)
        assert [k for k, _ in reverse_items(tree)][:3] == [349, 348, 347]
        assert next(reverse_items(tree)) == (349, 349)


class TestSharedNodeIterationSafety:
    def test_forward_scan_is_stable_under_mid_iteration_splits(self):
        """A split under the cursor must not re-deliver already-yielded keys.

        Cached decoded nodes are shared; the scan snapshots each leaf
        (entries *and* successor pointer) when it reaches it, so it neither
        re-delivers nor drops a key it was going to yield.
        """
        for inserted in ((1, 2, 3, 4), (1,)):  # splits the leaf, or grows it in place
            tree = make_tree(order=4)
            original = list(range(0, 80, 10))
            for key in original:
                tree.put(key, None)
            seen = []
            iterator = tree.items()
            seen.append(next(iterator)[0])
            for key in inserted:
                tree.put(key, None)
            seen.extend(key for key, _ in iterator)
            assert seen == sorted(seen), f"out-of-order or duplicated keys: {seen}"
            assert len(seen) == len(set(seen))
            missing = set(original) - set(seen)
            assert not missing, f"committed keys dropped by forward scan: {missing}"

    def test_reverse_scan_survives_split_ahead_of_the_cursor(self):
        """A split below the reverse cursor must not hide committed keys.

        The reverse walk re-descends from the current root for every leaf
        step, so pages created by mid-iteration splits are still found.
        """
        tree = make_tree(order=4)
        original = list(range(0, 80, 10))
        for key in original:
            tree.put(key, None)
        iterator = reverse_items(tree)
        seen = [next(iterator)[0]]
        for key in (1, 2, 3, 4):  # splits the leftmost leaf, ahead of the cursor
            tree.put(key, None)
        seen.extend(key for key, _ in iterator)
        assert seen == sorted(seen, reverse=True)
        missing = set(original) - set(seen)
        assert not missing, f"committed keys dropped by reverse scan: {missing}"

    def test_split_survives_eviction_of_the_overfull_node(self):
        """Sibling allocation may evict the splitting node's own frame.

        The write-back must not try to serialise the not-yet-split node (which
        no longer fits in a page); the split detaches it first.  With values
        that split into fitting halves, the whole cascade of splits works even
        when every allocation evicts the node being split.
        """
        pool = BufferPool(SimulatedDisk(page_size=512), capacity_pages=1)
        tree = KVStore(pool, "tiny-pool", order=64)
        for key in range(12):
            tree.put(key, "x" * 120)
        assert len(tree) == 12
        assert [key for key, _ in tree.items()] == list(range(12))
        assert tree.get(11) == "x" * 120

    def test_oversized_split_fails_cleanly_and_atomically(self):
        """A value too big to share a page raises StorageError, not corruption.

        The failing insert must unwind completely: every previously committed
        entry survives (the committed state is checkpointed before the split),
        the size counter is rolled back, and reads and write-back agree.
        """
        pool = BufferPool(SimulatedDisk(page_size=512), capacity_pages=1)
        tree = KVStore(pool, "tiny-pool", order=64)
        for key in range(3):
            tree.put(key, "x" * 100)
        with pytest.raises(StorageError, match="HeapFile"):
            tree.put(3, "y" * 400)
        assert len(tree) == 3
        assert [key for key, _ in tree.items()] == [0, 1, 2]
        assert tree.get(1) == "x" * 100

    def test_oversized_split_after_flush_leaves_no_split_brain(self):
        """After a flush, a failed split must not leave reads serving a
        mutated decoded node while the disk holds the committed bytes."""
        pool = BufferPool(SimulatedDisk(page_size=512), capacity_pages=4)
        tree = KVStore(pool, "flush-pool", order=64)
        for key in (5, 6, 7):
            tree.put(key, "x" * 100)
        pool.flush()
        with pytest.raises(StorageError, match="HeapFile"):
            tree.put(1, "y" * 400)
        assert [key for key, _ in tree.items()] == [5, 6, 7]
        pool.drop()  # force re-read from disk: views must agree
        assert [key for key, _ in tree.items()] == [5, 6, 7]
        assert len(tree) == 3


class TestIOBehaviour:
    def test_lookups_touch_pages_through_the_pool(self):
        pool = BufferPool(SimulatedDisk(page_size=4096), capacity_pages=128)
        tree = KVStore(pool, "io", order=8)
        for key in range(300):
            tree.put(key, key)
        before = pool.stats.accesses
        tree.get(123)
        assert pool.stats.accesses - before >= tree.tree.height()

    def test_persists_across_cache_drop(self):
        pool = BufferPool(SimulatedDisk(page_size=4096), capacity_pages=8)
        tree = KVStore(pool, "evict", order=8)
        for key in range(500):
            tree.put(key, key * 3)
        pool.drop()
        assert tree.get(250) == 750
        assert [key for key, _ in tree.items(low=495)] == [495, 496, 497, 498, 499]
