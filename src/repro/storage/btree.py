"""A paged B+-tree with decode-once node caching.

The SVR paper implements the Score table, ListScore/ListChunk tables, short
inverted lists and the (clustered) Score-method long list as BerkeleyDB
B+-trees.  This module provides the equivalent: an ordered map whose nodes are
serialised into pages and fetched through the shared buffer pool, so every
lookup, insert and range scan is charged the same way BerkeleyDB would charge
it.

Keys may be any totally ordered, picklable Python values (ints, floats,
strings, or tuples thereof).  Values must be picklable and small relative to
the page size; large payloads belong in a :class:`~repro.storage.heap_file.HeapFile`.

Deletions remove entries but do not rebalance nodes; empty leaves are unlinked
from their parents.  This matches the reproduction's needs (the paper never
relies on delete-heavy B+-tree behaviour) while keeping iteration order and
lookup semantics exact.

Performance model
-----------------
Page *accounting* (buffer-pool hits/misses, disk reads/writes) is the quantity
the paper's arguments are about; interpreter-level serialisation cost is not.
Nodes are therefore decoded **once per buffer-pool residency**: the decoded
node rides in the frame's decoded-object slot (:class:`~repro.storage.pager.Page`)
and is serialised back only when the page leaves the pool (eviction or flush).
Every node access still goes through ``pool.get``/``pool.put`` exactly as
before, so the I/O counters are bit-for-bit identical to an engine that
pickles on every access.  Split decisions use an incrementally maintained
upper bound of the serialized node size and fall back to exact serialisation
only when the bound crosses the split threshold, which keeps the split
sequence — and therefore the page layout — identical as well.

Maintenance traversals (``size_bytes``, ``page_ids``, ``node_count``,
``height``) read nodes through the buffer pool's accounting-free ``peek``
path: reporting on the tree does not perturb LRU order or hit-rate statistics.
"""

from __future__ import annotations

import pickle
from bisect import bisect_left, bisect_right
from typing import Any, Callable, Iterable, Iterator

from repro.errors import DuplicateKeyError, KeyNotFoundError, StorageError
from repro.storage.buffer_pool import BufferPool

#: Bytes of page capacity kept free when deciding whether a node must split.
#: The slack absorbs the serialisation growth of the parent insert that a
#: split itself causes; both the split check and the write-size guard derive
#: from the same page capacity so a node can never pass the split check yet
#: fail to serialise into its page.
NODE_SPLIT_SLACK = 64

#: Conservative per-entry overhead (list APPEND opcodes, memo bookkeeping)
#: added on top of the standalone pickle size of a key/value when maintaining
#: the incremental serialized-size upper bound.  Standalone ``pickle.dumps``
#: already overstates an entry's in-node cost by the protocol header/frame
#: (~13 bytes), so this only needs to cover pathological opcode differences.
_ENTRY_SLOP = 8

_PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL


def split_threshold(page_size: int) -> int:
    """Serialized node size above which the node must split."""
    return page_size - NODE_SPLIT_SLACK


def default_order(page_size: int) -> int:
    """Maximum node fan-out for a page size.

    Nodes split primarily when their *serialized size* approaches the page
    capacity (see :meth:`BPlusTree._needs_split`), so this value is only an
    upper bound on the entry count; it keeps binary searches over a node cheap.
    """
    return max(16, min(128, page_size // 16))


def _pickled_size(obj: Any) -> int:
    return len(pickle.dumps(obj, protocol=_PICKLE_PROTOCOL))


class _Node:
    """In-memory representation of a B+-tree node (leaf or internal).

    ``_ser_size``/``_ser_slop`` maintain the serialized-size upper bound:
    ``_ser_size`` is the exact pickled size the last time the node was
    (de)serialised (``None`` when unknown, e.g. right after a split sliced the
    entry lists) and ``_ser_slop`` accumulates conservative per-mutation byte
    bounds since then.  ``estimated_size()`` therefore never under-reports the
    true serialized size, which is what makes the lazy split check exact.
    """

    __slots__ = ("page_id", "is_leaf", "keys", "values", "children", "next_leaf",
                 "_ser_size", "_ser_slop")

    def __init__(
        self,
        page_id: int,
        is_leaf: bool,
        keys: list[Any] | None = None,
        values: list[Any] | None = None,
        children: list[int] | None = None,
        next_leaf: int | None = None,
    ) -> None:
        self.page_id = page_id
        self.is_leaf = is_leaf
        self.keys = keys if keys is not None else []
        self.values = values if values is not None else []
        self.children = children if children is not None else []
        self.next_leaf = next_leaf
        self._ser_size: int | None = None
        self._ser_slop = 0

    def to_bytes(self) -> bytes:
        payload = (self.is_leaf, self.keys, self.values, self.children, self.next_leaf)
        data = pickle.dumps(payload, protocol=_PICKLE_PROTOCOL)
        self._ser_size = len(data)
        self._ser_slop = 0
        return data

    @classmethod
    def from_bytes(cls, page_id: int, data: bytes) -> "_Node":
        is_leaf, keys, values, children, next_leaf = pickle.loads(data)
        node = cls(page_id, is_leaf, keys, values, children, next_leaf)
        node._ser_size = len(data)
        return node

    # -- serialized-size bookkeeping ----------------------------------------

    def estimated_size(self) -> int | None:
        """Upper bound of the serialized size, or ``None`` when unknown."""
        if self._ser_size is None:
            return None
        return self._ser_size + self._ser_slop

    def size_is_exact(self) -> bool:
        """Whether :meth:`estimated_size` currently equals the true size."""
        return self._ser_size is not None and self._ser_slop == 0

    def invalidate_size(self) -> None:
        self._ser_size = None
        self._ser_slop = 0

    def note_bytes(self, upper_bound: int) -> None:
        """Record a mutation's serialized-size contribution in the bound."""
        if self._ser_size is not None:
            self._ser_slop += upper_bound

    def note_separator(self, key: Any) -> None:
        """Record an inserted internal separator + child pointer in the bound."""
        if self._ser_size is not None:
            # A child page id is an int; 16 bytes covers any realistic pickle.
            self._ser_slop += _pickled_size(key) + 16 + _ENTRY_SLOP


def _encode_node(node: _Node) -> bytes:
    return node.to_bytes()


#: Sentinel distinguishing "no separator on the descent path" from a genuine
#: ``None`` key (reverse iteration's fallback bound must not collide with it).
_NO_SEPARATOR = object()

#: Default that marks "absent" in membership probes.
_MISSING = object()


class BPlusTree:
    """An ordered map stored in pages and accessed through a buffer pool.

    Parameters
    ----------
    buffer_pool:
        Shared buffer pool used for all node reads and writes.
    order:
        Maximum number of keys per node before it splits.
    name:
        Optional human-readable name used in error messages and statistics.
    unique:
        When true (the default), inserting an existing key overwrites its
        value; :meth:`insert` with ``overwrite=False`` raises
        :class:`~repro.errors.DuplicateKeyError` instead.
    """

    def __init__(
        self,
        buffer_pool: BufferPool,
        order: int | None = None,
        name: str = "btree",
        unique: bool = True,
    ) -> None:
        if order is None:
            order = default_order(buffer_pool.disk.page_size)
        if order < 4:
            raise StorageError(f"B+-tree order must be at least 4, got {order}")
        self.pool = buffer_pool
        self.order = order
        self.name = name
        self.unique = unique
        self._size = 0
        self._split_threshold = split_threshold(buffer_pool.disk.page_size)
        root = self._new_node(is_leaf=True)
        self._root_id = root.page_id
        self._write_node(root)

    # -- persistence ---------------------------------------------------------

    def state(self) -> dict:
        """The tree's non-page state, as stored in a durability catalog.

        Everything else a tree is lives in its pages; this dict plus the page
        contents is enough for :meth:`attach` to rebuild an equivalent tree.
        """
        return {
            "order": self.order,
            "unique": self.unique,
            "root_id": self._root_id,
            "size": self._size,
        }

    @classmethod
    def attach(cls, buffer_pool: BufferPool, state: dict,
               name: str = "btree") -> "BPlusTree":
        """Rebuild a tree around existing pages (checkpoint/WAL recovery).

        Unlike the constructor, no root page is allocated — the tree adopts
        the root recorded in ``state`` and reads its nodes from the buffer
        pool on demand.
        """
        tree = cls.__new__(cls)
        tree.pool = buffer_pool
        tree.order = state["order"]
        tree.name = name
        tree.unique = state["unique"]
        tree._size = state["size"]
        tree._split_threshold = split_threshold(buffer_pool.disk.page_size)
        tree._root_id = state["root_id"]
        return tree

    # -- public API ----------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    def __contains__(self, key: Any) -> bool:
        # A sentinel default, not a caught KeyNotFoundError: membership
        # probes (deleted flags) mostly miss, and a miss must not pay for
        # formatting an exception message.
        return self.get(key, _MISSING) is not _MISSING

    def get(self, key: Any, default: Any = ...) -> Any:
        """Return the value stored under ``key``.

        Raises :class:`~repro.errors.KeyNotFoundError` when the key is absent
        and no ``default`` was supplied.
        """
        leaf = self._find_leaf(key)
        idx = bisect_left(leaf.keys, key)
        if idx < len(leaf.keys) and leaf.keys[idx] == key:
            return leaf.values[idx]
        if default is not ...:
            return default
        raise KeyNotFoundError(f"{self.name}: key {key!r} not found")

    def get_many(self, keys: "Iterable[Any]") -> dict:
        """Bulk lookup: sort the keys and descend once per leaf run.

        The read-side twin of :meth:`insert_many`: consecutive keys that land
        in the same leaf share one root-to-leaf descent, so the pages read are
        exactly those ``[get(k) for k in keys]`` would read, with fewer pool
        hits.  Returns ``{key: value}`` for the keys that are present.
        """
        found: dict = {}
        sorted_keys = sorted(keys)
        position = 0
        total = len(sorted_keys)
        while position < total:
            path, upper = self._bounded_path_to_leaf(sorted_keys[position])
            leaf_keys = path[-1].keys
            leaf_values = path[-1].values
            size = len(leaf_keys)
            # The run ends at the first key that belongs to a leaf further right.
            end = (total if upper is _NO_SEPARATOR
                   else bisect_left(sorted_keys, upper, position))
            idx = 0
            for key in sorted_keys[position:end]:
                idx = bisect_left(leaf_keys, key, idx)
                if idx < size and leaf_keys[idx] == key:
                    found[key] = leaf_values[idx]
            position = end
        return found

    def insert(self, key: Any, value: Any, overwrite: bool = True) -> None:
        """Insert or update an entry.

        With ``overwrite=False`` an existing key raises
        :class:`~repro.errors.DuplicateKeyError`.
        """
        path = self._path_to_leaf(key)
        leaf = path[-1]
        idx = bisect_left(leaf.keys, key)
        if idx < len(leaf.keys) and leaf.keys[idx] == key:
            if not overwrite:
                raise DuplicateKeyError(f"{self.name}: duplicate key {key!r}")
            value, value_size = self._normalize(value)
            old_value = leaf.values[idx]
            leaf.values[idx] = value
            leaf.note_bytes(value_size + _ENTRY_SLOP)
            if self._needs_split(leaf):
                self._checkpoint_committed(leaf, idx, restore=old_value)
                try:
                    self._split(path)
                except StorageError:
                    leaf.values[idx] = old_value
                    self._reset_frame(leaf)
                    raise
            else:
                try:
                    self._write_node(leaf)
                except StorageError:
                    leaf.values[idx] = old_value
                    raise
            return
        key, key_size = self._normalize(key)
        value, value_size = self._normalize(value)
        leaf.keys.insert(idx, key)
        leaf.values.insert(idx, value)
        leaf.note_bytes(key_size + value_size + _ENTRY_SLOP)
        self._size += 1
        if self._needs_split(leaf):
            self._checkpoint_committed(leaf, idx)
            try:
                self._split(path)
            except StorageError:
                self._size -= 1
                self._reset_frame(leaf)
                raise
        else:
            try:
                self._write_node(leaf)
            except StorageError:
                del leaf.keys[idx]
                del leaf.values[idx]
                self._size -= 1
                raise

    def delete(self, key: Any) -> Any:
        """Remove an entry and return its value.

        Raises :class:`~repro.errors.KeyNotFoundError` when the key is absent.
        """
        path = self._path_to_leaf(key)
        leaf = path[-1]
        idx = bisect_left(leaf.keys, key)
        if idx >= len(leaf.keys) or leaf.keys[idx] != key:
            raise KeyNotFoundError(f"{self.name}: key {key!r} not found")
        value = leaf.values.pop(idx)
        leaf.keys.pop(idx)
        self._size -= 1
        self._write_node(leaf)
        return value

    def insert_many(self, items: "Iterable[tuple[Any, Any]]",
                    overwrite: bool = True) -> int:
        """Bulk insert: sort the entries and descend once per leaf run.

        Equivalent to calling :meth:`insert` for every ``(key, value)`` pair in
        key order, but all consecutive keys that land in the same leaf share a
        single root-to-leaf descent and a single leaf write, so a batch of n
        keys spread over m leaves charges O(m * height) accounted page reads
        instead of O(n * height).  Split decisions are made after every entry
        through the same incremental size bound as :meth:`insert`, so the split
        sequence — and therefore the page layout — is identical to inserting
        the sorted batch one key at a time.

        Duplicate keys *within* the batch follow sequential semantics: the
        later entry wins (or raises with ``overwrite=False``).  On a failure
        (duplicate key, oversized value) every entry before the failing one is
        already committed, exactly as a sequential loop would leave the tree.

        Returns the number of keys that were newly inserted (overwrites of
        existing keys are not counted).
        """
        entries = []
        for key, value in items:
            key, key_size = self._normalize(key)
            value, value_size = self._normalize(value)
            entries.append((key, value, key_size, value_size))
        # Sort on the key alone (values may not be comparable); the sort is
        # stable, so within-batch duplicates keep their sequential order.
        entries.sort(key=lambda entry: entry[0])
        inserted = 0
        position = 0
        total = len(entries)
        while position < total:
            path, upper = self._bounded_path_to_leaf(entries[position][0])
            leaf = path[-1]
            run_dirty = False
            while position < total:
                key, value, key_size, value_size = entries[position]
                if upper is not _NO_SEPARATOR and not key < upper:
                    break  # the key belongs to a leaf further right
                idx = bisect_left(leaf.keys, key)
                is_overwrite = idx < len(leaf.keys) and leaf.keys[idx] == key
                if is_overwrite:
                    if not overwrite:
                        if run_dirty:
                            self._write_node(leaf)
                        raise DuplicateKeyError(
                            f"{self.name}: duplicate key {key!r}"
                        )
                    old_value = leaf.values[idx]
                    leaf.values[idx] = value
                    leaf.note_bytes(value_size + _ENTRY_SLOP)
                else:
                    old_value = ...
                    leaf.keys.insert(idx, key)
                    leaf.values.insert(idx, value)
                    leaf.note_bytes(key_size + value_size + _ENTRY_SLOP)
                    self._size += 1
                    inserted += 1
                # Keep the frame's decoded slot marked dirty so write-back and
                # the split checkpoint see the run's entries (accounting-free
                # flag sync; the charged leaf write happens once per run).
                self._mark_decoded_dirty(leaf)
                position += 1
                if self._needs_split(leaf):
                    restore = ... if old_value is ... else old_value
                    self._checkpoint_committed(leaf, idx, restore=restore)
                    try:
                        self._split(path)
                    except StorageError:
                        if old_value is ...:
                            self._size -= 1
                            inserted -= 1
                        else:
                            leaf.values[idx] = old_value
                        self._reset_frame(leaf)
                        raise
                    run_dirty = False
                    break  # the path is stale after a split; re-descend
                try:
                    # The same write guard a sequential insert applies: an
                    # entry too big for a leaf that cannot split (e.g. fewer
                    # than two keys) must fail here, at this entry, unwinding
                    # only itself while the run's earlier entries commit.
                    self._ensure_fits(leaf)
                except StorageError:
                    if old_value is ...:
                        del leaf.keys[idx]
                        del leaf.values[idx]
                        self._size -= 1
                        inserted -= 1
                    else:
                        leaf.values[idx] = old_value
                    if run_dirty:
                        self._write_node(leaf)
                    raise
                run_dirty = True
            if run_dirty:
                self._write_node(leaf)
        return inserted

    def delete_many(self, keys: "Iterable[Any]",
                    ignore_missing: bool = False) -> int:
        """Bulk delete: sort the keys and descend once per leaf run.

        Equivalent to calling :meth:`delete` (or, with ``ignore_missing=True``,
        a delete-if-present) for every key in sorted order, but consecutive
        keys living in the same leaf share one descent and one leaf write.
        Duplicate keys in the batch delete the entry once; with
        ``ignore_missing=False`` the second occurrence raises.  On a missing
        key every deletion before it is already committed, exactly as a
        sequential loop would leave the tree.

        Returns the number of entries removed.
        """
        sorted_keys = sorted(keys)
        removed = 0
        position = 0
        total = len(sorted_keys)
        while position < total:
            path, upper = self._bounded_path_to_leaf(sorted_keys[position])
            leaf = path[-1]
            run_dirty = False
            while position < total:
                key = sorted_keys[position]
                if upper is not _NO_SEPARATOR and not key < upper:
                    break
                idx = bisect_left(leaf.keys, key)
                if idx < len(leaf.keys) and leaf.keys[idx] == key:
                    leaf.keys.pop(idx)
                    leaf.values.pop(idx)
                    self._size -= 1
                    removed += 1
                    self._mark_decoded_dirty(leaf)
                    run_dirty = True
                elif not ignore_missing:
                    if run_dirty:
                        self._write_node(leaf)
                    raise KeyNotFoundError(f"{self.name}: key {key!r} not found")
                position += 1
            if run_dirty:
                self._write_node(leaf)
        return removed

    def items(
        self,
        low: Any = None,
        high: Any = None,
        inclusive: tuple[bool, bool] = (True, True),
        reverse: bool = False,
    ) -> Iterator[tuple[Any, Any]]:
        """Iterate over ``(key, value)`` pairs in key order.

        ``low``/``high`` bound the range (``None`` means unbounded); the
        ``inclusive`` flags control whether each bound is included.  Reverse
        iteration walks leaves right-to-left through per-level descent (the
        leaf chain is singly linked), so it reads only the leaves the consumer
        actually drains instead of materialising the whole range.
        """
        if reverse:
            return self._range_items_reverse(low, high, inclusive)
        return self._range_items(low, high, inclusive)

    def keys(self) -> Iterator[Any]:
        """Iterate over keys in ascending order."""
        for key, _value in self.items():
            yield key

    def values(self) -> Iterator[Any]:
        """Iterate over values in ascending key order."""
        for _key, value in self.items():
            yield value

    def first(self) -> tuple[Any, Any]:
        """Return the smallest ``(key, value)`` pair."""
        for pair in self.items():
            return pair
        raise KeyNotFoundError(f"{self.name}: tree is empty")

    def last(self) -> tuple[Any, Any]:
        """Return the largest ``(key, value)`` pair (O(height), not a scan)."""
        for pair in self.items(reverse=True):
            return pair
        raise KeyNotFoundError(f"{self.name}: tree is empty")

    def update_value(self, key: Any, fn: Callable[[Any], Any]) -> Any:
        """Apply ``fn`` to the value stored under ``key`` and store the result."""
        leaf = self._find_leaf(key)
        idx = bisect_left(leaf.keys, key)
        if idx >= len(leaf.keys) or leaf.keys[idx] != key:
            raise KeyNotFoundError(f"{self.name}: key {key!r} not found")
        old_value = leaf.values[idx]
        new_value, value_size = self._normalize(fn(old_value))
        leaf.values[idx] = new_value
        leaf.note_bytes(value_size + _ENTRY_SLOP)
        try:
            self._write_node(leaf)
        except StorageError:
            leaf.values[idx] = old_value
            raise
        return new_value

    def clear(self) -> None:
        """Remove every entry (allocates a fresh root leaf)."""
        root = self._new_node(is_leaf=True)
        self._root_id = root.page_id
        self._write_node(root)
        self._size = 0

    def height(self) -> int:
        """Number of levels from root to leaf (1 for a single-leaf tree)."""
        levels = 1
        node = self._peek_node(self._root_id)
        while not node.is_leaf:
            node = self._peek_node(node.children[0])
            levels += 1
        return levels

    def node_count(self) -> int:
        """Total number of nodes reachable from the root."""
        count = 0
        stack = [self._root_id]
        while stack:
            node = self._peek_node(stack.pop())
            count += 1
            if not node.is_leaf:
                stack.extend(node.children)
        return count

    def size_bytes(self) -> int:
        """Serialized size of every node, in bytes (accounting-free)."""
        total = 0
        stack = [self._root_id]
        while stack:
            node = self._peek_node(stack.pop())
            total += len(node.to_bytes())
            if not node.is_leaf:
                stack.extend(node.children)
        return total

    def page_ids(self, accounted: bool = False) -> set[int]:
        """Set of page ids used by this tree (for targeted cache drops).

        By default the traversal is accounting-free: enumerating pages for
        reporting must not perturb hit-rate statistics or LRU order.  With
        ``accounted=True`` every node is fetched through the charging path —
        the cold-cache methodology of the experiments walks the tree exactly
        like BerkeleyDB would before evicting it, and removing those charges
        would change the access-cursor state the measured workload starts
        from.
        """
        read = self._read_node if accounted else self._peek_node
        ids: set[int] = set()
        stack = [self._root_id]
        while stack:
            page_id = stack.pop()
            ids.add(page_id)
            node = read(page_id)
            if not node.is_leaf:
                stack.extend(node.children)
        return ids

    # -- internals -------------------------------------------------------------

    @staticmethod
    def _normalize(obj: Any) -> tuple[Any, int]:
        """Round-trip an object through pickle; return ``(copy, pickled_size)``.

        Stored keys and values are kept as a serialisation round-trip would
        produce them, for two reasons.  First, it makes the stored entry
        independent of the caller's object (callers may mutate or reuse
        objects after the insert).  Second, it keeps the node's serialized
        size identical to an engine that re-decodes the page on every access:
        a long-lived decoded node would otherwise accumulate *shared* object
        identities across entries (e.g. one interned operation-marker string
        used by thousands of values), which pickle's memo encodes as
        back-references — silently shrinking the serialized node and shifting
        split points relative to the decode-per-access layout.  The pickled
        size doubles as the entry's contribution to the node size bound.
        """
        data = pickle.dumps(obj, protocol=_PICKLE_PROTOCOL)
        return pickle.loads(data), len(data)

    def _new_node(self, is_leaf: bool) -> _Node:
        page = self.pool.allocate()
        return _Node(page_id=page.page_id, is_leaf=is_leaf)

    def _read_node(self, page_id: int) -> _Node:
        """Fetch a node through the buffer pool, decoding at most once.

        The decoded node is cached in the frame's decoded slot; repeat
        accesses while the page stays resident return the same object without
        touching pickle.  The ``pool.get`` call charges hit/miss accounting
        exactly as a decode-every-time engine would.
        """
        page = self.pool.get(page_id)
        node = page.decoded
        if node is not None:
            return node
        if not page.data:
            node = _Node(page_id=page_id, is_leaf=True)
        else:
            node = _Node.from_bytes(page_id, page.data)
        page.attach_decoded(node, _encode_node)
        return node

    def _peek_node(self, page_id: int) -> _Node:
        """Accounting-free node read for maintenance traversals."""
        page = self.pool.peek(page_id)
        node = page.decoded
        if node is not None:
            return node
        if not page.data:
            return _Node(page_id=page_id, is_leaf=True)
        return _Node.from_bytes(page_id, page.data)

    def _write_node(self, node: _Node) -> None:
        """Mark a node dirty in its frame; serialisation happens on write-back.

        The node is serialised here only when its size bound says it might no
        longer fit in a page — in which case the exact size is computed and an
        oversized node raises before any state is published, exactly like the
        eager-serialisation engine did.
        """
        page = self.pool.get(node.page_id)
        self._ensure_fits(node)
        page.attach_decoded(node, _encode_node, dirty=True)
        self.pool.put(page)

    def _ensure_fits(self, node: _Node) -> None:
        """Raise unless the node's serialized form fits in a page.

        Serialises only when the size bound says it might not fit, so the hot
        path stays serialisation-free.
        """
        capacity = self.pool.disk.page_size
        estimate = node.estimated_size()
        if estimate is None or estimate > capacity:
            payload_size = len(node.to_bytes())
            if payload_size > capacity:
                # Nodes are split on entry count; a payload larger than a page
                # means individual values are too big for a B+-tree leaf.
                raise StorageError(
                    f"{self.name}: serialized node ({payload_size} bytes) exceeds the "
                    f"page size ({capacity} bytes); store large values in a "
                    f"HeapFile and keep only references in the tree"
                )

    def _find_leaf(self, key: Any) -> _Node:
        node = self._read_node(self._root_id)
        while not node.is_leaf:
            idx = bisect_right(node.keys, key)
            node = self._read_node(node.children[idx])
        return node

    def _path_to_leaf(self, key: Any) -> list[_Node]:
        path = [self._read_node(self._root_id)]
        while not path[-1].is_leaf:
            node = path[-1]
            idx = bisect_right(node.keys, key)
            path.append(self._read_node(node.children[idx]))
        return path

    def _bounded_path_to_leaf(self, key: Any) -> tuple[list[_Node], Any]:
        """Root-to-leaf path plus the leaf's exclusive upper bound.

        The bound is the nearest separator to the right of the descent path
        (the deepest one is the tightest), or :data:`_NO_SEPARATOR` when the
        descent stays on the rightmost spine.  Every key strictly below the
        bound belongs to the returned leaf, which is what lets the bulk
        operations consume a sorted run without re-descending per key.
        """
        path = [self._read_node(self._root_id)]
        upper: Any = _NO_SEPARATOR
        while not path[-1].is_leaf:
            node = path[-1]
            idx = bisect_right(node.keys, key)
            if idx < len(node.keys):
                upper = node.keys[idx]
            path.append(self._read_node(node.children[idx]))
        return path, upper

    def _mark_decoded_dirty(self, node: _Node) -> None:
        """Flag a resident node dirty without charging a write.

        Bulk runs mutate the decoded node several times before the single
        charged leaf write; flagging the frame keeps eviction write-back and
        the split checkpoint coherent in between.  The page-level dirty flag
        must be raised too: a sequential insert marks it on every ``put``, and
        without it a flush between batches could skip writing back committed
        run entries that a failed split checkpointed into the frame's bytes.
        Like the split path's frame management, this is bookkeeping on an
        already-resident frame, not a page access.
        """
        frame = self.pool.frame(node.page_id)
        if frame is not None and frame.decoded is node:
            frame.decoded_dirty = True
            frame.dirty = True

    def _needs_split(self, node: _Node) -> bool:
        """Whether a node must split before being written to its page.

        A node splits when it exceeds the fan-out cap or when its serialized
        form would no longer fit comfortably in one page (the real constraint:
        nodes are stored one per page, so density is driven by entry size).
        The incremental size bound avoids serialising the node on every
        insert: only when the bound crosses the threshold is the exact size
        computed, so the split decisions are identical to checking
        ``len(node.to_bytes())`` every time.
        """
        if len(node.keys) > self.order:
            return True
        if len(node.keys) < 2:
            return False
        limit = self._split_threshold
        estimate = node.estimated_size()
        if estimate is not None:
            if estimate <= limit:
                return False
            if node.size_is_exact():
                return True
        return len(node.to_bytes()) > limit

    def _checkpoint_committed(self, leaf: _Node, idx: int,
                              restore: Any = ...) -> None:
        """Materialize the leaf's *committed* state before a risky split.

        The pending mutation at ``idx`` (a fresh entry, or an overwrite whose
        old value is ``restore``) is temporarily undone so the frame's bytes
        capture exactly the state before this operation.  If the split then
        fails — or the frame gets evicted mid-split — write-back and
        re-decoding fall back to those bytes, so every previously committed
        entry survives and only the failing operation is lost.  Splits are
        rare, so the extra serialisation does not affect the hot path.
        """
        frame = self.pool.frame(leaf.page_id)
        if frame is None or frame.decoded is not leaf or not frame.decoded_dirty:
            # The frame bytes (or the disk copy) already hold committed state.
            return
        if restore is ...:
            pending_key = leaf.keys.pop(idx)
            pending_value = leaf.values.pop(idx)
        else:
            pending_value = leaf.values[idx]
            leaf.values[idx] = restore
        try:
            frame.materialize()
        finally:
            if restore is ...:
                leaf.keys.insert(idx, pending_key)
                leaf.values.insert(idx, pending_value)
            else:
                leaf.values[idx] = pending_value
        frame.decoded_dirty = True
        # materialize() refreshed the size bookkeeping for the committed
        # state; the re-applied mutation makes it unknown again.
        leaf.invalidate_size()

    def _reset_frame(self, leaf: _Node) -> None:
        """Drop a leaf's decoded slot after a failed split.

        Subsequent reads re-decode the frame's (checkpointed, committed)
        bytes, so the resident view and the write-back view cannot diverge.
        A failure after the first split iteration of a cascading split still
        leaves modified ancestors as-is — the same partial-split corruption
        the eager-serialisation engine produced on this path.
        """
        frame = self.pool.frame(leaf.page_id)
        if frame is not None and frame.decoded is leaf:
            frame.decoded = None
            frame.decoded_dirty = False
            frame.encoder = None

    def _quiesce_frame(self, node: _Node) -> None:
        """Detach a dirty decoded node from its frame before splitting it.

        The node about to split may no longer fit in a page; if its frame is
        evicted while the split allocates sibling pages, write-back would try
        to serialise the overfull node and fail.  Detaching reverts the frame
        to its last materialized bytes (a consistent pre-operation state); the
        split re-attaches the node, post-split and fitting, via
        ``_write_node`` before anything else reads the page.
        """
        frame = self.pool.frame(node.page_id)
        if frame is not None and frame.decoded is node and frame.decoded_dirty:
            frame.decoded = None
            frame.decoded_dirty = False
            frame.encoder = None

    def _split(self, path: list[_Node]) -> None:
        node = path[-1]
        while self._needs_split(node):
            self._quiesce_frame(node)
            mid = len(node.keys) // 2
            if node.is_leaf:
                sibling = self._new_node(is_leaf=True)
                sibling.keys = node.keys[mid:]
                sibling.values = node.values[mid:]
                node.keys = node.keys[:mid]
                node.values = node.values[:mid]
                sibling.next_leaf = node.next_leaf
                node.next_leaf = sibling.page_id
                separator = sibling.keys[0]
            else:
                sibling = self._new_node(is_leaf=False)
                separator = node.keys[mid]
                sibling.keys = node.keys[mid + 1:]
                sibling.children = node.children[mid + 1:]
                node.keys = node.keys[:mid]
                node.children = node.children[:mid + 1]
            node.invalidate_size()
            # Validate both halves before publishing either, so an oversized
            # half (a single value too big to share a page) aborts the split
            # without persisting a partial result.
            self._ensure_fits(node)
            self._ensure_fits(sibling)
            self._write_node(node)
            self._write_node(sibling)

            if len(path) == 1:
                new_root = self._new_node(is_leaf=False)
                new_root.keys = [separator]
                new_root.children = [node.page_id, sibling.page_id]
                self._write_node(new_root)
                self._root_id = new_root.page_id
                return
            parent = path[-2]
            idx = bisect_right(parent.keys, separator)
            parent.keys.insert(idx, separator)
            parent.children.insert(idx + 1, sibling.page_id)
            parent.note_separator(separator)
            self._write_node(parent)
            path = path[:-1]
            node = parent

    def _range_items(
        self,
        low: Any,
        high: Any,
        inclusive: tuple[bool, bool],
    ) -> Iterator[tuple[Any, Any]]:
        include_low, include_high = inclusive
        if low is None:
            node = self._read_node(self._root_id)
            while not node.is_leaf:
                node = self._read_node(node.children[0])
            start = 0
        else:
            node = self._find_leaf(low)
            start = bisect_left(node.keys, low)
            if start < len(node.keys) and node.keys[start] == low and not include_low:
                start += 1
        while node is not None:
            # Snapshot the leaf's entries and successor: cached nodes are
            # shared objects, and a consumer that mutates the tree
            # mid-iteration must keep seeing the leaf as it was when the scan
            # reached it (the semantics the decode-per-access engine provided
            # for free).  next_leaf in particular must not be re-read after
            # yielding — a split under the cursor would point it at a fresh
            # sibling full of already-yielded entries.
            keys = node.keys[start:]
            values = node.values[start:]
            next_leaf = node.next_leaf
            for idx, key in enumerate(keys):
                if high is not None:
                    if key > high or (key == high and not include_high):
                        return
                yield key, values[idx]
            node = self._read_node(next_leaf) if next_leaf is not None else None
            start = 0

    def _range_items_reverse(
        self,
        low: Any,
        high: Any,
        inclusive: tuple[bool, bool],
    ) -> Iterator[tuple[Any, Any]]:
        """Iterate ``(key, value)`` pairs in descending key order.

        The leaf chain is singly linked, so each predecessor step re-descends
        from the root with a strictly tightening upper bound — O(height)
        charged reads per leaf the consumer actually drains, never the whole
        range.  Re-descending (rather than keeping a descent stack) makes the
        walk immune to mutations between yields: a leaf that splits ahead of
        the cursor is found again through the current root, so committed keys
        can neither be skipped nor repeated — yielded keys strictly decrease.
        """
        include_low, include_high = inclusive
        bound = high
        bound_inclusive = include_high
        while True:
            # Descend to the rightmost leaf whose range can contain keys
            # below the bound, remembering the greatest separator left of the
            # path (the fallback bound when the leaf turns out empty).
            node = self._read_node(self._root_id)
            range_low: Any = _NO_SEPARATOR
            while not node.is_leaf:
                if bound is None:
                    idx = len(node.children) - 1
                elif bound_inclusive:
                    idx = bisect_right(node.keys, bound)
                else:
                    idx = bisect_left(node.keys, bound)
                if idx > 0:
                    range_low = node.keys[idx - 1]
                node = self._read_node(node.children[idx])
            if bound is None:
                end = len(node.keys)
            else:
                end = bisect_left(node.keys, bound)
                if (bound_inclusive and end < len(node.keys)
                        and node.keys[end] == bound):
                    end += 1
            keys = node.keys[:end]
            values = node.values[:end]
            for idx in range(end - 1, -1, -1):
                key = keys[idx]
                if low is not None and (key < low or (key == low and not include_low)):
                    return
                yield key, values[idx]
            if keys:
                bound = keys[0]
            elif range_low is not _NO_SEPARATOR:
                bound = range_low
            else:
                return  # the leftmost subtree is exhausted
            bound_inclusive = False
            if low is not None and not low < bound:
                # Every remaining key is < bound <= low: out of range.
                return
