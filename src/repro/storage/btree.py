"""A paged B+-tree over byte-string keys and values.

The SVR paper keeps its Score, ListScore/ListChunk tables, short lists and
the Score method's clustered lists in BerkeleyDB B+-trees, which compare
keys as byte strings (``memcmp``).  This is the equivalent: an ordered
``bytes -> bytes`` map, one node per page, every node access charged
through the shared buffer pool.  Callers encode at their boundary
(:class:`~repro.storage.kvstore.KVStore` declares each store's codecs).

Node layout (all integers little-endian)::

    offset  size  field
    0       1     1 = leaf, 0 = internal
    1       2     entry count n
    3       4     leaf: next leaf page id (0xFFFFFFFF = none)
                  internal: the leftmost child page id
    7       n     key lengths, one byte each
    leaf:         [value lengths, two bytes each -- only when values vary]
                  the n keys back to back, then the n values back to back
                  (n * ``value_width`` bytes when values are fixed-width)
    internal:     n child page ids (4 bytes each), then the n separator keys

A node's encoded size is kept exactly while it is mutated, and it splits
when it holds more than ``order`` entries or passes the page capacity; a
leaf splits at its middle entry, checked to fit before anything changes.
Nodes are decoded once per pool residency (the frame's decoded-object slot,
:class:`~repro.storage.pager.Page`) and encoded when the page leaves the
pool; every access still goes through ``pool.get``/``pool.put``.  Deletes
do not rebalance.  Maintenance traversals (``size_bytes``, ``page_ids``,
``node_count``, ``height``) use the accounting-free ``peek`` path.
"""

from __future__ import annotations

import functools
import struct
from bisect import bisect_left, bisect_right
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator

from repro.errors import DuplicateKeyError, KeyNotFoundError, StorageError
from repro.storage.buffer_pool import BufferPool

#: On-disk format of a durable directory (``meta.pkl`` and the sharded
#: registry record it): 1 stored pickled B+-tree nodes, 2 stores the byte
#: layout above.  Opening another format raises ``FormatVersionError``.
FORMAT_VERSION = 2

_HEADER = struct.Struct("<BHI")
_NO_PAGE = 0xFFFFFFFF
#: Longest key (one length byte) and value (two length bytes).
_MAX_KEY, _MAX_VALUE = 0xFF, 0xFFFF


def default_order(page_size: int) -> int:
    """Maximum node fan-out for a page size (a cap on entries per node)."""
    return max(16, min(128, page_size // 16))


@functools.lru_cache(maxsize=512)
def _column(code: str, count: int) -> struct.Struct:
    """``count`` little-endian ints: ``"I"`` child ids, ``"H"`` value lengths."""
    return struct.Struct(f"<{count}{code}")


@functools.lru_cache(maxsize=None)
def _run_of(width: int) -> struct.Struct:
    """One run of ``width`` bytes (there are at most 256 widths)."""
    return struct.Struct(f"{width}s")


def _equal_runs(data: bytes, start: int, count: int, width: int) -> list[bytes]:
    """``count`` consecutive runs of ``width`` bytes from ``data[start:]``."""
    if not width:
        return [b""] * count
    return [run for (run,) in _run_of(width).iter_unpack(data[start:start + count * width])]


def _runs(data: bytes, start: int, lengths: bytes) -> list[bytes]:
    """The consecutive byte runs of ``lengths`` from ``data[start:]``."""
    if lengths and lengths.count(lengths[0]) == len(lengths):
        return _equal_runs(data, start, len(lengths), lengths[0])
    runs = []
    for length in lengths:
        runs.append(data[start:start + length])
        start += length
    return runs


class _Node:
    """A decoded node: sorted ``keys``, and ``values`` (leaf) or
    ``children`` (internal, one more than keys).  ``size`` is the exact
    encoded size."""

    __slots__ = ("page_id", "is_leaf", "keys", "values", "children", "next_leaf", "size")

    def __init__(self, page_id: int, is_leaf: bool) -> None:
        self.page_id = page_id
        self.is_leaf = is_leaf
        self.keys: list[bytes] = []
        self.values: list[bytes] = []
        self.children: list[int] = []
        self.next_leaf: "int | None" = None
        self.size = _HEADER.size


class BPlusTree:
    """An ordered ``bytes -> bytes`` map stored in pages behind a buffer pool.

    Parameters
    ----------
    buffer_pool:
        Shared buffer pool used for all node reads and writes.
    order:
        Maximum number of keys per node before it splits.
    name:
        Human-readable name used in error messages.
    value_width:
        The encoded size of every value when values are fixed-width (stored
        without a length prefix), ``None`` when they vary.
    """

    def __init__(self, buffer_pool: BufferPool, order: int | None = None,
                 name: str = "btree", value_width: "int | None" = None) -> None:
        if order is None:
            order = default_order(buffer_pool.disk.page_size)
        if order < 4:
            raise StorageError(f"B+-tree order must be at least 4, got {order}")
        self._setup(buffer_pool, order, name, value_width, size=0)
        root = self._new_node(is_leaf=True)
        self._root_id = root.page_id
        self._write_node(root)

    def _setup(self, pool: BufferPool, order: int, name: str,
               value_width: "int | None", size: int) -> None:
        self.pool = pool
        self.order = order
        self.name = name
        self.value_width = value_width
        self._size = size
        self._capacity = pool.disk.page_size

    # -- persistence ---------------------------------------------------------

    def state(self) -> dict:
        """The tree's non-page state, as stored in a durability catalog."""
        return {"order": self.order, "root_id": self._root_id, "size": self._size}

    @classmethod
    def attach(cls, buffer_pool: BufferPool, state: dict, name: str = "btree",
               value_width: "int | None" = None) -> "BPlusTree":
        """Rebuild a tree around existing pages (checkpoint/WAL recovery)."""
        tree = cls.__new__(cls)
        tree._setup(buffer_pool, state["order"], name, value_width, state["size"])
        tree._root_id = state["root_id"]
        return tree

    # -- point operations ------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    def __contains__(self, key: bytes) -> bool:
        return self.get(key, None) is not None

    def get(self, key: bytes, default=...):
        """The value under ``key``; ``default`` when absent (or raise)."""
        if self._size:  # an empty tree answers from its size, reading no page
            node = self._read_node(self._root_id)
            while not node.is_leaf:
                node = self._read_node(node.children[bisect_right(node.keys, key)])
            keys = node.keys
            index = bisect_left(keys, key)
            if index < len(keys) and keys[index] == key:
                return node.values[index]
        if default is not ...:
            return default
        raise KeyNotFoundError(f"{self.name}: key {key!r} not found")

    def insert(self, key: bytes, value: bytes, overwrite: bool = True) -> None:
        """Insert or update an entry (``overwrite=False``: a present key raises)."""
        path: list = []
        leaf = self._descend(path, key)[0]
        index = bisect_left(leaf.keys, key)
        present = index < len(leaf.keys) and leaf.keys[index] == key
        if present and not overwrite:
            raise DuplicateKeyError(f"{self.name}: duplicate key {key!r}")
        if present and len(value) == self.value_width:  # same size: in place
            leaf.values[index] = value
            self._write_node(leaf)
            return
        if not self._place(path, index, key, value, present):
            self._write_node(leaf)
        if not present:
            self._size += 1

    def delete(self, key: bytes) -> bytes:
        """Remove an entry and return its value (absent: raise)."""
        leaf = self._descend([], key)[0]
        index = bisect_left(leaf.keys, key)
        if index >= len(leaf.keys) or leaf.keys[index] != key:
            raise KeyNotFoundError(f"{self.name}: key {key!r} not found")
        value = self._remove(leaf, index)
        self._write_node(leaf)
        return value

    # -- bulk operations -------------------------------------------------------
    #
    # A bulk pass sorts its keys and keeps the root-to-leaf path as a stack of
    # ``(node, upper bound)``.  The next key pops only the levels whose range
    # it has left and descends from there, so consecutive keys share every
    # common ancestor: the pages read are those of one point operation per
    # key, with fewer pool hits.  Each leaf is written once per run of keys.

    def get_many(self, keys: "Iterable[bytes]") -> dict:
        """``{key: value}`` for the present ``keys``, in one sorted pass."""
        ordered = sorted(keys)
        return {key: value for key, value in zip(ordered, self.get_sorted(ordered))
                if value is not None}

    def get_sorted(self, keys: list) -> list:
        """The value of each of the ascending ``keys`` (``None`` when absent);
        each key of a leaf run bisects from where the previous one landed."""
        if not self._size:
            return [None] * len(keys)
        values: list = []
        append = values.append
        total = len(keys)
        path: list = []
        position = 0
        while position < total:
            leaf, upper = self._descend(path, keys[position])
            end = total if upper is None else bisect_left(keys, upper, position)
            leaf_keys, leaf_values = leaf.keys, leaf.values
            size = len(leaf_keys)
            index = 0
            for key in keys[position:end]:
                index = bisect_left(leaf_keys, key, index)
                append(leaf_values[index] if index < size and leaf_keys[index] == key
                       else None)
            position = end
        return values

    def insert_many(self, items: "Iterable[tuple[bytes, bytes]]",
                    overwrite: bool = True) -> int:
        """Insert a batch as if by :meth:`insert` in key order (a later
        duplicate wins; on a failure the entries before it stay committed).
        Returns the number of keys newly inserted."""
        entries = sorted(items, key=itemgetter(0))
        width = self.value_width
        if width is not None and any(len(value) != width for _key, value in entries):
            raise StorageError(f"{self.name}: every value must be {width} bytes")
        order, capacity = self.order, self._capacity
        inserted = 0
        path: list = []
        leaf = upper = pending = None  # pending: the leaf with unwritten entries
        try:
            for key, value in entries:
                if leaf is None or (upper is not None and key >= upper):
                    if pending is not None:
                        self._write_node(pending)
                        pending = None
                    leaf, upper = self._descend(path, key)
                keys = leaf.keys
                index = bisect_left(keys, key)
                present = index < len(keys) and keys[index] == key
                if present and not overwrite:
                    raise DuplicateKeyError(f"{self.name}: duplicate key {key!r}")
                split = False
                if width is None:
                    split = self._place(path, index, key, value, present)
                elif present:
                    leaf.values[index] = value
                else:
                    # The common case inline: a fixed-width entry that fits.
                    size = leaf.size + 1 + len(key) + width
                    if len(keys) < order and size <= capacity and len(key) <= _MAX_KEY:
                        keys.insert(index, key)
                        leaf.values.insert(index, value)
                        leaf.size = size
                    else:
                        split = self._place(path, index, key, value, present)
                if not present:
                    self._size += 1
                    inserted += 1
                if split:
                    path.clear()  # the split changed the path: re-descend
                    leaf = pending = None
                elif pending is None:
                    self._mark_dirty(leaf)
                    pending = leaf
        finally:
            if pending is not None:
                self._write_node(pending)
        return inserted

    def delete_many(self, keys: "Iterable[bytes]", ignore_missing: bool = False) -> int:
        """Delete a batch as if by :meth:`delete` in key order (duplicates
        delete once; with ``ignore_missing`` absent keys are skipped, else
        the first one raises after the deletions before it).  Returns the
        number of entries removed."""
        removed = 0
        path: list = []
        leaf = upper = pending = None
        try:
            for key in sorted(keys):
                if leaf is None or (upper is not None and key >= upper):
                    if pending is not None:
                        self._write_node(pending)
                        pending = None
                    leaf, upper = self._descend(path, key)
                index = bisect_left(leaf.keys, key)
                if index < len(leaf.keys) and leaf.keys[index] == key:
                    self._remove(leaf, index)
                    removed += 1
                    if pending is None:
                        self._mark_dirty(leaf)
                        pending = leaf
                elif not ignore_missing:
                    raise KeyNotFoundError(f"{self.name}: key {key!r} not found")
        finally:
            if pending is not None:
                self._write_node(pending)
        return removed

    # -- re-keying -------------------------------------------------------------

    def rekey_each(self, pairs: "Iterable[tuple[bytes, bytes]]", default: bytes) -> int:
        """Move each ``old`` key to ``new``, pair by pair: :meth:`delete` of
        ``old`` (skipped when absent), then :meth:`insert` of ``new`` with
        ``old``'s value (``default`` when ``old`` is absent).  Returns the
        number of ``old`` keys found.

        Both calls descend from the root; no path is held from one pair to
        the next, so the pages read, their order and the pool's recency
        order (and with it every later miss) are those of the per-key loop.
        """
        found = 0
        for old, new in pairs:
            try:
                value = self.delete(old)
                found += 1
            except KeyNotFoundError:
                value = default
            self.insert(new, value)
        return found

    # -- range scans -------------------------------------------------------------

    def items(self, low: "bytes | None" = None, high: "bytes | None" = None,
              inclusive: tuple[bool, bool] = (True, True),
              reverse: bool = False,
              decode: "Callable[[bytes, bytes], Any] | None" = None) -> Iterator:
        """``(key, value)`` pairs (or ``decode(key, value)``) in key order
        within ``[low, high]`` (``None``: unbounded).  Each leaf's run and
        successor are snapshotted when the leaf is reached, so the consumer
        may mutate the tree between yields and every key the scan found is
        still yielded; a reverse scan re-descends from the root per leaf (the
        chain is singly linked), so a split ahead of the cursor is found
        again."""
        if reverse:
            pairs = self._items_reverse(low, high, inclusive)
            return pairs if decode is None else (decode(*pair) for pair in pairs)
        return self._items_forward(low, high, inclusive, decode)

    def _items_forward(self, low, high, inclusive, decode) -> Iterator:
        include_low, include_high = inclusive
        node = self._read_node(self._root_id)
        while not node.is_leaf:
            index = 0 if low is None else bisect_right(node.keys, low)
            node = self._read_node(node.children[index])
        if low is None:
            start = 0
        else:
            start = (bisect_left if include_low else bisect_right)(node.keys, low)
        while True:
            keys, next_leaf = node.keys, node.next_leaf
            if high is None:
                end = len(keys)
            else:
                end = (bisect_right if include_high else bisect_left)(keys, high)
            # Decided before yielding: an insert into this leaf while the
            # consumer holds the scan must not end it early.
            more = next_leaf is not None and end == len(keys)
            run = keys[start:end], node.values[start:end]
            yield from (zip(*run) if decode is None else map(decode, *run))
            if not more:
                return
            node = self._read_node(next_leaf)
            start = 0

    def _items_reverse(self, low, high, inclusive) -> Iterator[tuple[bytes, bytes]]:
        include_low, include_high = inclusive
        bound, bound_inclusive = high, include_high
        while True:
            # Descend to the rightmost leaf that can hold keys below the
            # bound, remembering the greatest separator left of the path
            # (the next bound when that leaf turns out empty).
            node = self._read_node(self._root_id)
            range_low = None
            while not node.is_leaf:
                if bound is None:
                    index = len(node.keys)
                else:
                    index = (bisect_right if bound_inclusive else bisect_left)(node.keys, bound)
                if index > 0:
                    range_low = node.keys[index - 1]
                node = self._read_node(node.children[index])
            if bound is None:
                end = len(node.keys)
            else:
                end = (bisect_right if bound_inclusive else bisect_left)(node.keys, bound)
            if low is None:
                start = 0
            else:
                start = (bisect_left if include_low else bisect_right)(node.keys, low, 0, end)
            keys, values = node.keys[:end], node.values[:end]
            for index in range(end - 1, start - 1, -1):
                yield keys[index], values[index]
            if start > 0:
                return
            bound = keys[0] if keys else range_low
            bound_inclusive = False
            if bound is None or (low is not None and bound <= low):
                return

    # -- structure and maintenance -------------------------------------------------

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

    def _walk(self, read) -> Iterator[_Node]:
        stack = [self._root_id]
        while stack:
            node = read(stack.pop())
            yield node
            if not node.is_leaf:
                stack.extend(node.children)

    def node_count(self) -> int:
        """Total number of nodes reachable from the root."""
        return sum(1 for _node in self._walk(self._peek_node))

    def size_bytes(self) -> int:
        """Encoded size of every node, in bytes (accounting-free)."""
        return sum(node.size for node in self._walk(self._peek_node))

    def page_ids(self, accounted: bool = False) -> set[int]:
        """Page ids of the tree; ``accounted=True`` charges the walk, as the
        cold-cache methodology walks the tree before evicting it."""
        read = self._read_node if accounted else self._peek_node
        return {node.page_id for node in self._walk(read)}

    # -- node encoding -----------------------------------------------------------

    def _encode(self, node: _Node) -> bytes:
        keys, count = node.keys, len(node.keys)
        if not node.is_leaf:
            return b"".join((_HEADER.pack(0, count, node.children[0]), bytes(map(len, keys)),
                             _column("I", count).pack(*node.children[1:]), *keys))
        next_leaf = _NO_PAGE if node.next_leaf is None else node.next_leaf
        parts = [_HEADER.pack(1, count, next_leaf), bytes(map(len, keys))]
        if self.value_width is None:
            parts.append(_column("H", count).pack(*map(len, node.values)))
        return b"".join((*parts, *keys, *node.values))

    def _decode(self, page_id: int, data: bytes) -> _Node:
        if not data:
            return _Node(page_id, is_leaf=True)
        flag, count, link = _HEADER.unpack_from(data)
        node = _Node(page_id, is_leaf=bool(flag))
        node.size = len(data)
        pos = _HEADER.size + count
        key_lengths = data[_HEADER.size:pos]
        if not flag:
            node.children = [link, *_column("I", count).unpack_from(data, pos)]
            node.keys = _runs(data, pos + 4 * count, key_lengths)
            return node
        node.next_leaf = None if link == _NO_PAGE else link
        width = self.value_width
        if width is None:
            value_lengths = _column("H", count).unpack_from(data, pos)
            pos += 2 * count
        node.keys = _runs(data, pos, key_lengths)
        pos += sum(key_lengths)
        node.values = (_runs(data, pos, value_lengths) if width is None
                       else _equal_runs(data, pos, count, width))
        return node

    def _entry_cost(self, key: bytes, value: bytes) -> int:
        """Bytes one leaf entry adds (length bytes included)."""
        if self.value_width is None:
            return 3 + len(key) + len(value)
        return 1 + len(key) + len(value)

    # -- node access -------------------------------------------------------------

    def _new_node(self, is_leaf: bool) -> _Node:
        return _Node(self.pool.allocate().page_id, is_leaf)

    def _read_node(self, page_id: int) -> _Node:
        """Fetch a node through the buffer pool (charged), decoding at most
        once per residency."""
        page = self.pool.get(page_id)
        node = page.decoded
        if node is None:
            node = self._decode(page_id, page.data)
            page.attach_decoded(node, self._encode)
        return node

    def _peek_node(self, page_id: int) -> _Node:
        """Accounting-free node read for maintenance traversals."""
        page = self.pool.peek(page_id)
        return page.decoded if page.decoded is not None else self._decode(page_id, page.data)

    def _write_node(self, node: _Node) -> None:
        """Make ``node`` its page's authority; it is encoded on write-back."""
        page = self.pool.get(node.page_id)
        page.attach_decoded(node, self._encode, dirty=True)
        self.pool.put(page)

    def _mark_dirty(self, node: _Node) -> None:
        """Flag a resident node's frame dirty without charging a write, so an
        eviction inside a bulk run (a split's allocation) writes it back."""
        frame = self.pool.frame(node.page_id)
        if frame is not None and frame.decoded is node:
            frame.decoded_dirty = True
            frame.dirty = True

    def _descend(self, path: list, key: bytes) -> tuple:
        """Extend ``path``, a held root-to-leaf stack of ``(node, upper
        bound)`` (or empty), to the leaf holding ``key`` and return its
        entry: levels whose bound ``key`` reached are popped, and only the
        nodes below the deepest level kept are read (keys ascend)."""
        while path and path[-1][1] is not None and key >= path[-1][1]:
            path.pop()
        if not path:
            path.append((self._read_node(self._root_id), None))
        node, upper = path[-1]
        while not node.is_leaf:
            keys = node.keys
            index = bisect_right(keys, key)
            if index < len(keys):
                upper = keys[index]
            node = self._read_node(node.children[index])
            path.append((node, upper))
        return path[-1]

    # -- mutation ----------------------------------------------------------------

    def _remove(self, leaf: _Node, index: int) -> bytes:
        key = leaf.keys.pop(index)
        value = leaf.values.pop(index)
        leaf.size -= self._entry_cost(key, value)
        self._size -= 1
        return value

    def _place(self, path: list, index: int, key: bytes, value: bytes,
               present: bool) -> bool:
        """Put ``key -> value`` at ``index`` of the path's leaf: ``False``
        when it fit in place (the caller writes the leaf), ``True`` when the
        leaf split (written).  An entry that cannot fit raises first."""
        leaf = path[-1][0]
        if self.value_width is not None and len(value) != self.value_width:
            raise StorageError(f"{self.name}: value of {len(value)} bytes in a tree "
                               f"of {self.value_width}-byte values")
        if len(key) > _MAX_KEY:
            raise StorageError(f"{self.name}: a key of {len(key)} bytes is longer "
                               f"than {_MAX_KEY}")
        if len(value) > _MAX_VALUE:
            raise self._oversized(len(key) + len(value))
        if present:
            size = leaf.size + self._entry_cost(key, value) \
                - self._entry_cost(key, leaf.values[index])
            count = len(leaf.keys)
        else:
            size = leaf.size + self._entry_cost(key, value)
            count = len(leaf.keys) + 1
        if count <= self.order and size <= self._capacity:
            if present:
                leaf.values[index] = value
            else:
                leaf.keys.insert(index, key)
                leaf.values.insert(index, value)
            leaf.size = size
            return False
        if count < 2:
            raise self._oversized(size)
        keys, values = leaf.keys[:], leaf.values[:]
        if present:
            values[index] = value
        else:
            keys.insert(index, key)
            values.insert(index, value)
        middle = len(keys) // 2
        left = _HEADER.size + sum(map(self._entry_cost, keys[:middle], values[:middle]))
        right = size - left + _HEADER.size
        if max(left, right) > self._capacity:
            raise self._oversized(max(left, right))
        sibling = self._new_node(is_leaf=True)
        sibling.keys, sibling.values, sibling.size = keys[middle:], values[middle:], right
        leaf.keys, leaf.values, leaf.size = keys[:middle], values[:middle], left
        sibling.next_leaf, leaf.next_leaf = leaf.next_leaf, sibling.page_id
        self._write_node(leaf)
        self._write_node(sibling)
        self._add_separator([node for node, _upper in path[:-1]], keys[middle],
                            leaf.page_id, sibling.page_id)
        return True

    def _add_separator(self, ancestors: list, separator: bytes,
                       left_id: int, right_id: int) -> None:
        """Link a new right sibling into the parent, splitting upwards."""
        while ancestors:
            parent = ancestors.pop()
            index = bisect_right(parent.keys, separator)
            keys = parent.keys[:index] + [separator] + parent.keys[index:]
            children = parent.children[:index + 1] + [right_id] + parent.children[index + 1:]
            size = parent.size + 5 + len(separator)
            if len(keys) <= self.order and size <= self._capacity:
                parent.keys, parent.children, parent.size = keys, children, size
                self._write_node(parent)
                return
            middle = len(keys) // 2
            left = _HEADER.size + sum(5 + len(key) for key in keys[:middle])
            right = size - left - 5 - len(keys[middle]) + _HEADER.size
            if max(left, right) > self._capacity:
                raise self._oversized(max(left, right))
            sibling = self._new_node(is_leaf=False)
            separator = keys[middle]
            sibling.keys, sibling.children, sibling.size = (
                keys[middle + 1:], children[middle + 1:], right)
            parent.keys, parent.children, parent.size = (
                keys[:middle], children[:middle + 1], left)
            self._write_node(parent)
            self._write_node(sibling)
            left_id, right_id = parent.page_id, sibling.page_id
        root = self._new_node(is_leaf=False)
        root.keys, root.children = [separator], [left_id, right_id]
        root.size = _HEADER.size + 5 + len(separator)
        self._write_node(root)
        self._root_id = root.page_id

    def _oversized(self, size: int) -> StorageError:
        return StorageError(
            f"{self.name}: a node of {size} bytes exceeds the page size "
            f"({self._capacity} bytes); store large values in a HeapFile and "
            f"keep only references in the tree")
