"""BerkeleyDB-flavoured key-value facade over a B+-tree.

The relational layer and the index implementations mostly need an ordered
key-value store with cursors (the BerkeleyDB API the paper's implementation
used).  :class:`KVStore` wraps a :class:`~repro.storage.btree.BPlusTree` with
``put``/``get``/``delete``/``cursor`` methods and duplicate-key support via
composite keys, which is how the short inverted lists (term -> postings) are
laid out.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.errors import KeyNotFoundError, StoreClosedError
from repro.storage.btree import BPlusTree
from repro.storage.buffer_pool import BufferPool


class _KeyUpperBound:
    """Sentinel that compares greater than every ordinary key component.

    Appending it to a tuple prefix produces the exclusive upper bound of the
    prefix range: every tuple key starting with the prefix compares smaller,
    every key past the prefix compares greater, so a prefix scan can be handed
    to the B+-tree as a bounded range and stop reading leaves at the range end
    instead of filtering past it client-side.
    """

    __slots__ = ()

    def __lt__(self, other: Any) -> bool:
        return False

    def __le__(self, other: Any) -> bool:
        return isinstance(other, _KeyUpperBound)

    def __gt__(self, other: Any) -> bool:
        return not isinstance(other, _KeyUpperBound)

    def __ge__(self, other: Any) -> bool:
        return True

    def __eq__(self, other: Any) -> bool:
        return isinstance(other, _KeyUpperBound)

    def __hash__(self) -> int:
        return 0x5EB1

    def __repr__(self) -> str:
        return "<key upper bound>"


#: Singleton upper-bound sentinel used by :meth:`KVStore.prefix_items`.
KEY_UPPER_BOUND = _KeyUpperBound()


class Cursor:
    """Forward iterator over a key range of a :class:`KVStore`.

    ``iterator`` may be supplied instead of a store to wrap an arbitrary
    pre-built ``(key, value)`` stream in the cursor protocol — the sharded
    facade uses this to expose a key-ordered merge of several stores.
    """

    def __init__(
        self,
        store: "KVStore | None" = None,
        low: Any = None,
        high: Any = None,
        inclusive: tuple[bool, bool] = (True, True),
        iterator: "Iterator[tuple[Any, Any]] | None" = None,
    ) -> None:
        if iterator is None:
            if store is None:
                raise TypeError("Cursor needs a store or an iterator")
            iterator = store.tree.items(low=low, high=high, inclusive=inclusive)
        self._iterator = iterator
        self._current: tuple[Any, Any] | None = None
        self._exhausted = False

    def next(self) -> tuple[Any, Any] | None:
        """Advance and return the next ``(key, value)`` pair, or ``None``."""
        if self._exhausted:
            return None
        try:
            self._current = next(self._iterator)
        except StopIteration:
            self._current = None
            self._exhausted = True
        return self._current

    @property
    def current(self) -> tuple[Any, Any] | None:
        """The pair returned by the last successful :meth:`next` call."""
        return self._current

    def __iter__(self) -> Iterator[tuple[Any, Any]]:
        while True:
            pair = self.next()
            if pair is None:
                return
            yield pair


class KVStore:
    """An ordered key-value store with BerkeleyDB-style semantics.

    Parameters
    ----------
    buffer_pool:
        Buffer pool shared with the rest of the storage environment.
    name:
        Store name (used in error messages and the environment catalogue).
    order:
        B+-tree fan-out; derived from the page size when omitted.
    """

    def __init__(self, buffer_pool: BufferPool, name: str, order: int | None = None) -> None:
        self.name = name
        self.tree = BPlusTree(buffer_pool, order=order, name=name)
        self._closed = False

    # -- persistence ---------------------------------------------------------

    def state(self) -> dict:
        """The store's non-page state for a durability catalog."""
        return self.tree.state()

    @classmethod
    def attach(cls, buffer_pool: BufferPool, name: str, state: dict) -> "KVStore":
        """Rebuild a store around an existing tree (checkpoint/WAL recovery)."""
        store = cls.__new__(cls)
        store.name = name
        store.tree = BPlusTree.attach(buffer_pool, state, name=name)
        store._closed = False
        return store

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Mark the store closed; further operations raise ``StoreClosedError``."""
        self._closed = True

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise StoreClosedError(f"store {self.name!r} is closed")

    # -- point operations ------------------------------------------------------

    def put(self, key: Any, value: Any) -> None:
        """Insert or overwrite ``key``."""
        self._check_open()
        self.tree.insert(key, value, overwrite=True)

    def get(self, key: Any, default: Any = ...) -> Any:
        """Return the value under ``key`` (or ``default`` if supplied)."""
        self._check_open()
        return self.tree.get(key, default=default)

    def get_many(self, keys: "Iterable[Any]") -> dict:
        """``{key: value}`` for the present ``keys``, one descent per leaf run
        (see :meth:`~repro.storage.btree.BPlusTree.get_many`)."""
        self._check_open()
        return self.tree.get_many(keys)

    def delete(self, key: Any) -> Any:
        """Delete ``key`` and return its old value."""
        self._check_open()
        return self.tree.delete(key)

    def delete_if_present(self, key: Any) -> bool:
        """Delete ``key`` if it exists; return whether a deletion happened."""
        self._check_open()
        try:
            self.tree.delete(key)
        except KeyNotFoundError:
            return False
        return True

    # -- bulk operations -------------------------------------------------------

    def put_many(self, items: "Iterable[tuple[Any, Any]]") -> int:
        """Insert or overwrite a batch of entries through one sorted bulk pass.

        Consecutive keys that land in the same B+-tree leaf share a single
        descent and leaf write (see
        :meth:`~repro.storage.btree.BPlusTree.insert_many`).  Returns the
        number of keys that were newly inserted.
        """
        self._check_open()
        return self.tree.insert_many(items, overwrite=True)

    def delete_many(self, keys: "Iterable[Any]",
                    ignore_missing: bool = False) -> int:
        """Delete a batch of keys through one sorted bulk pass.

        With ``ignore_missing=True`` absent keys are skipped (the bulk
        equivalent of :meth:`delete_if_present`); otherwise the first missing
        key raises after the deletions before it have been applied.  Returns
        the number of entries removed.
        """
        self._check_open()
        return self.tree.delete_many(keys, ignore_missing=ignore_missing)

    def contains(self, key: Any) -> bool:
        """Whether ``key`` is present."""
        self._check_open()
        return key in self.tree

    def __contains__(self, key: Any) -> bool:
        return self.contains(key)

    def __len__(self) -> int:
        return len(self.tree)

    # -- range operations --------------------------------------------------------

    def cursor(
        self,
        low: Any = None,
        high: Any = None,
        inclusive: tuple[bool, bool] = (True, True),
    ) -> Cursor:
        """Open a forward cursor over ``[low, high]``."""
        self._check_open()
        return Cursor(self, low=low, high=high, inclusive=inclusive)

    def items(self, low: Any = None, high: Any = None) -> Iterator[tuple[Any, Any]]:
        """Iterate ``(key, value)`` pairs over ``[low, high]`` in key order."""
        self._check_open()
        return self.tree.items(low=low, high=high)

    def prefix_items(self, prefix: Any) -> Iterator[tuple[Any, Any]]:
        """Iterate pairs whose (tuple) key starts with ``prefix``.

        Keys must be tuples; ``prefix`` is matched against the first
        ``len(prefix)`` components.  This is the duplicate-key idiom used for
        short inverted lists, whose keys are ``(term, doc_id)``.

        The scan runs as a bounded range ``[prefix, prefix + (MAX,))`` so the
        underlying tree stops reading leaves at the end of the prefix range
        rather than scanning on and discarding keys client-side.
        """
        self._check_open()
        prefix = tuple(prefix)
        high = prefix + (KEY_UPPER_BOUND,)
        return self.tree.items(low=prefix, high=high, inclusive=(True, False))

    # -- statistics ----------------------------------------------------------------

    def size_bytes(self) -> int:
        """Serialized size of the underlying tree."""
        self._check_open()
        return self.tree.size_bytes()

    def page_ids(self, accounted: bool = False) -> set[int]:
        """Page ids owned by the underlying tree.

        ``accounted=True`` charges the traversal like a normal read sequence
        (see :meth:`~repro.storage.btree.BPlusTree.page_ids`).
        """
        self._check_open()
        return self.tree.page_ids(accounted=accounted)
