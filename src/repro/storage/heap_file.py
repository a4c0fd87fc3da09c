"""Append-only heap file for immutable binary objects.

The paper stores each long inverted list "as a binary object in the database
since they are never updated; they were read in a page at a time during query
processing" (§5.2).  A :class:`HeapFile` reproduces that layout: a write splits
a byte string across freshly allocated pages and returns a
:class:`SegmentHandle`; reads stream the segment back one page at a time so
that long scans are charged one buffer-pool access per page and early
termination saves the remaining pages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import StorageError
from repro.storage.buffer_pool import BufferPool
from repro.storage.pager import split_into_pages


@dataclass(frozen=True)
class SegmentHandle:
    """Reference to an immutable byte segment stored in a heap file.

    Attributes
    ----------
    segment_id:
        Identifier assigned by the owning :class:`HeapFile`.
    page_ids:
        The (contiguous, in allocation order) pages holding the payload.
    length:
        Payload length in bytes.
    """

    segment_id: int
    page_ids: tuple[int, ...]
    length: int

    @property
    def page_count(self) -> int:
        """Number of pages the segment occupies."""
        return len(self.page_ids)


@dataclass
class HeapFile:
    """A collection of immutable byte segments backed by the buffer pool.

    Parameters
    ----------
    pool:
        Buffer pool through which all page I/O flows.
    name:
        Human-readable name used in error messages and statistics.
    """

    pool: BufferPool
    name: str = "heap"
    _segments: dict[int, SegmentHandle] = field(default_factory=dict)
    _next_segment_id: int = 0
    # Lazily built, incrementally maintained page-id set; ``page_ids()`` is on
    # the cold-cache query path (drop_from_cache before every timed query) and
    # rebuilding it from every handle dominated the macro benchmark.
    _page_id_cache: "set[int] | None" = field(default=None, repr=False, compare=False)
    #: Bumped by every write and delete: a durable environment commits the
    #: segment table only when this moved since its last durable record.
    version: int = field(default=0, repr=False, compare=False)

    # -- persistence ---------------------------------------------------------

    def state(self) -> dict:
        """The heap file's non-page state for a durability catalog."""
        return {
            "segments": {
                segment_id: (handle.page_ids, handle.length)
                for segment_id, handle in self._segments.items()
            },
            "next_segment_id": self._next_segment_id,
        }

    @classmethod
    def attach(cls, pool: BufferPool, name: str, state: dict) -> "HeapFile":
        """Rebuild a heap file around existing pages (checkpoint/WAL recovery)."""
        segments = {
            segment_id: SegmentHandle(
                segment_id=segment_id, page_ids=tuple(page_ids), length=length
            )
            for segment_id, (page_ids, length) in state["segments"].items()
        }
        return cls(pool, name=name, _segments=segments,
                   _next_segment_id=state["next_segment_id"])

    def write(self, payload: bytes, key: object = None) -> SegmentHandle:
        """Store ``payload`` as a new immutable segment and return its handle.

        ``key`` is a routing hint accepted for signature compatibility with
        :class:`~repro.storage.sharding.ShardedHeapFile` (one heap file is one
        shard, so it is ignored here).
        """
        del key
        fragments = split_into_pages(payload, self.pool.disk.page_size)
        page_ids: list[int] = []
        for fragment in fragments:
            page = self.pool.allocate()
            page.write(fragment)
            self.pool.put(page)
            page_ids.append(page.page_id)
        handle = SegmentHandle(
            segment_id=self._next_segment_id,
            page_ids=tuple(page_ids),
            length=len(payload),
        )
        self._segments[handle.segment_id] = handle
        self._next_segment_id += 1
        self.version += 1
        if self._page_id_cache is not None:
            self._page_id_cache.update(page_ids)
        return handle

    def read(self, handle: SegmentHandle) -> bytes:
        """Read an entire segment back as one byte string."""
        return b"".join(self.iter_pages(handle))

    def iter_pages(self, handle: SegmentHandle) -> Iterator[bytes]:
        """Yield the segment payload one page-sized fragment at a time.

        This is the access path used by query processing over long inverted
        lists: a consumer that stops early never touches the remaining pages.
        """
        self._check_handle(handle)
        remaining = handle.length
        for page_id in handle.page_ids:
            page = self.pool.get(page_id)
            fragment = page.data
            if remaining < len(fragment):
                fragment = fragment[:remaining]
            remaining -= len(fragment)
            yield fragment

    def peek_pages(self, handle: SegmentHandle) -> Iterator[bytes]:
        """Accounting-free counterpart of :meth:`iter_pages`.

        Streams the segment through :meth:`BufferPool.peek` — no hit counters,
        no LRU movement, no disk-read charges, no admission.  This is the read
        path of maintenance layers that must not perturb the measured workload
        (the hot-term list cache fill, directory-served length estimates).
        """
        self._check_handle(handle)
        remaining = handle.length
        for page_id in handle.page_ids:
            page = self.pool.peek(page_id)
            fragment = page.data
            if remaining < len(fragment):
                fragment = fragment[:remaining]
            remaining -= len(fragment)
            yield fragment

    def delete(self, handle: SegmentHandle) -> None:
        """Drop a segment and free its pages."""
        self._check_handle(handle)
        for page_id in handle.page_ids:
            self.pool.drop({page_id})
            self.pool.disk.free(page_id)
        del self._segments[handle.segment_id]
        self.version += 1
        if self._page_id_cache is not None:
            self._page_id_cache.difference_update(handle.page_ids)

    def get(self, segment_id: int) -> SegmentHandle:
        """Look up a segment handle by id."""
        handle = self._segments.get(segment_id)
        if handle is None:
            raise StorageError(f"{self.name}: unknown segment {segment_id}")
        return handle

    def page_ids(self) -> set[int]:
        """All page ids currently owned by this heap file."""
        if self._page_id_cache is None:
            ids: set[int] = set()
            for handle in self._segments.values():
                ids.update(handle.page_ids)
            self._page_id_cache = ids
        return self._page_id_cache

    def drop_from_cache(self) -> None:
        """Evict every page of this heap file from the buffer pool.

        Used to establish the paper's cold-cache condition for long inverted
        lists before timing a query.
        """
        self.pool.drop(self.page_ids())

    @property
    def segment_count(self) -> int:
        """Number of live segments."""
        return len(self._segments)

    def total_bytes(self) -> int:
        """Total payload bytes across all live segments."""
        return sum(handle.length for handle in self._segments.values())

    def total_pages(self) -> int:
        """Total pages across all live segments."""
        return sum(handle.page_count for handle in self._segments.values())

    def _check_handle(self, handle: SegmentHandle) -> None:
        stored = self._segments.get(handle.segment_id)
        if stored is None or stored.page_ids != handle.page_ids:
            raise StorageError(
                f"{self.name}: segment {handle.segment_id} is unknown or stale"
            )
