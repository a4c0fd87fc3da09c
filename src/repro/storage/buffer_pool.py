"""LRU buffer pool over the simulated disk.

BerkeleyDB's cache is the component the paper tunes to 100 MB: the Score table
and short lists fit in it, the long inverted lists do not (queries start from a
cold cache).  This class reproduces that behaviour with an LRU page cache and
hit/miss/eviction accounting, plus the ability to flush or drop cached pages so
experiments can force a cold cache for the long lists only.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable

from repro.errors import BufferPoolError
from repro.storage.disk import SimulatedDisk
from repro.storage.pager import Page


@dataclass
class BufferPoolStats:
    """Counters for buffer-pool activity."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    dirty_writebacks: int = 0

    @property
    def accesses(self) -> int:
        """Total page requests served (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of requests served from the cache (0.0 when unused)."""
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses

    def snapshot(self) -> "BufferPoolStats":
        """Return an independent copy of the current counters."""
        return BufferPoolStats(
            hits=self.hits,
            misses=self.misses,
            evictions=self.evictions,
            dirty_writebacks=self.dirty_writebacks,
        )

    def diff(self, earlier: "BufferPoolStats") -> "BufferPoolStats":
        """Return the counter deltas since ``earlier``."""
        return BufferPoolStats(
            hits=self.hits - earlier.hits,
            misses=self.misses - earlier.misses,
            evictions=self.evictions - earlier.evictions,
            dirty_writebacks=self.dirty_writebacks - earlier.dirty_writebacks,
        )

    def reset(self) -> None:
        """Zero all counters."""
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.dirty_writebacks = 0

    @classmethod
    def sum_of(cls, stats: "Iterable[BufferPoolStats]") -> "BufferPoolStats":
        """Per-category sum of several counter sets (sharded-pool aggregation).

        Each underlying pool charges every access to exactly one counter set,
        so summing the categories is the aggregate fingerprint — nothing is
        double-counted and nothing is lost.
        """
        total = cls()
        for item in stats:
            total.hits += item.hits
            total.misses += item.misses
            total.evictions += item.evictions
            total.dirty_writebacks += item.dirty_writebacks
        return total


class BufferPool:
    """A page cache in front of a :class:`SimulatedDisk`.

    Parameters
    ----------
    disk:
        Backing simulated disk.
    capacity_pages:
        Maximum number of pages kept in memory.  Must be at least 1.
    """

    def __init__(self, disk: SimulatedDisk, capacity_pages: int = 1024) -> None:
        if capacity_pages < 1:
            raise BufferPoolError(
                f"buffer pool capacity must be at least one page, got {capacity_pages}"
            )
        self.disk = disk
        self.capacity_pages = capacity_pages
        self.stats = BufferPoolStats()
        self._frames: OrderedDict[int, Page] = OrderedDict()

    # -- basic operations --------------------------------------------------

    def get(self, page_id: int) -> Page:
        """Fetch a page, reading it from disk on a miss."""
        frame = self._frames.get(page_id)
        if frame is not None:
            self.stats.hits += 1
            self._frames.move_to_end(page_id)
            return frame
        self.stats.misses += 1
        page = self.disk.read(page_id)
        self._admit(page)
        return page

    def put(self, page: Page) -> None:
        """Install a (possibly dirty) page into the pool."""
        page.dirty = True
        existing = page.page_id in self._frames
        self._frames[page.page_id] = page
        self._frames.move_to_end(page.page_id)
        if not existing:
            self._evict_if_needed()

    def allocate(self) -> Page:
        """Allocate a new page on disk and cache it."""
        page_id = self.disk.allocate()
        page = Page(page_id=page_id, capacity=self.disk.page_size)
        self._admit(page)
        return page

    def flush(self) -> None:
        """Write back every dirty cached page without dropping it."""
        for page in list(self._frames.values()):
            if page.dirty:
                self.disk.write(page)
                page.dirty = False
                self.stats.dirty_writebacks += 1

    def flush_page(self, page_id: int) -> None:
        """Write back a single page if it is cached and dirty."""
        page = self.frame(page_id)
        if page is not None and page.dirty:
            self.disk.write(page)
            page.dirty = False
            self.stats.dirty_writebacks += 1

    def drop(self, page_ids: "set[int] | None" = None) -> None:
        """Evict cached pages (flushing dirty ones first).

        With ``page_ids=None`` the whole cache is dropped — this is how
        experiments establish a cold cache before timing a query, mirroring the
        paper's cold-cache query methodology.
        """
        frames = self._frames
        if page_ids is None:
            targets = list(frames)
        elif len(page_ids) <= len(frames):
            targets = [pid for pid in page_ids if pid in frames]
        else:
            # The cold-cache drop before every query names every page of the
            # long-list heap file, most of them not resident: walk the frames
            # instead.  Dirty pages are written back in ``page_ids`` order,
            # exactly as the walk over the ids would, so disk writes (and a
            # file backend's WAL) see the same sequence.
            targets = [pid for pid in frames if pid in page_ids]
            dirty = {pid for pid in targets if frames[pid].dirty}
            if len(dirty) > 1:
                targets = ([pid for pid in page_ids if pid in dirty]
                           + [pid for pid in targets if pid not in dirty])
        for page_id in targets:
            self.flush_page(page_id)
            frames.pop(page_id, None)

    def peek(self, page_id: int) -> Page:
        """Accounting-free page access for maintenance traversals.

        Returns the cached frame when resident (without touching hit counters
        or LRU order) and otherwise reads the disk copy without charging disk
        statistics or admitting the page.  Statistics reporting and cache-drop
        bookkeeping use this path so that *measuring* the storage never changes
        what the measured workload would have read.
        """
        frame = self.frame(page_id)
        if frame is not None:
            return frame
        return self.disk.peek(page_id)

    def frame(self, page_id: int) -> "Page | None":
        """The resident frame for a page, or ``None`` — no accounting, no LRU.

        Used by the B+-tree's split path to manage a frame's decoded slot
        in place (see ``BPlusTree._split``); regular reads go through
        :meth:`get`.
        """
        return self._frames.get(page_id)

    def contains(self, page_id: int) -> bool:
        """Whether the page is currently cached (does not update LRU order)."""
        return page_id in self._frames

    def hit_rate(self) -> float:
        """Lifetime fraction of requests served from the cache (0.0 when unused).

        The adaptive batch-window sizing in the experiment runner reads this
        (or a windowed delta of the same counters) to decide whether the
        working set of a batch still fits the cache.
        """
        return self.stats.hit_rate

    @property
    def cached_pages(self) -> int:
        """Number of pages currently resident."""
        return len(self._frames)

    # -- internals ----------------------------------------------------------

    def _admit(self, page: Page) -> None:
        self._frames[page.page_id] = page
        self._frames.move_to_end(page.page_id)
        self._evict_if_needed()

    def _evict_if_needed(self) -> None:
        while len(self._frames) > self.capacity_pages:
            _victim_id, victim = self._frames.popitem(last=False)
            if victim.dirty:
                self.disk.write(victim)
                self.stats.dirty_writebacks += 1
            self.stats.evictions += 1
