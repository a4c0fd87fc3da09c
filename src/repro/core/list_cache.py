"""Hot-term decoded-postings cache above the buffer pool.

Long inverted lists are immutable binary objects; a query over a hot term
re-reads and re-decodes the same segment every time.  The
:class:`InvertedListCache` keeps the *decoded* posting tuples of the hottest
terms in memory, keyed by ``(shard, segment_id)``, so a repeat scan skips both
the page reads and the codec entirely.

The cache sits strictly *above* the buffer pool and is invisible to it:

* **fills read through the peek path** (:meth:`HeapFile.peek_pages` →
  :meth:`BufferPool.peek`) — no hit counters, no LRU movement, no disk-read
  charges, no admission.  Whether the cache is on or off, the buffer pool
  sees exactly the same access sequence, which is what keeps the fig7/table1
  I/O fingerprints byte-identical with the cache disabled and the
  accounting self-consistent with it enabled.
* **capacity is a byte budget** carved out of ``cache_pages`` at router
  build time (``list_cache_pages`` pages × page size), accounted by the
  encoded segment length — the decoded tuples cost more RAM than that, but
  the encoded length is the stable, workload-independent proxy the budget
  split is expressed in.
* **correctness is segment-based**: writes never touch a long list (they go
  to the Score table and the short/delta lists) and segment ids are never
  reused, so an entry can never be stale.  A write only forgets the memoised
  scores of its documents (:meth:`InvertedListCache.forget_scores`); shard
  quarantine and ``reopen_shard`` drop that shard's entries and the memo.

Entries are LRU-evicted once the budget is exceeded; a single list larger
than the whole budget is never admitted (the scan falls back to the charged
page path).
"""

from __future__ import annotations

import os
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Hashable, Iterable

from repro.errors import InvertedIndexError


def list_cache_pages_from_environ() -> int:
    """Process-wide default hot-term cache budget (``REPRO_LIST_CACHE_PAGES``).

    The value is a page count carved out of the buffer pool's ``cache_pages``
    at router build time; ``0`` (the default) disables the cache, which is
    the fidelity configuration the fig7/table1 fingerprints are pinned to.
    """
    value = os.environ.get("REPRO_LIST_CACHE_PAGES", "0").strip()
    try:
        pages = int(value)
    except ValueError:
        raise InvertedIndexError(
            f"REPRO_LIST_CACHE_PAGES: expected a page count, got {value!r}"
        ) from None
    if pages < 0:
        raise InvertedIndexError(
            f"REPRO_LIST_CACHE_PAGES: page count must be >= 0, got {pages}"
        )
    return pages


@dataclass
class ListCacheStats:
    """Hit/miss/eviction counters (observability; not part of query stats)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    #: Shard-level drops (quarantine, ``reopen_shard``); writes drop nothing.
    invalidations: int = 0


@dataclass
class InvertedListCache:
    """LRU cache of decoded long-list postings, capped by a byte budget.

    Keys are ``(shard, segment_id)`` pairs (``shard`` is ``None`` on
    unsharded environments); values are the fully decoded posting tuples of
    one long list, charged against the budget at the *encoded* segment length.
    """

    #: Memo size past which new live-score lookups are not memoised (a batch
    #: below it is admitted whole).  Writes forget only their own documents,
    #: so the memo lives as long as the cache; the cap keeps a corpus larger
    #: than this from growing the dict without bound.
    SCORE_MEMO_LIMIT = 1 << 20

    budget_bytes: int
    used_bytes: int = 0
    stats: ListCacheStats = field(default_factory=ListCacheStats)
    _entries: "OrderedDict[Hashable, tuple[int, list]]" = field(
        default_factory=OrderedDict, repr=False
    )
    #: ``doc_id -> live score`` (``None`` = deleted/absent) memo for the
    #: query-time Score-table lookups.  A write calls :meth:`forget_scores`
    #: on its documents before it writes the Score or deleted table.  Only
    #: consulted when the cache is enabled, so the cache-off fidelity path
    #: never sees it.
    scores: "dict[int, float | None]" = field(default_factory=dict, repr=False)
    #: Optional :class:`~repro.obs.metrics.MetricsRegistry` (duck-typed)
    #: attached by the router.  The local :class:`ListCacheStats` counters are
    #: per-instance and lock-free (fine on the single-writer paths); the
    #: registry aggregates the same events *race-free* and per shard, which
    #: is what dashboards read.
    metrics: "object | None" = field(default=None, repr=False, compare=False)

    def _note(self, name: str, shard: "int | None") -> None:
        metrics = self.metrics
        if metrics is not None:
            if shard is None:
                metrics.inc(name)
            else:
                metrics.inc(name, shard=shard)

    def get(self, shard: "int | None", key: Hashable) -> "list | None":
        """The cached postings for ``(shard, key)``, or ``None`` on a miss."""
        entry = self._entries.get((shard, key))
        if entry is None:
            self.stats.misses += 1
            self._note("list_cache.misses", shard)
            return None
        self._entries.move_to_end((shard, key))
        self.stats.hits += 1
        self._note("list_cache.hits", shard)
        return entry[1]

    def peek(self, shard: "int | None", key: Hashable) -> bool:
        """Whether ``(shard, key)`` is cached, without observing the lookup.

        EXPLAIN's cache-status probe: unlike :meth:`get` it touches neither
        the hit/miss counters nor the LRU order, so describing a plan leaves
        the cache exactly as it found it.
        """
        return (shard, key) in self._entries

    def put(self, shard: "int | None", key: Hashable, postings: list,
            nbytes: int) -> bool:
        """Admit ``postings`` charged at ``nbytes``; ``False`` if over budget."""
        if nbytes > self.budget_bytes:
            return False
        old = self._entries.pop((shard, key), None)
        if old is not None:
            self.used_bytes -= old[0]
        self._entries[shard, key] = (nbytes, postings)
        self.used_bytes += nbytes
        while self.used_bytes > self.budget_bytes:
            evicted_key, (evicted_bytes, _postings) = self._entries.popitem(last=False)
            self.used_bytes -= evicted_bytes
            self.stats.evictions += 1
            self._note("list_cache.evictions", evicted_key[0])
        return True

    def forget_scores(self, doc_ids: "Iterable[int]") -> None:
        """Drop the memoised scores of ``doc_ids`` (they are being written)."""
        for doc_id in doc_ids:
            self.scores.pop(doc_id, None)

    def invalidate_shard(self, shard: "int | None") -> None:
        """Drop the entries of one shard (quarantine / ``reopen_shard``)."""
        stale = [key for key in self._entries if key[0] == shard]
        if stale or self.scores:
            self.stats.invalidations += 1
        for key in stale:
            nbytes, _postings = self._entries.pop(key)
            self.used_bytes -= nbytes
        # Scores are not shard-partitioned from the index's point of view,
        # so a shard-level event conservatively drops the whole memo.
        self.scores.clear()

    def __len__(self) -> int:
        return len(self._entries)
