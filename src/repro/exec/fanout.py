"""Block-prefetching stream pumps for parallel query fan-out.

A query's per-term scan is a lazy iterator whose every step touches the
owning shard's buffer pool.  Under the single-writer executor model that
iterator must only ever advance on the shard's executor thread, while the
query's k-way merge runs on the coordinating (client) thread.

:class:`StreamPump` bridges the two: the scan iterator is *created and
advanced exclusively on the shard executor*, in blocks of ``block_size``
postings (whole chunk fragments for the Chunk methods, counted by the
postings they carry), and the pump exposes a plain iterator to the merge.
Each delivered block immediately schedules the next one, so the executor
decodes ahead while the coordinator merges (double buffering).  Early
termination simply stops pulling: at most one speculative block per term is
wasted, which bounds the over-scan a parallel query can perform beyond the
serial engine's stopping point.
"""

from __future__ import annotations

import threading
from itertools import islice
from typing import Any, Callable, Iterator, Sequence

from repro.exec.executor import ExecutorPool, ShardFuture
from repro.obs.trace import span

#: Default cap on postings materialized per executor round trip.  Blocks
#: start small and double per pull (see ``StreamPump``), so short
#: early-terminating scans decode little past their stopping point while
#: long full scans still amortize the mailbox hop.
DEFAULT_BLOCK_SIZE = 512

#: First-block size: what a top-k scan typically needs before stopping.
INITIAL_BLOCK_SIZE = 32


class StreamPump:
    """Iterate a shard-owned stream from another thread, block at a time.

    Parameters
    ----------
    pool:
        Executor pool; the pump degenerates to plain inline iteration when the
        pool is not parallel.
    shard:
        Shard whose executor must advance the stream.
    plan:
        Zero-argument callable building the stream iterator.  It is invoked on
        the executor (stream *construction* may already read storage).
    latch:
        Optional lock held while the executor advances the stream, so brief
        point reads from coordinator threads (score lookups during the merge)
        serialize against block decoding on the same shard.
    block_size:
        Maximum postings per block.  Pulls start at ``initial_block`` and
        double per round trip: early-terminating scans (the whole point of
        the paper's methods) waste at most one small speculative block, while
        full scans quickly reach the cap and amortize the executor hop.
    initial_block:
        First-pull size.
    label:
        Optional stream label (the owning term) recorded on the pump's
        ``shard.scan``/``scan.block`` spans, so slow-query trees and
        EXPLAIN ANALYZE traces attribute scan time per term.
    postings_of:
        Postings one stream item carries, for streams whose items bundle
        several (chunk fragments); ``None`` means one per item.  Blocks are
        sized in postings, so a fragment stream does not read further ahead
        of the merge's stopping point than a posting stream.
    """

    def __init__(self, pool: ExecutorPool, shard: int,
                 plan: Callable[[], Iterator[Any]],
                 latch: "threading.RLock | None" = None,
                 block_size: int = DEFAULT_BLOCK_SIZE,
                 initial_block: int = INITIAL_BLOCK_SIZE,
                 label: "str | None" = None,
                 postings_of: "Callable[[Any], int] | None" = None) -> None:
        self._pool = pool
        self._shard = shard
        self._plan = plan
        self._latch = latch
        self._label = label
        self._max_block = max(1, int(block_size))
        self._next_block = min(max(1, int(initial_block)), self._max_block)
        self._postings_of = postings_of
        self._stream: Iterator[Any] | None = None
        self._more = True
        self._pending: "ShardFuture | Callable[[], list] | None" = (
            self._dispatch(self._open_and_pull)
        )
        self._closed = False

    def _dispatch(self, fn: "Callable[[], list]"):
        """Scatter to the shard executor, or keep a lazy thunk when saturated.

        With ``pool.scatter`` (spare cores exist) the block is computed
        eagerly on the owning shard's executor, overlapping with the merge
        and with other shards' scans.  Without it the thunk runs on the
        consuming thread at the moment the block is needed — same latch,
        same single-access discipline, zero queue hops.
        """
        if self._pool.scatter:
            return self._pool.submit(self._shard, fn)
        return fn

    # -- executor-side ---------------------------------------------------------

    def _take_block(self) -> list:
        count = self._next_block
        self._next_block = min(self._max_block, count * 2)
        postings_of = self._postings_of
        if postings_of is None:
            block = list(islice(self._stream, count))
            self._more = len(block) == count
            return block
        block = []
        for item in self._stream:
            block.append(item)
            count -= postings_of(item)
            if count <= 0:
                return block
        self._more = False
        return block

    def _open_and_pull(self) -> list:
        # The spans here record under the submitting query's tree: the pool
        # bound the query's current span into this callable at dispatch time
        # (or, with lazy thunks, the merge thread's own span is current).
        with span("shard.scan", shard=self._shard) as node:
            if self._latch is not None:
                with self._latch:
                    self._stream = self._plan()
                    block = self._take_block()
            else:
                self._stream = self._plan()
                block = self._take_block()
            if node is not None:
                node.tags["items"] = len(block)
                if self._label is not None:
                    node.tags["term"] = self._label
            return block

    def _pull(self) -> list:
        assert self._stream is not None
        with span("scan.block", shard=self._shard) as node:
            if self._latch is not None:
                with self._latch:
                    block = self._take_block()
            else:
                block = self._take_block()
            if node is not None:
                node.tags["items"] = len(block)
                if self._label is not None:
                    node.tags["term"] = self._label
            return block

    # -- coordinator-side ------------------------------------------------------

    def next_block(self) -> list:
        """The next materialized block (empty when the stream is exhausted)."""
        if self._pending is None:
            return []
        if callable(self._pending):
            block = self._pending()
        else:
            # steal=True: even with eager scatter, if no worker started the
            # block the merge thread computes it instead of sleeping.
            block = self._pending.result(steal=True)
        if block and self._more and not self._closed:
            # The stream may have more: prefetch the next (doubled) block
            # before the merge consumes this one.
            self._pending = self._dispatch(self._pull)
        else:
            self._pending = None
        return block

    def stream(self) -> Iterator[Any]:
        """A plain generator over the pumped stream items.

        The merge consumes millions of stream items; routing each one
        through a Python-level ``__next__`` would dominate the query, so the
        per-item path is a C-speed ``yield from`` over each block and the
        Python-level pump logic runs once per *block*.
        """
        while True:
            block = self.next_block()
            if not block:
                return
            yield from block

    def __iter__(self) -> Iterator[Any]:
        return self.stream()

    def close(self) -> None:
        """Stop prefetching.

        A speculative block nobody has started computing is *cancelled* —
        after early termination its work would be pure waste — and one a
        worker is already running is awaited so the shard is quiescent when
        the query's read lock is released.
        """
        if self._closed:
            return
        self._closed = True
        pending, self._pending = self._pending, None
        if pending is None or callable(pending):
            return  # a lazy thunk simply never runs
        if not pending.cancel():
            try:
                pending.result()
            except BaseException:
                pass  # the query already stopped consuming; nothing to report


def pump_plans(pool: ExecutorPool,
               plans: "Sequence[tuple]",
               latches: "Sequence[threading.RLock] | None" = None,
               block_size: int = DEFAULT_BLOCK_SIZE,
               initial_block: int = INITIAL_BLOCK_SIZE,
               postings_of: "Callable[[Any], int] | None" = None) -> list[StreamPump]:
    """Wrap ``(shard, plan)`` — or ``(shard, plan, label)`` — tuples in pumps.

    One pump per term stream; the optional third element labels the pump's
    spans with the owning term.  ``postings_of`` is passed to every pump.
    """
    pumps = []
    for entry in plans:
        shard, plan = entry[0], entry[1]
        label = entry[2] if len(entry) > 2 else None
        pumps.append(StreamPump(
            pool, shard, plan,
            latch=latches[shard] if latches is not None else None,
            block_size=block_size,
            initial_block=initial_block,
            label=label,
            postings_of=postings_of,
        ))
    return pumps
