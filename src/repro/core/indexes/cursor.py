"""One long-list cursor and one window driver for the long-list methods.

The ID, Chunk and Score-Threshold families (and their TermScore variants)
run one query algorithm, Algorithm 2 and its §4.2.1/§4.3.2/§4.3.3 forms:
merge each term's short (or delta) list into its long list in the list's
order, score the documents that complete the query against the Score
table, and stop once nothing left can beat the heap floor.
:class:`LongListIndex` holds what they share — the column build, the cursor
(:meth:`~LongListIndex._term_stream`), the short-list write path of
Algorithm 1 and Appendix A, and batched resolution — and
:func:`run_windows` is the driver.  ARCHITECTURE.md, "Query evaluation:
one cursor, one window driver", states the block contract, the fold, the
window rule per order key and the counting rule.
"""

from __future__ import annotations

import abc
from bisect import bisect_left, bisect_right
from collections import defaultdict
from itertools import chain
from typing import Callable, Iterable, Iterator

from repro.core import posting
from repro.core.indexes.base import InvertedIndex, QueryStats, _StagedDocument
from repro.core.posting import read_list_header
from repro.errors import ReproError
from repro.storage.heap_file import SegmentHandle
from repro.text.documents import Document

ADD = "ADD"
REM = "REM"

#: Codec name suffix per list kind (``encode_blocked_<suffix>``).
_PAYLOADS = {"id": "id_postings", "scored": "scored_postings", "chunk": "chunk_runs"}


class LongListIndex(InvertedIndex):
    """A method whose postings live in per-term long lists plus a short list.

    ``list_kind`` names the long-list kind (``"id"``, ``"chunk"`` or
    ``"scored"``); its decoder is looked up by that name in
    :mod:`repro.core.posting` each time a list is opened.
    """

    list_kind = "abstract"
    #: Store-name suffix of the short list (the ID methods call it "delta").
    short_list_name = "short"
    #: Key fields of the short list (see :func:`~repro.storage.kvstore.key_codec`):
    #: ``(term, doc_id)`` for ID, ``(term, -state, doc_id)`` for the others.
    short_key_codec = "su"
    long_list_state = ("_segments",)

    def __init__(self, env, documents, name: str = "svr",
                 list_cache_pages: "int | None" = None) -> None:
        super().__init__(env, documents, name=name,
                         list_cache_pages=list_cache_pages)
        self._long_lists = self._create_heapfile(f"{name}.long")
        self._segments: dict[str, SegmentHandle] = {}
        self._short = self._create_kvstore(f"{name}.{self.short_list_name}",
                                           key_shard="term", key_codec=self.short_key_codec,
                                           value_codec="op_f64")

    # -- size / cache ---------------------------------------------------------

    def long_list_size_bytes(self) -> int:
        return self._long_lists.total_bytes()

    def short_list_size_bytes(self) -> int:
        return self._short.size_bytes()

    def drop_long_list_cache(self) -> None:
        self._long_lists.drop_from_cache()

    def describe_term_plan(self, term: str) -> dict:
        plan = super().describe_term_plan(term)
        handle = self._segments.get(term)
        if handle is None:
            plan.update(layout="absent", estimated_postings=0)
            return plan
        plan["segment_bytes"] = handle.length
        cache = self.list_cache
        if cache is not None:
            plan["cache"] = {
                "cached": cache.peek(getattr(handle, "shard", None), handle.segment_id),
                "cacheable": handle.length <= cache.budget_bytes,
            }
        try:
            _kind, with_term_scores, total = read_list_header(
                next(self._long_lists.peek_pages(handle)))
        except ReproError:
            plan["layout"] = "unreadable"
            return plan
        plan.update(layout="blocked", blocks=handle.page_count,
                    estimated_postings=total, with_term_scores=with_term_scores)
        return plan

    # -- the build --------------------------------------------------------------

    def _build_long_lists(self, staged: "list[_StagedDocument]") -> None:
        """Gather every term's columns in list order, then write the lists
        in the order their terms first appear in ``staged``, which pins the
        segment and page ids (ARCHITECTURE.md, "The build")."""
        columns = self._long_list_columns(staged)
        terms = dict.fromkeys(chain.from_iterable(
            document.term_frequencies for document in staged))
        self._write_long_lists(terms, columns)
        self.update_stats.long_list_postings_written += sum(
            len(document.term_frequencies) for document in staged)

    @abc.abstractmethod
    def _long_list_columns(self, staged: "list[_StagedDocument]") -> "dict[str, tuple]":
        """Each term's encoder arguments, gathered after one sort of
        ``staged`` in the method's list order."""

    def _term_columns(self, documents: "Iterable[_StagedDocument]"
                      ) -> "tuple[dict[str, list[int]], dict[str, list[float]] | None]":
        """Each term's doc ids over ``documents`` in their order, and for a
        TermScore variant the aligned ``tf / length`` (else ``None``)."""
        doc_ids: "dict[str, list[int]]" = defaultdict(list)
        term_scores = defaultdict(list) if self.stores_term_scores else None
        for document in documents:
            doc_id = document.doc_id
            for term in document.term_frequencies:
                doc_ids[term].append(doc_id)
            if term_scores is not None:
                current = self.documents.get(doc_id)
                frequencies, length = current.term_frequencies, current.length or 1
                for term in document.term_frequencies:
                    term_scores[term].append(frequencies.get(term, 0) / length)
        return doc_ids, term_scores

    def _write_long_lists(self, terms: "Iterable[str]", columns: "dict[str, tuple]") -> None:
        """Encode and store the long list of each of ``terms``, in order."""
        encode = getattr(posting, f"encode_blocked_{_PAYLOADS[self.list_kind]}")
        write, page_size = self._long_lists.write, self.page_size
        for term in terms:
            self._segments[term] = write(encode(*columns[term], page_size=page_size),
                                         key=term)
            self.long_list_version += 1

    # -- the cursor -------------------------------------------------------------

    def _term_stream(self, term_index: int, term: str, stats: QueryStats) -> list:
        """The block streams of one term: ``[folded]`` for the ID kind,
        ``[long, short]`` otherwise.  The short list is read now."""
        del term_index
        if self.list_kind == "id":
            adds, removed = self._short_entries(term)
            return [_fold_adds(self._long_items(term), adds, removed, stats)]
        blocks, removed = self._short_blocks(term)
        return [_drop_removed(self._long_items(term), self.list_kind == "scored",
                              removed, stats), iter(blocks)]

    def _long_items(self, term: str) -> Iterator[tuple]:
        """Decode the long list a page at a time.  It may come from the
        hot-term cache, keyed by segment (so valid across writes), which a
        miss fills through the accounting-free peek path (unless the list
        exceeds its whole budget); fill failures are shard-tagged like scan
        failures."""
        handle = self._segments.get(term)
        if handle is None:
            return
        # Codecs are looked up on every call, not bound at import, so
        # wrappers installed on the module (tracing) see every call.
        decode = getattr(posting, f"iter_blocked_{self.list_kind}_postings_lazy")
        cache = self.list_cache
        if cache is not None:
            shard = getattr(handle, "shard", None)
            items = cache.get(shard, handle.segment_id)
            if items is None and handle.length <= cache.budget_bytes:
                items = list(_tag_scan_errors(
                    handle, decode(self._long_lists.peek_pages(handle))))
                cache.put(shard, handle.segment_id, items, nbytes=handle.length)
            if items is not None:
                yield from items
                return
        yield from _tag_scan_errors(handle, decode(self._long_lists.iter_pages(handle)))

    def _short_entries(self, term: str) -> "tuple[list[tuple[int, float]], set[int]]":
        """The ID delta list: ``(doc_id, term_score)`` ADDs in doc-id order,
        and the doc ids whose long postings it REMoves or supersedes."""
        adds: list[tuple[int, float]] = []
        removed: set[int] = set()
        for (doc_id,), (operation, term_score) in self._short.suffix_items((term,)):
            removed.add(doc_id)
            if operation == ADD:
                adds.append((doc_id, term_score))
        return adds, removed

    def _short_blocks(self, term: str) -> "tuple[list[tuple], set[int]]":
        """The short list's ADDs as blocks — one per chunk, or one for the
        whole scored list — plus the doc ids whose long postings it REMoves.
        Keys ``(term, -chunk_id | -list_score, doc_id)`` come in list order."""
        blocks: list = []
        removed: set[int] = set()
        scored = self.list_kind == "scored"
        for (neg_key, doc_id), (operation, term_score) in self._short.suffix_items((term,)):
            if operation != ADD:
                removed.add(doc_id)
            elif blocks and (scored or blocks[-1][0] == neg_key):
                blocks[-1][1].append(doc_id)
                blocks[-1][2].append(-neg_key if scored else term_score)
            else:
                blocks.append((neg_key, [doc_id], [-neg_key if scored else term_score], True))
        if scored and blocks:
            _key, doc_ids, scores, _short = blocks[0]
            blocks[0] = ((-scores[-1], doc_ids[-1]), doc_ids, scores, True)
        return blocks, removed

    # -- resolution -------------------------------------------------------------

    def _resolve_batch(self, doc_ids: "list[int]", heap, stats: QueryStats,
                       term_scores: "Callable[[list[int]], Iterable] | None" = None
                       ) -> None:
        """Score candidates in one ``_live_scores`` batch (the same keys, so
        the same pages, as probing one at a time) and offer the live ones to
        the heap in order.  A TermScore variant passes ``term_scores``, which
        maps the live candidates to their term scores in summation order;
        they rank by ``svr + term_weight * sum(term scores)`` (§4.3.3)."""
        if not doc_ids:
            return
        stats.candidates += len(doc_ids)
        stats.score_lookups += len(doc_ids)
        scores = self._live_scores(doc_ids)
        offered = [doc_id for doc_id in doc_ids if scores[doc_id] is not None]
        stats.heap_offers += len(offered)
        ranks = [scores[doc_id] for doc_id in offered]
        if term_scores is not None:
            weight = self.term_weight
            ranks = [svr_score + weight * sum(summands)
                     for svr_score, summands in zip(ranks, term_scores(offered))]
        add = heap.add
        for doc_id, score in zip(offered, ranks):
            add(doc_id, score)

    # -- writes: Algorithm 1 and Appendix A on the short lists ------------------

    #: ListChunk / ListScore — ``doc_id -> (list_state, in_short_list)`` —
    #: for the threshold methods, which also define ``threshold_value_of``;
    #: the ID methods keep no list state.
    _bookkeeping = None

    def _state_of(self, score: float):
        """The list state a score files postings under (``None``: ID)."""
        del score

    def _current_term_score(self, doc_id: int, term: str) -> float:
        """A posting's term score: the normalised term frequency for the
        TermScore variants, 0.0 for the others."""
        if not self.stores_term_scores:
            return 0.0
        document = self.documents.get(doc_id)
        return document.term_frequency(term) / (document.length or 1)

    def _short_key(self, term: str, doc_id: int, state) -> tuple:
        """Short-list key ``(term, -state, doc_id)``, ``(term, doc_id)`` for
        ID.  State ``None`` keys a re-insert's REMs ``(term, 1, doc_id)``,
        past every ADD (states are non-negative): no later write overwrites
        them."""
        if self._bookkeeping is None:
            return term, doc_id
        return term, 1 if state is None else -state, doc_id

    def _after_score_update(self, doc_id: int, old_score: float, new_score: float) -> None:
        """Promote the document's postings into the short lists when its new
        state exceeds ``threshold_value_of`` its list state (none for ID)."""
        if self._bookkeeping is None:
            return
        new_state = self._state_of(new_score)
        entry = self._bookkeeping.get(doc_id, default=None)
        if entry is not None:
            list_state, in_short_list = entry
        else:
            list_state, in_short_list = self._state_of(old_score), False
            self._bookkeeping.put(doc_id, (list_state, False))
        if new_state <= self.threshold_value_of(list_state):
            return
        # Sorted, so the short list's B+-tree shape does not follow the
        # set's hash order (and page counts do not follow PYTHONHASHSEED).
        for term in sorted(self._content_terms(doc_id)):
            if in_short_list:
                self._short.delete_if_present(self._short_key(term, doc_id, list_state))
            self._short.put(self._short_key(term, doc_id, new_state),
                            (ADD, self._current_term_score(doc_id, term)))
            self.update_stats.short_list_postings_written += 1
        self._bookkeeping.put(doc_id, (new_state, True))
        self.update_stats.short_list_updates += 1

    def _after_score_batch(self, changes: list[tuple[int, float, float]]) -> None:
        """:meth:`_after_score_update` for a batch: decisions replay in order
        against an in-memory overlay of the bookkeeping table (its rows read
        in one bulk pass), and the short-list writes coalesce per key into
        sorted bulk passes.  For ID
        the Score-table pass is the whole batch."""
        bookkeeping = self._bookkeeping
        if bookkeeping is None:
            return
        state: dict[int, tuple] = bookkeeping.get_many(
            [doc_id for doc_id, _old, _new in changes])
        dirty: set[int] = set()
        short_ops: dict[tuple, tuple | None] = {}
        for doc_id, old_score, new_score in changes:
            entry = state.get(doc_id)
            if entry is None:
                entry = state[doc_id] = (self._state_of(old_score), False)
                dirty.add(doc_id)
            list_state, in_short_list = entry
            new_state = self._state_of(new_score)
            if new_state <= self.threshold_value_of(list_state):
                continue
            for term in self._content_terms(doc_id):
                if in_short_list:
                    short_ops[self._short_key(term, doc_id, list_state)] = None
                short_ops[self._short_key(term, doc_id, new_state)] = (
                    ADD, self._current_term_score(doc_id, term))
                self.update_stats.short_list_postings_written += 1
            state[doc_id] = (new_state, True)
            dirty.add(doc_id)
            self.update_stats.short_list_updates += 1
        self._flush_coalesced_ops(self._short, short_ops)
        bookkeeping.put_many([(doc_id, state[doc_id]) for doc_id in dirty])

    def _after_insert(self, doc_id: int, score: float,
                      previous: "Document | None") -> None:
        """ADD the document's terms at the state of ``score``.

        A re-insert also drops the short postings filed under the
        document's old state, and REMs the long posting of every term it
        had: they belong to the deleted document (its terms, its term
        scores), so only the new short postings may represent it.
        """
        state = self._state_of(score)
        ops: dict[tuple, tuple | None] = {}
        if previous is not None:
            entry = (None if self._bookkeeping is None
                     else self._bookkeeping.get(doc_id, default=None))
            for term in previous.distinct_terms:
                if entry is not None and entry[1]:
                    ops[self._short_key(term, doc_id, entry[0])] = None
                ops[self._short_key(term, doc_id, None)] = (REM, 0.0)
        for term in self._content_terms(doc_id):
            ops[self._short_key(term, doc_id, state)] = (
                ADD, self._current_term_score(doc_id, term))
        self._flush_coalesced_ops(self._short, ops)
        self.update_stats.short_list_postings_written += sum(
            op is not None for op in ops.values())
        if self._bookkeeping is not None:
            self._bookkeeping.put(doc_id, (state, True))

    def _after_content_update(self, doc_id: int, old_document: Document,
                              new_document: Document) -> None:
        """ADD the new terms at the list state and REM the dropped ones.

        A dropped term loses its ADD under the list state, and its long
        posting gets a REM keyed ``(term, 1, doc_id)`` like a re-insert's,
        which no later ADD overwrites.  A TermScore variant re-files every
        kept term as well: the new length changes its term score.  The row
        then says the document has short postings, so a later promotion or
        re-insert drops them.
        """
        state = None
        if self._bookkeeping is not None:
            entry = self._bookkeeping.get(doc_id, default=None)
            state = (entry[0] if entry is not None
                     else self._state_of(self.score_table.get(doc_id)))
        old_terms, new_terms = old_document.distinct_terms, new_document.distinct_terms
        ops: dict[tuple, tuple | None] = {}
        for term in old_terms - new_terms:
            ops[self._short_key(term, doc_id, state)] = None
            ops[self._short_key(term, doc_id, None)] = (REM, 0.0)
        for term in new_terms if self.stores_term_scores else new_terms - old_terms:
            if term in old_terms:
                ops[self._short_key(term, doc_id, None)] = (REM, 0.0)
            ops[self._short_key(term, doc_id, state)] = (
                ADD, self._current_term_score(doc_id, term))
        self._flush_coalesced_ops(self._short, ops)
        self.update_stats.short_list_postings_written += sum(
            op is not None for op in ops.values())
        if self._bookkeeping is not None:
            self._bookkeeping.put(doc_id, (state, True))


def _tag_scan_errors(handle, items):
    """Attribute hard scan failures to the owning failure domain.

    Long-list payload corruption (a failed block CRC, a torn varint) is
    detected by the codec deep inside a scan iterator, far from any shard
    bookkeeping.  When the segment handle carries a shard id — as it does
    on sharded environments — stamp untagged :class:`ReproError`\\ s with
    it on the way out, so the router's quarantine logic can confine the
    fault to that shard instead of failing the whole query.  Handles
    without a shard (single-shard environments) pass through untouched.
    """
    shard = getattr(handle, "shard", None)
    if shard is None:
        return items

    def tagged():
        try:
            yield from items
        except ReproError as exc:
            if getattr(exc, "shard", None) is None:
                exc.shard = shard
            raise

    return tagged()


def _fold_adds(items, adds: "list[tuple[int, float]]", removed: "set[int]",
               stats: QueryStats):
    """Fold ID delta ADDs into the long blocks.

    A long block loses the postings its delta REMoved or superseded and
    gains the ADDs from the previous block's last doc id up to its own; its
    bound is then its largest doc id.  The ADDs past the list's end come as
    a last block.  Dropped postings count as scanned here.
    """
    adds.sort()
    taken = 0
    for last_doc_id, doc_ids, term_scores in items:
        end = taken
        while end < len(adds) and adds[end][0] < last_doc_id:
            end += 1
        if end == taken and (not removed or removed.isdisjoint(doc_ids)):
            yield last_doc_id, doc_ids, term_scores, False
            continue
        if term_scores is None:
            term_scores = [0.0] * len(doc_ids)
        postings = [entry for entry in zip(doc_ids, term_scores)
                    if entry[0] not in removed]
        stats.postings_scanned += len(doc_ids) - len(postings)
        postings = sorted(postings + adds[taken:end])
        taken = end
        if postings:
            yield _as_block(postings)
    if taken < len(adds):
        yield _as_block(adds[taken:])


def _as_block(postings: "list[tuple[int, float]]") -> tuple:
    return (postings[-1][0], [doc_id for doc_id, _ts in postings],
            [term_score for _doc_id, term_score in postings], False)


def _drop_removed(items, scored: bool, removed: "set[int]", stats: QueryStats):
    """Chunk and scored long blocks minus their REMoved postings.

    A block splits around dropped postings; a dropped posting counts as
    scanned when the scan passes it, which is when the next kept posting is
    pulled, as in a posting-at-a-time scan.  A chunk fragment's key is
    ``-chunk_id``; a scored piece ends at ``(-score, doc_id)`` of its last
    posting.
    """
    for item in items:
        doc_ids, values = item[1], item[2]
        if not removed or removed.isdisjoint(doc_ids):
            yield ((-values[-1], doc_ids[-1]) if scored else -item[0]), doc_ids, values, False
            continue
        start = 0
        for end in [position for position, doc_id in enumerate(doc_ids)
                    if doc_id in removed] + [len(doc_ids)]:
            if end > start:
                piece_docs = doc_ids[start:end]
                piece_values = None if values is None else values[start:end]
                bound = (-piece_values[-1], piece_docs[-1]) if scored else -item[0]
                yield bound, piece_docs, piece_values, False
            if end < len(doc_ids):
                stats.postings_scanned += 1
            start = end + 1


def run_windows(term_streams: list, position: Callable, on_window: Callable,
                stats: QueryStats, inclusive: bool = False) -> None:
    """Drive the terms' block streams a window at a time.

    The streams are taken in term order (a term's long stream before its
    short one).  A window ends at the smallest ``(bound, stream)`` of the
    streams' current blocks and holds every buffered posting below that
    bound — or, when ``inclusive``, up to that ``(bound, stream)``.  After
    it, the streams whose block ended it pull their next block.

    ``position(block, key, or_equal)`` is how many leading postings of a
    block lie below ``key`` (or at it, when ``or_equal``); ``None`` when a
    block is one key (a chunk fragment), wholly in a window or not at all.
    ``on_window(window, next_key)`` gets one list per stream of the
    ``(bound, doc_ids, values, from_short)`` slices in the window, and the
    key that ends it (``None`` for the last window); it returns ``None`` to
    go on, or, to stop, how many postings of each stream's slices it left
    unprocessed.  ``postings_scanned`` gains what a posting-at-a-time scan
    pulls: every processed posting, plus one lookahead per stream that has
    postings left.
    """
    streams = [stream for per_term in term_streams for stream in per_term]
    count = len(streams)
    pending: list[list] = [[] for _ in range(count)]
    bounds: list = [None] * count
    received = [0] * count

    def advance(index: int) -> None:
        block = next(streams[index], None)
        if block is None:
            bounds[index] = None
            return
        bounds[index] = block[0]
        pending[index].append(block)
        received[index] += len(block[1])

    for index in range(count):
        advance(index)
    left = None
    while True:
        live = [bound for bound in bounds if bound is not None]
        end = min(live) if live else None
        # Ties on the bound go to the first stream, as in a k-way merge.
        owner = bounds.index(end) if inclusive and live else None
        window = []
        for index in range(count):
            blocks = pending[index]
            if not blocks or end is None or blocks[-1][0] < end:
                window.append(blocks)  # wholly inside the window (or empty)
                if blocks:
                    pending[index] = []
                continue
            taken = []
            while blocks:
                block = blocks[0]
                if block[0] < end or (inclusive and block[0] == end and index <= owner):
                    taken.append(blocks.pop(0))
                    continue
                cut = position and position(block, end, inclusive and index <= owner)
                if cut:
                    bound, doc_ids, values, from_short = block
                    taken.append((bound, doc_ids[:cut],
                                  None if values is None else values[:cut], from_short))
                    blocks[0] = (bound, doc_ids[cut:],
                                 None if values is None else values[cut:], from_short)
                break
            window.append(taken)
        left = on_window(window, end)
        if left is not None:
            stats.stopped_early = True
            break
        if end is None:
            break
        if inclusive:
            advance(owner)
            continue
        for index in range(count):
            while bounds[index] is not None and bounds[index] == end:
                advance(index)
    for index in range(count):
        unread = sum(len(block[1]) for block in pending[index])
        if left is not None:
            unread += left[index]
        stats.postings_scanned += received[index] - unread + (1 if unread else 0)


def id_position(block, key, or_equal: bool) -> int:
    """Window cut of a doc-id-ordered block (ID windows end below a bound)."""
    del or_equal
    return bisect_left(block[1], key)


def scored_position(block, key, or_equal: bool) -> int:
    """Window cut of a score-ordered block, by ``(-score, doc_id)``."""
    _bound, doc_ids, scores, _short = block
    cut = bisect_right if or_equal else bisect_left
    return cut(range(len(doc_ids)), key, key=lambda i: (-scores[i], doc_ids[i]))


def window_values(slices: list) -> dict:
    """``doc_id -> value`` over one stream's window slices (``None`` values
    when the list stores none)."""
    values: dict = {}
    for _bound, doc_ids, piece_values, _short in slices:
        if piece_values is None:
            values.update(dict.fromkeys(doc_ids))
        else:
            values.update(zip(doc_ids, piece_values))
    return values
