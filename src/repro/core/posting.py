"""The binary layout of long inverted lists and its column codecs.

Long inverted lists are immutable binary objects read a page at a time (§5.2),
so their byte layout determines both Table 1 (index sizes) and the number of
pages a query scan touches.  This module provides:

* varint encoding helpers,
* one page layout for the three list kinds: ID-ordered (ID / ID-TermScore:
  delta-encoded document ids, optional per-posting term score),
  score-ordered (Score-Threshold: document id plus full document score per
  posting, no delta compression — reproducing the paper's observation that
  Score-Threshold lists are several times larger) and chunked (Chunk /
  Chunk-TermScore: chunk id stored once per chunk, document ids
  delta-encoded within it).  Every page holds one block with its own count
  and CRC, and the decoders take a list's page iterator and decode one page
  per pull, so a scan that stops early never fetches the remaining pages.
The encoders take columns (doc ids, plus scores and term scores where the
kind stores them) and check their order (ARCHITECTURE.md, "The build").
"""

from __future__ import annotations

import struct
import zlib
from itertools import repeat
from operator import gt
from typing import Callable, Iterable, Iterator, Sequence

from repro.errors import ChecksumError, InvertedIndexError
from repro.storage.pager import PAGE_SIZE

# ---------------------------------------------------------------------------
# Varint helpers
# ---------------------------------------------------------------------------


def encode_varint(value: int) -> bytes:
    """Encode a non-negative integer as a LEB128 varint."""
    if 0 <= value < 0x80:
        return bytes((value,))
    if value < 0:
        raise InvertedIndexError(f"varints encode non-negative integers, got {value}")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_varint(data: bytes, offset: int) -> tuple[int, int]:
    """Decode a varint at ``offset``; return ``(value, next_offset)``."""
    result = 0
    shift = 0
    position = offset
    while True:
        if position >= len(data):
            raise InvertedIndexError("truncated varint")
        byte = data[position]
        position += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, position
        shift += 7


# ---------------------------------------------------------------------------
# The long-list layout: whole pages, one self-checking block per page
# ---------------------------------------------------------------------------
#
#   page     := crc32 (4 bytes, little-endian, over the rest of the page)
#               [page 0 only: kind/flags byte, varint total]
#               varint count, count postings, zero padding (not on the last page)
#   ID       := varint doc-id delta [f32 term score]       deltas restart per page
#   scored   := f64 score, u32 doc id [f32 term score]
#   chunk    := fragments of varint chunk id, varint n, n ID postings
#
# The kind/flags byte is ``kind << 1 | with_term_scores``.  No block straddles
# a page, so a page is the unit of decode, integrity checking and I/O.

#: Kind tags stored in page 0's kind/flags byte.
BLOCK_KIND_ID = 0
BLOCK_KIND_SCORED = 1
BLOCK_KIND_CHUNK = 2

_CRC = struct.Struct("<I")
_FLOAT = struct.Struct("<f")
_SCORED = struct.Struct("<dI")
_SCORED_TS = struct.Struct("<dIf")


def _varint_size(value: int) -> int:
    return (value.bit_length() + 6) // 7 or 1


def _too_small(page_size: int) -> InvertedIndexError:
    return InvertedIndexError(f"a page of {page_size} bytes cannot hold one posting")


def _count_reserve(page_size: int, min_posting: int) -> int:
    """Bytes kept for a page's count: the varint of the most postings of
    ``min_posting`` bytes that fit a page."""
    return _varint_size(max(1, (page_size - _CRC.size - 1) // min_posting))


def _assemble(kind: int, with_term_scores: bool, total: int, page_size: int,
              pages: "list[tuple[int, bytes]]") -> bytes:
    """Lay out ``(count, postings)`` blocks as whole pages, padding all but
    the last; an empty list is one page of count 0."""
    header = bytes([kind << 1 | with_term_scores]) + encode_varint(total)
    out = bytearray()
    last = len(pages) - 1
    for number, (count, body) in enumerate(pages or [(0, b"")]):
        page = (b"" if number else header) + encode_varint(count) + body
        if number < last:
            page += bytes(page_size - _CRC.size - len(page))
        out += _CRC.pack(zlib.crc32(page))
        out += page
    return bytes(out)


def _check_columns(doc_ids: Sequence[int], *columns: "Sequence | None") -> None:
    if any(column is not None and len(column) != len(doc_ids) for column in columns):
        raise InvertedIndexError("posting columns must be aligned with the doc ids")


def encode_blocked_id_postings(doc_ids: Sequence[int],
                               term_scores: "Sequence[float] | None" = None,
                               page_size: int = PAGE_SIZE) -> bytes:
    """Encode a column of doc ids sorted increasing.

    Document ids are delta-encoded varints, the first on each page stored
    absolute; ``term_scores``, when given, are aligned with the ids and stored
    as 4-byte floats per posting (this is what makes the TermScore variants
    larger, matching Table 1's ID vs ID-TermScore ratio).
    """
    _check_columns(doc_ids, term_scores)
    extra = 0 if term_scores is None else 4
    pack = _FLOAT.pack
    reserve = _count_reserve(page_size, 1 + extra)
    room = page_size - _CRC.size - reserve - 1 - _varint_size(len(doc_ids))
    pages: list[tuple[int, bytes]] = []
    body = bytearray()
    count = base = end = 0
    for doc_id, term_score in zip(doc_ids, term_scores if extra else repeat(None)):
        delta = doc_id - base
        if delta < 0x80:
            if delta < 0:
                raise InvertedIndexError("ID-ordered postings must be sorted by doc id")
            width = 1
        else:
            width = 2 if delta < 0x4000 else _varint_size(delta)
        if end + width + extra > room:
            if not count:
                raise _too_small(page_size)
            pages.append((count, bytes(body)))
            body = bytearray()
            count = end = 0
            room = page_size - _CRC.size - reserve
            delta = doc_id
            width = _varint_size(delta)
            if width + extra > room:
                raise _too_small(page_size)
        if width == 1:
            body.append(delta)
        elif width == 2:
            body.append(delta & 0x7F | 0x80)
            body.append(delta >> 7)
        else:
            body += encode_varint(delta)
        if extra:
            body += pack(term_score)
        end += width + extra
        count += 1
        base = doc_id
    if count:
        pages.append((count, bytes(body)))
    return _assemble(BLOCK_KIND_ID, extra > 0, len(doc_ids), page_size, pages)


def encode_blocked_scored_postings(doc_ids: Sequence[int], scores: Sequence[float],
                                   term_scores: "Sequence[float] | None" = None,
                                   page_size: int = PAGE_SIZE) -> bytes:
    """Encode doc-id and score columns sorted by decreasing score.

    Each posting stores an 8-byte score and a 4-byte document id (and a
    4-byte term score when ``term_scores`` is given); no delta compression
    is possible because the ids are not sorted.  This reproduces the
    Score-Threshold method's space overhead relative to the ID method.
    """
    _check_columns(doc_ids, scores, term_scores)
    if any(map(gt, scores[1:], scores)):
        raise InvertedIndexError("scored postings must be sorted by decreasing score")
    columns = (scores, doc_ids, term_scores)[:2 if term_scores is None else 3]
    record = _SCORED if term_scores is None else _SCORED_TS
    room = page_size - _CRC.size - _count_reserve(page_size, record.size)
    per_page = (room - 1 - _varint_size(len(doc_ids))) // record.size
    if doc_ids and per_page < 1:
        raise _too_small(page_size)
    pages: list[tuple[int, bytes]] = []
    start = 0
    while start < len(doc_ids):
        end = start + per_page
        body = b"".join(map(record.pack, *(column[start:end] for column in columns)))
        pages.append((len(body) // record.size, body))
        start = end
        per_page = room // record.size
    return _assemble(BLOCK_KIND_SCORED, term_scores is not None, len(doc_ids), page_size,
                     pages)


def encode_blocked_chunk_runs(
        runs: "Sequence[tuple[int, Sequence[int], Sequence[float] | None]]",
        page_size: int = PAGE_SIZE) -> bytes:
    """Encode ``(chunk_id, doc_ids, term_scores)`` runs in decreasing chunk-id order.

    Doc ids within a run are sorted increasing; ``term_scores`` is aligned
    with them, or ``None`` in every run of a list without term scores.  The
    chunk id is stored once per run (the Chunk method's "small additional
    overhead for storing the chunk ID once for each chunk"), followed by the
    run length and delta-encoded document ids.  A run that reaches the end of
    a page restarts on the next one as a fresh fragment (chunk id, length,
    absolute first doc id), so every page decodes on its own.
    """
    with_term_scores = bool(runs) and runs[0][2] is not None
    total = sum(len(doc_ids) for _chunk_id, doc_ids, _term_scores in runs)
    extra = 4 if with_term_scores else 0
    pack = _FLOAT.pack
    reserve = _count_reserve(page_size, 1 + extra)
    room = page_size - _CRC.size - reserve - 1 - _varint_size(total)
    pages: list[tuple[int, bytes]] = []
    body = bytearray()
    count = 0
    previous_chunk = None
    for chunk_id, doc_ids, term_scores in runs:
        if previous_chunk is not None and chunk_id >= previous_chunk:
            raise InvertedIndexError("chunk runs must be sorted by decreasing chunk id")
        if (term_scores is None) == with_term_scores or (
                extra and len(term_scores) != len(doc_ids)):
            raise InvertedIndexError("every chunk run must carry aligned term scores, or none")
        previous_chunk = chunk_id
        head = encode_varint(chunk_id)
        fragment = bytearray()
        # The page's bytes with this fragment, less its count.
        end = len(body) + len(head)
        n = base = 0
        for doc_id, term_score in zip(doc_ids, term_scores if extra else repeat(None)):
            delta = doc_id - base
            if delta < 0x80:
                if delta < 0:
                    raise InvertedIndexError(
                        "postings within a chunk must be sorted by increasing doc id")
                width = 1
            else:
                width = 2 if delta < 0x4000 else _varint_size(delta)
            if end + (1 if n < 0x7F else _varint_size(n + 1)) + width + extra > room:
                if n:
                    body += head + encode_varint(n) + fragment
                elif not count:
                    raise _too_small(page_size)
                pages.append((count + n, bytes(body)))
                body = bytearray()
                fragment = bytearray()
                count = n = 0
                room = page_size - _CRC.size - reserve
                end = len(head)
                delta = doc_id
                width = _varint_size(delta)
                if end + 1 + width + extra > room:
                    raise _too_small(page_size)
            if width == 1:
                fragment.append(delta)
            elif width == 2:
                fragment.append(delta & 0x7F | 0x80)
                fragment.append(delta >> 7)
            else:
                fragment += encode_varint(delta)
            if extra:
                fragment += pack(term_score)
            end += width + extra
            n += 1
            base = doc_id
        if n:
            body += head + encode_varint(n) + fragment
            count += n
    if count:
        pages.append((count, bytes(body)))
    return _assemble(BLOCK_KIND_CHUNK, with_term_scores, total, page_size, pages)


def read_list_header(page: bytes) -> tuple[int, bool, int]:
    """``(kind, with_term_scores, total)`` from a list's CRC-checked page 0."""
    flags, total, _offset = _read_header(page)
    return flags >> 1, bool(flags & 1), total


def _read_header(page: bytes) -> tuple[int, int, int]:
    """Page 0's kind/flags byte, total, and the offset of its count."""
    _check_page(page)
    total, offset = decode_varint(page, _CRC.size + 1)
    return page[_CRC.size], total, offset


def _check_page(page: bytes) -> None:
    if len(page) < _CRC.size + 1 or (
            zlib.crc32(memoryview(page)[_CRC.size:]) != _CRC.unpack_from(page)[0]):
        raise ChecksumError("blocked posting list: page checksum mismatch")


def _iter_pages(pages: Iterable[bytes], kind: int
                ) -> "Iterator[tuple[bytes, int, int, bool]]":
    """Check each page and yield ``(page, offset, count, with_term_scores)``:
    ``count`` postings start at ``offset``.  Pages are pulled one at a time,
    so a scan that stops early never fetches the rest; a list whose pages
    hold fewer postings than page 0 announces (a lost tail) raises once the
    pages run out."""
    total = None
    seen = 0
    with_term_scores = False
    for page in pages:
        if total is None:
            flags, total, offset = _read_header(page)
            if flags >> 1 != kind:
                raise InvertedIndexError(
                    f"blocked posting list: kind/flags 0x{flags:02x} where "
                    f"kind {kind} was expected")
            with_term_scores = bool(flags & 1)
        else:
            _check_page(page)
            offset = _CRC.size
        count, offset = decode_varint(page, offset)
        seen += count
        if seen > total:
            raise ChecksumError("blocked posting list: posting count mismatch")
        yield page, offset, count, with_term_scores
    if total is None or seen != total:
        raise ChecksumError("blocked posting list: truncated list")


def _decode_doc_run(payload: bytes, offset: int, count: int, doc_ids: "list[int]",
                    term_scores: "list[float] | None") -> int:
    """Decode ``count`` delta-encoded doc ids (each followed by a 4-byte term
    score when ``term_scores`` is a list) from ``offset``; return the end offset.
    A truncated run raises ``IndexError`` or ``struct.error``."""
    append = doc_ids.append
    unpack_from = _FLOAT.unpack_from
    doc_id = 0
    for _ in range(count):
        # Inlined LEB128 delta: one posting costs no function call.
        byte = payload[offset]
        offset += 1
        if byte < 0x80:
            doc_id += byte
        else:
            delta = byte & 0x7F
            shift = 7
            while True:
                byte = payload[offset]
                offset += 1
                delta |= (byte & 0x7F) << shift
                if byte < 0x80:
                    break
                shift += 7
            doc_id += delta
        append(doc_id)
        if term_scores is not None:
            term_scores.append(unpack_from(payload, offset)[0])
            offset += 4
    return offset


def iter_blocked_id_postings_lazy(
        pages: Iterable[bytes]) -> "Iterator[tuple[int, list[int], list[float] | None]]":
    """Stream an ID-ordered list one page at a time.

    Each item is ``(last_doc_id, doc_ids, term_scores)``: one page's doc ids
    ascending, ``term_scores`` aligned with them or ``None`` when the list
    stores none.  The ID methods merge a doc-id window at a time, so they
    consume whole blocks instead of single postings.
    """
    for page, offset, count, with_term_scores in _iter_pages(pages, BLOCK_KIND_ID):
        if not count:
            continue
        doc_ids: list[int] = []
        term_scores: "list[float] | None" = [] if with_term_scores else None
        try:
            _decode_doc_run(page, offset, count, doc_ids, term_scores)
        except (IndexError, struct.error):
            raise ChecksumError("blocked posting list: truncated block") from None
        yield doc_ids[-1], doc_ids, term_scores


def iter_blocked_scored_postings_lazy(
        pages: Iterable[bytes]
) -> "Iterator[tuple[float, list[int], list[float], list[float] | None]]":
    """Stream a score-ordered list one page at a time.

    Each item is ``(bound, doc_ids, scores, term_scores)``: one page's
    postings in decreasing score order, ``bound`` its top score,
    ``term_scores`` aligned with them or ``None`` when the list stores none.
    """
    for page, offset, count, with_term_scores in _iter_pages(pages, BLOCK_KIND_SCORED):
        if not count:
            continue
        record = _SCORED_TS if with_term_scores else _SCORED
        end = offset + count * record.size
        if end > len(page):
            raise ChecksumError("blocked posting list: truncated block")
        columns = list(zip(*record.iter_unpack(memoryview(page)[offset:end])))
        scores = list(columns[0])
        yield (scores[0], list(columns[1]), scores,
               list(columns[2]) if with_term_scores else None)


def iter_blocked_chunk_postings_lazy(
        pages: Iterable[bytes]) -> "Iterator[tuple[int, list[int], list[float] | None]]":
    """Stream a chunked list as page-local chunk fragments.

    Each item is ``(chunk_id, doc_ids, term_scores)``: one chunk's postings
    within one page, doc ids ascending, ``term_scores`` aligned with them or
    ``None`` when the list stores none.  A chunk that straddles a page edge
    arrives as two fragments.  The Chunk methods merge a chunk at a time, so
    they consume whole fragments instead of single postings.
    """
    for page, offset, remaining, with_term_scores in _iter_pages(pages,
                                                                 BLOCK_KIND_CHUNK):
        fragments: list = []
        try:
            while remaining:
                chunk_id, offset = decode_varint(page, offset)
                count, offset = decode_varint(page, offset)
                if not 0 < count <= remaining or (fragments
                                                  and chunk_id >= fragments[-1][0]):
                    raise ChecksumError("blocked posting list: bad chunk fragment")
                doc_ids: list[int] = []
                term_scores: "list[float] | None" = [] if with_term_scores else None
                offset = _decode_doc_run(page, offset, count, doc_ids, term_scores)
                fragments.append((chunk_id, doc_ids, term_scores))
                remaining -= count
        except (IndexError, struct.error):
            raise ChecksumError("blocked posting list: truncated block") from None
        yield from fragments


# ---------------------------------------------------------------------------
# Helpers shared by the index builders
# ---------------------------------------------------------------------------


def build_rekey_operations(
    changes: Iterable[tuple[int, float, float]],
    terms_of: "Callable[[int], Iterable[str]]",
) -> list[tuple[Iterable[str], tuple[float, int], tuple[float, int]]]:
    """Turn coalesced score changes into clustered-list re-key moves.

    ``changes`` yields ``(doc_id, old_score, new_score)`` triples — one per
    document, already coalesced from first-seen old score to final new score.
    ``terms_of`` maps a document id to its distinct terms (``Content(id)``).
    Returns one ``(terms, (-old_score, doc_id), (-new_score, doc_id))`` move
    per document whose score changed, for
    :meth:`~repro.storage.kvstore.KVStore.rekey_batch`: it builds the old and
    new ``(term, -score, doc_id)`` keys with a single update's key builder and
    applies them as one sorted delete pass and one sorted insert pass.
    Documents whose score did not change produce no move (their postings are
    already keyed correctly).
    """
    return [(terms_of(doc_id), (-old_score, doc_id), (-new_score, doc_id))
            for doc_id, old_score, new_score in changes if old_score != new_score]

