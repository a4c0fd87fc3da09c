"""Posting representations and binary codecs for long inverted lists.

Long inverted lists are immutable binary objects read a page at a time (§5.2),
so their byte layout determines both Table 1 (index sizes) and the number of
pages a query scan touches.  This module provides:

* varint and zig-zag integer encoding helpers,
* the ID-ordered codec used by the ID / ID-TermScore methods (delta-encoded
  document ids, optional per-posting term score),
* the score-ordered codec used by the Score-Threshold method (document id plus
  full document score per posting, no delta compression — reproducing the
  paper's observation that Score-Threshold lists are several times larger), and
* the chunked codec used by the Chunk / Chunk-TermScore methods (chunk id
  stored once per chunk, document ids delta-encoded within the chunk), and
* the **blocked** variants of all three codecs: fixed-span blocks carrying a
  ``(count, last doc id, max-score bound)`` directory entry plus a CRC over
  delta+varbyte payloads, decoded lazily one block at a time so a scan that
  stops early never fetches the remaining pages.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from repro.errors import ChecksumError, InvertedIndexError

# ---------------------------------------------------------------------------
# Varint helpers
# ---------------------------------------------------------------------------


def encode_varint(value: int) -> bytes:
    """Encode a non-negative integer as a LEB128 varint."""
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
# Posting dataclasses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Posting:
    """A single long-list posting: a document id and an optional term score."""

    doc_id: int
    term_score: float = 0.0


@dataclass(frozen=True)
class ScoredPosting:
    """A Score-Threshold long-list posting: document id plus its (stale) SVR score."""

    doc_id: int
    score: float
    term_score: float = 0.0


@dataclass(frozen=True)
class ChunkRun:
    """One chunk's worth of postings in a chunked long list.

    Attributes
    ----------
    chunk_id:
        The chunk id (higher ids correspond to higher original scores).
    postings:
        Postings within the chunk, in increasing document-id order.
    """

    chunk_id: int
    postings: tuple[Posting, ...]


# ---------------------------------------------------------------------------
# ID-ordered codec (ID, ID-TermScore)
# ---------------------------------------------------------------------------


def encode_id_postings(postings: Sequence[Posting], with_term_scores: bool = False) -> bytes:
    """Encode postings sorted by increasing document id.

    Document ids are delta-encoded varints; term scores, when requested, are
    stored as 4-byte floats per posting (this is what makes the TermScore
    variants roughly 3x larger, matching Table 1's ID vs ID-TermScore ratio).
    """
    out = bytearray()
    out += encode_varint(len(postings))
    out.append(1 if with_term_scores else 0)
    previous = 0
    for posting in postings:
        if posting.doc_id < previous:
            raise InvertedIndexError("ID-ordered postings must be sorted by doc id")
        out += encode_varint(posting.doc_id - previous)
        previous = posting.doc_id
        if with_term_scores:
            out += struct.pack("<f", posting.term_score)
    return bytes(out)


def decode_id_postings(data: bytes) -> list[Posting]:
    """Decode a byte string produced by :func:`encode_id_postings`."""
    return list(iter_id_postings(data))


def iter_id_postings(data: bytes) -> Iterator[Posting]:
    """Stream-decode ID-ordered postings."""
    if not data:
        return
    count, offset = decode_varint(data, 0)
    if offset >= len(data):
        raise InvertedIndexError("truncated posting list header")
    with_term_scores = bool(data[offset])
    offset += 1
    doc_id = 0
    for _ in range(count):
        delta, offset = decode_varint(data, offset)
        doc_id += delta
        term_score = 0.0
        if with_term_scores:
            term_score = struct.unpack_from("<f", data, offset)[0]
            offset += 4
        yield Posting(doc_id=doc_id, term_score=term_score)


# ---------------------------------------------------------------------------
# Score-ordered codec (Score-Threshold)
# ---------------------------------------------------------------------------


def encode_scored_postings(postings: Sequence[ScoredPosting],
                           with_term_scores: bool = False) -> bytes:
    """Encode postings sorted by decreasing score.

    Each posting stores an 8-byte score and a 4-byte document id; no delta
    compression is possible because the ids are not sorted.  This reproduces
    the Score-Threshold method's space overhead relative to the ID method.
    """
    out = bytearray()
    out += encode_varint(len(postings))
    out.append(1 if with_term_scores else 0)
    previous_score = None
    for posting in postings:
        if previous_score is not None and posting.score > previous_score:
            raise InvertedIndexError("scored postings must be sorted by decreasing score")
        previous_score = posting.score
        out += struct.pack("<dI", posting.score, posting.doc_id)
        if with_term_scores:
            out += struct.pack("<f", posting.term_score)
    return bytes(out)


def iter_scored_postings(data: bytes) -> Iterator[ScoredPosting]:
    """Stream-decode score-ordered postings (decreasing score order)."""
    if not data:
        return
    count, offset = decode_varint(data, 0)
    if offset >= len(data):
        raise InvertedIndexError("truncated posting list header")
    with_term_scores = bool(data[offset])
    offset += 1
    for _ in range(count):
        score, doc_id = struct.unpack_from("<dI", data, offset)
        offset += 12
        term_score = 0.0
        if with_term_scores:
            term_score = struct.unpack_from("<f", data, offset)[0]
            offset += 4
        yield ScoredPosting(doc_id=doc_id, score=score, term_score=term_score)


def decode_scored_postings(data: bytes) -> list[ScoredPosting]:
    """Decode a byte string produced by :func:`encode_scored_postings`."""
    return list(iter_scored_postings(data))


# ---------------------------------------------------------------------------
# Chunked codec (Chunk, Chunk-TermScore)
# ---------------------------------------------------------------------------


def encode_chunk_runs(runs: Sequence[ChunkRun], with_term_scores: bool = False) -> bytes:
    """Encode chunk runs in decreasing chunk-id order.

    The chunk id is stored once per run (the Chunk method's "small additional
    overhead for storing the chunk ID once for each chunk"), followed by the
    run length and delta-encoded document ids.
    """
    out = bytearray()
    out += encode_varint(len(runs))
    out.append(1 if with_term_scores else 0)
    previous_chunk = None
    for run in runs:
        if previous_chunk is not None and run.chunk_id >= previous_chunk:
            raise InvertedIndexError("chunk runs must be sorted by decreasing chunk id")
        previous_chunk = run.chunk_id
        out += encode_varint(run.chunk_id)
        out += encode_varint(len(run.postings))
        previous_doc = 0
        for posting in run.postings:
            if posting.doc_id < previous_doc:
                raise InvertedIndexError(
                    "postings within a chunk must be sorted by increasing doc id"
                )
            out += encode_varint(posting.doc_id - previous_doc)
            previous_doc = posting.doc_id
            if with_term_scores:
                out += struct.pack("<f", posting.term_score)
    return bytes(out)


def iter_chunk_runs(data: bytes) -> Iterator[ChunkRun]:
    """Stream-decode chunk runs in decreasing chunk-id order."""
    if not data:
        return
    run_count, offset = decode_varint(data, 0)
    if offset >= len(data):
        raise InvertedIndexError("truncated posting list header")
    with_term_scores = bool(data[offset])
    offset += 1
    for _ in range(run_count):
        chunk_id, offset = decode_varint(data, offset)
        posting_count, offset = decode_varint(data, offset)
        postings = []
        doc_id = 0
        for _ in range(posting_count):
            delta, offset = decode_varint(data, offset)
            doc_id += delta
            term_score = 0.0
            if with_term_scores:
                term_score = struct.unpack_from("<f", data, offset)[0]
                offset += 4
            postings.append(Posting(doc_id=doc_id, term_score=term_score))
        yield ChunkRun(chunk_id=chunk_id, postings=tuple(postings))


def decode_chunk_runs(data: bytes) -> list[ChunkRun]:
    """Decode a byte string produced by :func:`encode_chunk_runs`."""
    return list(iter_chunk_runs(data))


# ---------------------------------------------------------------------------
# Lazy, page-at-a-time decoding
# ---------------------------------------------------------------------------

_FLOAT = struct.Struct("<f")
_SCORED = struct.Struct("<dI")
_SCORED_TS = struct.Struct("<dIf")


class LazyBytesReader:
    """Sequential byte reader over a page iterator.

    Query processing reads long inverted lists one page at a time and stops as
    soon as the early-termination conditions are met; pages after the stopping
    point must never be fetched or they would distort the I/O accounting.  This
    reader pulls pages from the underlying iterator only when the decoder
    actually needs more bytes.

    The reader keeps the current page fragment as-is and serves reads straight
    out of it (the previous implementation re-concatenated a rolling buffer —
    ``buffer[pos:] + fragment`` — on every page fetch, copying bytes it had
    already copied before).  Batch decoders in this module reach into
    ``_buf``/``_pos`` directly to decode whole runs of postings from the
    buffered fragment without per-byte method calls; they never trigger a page
    fetch the byte-at-a-time path would not have triggered at the same point.
    """

    __slots__ = ("_pages", "_buf", "_pos")

    def __init__(self, pages: Iterator[bytes]) -> None:
        self._pages = pages
        self._buf = b""
        self._pos = 0

    def _advance(self) -> bool:
        """Step to the next non-empty page fragment; ``False`` at end of list."""
        for fragment in self._pages:
            self._buf = fragment
            self._pos = 0
            if fragment:
                return True
        return False

    @property
    def exhausted(self) -> bool:
        """Whether no more bytes can be read."""
        if self._pos < len(self._buf):
            return False
        return not self._advance()

    def read_bytes(self, count: int) -> bytes:
        """Read exactly ``count`` bytes (raises on truncation)."""
        buf = self._buf
        pos = self._pos
        end = pos + count
        if end <= len(buf):
            self._pos = end
            return buf[pos:end]
        parts = []
        needed = count
        while True:
            available = len(buf) - pos
            if available:
                take = available if available < needed else needed
                parts.append(buf[pos:pos + take])
                pos += take
                needed -= take
            if not needed:
                break
            if not self._advance():
                self._pos = pos
                raise InvertedIndexError("truncated posting list")
            buf = self._buf
            pos = 0
        self._buf = buf
        self._pos = pos
        return b"".join(parts)

    def read_varint(self) -> int:
        """Read one LEB128 varint."""
        buf = self._buf
        pos = self._pos
        size = len(buf)
        result = 0
        shift = 0
        while True:
            if pos >= size:
                if not self._advance():
                    raise InvertedIndexError("truncated posting list")
                buf = self._buf
                pos = 0
                size = len(buf)
            byte = buf[pos]
            pos += 1
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                self._buf = buf
                self._pos = pos
                return result
            shift += 7

    def read_struct(self, fmt: str) -> tuple:
        """Read and unpack one fixed-size struct."""
        size = struct.calcsize(fmt)
        buf = self._buf
        pos = self._pos
        if len(buf) - pos >= size:
            self._pos = pos + size
            return struct.unpack_from(fmt, buf, pos)
        return struct.unpack(fmt, self.read_bytes(size))


def _decode_delta_run(reader: LazyBytesReader, doc_id: int, remaining: int,
                      with_term_scores: bool) -> tuple[list, int, int]:
    """Batch-decode delta-encoded postings wholly contained in the buffered fragment.

    Returns ``(batch, doc_id, remaining)`` where ``batch`` holds
    ``(doc_id, term_score)`` tuples.  Decoding stops at the fragment edge: a
    posting that might straddle it is left for the caller's byte-at-a-time
    fallback, so no page is ever fetched earlier than the scalar decoder would
    have fetched it.
    """
    buf = reader._buf
    pos = reader._pos
    size = len(buf)
    # A delta varint realistically spans <= 10 bytes (2**70); postings whose
    # bytes could reach past the fragment edge take the fallback path instead.
    safe = size - 14 if with_term_scores else size - 10
    unpack_from = _FLOAT.unpack_from
    batch: list = []
    append = batch.append
    while remaining and pos <= safe:
        entry = pos
        byte = buf[pos]
        pos += 1
        if byte < 0x80:
            doc_id += byte
        else:
            delta = byte & 0x7F
            shift = 7
            while True:
                if pos >= size:
                    pos = -1
                    break
                byte = buf[pos]
                pos += 1
                delta |= (byte & 0x7F) << shift
                if not byte & 0x80:
                    break
                shift += 7
            if pos < 0 or (with_term_scores and pos + 4 > size):
                # Varint longer than the safety margin assumed; re-decode this
                # posting through the reader, which handles fragment crossing.
                pos = entry
                break
            doc_id += delta
        if with_term_scores:
            term_score = unpack_from(buf, pos)[0]
            pos += 4
        else:
            term_score = 0.0
        append((doc_id, term_score))
        remaining -= 1
    reader._pos = pos
    return batch, doc_id, remaining


def _delta_groups(reader: LazyBytesReader, count: int, with_term_scores: bool,
                  zero_scores: bool
                  ) -> "Iterator[tuple[list[int], list[float] | None]]":
    """``count`` delta-encoded postings as page-fragment groups.

    A group ends where the next posting may need the next page: a batch
    decoded from the buffered fragment (see :func:`_decode_delta_run`) closes
    a group, and the posting at the fragment edge opens the next one.
    Pulling a group therefore fetches pages exactly when a posting-at-a-time
    scan would fetch them for its first posting.  Without stored term scores
    a group's scores are 0.0s when ``zero_scores`` is set, else ``None``.
    """
    doc_id = 0
    remaining = count
    keep_scores = with_term_scores or zero_scores
    doc_ids: list[int] = []
    term_scores: list[float] = []
    while remaining:
        batch, doc_id, remaining = _decode_delta_run(
            reader, doc_id, remaining, with_term_scores
        )
        for batch_doc, batch_score in batch:
            doc_ids.append(batch_doc)
            term_scores.append(batch_score)
        if remaining:
            if doc_ids:
                yield doc_ids, term_scores if keep_scores else None
                doc_ids, term_scores = [], []
            # One posting at the fragment edge, decoded byte-at-a-time (this
            # is the only path that may pull the next page).
            doc_id += reader.read_varint()
            doc_ids.append(doc_id)
            term_scores.append(reader.read_struct("<f")[0] if with_term_scores else 0.0)
            remaining -= 1
    if doc_ids:
        yield doc_ids, term_scores if keep_scores else None


def iter_id_postings_lazy(
        reader: LazyBytesReader) -> Iterator[tuple[int, list[int], list[float]]]:
    """Stream a legacy ID-ordered payload as ``(last_doc_id, doc_ids, term_scores)``.

    The legacy layout has no blocks, so its postings come in page-fragment
    groups (see :func:`_delta_groups`).  ``term_scores`` holds 0.0s when the
    list stores none.
    """
    if reader.exhausted:
        return
    count = reader.read_varint()
    with_term_scores = bool(reader.read_bytes(1)[0])
    for doc_ids, term_scores in _delta_groups(reader, count, with_term_scores,
                                              zero_scores=True):
        yield doc_ids[-1], doc_ids, term_scores


def iter_scored_postings_lazy(reader: LazyBytesReader
                              ) -> "Iterator[tuple[float, list[int], list[float], list[float] | None]]":
    """Stream a legacy score-ordered payload as page-fragment groups.

    Each item is ``(top_score, doc_ids, scores, term_scores)``, the same
    shape as :func:`iter_blocked_scored_postings_lazy`.  Records are
    fixed-width, so a group is one ``Struct.iter_unpack`` run over the
    buffered fragment; the record straddling the fragment edge opens the
    next group, so pulling a group fetches pages exactly when a
    posting-at-a-time scan would.
    """
    if reader.exhausted:
        return
    count = reader.read_varint()
    with_term_scores = bool(reader.read_bytes(1)[0])
    record = _SCORED_TS if with_term_scores else _SCORED
    width = record.size
    remaining = count
    doc_ids: list[int] = []
    scores: list[float] = []
    term_scores: "list[float] | None" = [] if with_term_scores else None
    while remaining:
        buf = reader._buf
        pos = reader._pos
        available = (len(buf) - pos) // width
        if available:
            take = available if available < remaining else remaining
            end = pos + take * width
            reader._pos = end
            remaining -= take
            for entry in record.iter_unpack(memoryview(buf)[pos:end]):
                scores.append(entry[0])
                doc_ids.append(entry[1])
                if term_scores is not None:
                    term_scores.append(entry[2])
        if remaining and len(reader._buf) - reader._pos < width:
            if doc_ids:
                yield scores[0], doc_ids, scores, term_scores
                doc_ids, scores = [], []
                term_scores = [] if with_term_scores else None
            # One record straddling the fragment edge (or the next fetch).
            score, doc_id = reader.read_struct("<dI")
            scores.append(score)
            doc_ids.append(doc_id)
            if term_scores is not None:
                term_scores.append(reader.read_struct("<f")[0])
            remaining -= 1
    if doc_ids:
        yield scores[0], doc_ids, scores, term_scores


def iter_chunk_postings_lazy(reader: LazyBytesReader
                             ) -> "Iterator[tuple[int, list[int], list[float] | None]]":
    """Stream a legacy chunked payload as ``(chunk_id, doc_ids, term_scores)``.

    The shape of :func:`iter_blocked_chunk_postings_lazy`: runs come in
    decreasing chunk-id order, each as page-fragment groups (see
    :func:`_delta_groups`) with doc ids ascending; ``term_scores`` is
    ``None`` when the list stores none.
    """
    if reader.exhausted:
        return
    run_count = reader.read_varint()
    with_term_scores = bool(reader.read_bytes(1)[0])
    for _ in range(run_count):
        chunk_id = reader.read_varint()
        posting_count = reader.read_varint()
        for doc_ids, term_scores in _delta_groups(reader, posting_count,
                                                  with_term_scores,
                                                  zero_scores=False):
            yield chunk_id, doc_ids, term_scores


# ---------------------------------------------------------------------------
# Blocked codecs (fixed-span blocks behind a CRC-protected directory)
# ---------------------------------------------------------------------------

#: First byte of every blocked payload; doubles as a cheap sanity check that a
#: payload routed to the blocked decoders actually came from a blocked encoder.
BLOCKED_MAGIC = 0xB7
BLOCKED_VERSION = 1

#: Kind tags stored in the blocked header.
BLOCK_KIND_ID = 0
BLOCK_KIND_SCORED = 1
BLOCK_KIND_CHUNK = 2

#: Postings per block.  128 keeps a block's payload well under one 4 KiB page
#: (a delta varint plus optional 4-byte term score is <= 14 bytes) so a scan
#: stops at sub-page granularity, while the directory stays ~1% of the
#: payload for long lists.
DEFAULT_BLOCK_SPAN = 128

_BOUND = struct.Struct("<d")


def blocked_postings_enabled() -> bool:
    """Process-wide default for the blocked long-list codec.

    On unless ``REPRO_BLOCKED_POSTINGS=0`` — the fidelity off-switch that
    reproduces the seed's legacy payloads (and their fig7/table1 I/O
    fingerprints) exactly.
    """
    return os.environ.get("REPRO_BLOCKED_POSTINGS", "1") != "0"


#: Header flags byte: bit 0 says postings carry term scores.  Any other bit
#: marks a payload this reader cannot decode, rejected as a ``ChecksumError``.
_FLAG_TERM_SCORES = 1


@dataclass(frozen=True)
class BlockInfo:
    """Directory entry of one block in a blocked long-list payload.

    Attributes
    ----------
    count:
        Number of postings in the block (always >= 1).
    last_doc_id:
        Document id of the block's final posting (cross-checked on decode).
    bound:
        Kind-specific max-score metadata: the largest term score in the block
        (id kind), the largest stored document score (scored kind — the first
        record, lists are score-descending) or the largest chunk id (chunk
        kind).  The scored and chunk decoders cross-check it against the
        block's first posting.
    length:
        Payload length in bytes.
    crc:
        CRC32 of the payload bytes.
    """

    count: int
    last_doc_id: int
    bound: float
    length: int
    crc: int


@dataclass(frozen=True)
class BlockDirectory:
    """Parsed header + directory of a blocked payload."""

    kind: int
    with_term_scores: bool
    total: int
    blocks: tuple[BlockInfo, ...]


def _encode_blocked(kind: int, with_term_scores: bool, total: int,
                    blocks: "list[tuple[int, int, float, bytes]]") -> bytes:
    """Assemble the blocked wire format.

    ``blocks`` holds ``(count, last_doc_id, bound, payload)`` per block.  The
    layout is: a 4-byte header (magic, version, kind, flags), varint total and
    block counts, the varint-length + CRC32-protected block directory, then
    the block payloads back to back.  Both the directory and each payload
    carry a CRC so bit-rot anywhere in the segment surfaces as a typed
    :class:`~repro.errors.ChecksumError` on *both* storage backends (the file
    backend's per-page checksum catches it one layer earlier).
    """
    directory = bytearray()
    for count, last_doc_id, bound, payload in blocks:
        directory += encode_varint(count)
        directory += encode_varint(last_doc_id)
        directory += _BOUND.pack(bound)
        directory += encode_varint(len(payload))
        directory += encode_varint(zlib.crc32(payload))
    out = bytearray()
    out.append(BLOCKED_MAGIC)
    out.append(BLOCKED_VERSION)
    out.append(kind)
    out.append(_FLAG_TERM_SCORES if with_term_scores else 0)
    out += encode_varint(total)
    out += encode_varint(len(blocks))
    out += encode_varint(len(directory))
    out += encode_varint(zlib.crc32(bytes(directory)))
    out += directory
    for _count, _last, _bound, payload in blocks:
        out += payload
    return bytes(out)


def _check_block_span(block_span: int) -> None:
    if block_span < 1:
        raise InvertedIndexError(f"block_span must be positive, got {block_span}")


def encode_blocked_id_postings(postings: Sequence[Posting],
                               with_term_scores: bool = False,
                               block_span: int = DEFAULT_BLOCK_SPAN) -> bytes:
    """Blocked variant of :func:`encode_id_postings`.

    Each block is self-contained: its first document id is stored absolute so
    a block decodes without its predecessors (and torn tails are detected per
    block).  The block bound is the largest term score in the block.
    """
    _check_block_span(block_span)
    previous = 0
    for posting in postings:
        if posting.doc_id < previous:
            raise InvertedIndexError("ID-ordered postings must be sorted by doc id")
        previous = posting.doc_id
    blocks: list[tuple[int, int, float, bytes]] = []
    for start in range(0, len(postings), block_span):
        span = postings[start:start + block_span]
        bound = 0.0
        body = bytearray()
        previous = 0
        for posting in span:
            body += encode_varint(posting.doc_id - previous)
            previous = posting.doc_id
            if with_term_scores:
                body += _FLOAT.pack(posting.term_score)
                if posting.term_score > bound:
                    bound = posting.term_score
        blocks.append((len(span), span[-1].doc_id, bound, bytes(body)))
    return _encode_blocked(BLOCK_KIND_ID, with_term_scores, len(postings), blocks)


def encode_blocked_scored_postings(postings: Sequence[ScoredPosting],
                                   with_term_scores: bool = False,
                                   block_span: int = DEFAULT_BLOCK_SPAN) -> bytes:
    """Blocked variant of :func:`encode_scored_postings`.

    Records keep the fixed ``<dI>`` layout; the block bound is the stored
    score of the block's first record (lists are score-descending, so that is
    the block maximum).
    """
    _check_block_span(block_span)
    previous_score = None
    for posting in postings:
        if previous_score is not None and posting.score > previous_score:
            raise InvertedIndexError("scored postings must be sorted by decreasing score")
        previous_score = posting.score
    record = _SCORED_TS if with_term_scores else _SCORED
    blocks: list[tuple[int, int, float, bytes]] = []
    for start in range(0, len(postings), block_span):
        span = postings[start:start + block_span]
        if with_term_scores:
            body = b"".join(
                record.pack(posting.score, posting.doc_id, posting.term_score)
                for posting in span
            )
        else:
            body = b"".join(record.pack(posting.score, posting.doc_id) for posting in span)
        blocks.append((len(span), span[-1].doc_id, span[0].score, body))
    return _encode_blocked(BLOCK_KIND_SCORED, with_term_scores, len(postings), blocks)


def encode_blocked_chunk_runs(runs: Sequence[ChunkRun],
                              with_term_scores: bool = False,
                              block_span: int = DEFAULT_BLOCK_SPAN) -> bytes:
    """Blocked variant of :func:`encode_chunk_runs`.

    Runs are flattened into the same (decreasing chunk, increasing doc id)
    posting order and re-grouped into fixed-span blocks; a run that straddles
    a block boundary restarts as a fresh fragment (chunk id, count, absolute
    first doc id) so every block decodes independently.  The block bound is
    the block's largest chunk id — its first fragment's.
    """
    _check_block_span(block_span)
    flat: list[tuple[int, int, float]] = []
    previous_chunk = None
    for run in runs:
        if previous_chunk is not None and run.chunk_id >= previous_chunk:
            raise InvertedIndexError("chunk runs must be sorted by decreasing chunk id")
        previous_chunk = run.chunk_id
        previous_doc = 0
        for posting in run.postings:
            if posting.doc_id < previous_doc:
                raise InvertedIndexError(
                    "postings within a chunk must be sorted by increasing doc id"
                )
            previous_doc = posting.doc_id
            flat.append((run.chunk_id, posting.doc_id, posting.term_score))
    blocks: list[tuple[int, int, float, bytes]] = []
    total = len(flat)
    for start in range(0, total, block_span):
        span = flat[start:start + block_span]
        fragments: list[tuple[int, int]] = []
        index = 0
        while index < len(span):
            chunk_id = span[index][0]
            end = index
            while end < len(span) and span[end][0] == chunk_id:
                end += 1
            fragments.append((chunk_id, end - index))
            index = end
        body = bytearray()
        position = 0
        for chunk_id, count in fragments:
            body += encode_varint(chunk_id)
            body += encode_varint(count)
            previous_doc = 0
            for _chunk, doc_id, term_score in span[position:position + count]:
                body += encode_varint(doc_id - previous_doc)
                previous_doc = doc_id
                if with_term_scores:
                    body += _FLOAT.pack(term_score)
            position += count
        blocks.append((len(span), span[-1][1], float(span[0][0]), bytes(body)))
    return _encode_blocked(BLOCK_KIND_CHUNK, with_term_scores, total, blocks)


def _read_blocked_header(reader: LazyBytesReader, expected_kind: int,
                         head: "bytes | None" = None) -> BlockDirectory:
    """Parse the blocked header + directory through ``reader`` (CRC-verified)."""
    if head is None:
        head = reader.read_bytes(4)
    if head[0] != BLOCKED_MAGIC:
        raise ChecksumError(
            f"blocked posting list: bad magic byte 0x{head[0]:02x}"
        )
    if head[1] != BLOCKED_VERSION:
        raise InvertedIndexError(
            f"blocked posting list: unsupported version {head[1]}"
        )
    if head[2] != expected_kind:
        raise InvertedIndexError(
            f"blocked posting list: kind {head[2]} where {expected_kind} was expected"
        )
    if head[3] > _FLAG_TERM_SCORES:
        raise ChecksumError(f"blocked posting list: bad flags byte 0x{head[3]:02x}")
    with_term_scores = bool(head[3])
    total = reader.read_varint()
    block_count = reader.read_varint()
    directory_length = reader.read_varint()
    directory_crc = reader.read_varint()
    blob = reader.read_bytes(directory_length)
    if zlib.crc32(blob) != directory_crc:
        raise ChecksumError("blocked posting list: directory checksum mismatch")
    blocks: list[BlockInfo] = []
    offset = 0
    for _ in range(block_count):
        count, offset = decode_varint(blob, offset)
        last_doc_id, offset = decode_varint(blob, offset)
        if offset + 8 > len(blob):
            raise ChecksumError("blocked posting list: truncated directory entry")
        bound = _BOUND.unpack_from(blob, offset)[0]
        offset += 8
        length, offset = decode_varint(blob, offset)
        crc, offset = decode_varint(blob, offset)
        blocks.append(BlockInfo(count=count, last_doc_id=last_doc_id, bound=bound,
                                length=length, crc=crc))
    if offset != len(blob):
        raise ChecksumError("blocked posting list: directory length mismatch")
    if sum(block.count for block in blocks) != total:
        raise ChecksumError("blocked posting list: posting count mismatch")
    if any(block.count == 0 for block in blocks):
        raise ChecksumError("blocked posting list: empty block")
    return BlockDirectory(kind=head[2], with_term_scores=with_term_scores,
                          total=total, blocks=tuple(blocks))


def peek_blocked_directory(reader: LazyBytesReader) -> "BlockDirectory | None":
    """Parse a blocked payload's header + directory, tolerating legacy payloads.

    The EXPLAIN planner's peek: returns ``None`` when the payload is empty or
    not in the blocked format (legacy flat encodings), and otherwise the
    CRC-verified :class:`BlockDirectory` with the kind sniffed from the
    header, so callers need no method-specific expectation.  A payload that
    *claims* to be blocked but is corrupt still raises, like any read.
    """
    if reader.exhausted:
        return None
    try:
        head = reader.read_bytes(4)
    except InvertedIndexError:
        return None  # shorter than any blocked header: a legacy payload
    if head[0] != BLOCKED_MAGIC or head[1] != BLOCKED_VERSION:
        return None
    if head[2] not in (BLOCK_KIND_ID, BLOCK_KIND_SCORED, BLOCK_KIND_CHUNK):
        return None
    return _read_blocked_header(reader, head[2], head=head)


def read_block_directory(data: bytes) -> BlockDirectory:
    """Parse a blocked payload's header + directory from bytes (tests, benches)."""
    return _read_blocked_header(LazyBytesReader(iter((data,))), _sniff_kind(data))


def _sniff_kind(data: bytes) -> int:
    if len(data) < 3:
        raise InvertedIndexError("blocked posting list: payload too short")
    return data[2]


def _read_block_payload(reader: LazyBytesReader, block: BlockInfo) -> bytes:
    payload = reader.read_bytes(block.length)
    if zlib.crc32(payload) != block.crc:
        raise ChecksumError("blocked posting list: block checksum mismatch")
    return payload


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


def _decode_id_block(payload: bytes, block: BlockInfo, with_term_scores: bool
                     ) -> "list[tuple[int, list[int], list[float] | None]]":
    """Decode one ID block as one item ``(last_doc_id, doc_ids, term_scores|None)``."""
    doc_ids: list[int] = []
    term_scores: "list[float] | None" = [] if with_term_scores else None
    try:
        offset = _decode_doc_run(payload, 0, block.count, doc_ids, term_scores)
    except (IndexError, struct.error):
        raise ChecksumError("blocked posting list: truncated block") from None
    if offset != len(payload) or doc_ids[-1] != block.last_doc_id:
        raise ChecksumError("blocked posting list: block contents do not match header")
    return [(block.last_doc_id, doc_ids, term_scores)]


def _decode_scored_block(payload: bytes, block: BlockInfo, with_term_scores: bool
                         ) -> "list[tuple[float, list[int], list[float], list[float] | None]]":
    """Decode one scored block as one item ``(bound, doc_ids, scores, term_scores|None)``."""
    record = _SCORED_TS if with_term_scores else _SCORED
    if len(payload) != block.count * record.size:
        raise ChecksumError("blocked posting list: block contents do not match header")
    columns = list(zip(*record.iter_unpack(payload)))
    scores, doc_ids = list(columns[0]), list(columns[1])
    if doc_ids[-1] != block.last_doc_id or scores[0] != block.bound:
        raise ChecksumError("blocked posting list: block contents do not match header")
    return [(block.bound, doc_ids, scores,
             list(columns[2]) if with_term_scores else None)]


def _decode_chunk_block(payload: bytes, block: BlockInfo, with_term_scores: bool
                        ) -> "list[tuple[int, list[int], list[float] | None]]":
    """Decode one chunk block into its fragments.

    A fragment is one chunk's run of postings inside the block:
    ``(chunk_id, doc_ids, term_scores)``, with ``term_scores`` ``None`` when
    the payload carries none.  Fragments come in decreasing chunk order.
    """
    fragments: list = []
    offset = 0
    size = len(payload)
    remaining = block.count
    previous_chunk = None
    try:
        while remaining:
            chunk_id, offset = decode_varint(payload, offset)
            fragment_count, offset = decode_varint(payload, offset)
            if fragment_count == 0 or fragment_count > remaining:
                raise ChecksumError("blocked posting list: bad chunk fragment length")
            if previous_chunk is not None and chunk_id >= previous_chunk:
                raise ChecksumError("blocked posting list: chunk fragments out of order")
            previous_chunk = chunk_id
            doc_ids: list[int] = []
            term_scores: "list[float] | None" = [] if with_term_scores else None
            offset = _decode_doc_run(payload, offset, fragment_count, doc_ids,
                                     term_scores)
            fragments.append((chunk_id, doc_ids, term_scores))
            remaining -= fragment_count
    except (IndexError, struct.error):
        raise ChecksumError("blocked posting list: truncated block") from None
    if (offset != size or fragments[-1][1][-1] != block.last_doc_id
            or fragments[0][0] != int(block.bound)):
        raise ChecksumError("blocked posting list: block contents do not match header")
    return fragments


_BLOCK_DECODERS = {
    BLOCK_KIND_ID: _decode_id_block,
    BLOCK_KIND_SCORED: _decode_scored_block,
    BLOCK_KIND_CHUNK: _decode_chunk_block,
}


def _iter_blocked_lazy(reader: LazyBytesReader, kind: int) -> Iterator:
    """Shared blocked scan loop: decode one block at a time, in list order.

    A block's payload bytes are read only when the consumer pulls its first
    item (a chunk fragment, or the whole block for the ID and scored kinds),
    so a merge that stops early never fetches the pages under the remaining
    blocks.
    """
    if reader.exhausted:
        return
    directory = _read_blocked_header(reader, kind)
    decode_block = _BLOCK_DECODERS[kind]
    with_term_scores = directory.with_term_scores
    for block in directory.blocks:
        yield from decode_block(_read_block_payload(reader, block), block,
                                with_term_scores)


def iter_blocked_id_postings_lazy(
        reader: LazyBytesReader) -> "Iterator[tuple[int, list[int], list[float] | None]]":
    """Stream a blocked ID-ordered list one block at a time.

    Each item is ``(last_doc_id, doc_ids, term_scores)``: one block's doc ids
    ascending, ``term_scores`` aligned with them or ``None`` when the list
    stores none.  The ID methods merge a doc-id window at a time, so they
    consume whole blocks instead of single postings.
    """
    return _iter_blocked_lazy(reader, BLOCK_KIND_ID)


def iter_blocked_scored_postings_lazy(
        reader: LazyBytesReader
) -> "Iterator[tuple[float, list[int], list[float], list[float] | None]]":
    """Stream a blocked score-ordered list one block at a time.

    Each item is ``(bound, doc_ids, scores, term_scores)``: one block's
    postings in decreasing score order, ``bound`` its top score,
    ``term_scores`` aligned with them or ``None`` when the list stores none.
    """
    return _iter_blocked_lazy(reader, BLOCK_KIND_SCORED)


def iter_blocked_chunk_postings_lazy(
        reader: LazyBytesReader) -> "Iterator[tuple[int, list[int], list[float] | None]]":
    """Stream a blocked chunked list as block-local chunk fragments.

    Each item is ``(chunk_id, doc_ids, term_scores)``: one chunk's postings
    within one block, doc ids ascending, ``term_scores`` aligned with them or
    ``None`` when the list stores none.  A chunk that straddles a block
    boundary arrives as two fragments.  The Chunk methods merge a chunk at a
    time, so they consume whole fragments instead of single postings.
    """
    return _iter_blocked_lazy(reader, BLOCK_KIND_CHUNK)


def decode_blocked_id_postings(data: bytes) -> list[Posting]:
    """Eagerly decode a payload produced by :func:`encode_blocked_id_postings`."""
    reader = LazyBytesReader(iter((data,)))
    return [
        Posting(doc_id=doc_id,
                term_score=0.0 if term_scores is None else term_scores[i])
        for _last, doc_ids, term_scores in iter_blocked_id_postings_lazy(reader)
        for i, doc_id in enumerate(doc_ids)
    ]


def decode_blocked_scored_postings(data: bytes) -> list[ScoredPosting]:
    """Eagerly decode a payload produced by :func:`encode_blocked_scored_postings`."""
    reader = LazyBytesReader(iter((data,)))
    return [
        ScoredPosting(doc_id=doc_id, score=scores[i],
                      term_score=0.0 if term_scores is None else term_scores[i])
        for _bound, doc_ids, scores, term_scores in iter_blocked_scored_postings_lazy(reader)
        for i, doc_id in enumerate(doc_ids)
    ]


def decode_blocked_chunk_runs(data: bytes) -> list[ChunkRun]:
    """Eagerly decode a payload produced by :func:`encode_blocked_chunk_runs`.

    Fragments of one chunk split across block boundaries are re-joined, so the
    result compares equal to the runs given to the encoder.
    """
    reader = LazyBytesReader(iter((data,)))
    runs: list[tuple[int, list[Posting]]] = []
    for chunk_id, doc_ids, term_scores in iter_blocked_chunk_postings_lazy(reader):
        if not runs or runs[-1][0] != chunk_id:
            runs.append((chunk_id, []))
        runs[-1][1].extend(
            Posting(doc_id=doc_id,
                    term_score=0.0 if term_scores is None else term_scores[i])
            for i, doc_id in enumerate(doc_ids)
        )
    return [ChunkRun(chunk_id=chunk_id, postings=tuple(postings))
            for chunk_id, postings in runs]


# ---------------------------------------------------------------------------
# Helpers shared by the index builders
# ---------------------------------------------------------------------------


def build_rekey_operations(
    changes: Iterable[tuple[int, float, float]],
    terms_of: "Callable[[int], Iterable[str]]",
) -> tuple[list[tuple[str, float, int]], list[tuple[str, float, int]]]:
    """Turn coalesced score changes into sorted clustered-list re-key batches.

    ``changes`` yields ``(doc_id, old_score, new_score)`` triples — one per
    document, already coalesced from first-seen old score to final new score.
    ``terms_of`` maps a document id to its distinct terms (``Content(id)``).
    Returns ``(deletes, inserts)``: the old ``(term, -old_score, doc_id)`` keys
    to remove from a score-clustered list and the new ``(term, -new_score,
    doc_id)`` keys to add, each sorted so a bulk B+-tree pass can consume the
    run without re-descending per key.  Documents whose score did not change
    produce no operations (their postings are already keyed correctly).
    """
    deletes: list[tuple[str, float, int]] = []
    inserts: list[tuple[str, float, int]] = []
    for doc_id, old_score, new_score in changes:
        if old_score == new_score:
            continue
        for term in terms_of(doc_id):
            deletes.append((term, -old_score, doc_id))
            inserts.append((term, -new_score, doc_id))
    deletes.sort()
    inserts.sort()
    return deletes, inserts


def build_chunk_runs(doc_chunks: Iterable[tuple[int, int, float]]) -> list[ChunkRun]:
    """Group ``(doc_id, chunk_id, term_score)`` triples into sorted chunk runs.

    Runs are ordered by decreasing chunk id; postings within a run by
    increasing document id — the on-disk order the Chunk method requires.
    """
    by_chunk: dict[int, list[Posting]] = {}
    for doc_id, chunk_id, term_score in doc_chunks:
        by_chunk.setdefault(chunk_id, []).append(Posting(doc_id=doc_id, term_score=term_score))
    runs = []
    for chunk_id in sorted(by_chunk, reverse=True):
        postings = tuple(sorted(by_chunk[chunk_id], key=lambda posting: posting.doc_id))
        runs.append(ChunkRun(chunk_id=chunk_id, postings=postings))
    return runs
