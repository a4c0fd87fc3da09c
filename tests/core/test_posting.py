"""Tests for posting codecs (varints, ID-ordered, score-ordered and chunked lists)."""

import pytest

from repro.errors import ChecksumError, InvertedIndexError
from repro.core.indexes.chunking import ChunkMap
from repro.core.indexes.registry import create_index
from repro.core.posting import (
    decode_varint,
    encode_blocked_chunk_runs,
    encode_blocked_id_postings,
    encode_blocked_scored_postings,
    encode_varint,
    iter_blocked_chunk_postings_lazy,
    iter_blocked_id_postings_lazy,
    iter_blocked_scored_postings_lazy,
)
from repro.storage.environment import StorageEnvironment
from repro.storage.pager import PAGE_SIZE
from repro.text.documents import DocumentStore
from tests.helpers import (
    chunk_postings,
    chunk_runs,
    id_postings,
    paginate,
    scored_postings,
)


def decode_id(data: bytes, page_size: int = PAGE_SIZE) -> list[tuple[int, float]]:
    return id_postings(iter_blocked_id_postings_lazy(paginate(data, page_size)))


def decode_scored(data: bytes, page_size: int = PAGE_SIZE) -> list[tuple[int, float, float]]:
    return scored_postings(iter_blocked_scored_postings_lazy(paginate(data, page_size)))


def decode_chunks(data: bytes, page_size: int = PAGE_SIZE) -> list[tuple]:
    """``(chunk_id, doc_ids, term_scores)`` runs, with a chunk split across
    pages joined again."""
    runs: list[tuple] = []
    for chunk_id, doc_ids, term_scores in iter_blocked_chunk_postings_lazy(
            paginate(data, page_size)):
        if not runs or runs[-1][0] != chunk_id:
            runs.append((chunk_id, [], None if term_scores is None else []))
        runs[-1][1].extend(doc_ids)
        if term_scores is not None:
            runs[-1][2].extend(term_scores)
    return runs


class TestVarint:
    @pytest.mark.parametrize("value", [0, 1, 127, 128, 300, 2 ** 21, 2 ** 40])
    def test_round_trip(self, value):
        encoded = encode_varint(value)
        decoded, offset = decode_varint(encoded, 0)
        assert decoded == value
        assert offset == len(encoded)

    def test_small_values_take_one_byte(self):
        assert len(encode_varint(0)) == 1
        assert len(encode_varint(127)) == 1
        assert len(encode_varint(128)) == 2

    def test_negative_rejected(self):
        with pytest.raises(InvertedIndexError):
            encode_varint(-1)

    def test_truncated_decode_raises(self):
        with pytest.raises(InvertedIndexError):
            decode_varint(b"\x80", 0)


class TestIDPostings:
    def test_round_trip(self):
        doc_ids = [i * 7 for i in range(50)]
        data = encode_blocked_id_postings(doc_ids)
        assert decode_id(data) == [(doc_id, 0.0) for doc_id in doc_ids]

    def test_round_trip_with_term_scores(self):
        doc_ids = list(range(20))
        term_scores = [i / 10 for i in doc_ids]
        data = encode_blocked_id_postings(doc_ids, term_scores)
        decoded = decode_id(data)
        assert [doc_id for doc_id, _ts in decoded] == doc_ids
        for (_doc_id, got), want in zip(decoded, term_scores):
            assert got == pytest.approx(want, rel=1e-6)

    def test_unsorted_ids_rejected(self):
        with pytest.raises(InvertedIndexError):
            encode_blocked_id_postings([5, 3])

    def test_misaligned_columns_rejected(self):
        with pytest.raises(InvertedIndexError):
            encode_blocked_id_postings([1, 2], [0.5])
        with pytest.raises(InvertedIndexError):
            encode_blocked_scored_postings([1, 2], [2.0])
        with pytest.raises(InvertedIndexError):
            encode_blocked_chunk_runs([(2, [1], [0.5]), (1, [2], None)])

    def test_empty_list(self):
        assert decode_id(encode_blocked_id_postings([])) == []
        # Zero bytes are not a list: even an empty one has a page 0.
        with pytest.raises(ChecksumError):
            decode_id(b"")

    def test_page_too_small_for_one_posting_rejected(self):
        with pytest.raises(InvertedIndexError):
            encode_blocked_id_postings([2 ** 40], page_size=8)

    def test_delta_encoding_is_compact(self):
        # ~1 byte per posting + CRC, header and count
        assert len(encode_blocked_id_postings(range(1000))) < 1100


class TestScoredPostings:
    def test_round_trip(self):
        doc_ids = list(range(30))
        scores = [1000.0 - i for i in doc_ids]
        decoded = decode_scored(encode_blocked_scored_postings(doc_ids, scores))
        assert [(doc_id, score) for doc_id, score, _ts in decoded] == list(
            zip(doc_ids, scores))

    def test_requires_descending_score_order(self):
        with pytest.raises(InvertedIndexError):
            encode_blocked_scored_postings([1, 2], [5.0, 10.0])

    def test_scored_lists_are_larger_than_id_lists(self):
        doc_ids = list(range(500))
        scores = [10_000.0 - i for i in doc_ids]
        assert (len(encode_blocked_scored_postings(doc_ids, scores))
                > 5 * len(encode_blocked_id_postings(doc_ids)))


class TestChunkRuns:
    def test_round_trip(self):
        runs = [(3, [1, 5, 9], None), (1, [2, 3], None)]
        assert decode_chunks(encode_blocked_chunk_runs(runs)) == runs

    def test_requires_descending_chunk_order(self):
        runs = [(1, [1], None), (2, [2], None)]
        with pytest.raises(InvertedIndexError):
            encode_blocked_chunk_runs(runs)

    def test_requires_ascending_doc_ids_within_chunk(self):
        runs = [(1, [5, 1], None)]
        with pytest.raises(InvertedIndexError):
            encode_blocked_chunk_runs(runs)

    def test_build_chunk_runs_orders_correctly(self):
        # Staged out of order; the Chunk build sorts by (-chunk_id, doc_id).
        index = create_index("chunk", StorageEnvironment(), DocumentStore(),
                             chunk_strategy=lambda _scores: ChunkMap((0.0, 10.0, 20.0)))
        for doc_id, chunk_id in [(10, 1), (3, 2), (7, 2), (1, 1), (4, 3)]:
            index.add_document(doc_id, 10.0 * chunk_id - 5, terms=["t"])
        index.finalize()
        handle = index._segments["t"]
        runs = decode_chunks(b"".join(index._long_lists.peek_pages(handle)))
        assert runs == [(3, [4], None), (2, [3, 7], None), (1, [1, 10], None)]


class TestLazyDecoding:
    def test_lazy_id_decoding_matches_eager(self):
        doc_ids = [i * 3 for i in range(200)]
        data = encode_blocked_id_postings(doc_ids, page_size=64)
        assert len(paginate(data, 64)) > 3
        assert decode_id(data, 64) == [(doc_id, 0.0) for doc_id in doc_ids]

    def test_lazy_chunk_decoding_matches_eager(self):
        runs = chunk_runs([(doc, doc % 4 + 1, 0.0) for doc in range(100)])
        data = encode_blocked_chunk_runs(runs, page_size=64)
        triples = chunk_postings(iter_blocked_chunk_postings_lazy(paginate(data, 64)))
        assert triples == chunk_postings(runs)
        assert decode_chunks(data, 64) == runs

    def test_lazy_reader_consumes_pages_on_demand(self):
        data = encode_blocked_id_postings(range(1000), page_size=64)
        consumed = 0

        def pages():
            nonlocal consumed
            for page in paginate(data, 64):
                consumed += 1
                yield page

        iterator = (
            doc_id
            for _last, doc_ids, _ts in iter_blocked_id_postings_lazy(pages())
            for doc_id in doc_ids
        )
        for _ in range(10):
            next(iterator)
        assert consumed == 1  # one page is one block

    def test_list_of_another_kind_rejected(self):
        data = encode_blocked_id_postings([1])
        with pytest.raises(InvertedIndexError):
            list(iter_blocked_chunk_postings_lazy([data]))

    def test_truncated_stream_raises(self):
        data = encode_blocked_id_postings(range(100))
        with pytest.raises(ChecksumError):
            list(iter_blocked_id_postings_lazy([data[:10]]))

    def test_truncated_scored_stream_raises(self):
        doc_ids = list(range(40))
        scores = [100.0 - i for i in doc_ids]
        for term_scores in (None, [0.5] * 40):
            data = encode_blocked_scored_postings(doc_ids, scores, term_scores)
            with pytest.raises(ChecksumError):
                list(iter_blocked_scored_postings_lazy([data[:len(data) - 3]]))
