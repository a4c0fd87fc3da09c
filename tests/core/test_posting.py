"""Tests for posting codecs (varints, ID-ordered, score-ordered and chunked lists)."""

import pytest

from repro.errors import ChecksumError, InvertedIndexError
from repro.core.posting import (
    ChunkRun,
    Posting,
    ScoredPosting,
    build_chunk_runs,
    decode_varint,
    encode_blocked_chunk_runs,
    encode_blocked_id_postings,
    encode_blocked_scored_postings,
    encode_varint,
    iter_blocked_chunk_postings_lazy,
    iter_blocked_id_postings_lazy,
    iter_blocked_scored_postings_lazy,
)
from repro.storage.pager import PAGE_SIZE
from tests.helpers import chunk_postings, id_postings, paginate, scored_postings


def decode_id(data: bytes, page_size: int = PAGE_SIZE) -> list[Posting]:
    return [Posting(doc_id=doc_id, term_score=term_score) for doc_id, term_score
            in id_postings(iter_blocked_id_postings_lazy(paginate(data, page_size)))]


def decode_scored(data: bytes, page_size: int = PAGE_SIZE) -> list[ScoredPosting]:
    return [ScoredPosting(doc_id=doc_id, score=score, term_score=term_score)
            for doc_id, score, term_score in scored_postings(
                iter_blocked_scored_postings_lazy(paginate(data, page_size)))]


def decode_chunks(data: bytes, page_size: int = PAGE_SIZE) -> list[ChunkRun]:
    """Chunk runs, with a chunk split across pages joined again."""
    runs: list[tuple[int, list[Posting]]] = []
    for chunk_id, doc_id, term_score in chunk_postings(
            iter_blocked_chunk_postings_lazy(paginate(data, page_size))):
        if not runs or runs[-1][0] != chunk_id:
            runs.append((chunk_id, []))
        runs[-1][1].append(Posting(doc_id=doc_id, term_score=term_score))
    return [ChunkRun(chunk_id=chunk_id, postings=tuple(postings))
            for chunk_id, postings in runs]


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
        postings = [Posting(doc_id=i * 7) for i in range(50)]
        data = encode_blocked_id_postings(postings)
        assert decode_id(data) == postings

    def test_round_trip_with_term_scores(self):
        postings = [Posting(doc_id=i, term_score=i / 10) for i in range(20)]
        data = encode_blocked_id_postings(postings, with_term_scores=True)
        decoded = decode_id(data)
        assert [p.doc_id for p in decoded] == [p.doc_id for p in postings]
        for got, want in zip(decoded, postings):
            assert got.term_score == pytest.approx(want.term_score, rel=1e-6)

    def test_unsorted_ids_rejected(self):
        with pytest.raises(InvertedIndexError):
            encode_blocked_id_postings([Posting(5), Posting(3)])

    def test_empty_list(self):
        assert decode_id(encode_blocked_id_postings([])) == []
        # Zero bytes are not a list: even an empty one has a page 0.
        with pytest.raises(ChecksumError):
            decode_id(b"")

    def test_page_too_small_for_one_posting_rejected(self):
        with pytest.raises(InvertedIndexError):
            encode_blocked_id_postings([Posting(doc_id=2 ** 40)], page_size=8)

    def test_delta_encoding_is_compact(self):
        dense = [Posting(doc_id=i) for i in range(1000)]
        # ~1 byte per posting + CRC, header and count
        assert len(encode_blocked_id_postings(dense)) < 1100


class TestScoredPostings:
    def test_round_trip(self):
        postings = [
            ScoredPosting(doc_id=i, score=1000.0 - i) for i in range(30)
        ]
        decoded = decode_scored(encode_blocked_scored_postings(postings))
        assert [(p.doc_id, p.score) for p in decoded] == [
            (p.doc_id, p.score) for p in postings
        ]

    def test_requires_descending_score_order(self):
        with pytest.raises(InvertedIndexError):
            encode_blocked_scored_postings([ScoredPosting(1, 5.0), ScoredPosting(2, 10.0)])

    def test_scored_lists_are_larger_than_id_lists(self):
        ids = [Posting(doc_id=i) for i in range(500)]
        scored = [ScoredPosting(doc_id=i, score=10_000.0 - i) for i in range(500)]
        assert (len(encode_blocked_scored_postings(scored))
                > 5 * len(encode_blocked_id_postings(ids)))


class TestChunkRuns:
    def test_round_trip(self):
        runs = [
            ChunkRun(chunk_id=3, postings=(Posting(1), Posting(5), Posting(9))),
            ChunkRun(chunk_id=1, postings=(Posting(2), Posting(3))),
        ]
        assert decode_chunks(encode_blocked_chunk_runs(runs)) == runs

    def test_requires_descending_chunk_order(self):
        runs = [
            ChunkRun(chunk_id=1, postings=(Posting(1),)),
            ChunkRun(chunk_id=2, postings=(Posting(2),)),
        ]
        with pytest.raises(InvertedIndexError):
            encode_blocked_chunk_runs(runs)

    def test_requires_ascending_doc_ids_within_chunk(self):
        runs = [ChunkRun(chunk_id=1, postings=(Posting(5), Posting(1)))]
        with pytest.raises(InvertedIndexError):
            encode_blocked_chunk_runs(runs)

    def test_build_chunk_runs_orders_correctly(self):
        triples = [(10, 1, 0.0), (3, 2, 0.0), (7, 2, 0.0), (1, 1, 0.0), (4, 3, 0.0)]
        runs = build_chunk_runs(triples)
        assert [run.chunk_id for run in runs] == [3, 2, 1]
        assert [p.doc_id for p in runs[1].postings] == [3, 7]
        assert [p.doc_id for p in runs[2].postings] == [1, 10]


class TestLazyDecoding:
    def test_lazy_id_decoding_matches_eager(self):
        postings = [Posting(doc_id=i * 3, term_score=0.0) for i in range(200)]
        data = encode_blocked_id_postings(postings, page_size=64)
        assert len(paginate(data, 64)) > 3
        assert decode_id(data, 64) == postings

    def test_lazy_chunk_decoding_matches_eager(self):
        runs = build_chunk_runs([(doc, doc % 4 + 1, 0.0) for doc in range(100)])
        data = encode_blocked_chunk_runs(runs, page_size=64)
        triples = chunk_postings(iter_blocked_chunk_postings_lazy(paginate(data, 64)))
        expected = [
            (run.chunk_id, posting.doc_id, posting.term_score)
            for run in runs for posting in run.postings
        ]
        assert triples == expected
        assert decode_chunks(data, 64) == runs

    def test_lazy_reader_consumes_pages_on_demand(self):
        postings = [Posting(doc_id=i) for i in range(1000)]
        data = encode_blocked_id_postings(postings, page_size=64)
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
        data = encode_blocked_id_postings([Posting(doc_id=1)])
        with pytest.raises(InvertedIndexError):
            list(iter_blocked_chunk_postings_lazy([data]))

    def test_truncated_stream_raises(self):
        data = encode_blocked_id_postings([Posting(doc_id=i) for i in range(100)])
        with pytest.raises(ChecksumError):
            list(iter_blocked_id_postings_lazy([data[:10]]))

    def test_truncated_scored_stream_raises(self):
        postings = [ScoredPosting(doc_id=i, score=100.0 - i) for i in range(40)]
        for with_term_scores in (False, True):
            data = encode_blocked_scored_postings(postings,
                                                  with_term_scores=with_term_scores)
            with pytest.raises(ChecksumError):
                list(iter_blocked_scored_postings_lazy([data[:len(data) - 3]]))
