"""Tests for posting codecs (varints, ID-ordered, score-ordered and chunked lists)."""

import pytest

from repro.errors import InvertedIndexError
from repro.core.posting import (
    ChunkRun,
    LazyBytesReader,
    Posting,
    ScoredPosting,
    build_chunk_runs,
    decode_chunk_runs,
    decode_id_postings,
    decode_scored_postings,
    decode_varint,
    encode_chunk_runs,
    encode_id_postings,
    encode_scored_postings,
    encode_varint,
    iter_chunk_postings_lazy,
    iter_id_postings_lazy,
    iter_scored_postings_lazy,
)
from tests.helpers import chunk_postings


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
        data = encode_id_postings(postings)
        assert decode_id_postings(data) == postings

    def test_round_trip_with_term_scores(self):
        postings = [Posting(doc_id=i, term_score=i / 10) for i in range(20)]
        data = encode_id_postings(postings, with_term_scores=True)
        decoded = decode_id_postings(data)
        assert [p.doc_id for p in decoded] == [p.doc_id for p in postings]
        for got, want in zip(decoded, postings):
            assert got.term_score == pytest.approx(want.term_score, rel=1e-6)

    def test_unsorted_ids_rejected(self):
        with pytest.raises(InvertedIndexError):
            encode_id_postings([Posting(5), Posting(3)])

    def test_empty_list(self):
        assert decode_id_postings(encode_id_postings([])) == []
        assert decode_id_postings(b"") == []

    def test_delta_encoding_is_compact(self):
        dense = [Posting(doc_id=i) for i in range(1000)]
        assert len(encode_id_postings(dense)) < 1100  # ~1 byte per posting + header


class TestScoredPostings:
    def test_round_trip(self):
        postings = [
            ScoredPosting(doc_id=i, score=1000.0 - i) for i in range(30)
        ]
        decoded = decode_scored_postings(encode_scored_postings(postings))
        assert [(p.doc_id, p.score) for p in decoded] == [
            (p.doc_id, p.score) for p in postings
        ]

    def test_requires_descending_score_order(self):
        with pytest.raises(InvertedIndexError):
            encode_scored_postings([ScoredPosting(1, 5.0), ScoredPosting(2, 10.0)])

    def test_scored_lists_are_larger_than_id_lists(self):
        ids = [Posting(doc_id=i) for i in range(500)]
        scored = [ScoredPosting(doc_id=i, score=10_000.0 - i) for i in range(500)]
        assert len(encode_scored_postings(scored)) > 5 * len(encode_id_postings(ids))


class TestChunkRuns:
    def test_round_trip(self):
        runs = [
            ChunkRun(chunk_id=3, postings=(Posting(1), Posting(5), Posting(9))),
            ChunkRun(chunk_id=1, postings=(Posting(2), Posting(3))),
        ]
        assert decode_chunk_runs(encode_chunk_runs(runs)) == runs

    def test_requires_descending_chunk_order(self):
        runs = [
            ChunkRun(chunk_id=1, postings=(Posting(1),)),
            ChunkRun(chunk_id=2, postings=(Posting(2),)),
        ]
        with pytest.raises(InvertedIndexError):
            encode_chunk_runs(runs)

    def test_requires_ascending_doc_ids_within_chunk(self):
        runs = [ChunkRun(chunk_id=1, postings=(Posting(5), Posting(1)))]
        with pytest.raises(InvertedIndexError):
            encode_chunk_runs(runs)

    def test_build_chunk_runs_orders_correctly(self):
        triples = [(10, 1, 0.0), (3, 2, 0.0), (7, 2, 0.0), (1, 1, 0.0), (4, 3, 0.0)]
        runs = build_chunk_runs(triples)
        assert [run.chunk_id for run in runs] == [3, 2, 1]
        assert [p.doc_id for p in runs[1].postings] == [3, 7]
        assert [p.doc_id for p in runs[2].postings] == [1, 10]


def id_postings(blocks) -> list[tuple[int, float]]:
    """Flatten ``(last_doc_id, doc_ids, term_scores)`` pseudo-blocks into postings."""
    return [posting for _last, doc_ids, term_scores in blocks
            for posting in zip(doc_ids, term_scores)]


class TestLazyDecoding:
    def test_lazy_id_decoding_matches_eager(self):
        postings = [Posting(doc_id=i * 3, term_score=0.0) for i in range(200)]
        data = encode_id_postings(postings)
        pages = [data[i:i + 16] for i in range(0, len(data), 16)]
        reader = LazyBytesReader(iter(pages))
        assert id_postings(iter_id_postings_lazy(reader)) == [
            (posting.doc_id, posting.term_score) for posting in postings
        ]

    def test_lazy_chunk_decoding_matches_eager(self):
        runs = build_chunk_runs([(doc, doc % 4 + 1, 0.0) for doc in range(100)])
        data = encode_chunk_runs(runs)
        pages = [data[i:i + 7] for i in range(0, len(data), 7)]
        triples = chunk_postings(iter_chunk_postings_lazy(LazyBytesReader(iter(pages))))
        expected = [
            (run.chunk_id, posting.doc_id, posting.term_score)
            for run in runs for posting in run.postings
        ]
        assert triples == expected

    def test_lazy_reader_consumes_pages_on_demand(self):
        postings = [Posting(doc_id=i) for i in range(1000)]
        data = encode_id_postings(postings)
        consumed = 0

        def pages():
            nonlocal consumed
            for i in range(0, len(data), 32):
                consumed += 1
                yield data[i:i + 32]

        iterator = (
            doc_id
            for _last, doc_ids, _ts in iter_id_postings_lazy(LazyBytesReader(pages()))
            for doc_id in doc_ids
        )
        for _ in range(10):
            next(iterator)
        assert consumed < 5  # only the first pages were touched

    def test_truncated_stream_raises(self):
        data = encode_id_postings([Posting(doc_id=i) for i in range(100)])
        reader = LazyBytesReader(iter([data[:10]]))
        with pytest.raises(InvertedIndexError):
            list(iter_id_postings_lazy(reader))

    def test_truncated_scored_stream_raises(self):
        postings = [ScoredPosting(doc_id=i, score=100.0 - i) for i in range(40)]
        for with_term_scores in (False, True):
            data = encode_scored_postings(postings, with_term_scores=with_term_scores)
            reader = LazyBytesReader(iter([data[:len(data) - 3]]))
            with pytest.raises(InvertedIndexError):
                list(iter_scored_postings_lazy(reader))
