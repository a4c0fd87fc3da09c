"""Property-based round-trip tests for the posting codecs.

The lazy decoders are the query-scan hot path and batch-decode runs of
postings straight out of page fragments; these properties pin them to the
simple eager reference decoders across randomized page splits, including the
term-score variants and truncated inputs.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvertedIndexError
from repro.core.posting import (
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
from tests.helpers import chunk_postings, scored_postings

doc_ids = st.integers(min_value=0, max_value=2 ** 31 - 1)
term_scores = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, width=32)


def paginate(data: bytes, page_size: int) -> list[bytes]:
    """Split an encoded list into page-sized fragments (as a heap file would)."""
    return [data[i:i + page_size] for i in range(0, len(data), page_size)]


def id_postings(blocks) -> list[tuple[int, float]]:
    """Flatten ``(last_doc_id, doc_ids, term_scores)`` pseudo-blocks into postings."""
    return [posting for _last, doc_ids, term_scores in blocks
            for posting in zip(doc_ids, term_scores)]


@settings(max_examples=100, deadline=None)
@given(value=st.integers(min_value=0, max_value=2 ** 62))
def test_varint_round_trip(value):
    decoded, offset = decode_varint(encode_varint(value), 0)
    assert decoded == value
    assert offset == len(encode_varint(value))


@settings(max_examples=60, deadline=None)
@given(ids=st.lists(doc_ids, max_size=200, unique=True))
def test_id_postings_round_trip(ids):
    postings = [Posting(doc_id=i) for i in sorted(ids)]
    assert decode_id_postings(encode_id_postings(postings)) == postings


@settings(max_examples=60, deadline=None)
@given(
    entries=st.lists(
        st.tuples(doc_ids, st.floats(min_value=0, max_value=1e6, allow_nan=False)),
        max_size=100,
        unique_by=lambda entry: entry[0],
    )
)
def test_scored_postings_round_trip(entries):
    ordered = sorted(entries, key=lambda entry: -entry[1])
    postings = [ScoredPosting(doc_id=doc, score=score) for doc, score in ordered]
    decoded = decode_scored_postings(encode_scored_postings(postings))
    assert [(p.doc_id, p.score) for p in decoded] == [(p.doc_id, p.score) for p in postings]


@settings(max_examples=60, deadline=None)
@given(
    triples=st.lists(
        st.tuples(doc_ids, st.integers(min_value=1, max_value=20)),
        max_size=150,
        unique_by=lambda entry: entry[0],
    ),
    page_size=st.integers(min_value=3, max_value=64),
)
def test_chunk_runs_round_trip_eager_and_lazy(triples, page_size):
    runs = build_chunk_runs([(doc, chunk, 0.0) for doc, chunk in triples])
    data = encode_chunk_runs(runs)
    assert decode_chunk_runs(data) == runs
    lazy = chunk_postings(
        iter_chunk_postings_lazy(LazyBytesReader(iter(paginate(data, page_size)))))
    eager = [
        (run.chunk_id, posting.doc_id, posting.term_score)
        for run in runs for posting in run.postings
    ]
    assert lazy == eager


@settings(max_examples=60, deadline=None)
@given(
    ids=st.lists(doc_ids, max_size=200, unique=True),
    page_size=st.integers(min_value=1, max_value=48),
)
def test_lazy_id_decoding_is_page_size_independent(ids, page_size):
    postings = [Posting(doc_id=i) for i in sorted(ids)]
    data = encode_id_postings(postings)
    lazy = id_postings(iter_id_postings_lazy(LazyBytesReader(iter(paginate(data, page_size)))))
    assert lazy == [(posting.doc_id, posting.term_score) for posting in postings]


# ---------------------------------------------------------------------------
# Lazy-vs-eager equivalence across every codec variant
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    entries=st.lists(st.tuples(doc_ids, term_scores), max_size=150,
                     unique_by=lambda entry: entry[0]),
    page_size=st.integers(min_value=1, max_value=48),
)
def test_lazy_id_termscore_matches_eager(entries, page_size):
    postings = [Posting(doc_id=doc, term_score=score) for doc, score in sorted(entries)]
    data = encode_id_postings(postings, with_term_scores=True)
    eager = [(p.doc_id, p.term_score) for p in decode_id_postings(data)]
    lazy = id_postings(iter_id_postings_lazy(LazyBytesReader(iter(paginate(data, page_size)))))
    assert lazy == eager


@settings(max_examples=60, deadline=None)
@given(
    entries=st.lists(
        st.tuples(doc_ids, st.floats(min_value=0, max_value=1e6, allow_nan=False),
                  term_scores),
        max_size=100,
        unique_by=lambda entry: entry[0],
    ),
    page_size=st.integers(min_value=1, max_value=48),
    with_term_scores=st.booleans(),
)
def test_lazy_scored_matches_eager(entries, page_size, with_term_scores):
    ordered = sorted(entries, key=lambda entry: -entry[1])
    postings = [
        ScoredPosting(doc_id=doc, score=score, term_score=ts)
        for doc, score, ts in ordered
    ]
    data = encode_scored_postings(postings, with_term_scores=with_term_scores)
    eager = [(p.doc_id, p.score, p.term_score) for p in decode_scored_postings(data)]
    lazy = scored_postings(
        iter_scored_postings_lazy(LazyBytesReader(iter(paginate(data, page_size)))))
    assert lazy == eager


@settings(max_examples=60, deadline=None)
@given(
    triples=st.lists(
        st.tuples(doc_ids, st.integers(min_value=1, max_value=20), term_scores),
        max_size=150,
        unique_by=lambda entry: entry[0],
    ),
    page_size=st.integers(min_value=1, max_value=48),
)
def test_lazy_chunk_termscore_matches_eager(triples, page_size):
    runs = build_chunk_runs(triples)
    data = encode_chunk_runs(runs, with_term_scores=True)
    eager = [
        (run.chunk_id, posting.doc_id, posting.term_score)
        for run in decode_chunk_runs(data) for posting in run.postings
    ]
    lazy = chunk_postings(
        iter_chunk_postings_lazy(LazyBytesReader(iter(paginate(data, page_size)))))
    assert lazy == eager


# ---------------------------------------------------------------------------
# Truncation: the lazy decoders must fail loudly, never fabricate postings
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    ids=st.lists(doc_ids, min_size=4, max_size=60, unique=True),
    page_size=st.integers(min_value=1, max_value=32),
    with_term_scores=st.booleans(),
    data=st.data(),
)
def test_truncated_id_list_raises_or_is_prefix(ids, page_size, with_term_scores, data):
    postings = [Posting(doc_id=i, term_score=0.5) for i in sorted(ids)]
    encoded = encode_id_postings(postings, with_term_scores=with_term_scores)
    cut = data.draw(st.integers(min_value=1, max_value=len(encoded) - 1))
    reader = LazyBytesReader(iter(paginate(encoded[:cut], page_size)))
    expected = [(p.doc_id, p.term_score if with_term_scores else 0.0) for p in postings]
    blocks = []
    with pytest.raises(InvertedIndexError):
        for item in iter_id_postings_lazy(reader):
            blocks.append(item)
    # Everything decoded before the truncation error must be a prefix of the
    # true posting sequence — batch decoding must not emit garbage first.
    produced = id_postings(blocks)
    assert produced == expected[: len(produced)]


@settings(max_examples=60, deadline=None)
@given(
    triples=st.lists(
        st.tuples(doc_ids, st.integers(min_value=1, max_value=10), term_scores),
        min_size=4,
        max_size=60,
        unique_by=lambda entry: entry[0],
    ),
    page_size=st.integers(min_value=1, max_value=32),
    with_term_scores=st.booleans(),
    data=st.data(),
)
def test_truncated_chunk_list_raises_or_is_prefix(triples, page_size,
                                                  with_term_scores, data):
    runs = build_chunk_runs(triples)
    encoded = encode_chunk_runs(runs, with_term_scores=with_term_scores)
    cut = data.draw(st.integers(min_value=1, max_value=len(encoded) - 1))
    reader = LazyBytesReader(iter(paginate(encoded[:cut], page_size)))
    expected = [
        (run.chunk_id, p.doc_id, p.term_score if with_term_scores else 0.0)
        for run in runs for p in run.postings
    ]
    fragments = []
    with pytest.raises(InvertedIndexError):
        for item in iter_chunk_postings_lazy(reader):
            fragments.append(item)
    produced = chunk_postings(fragments)
    assert produced == expected[: len(produced)]
