"""Property-based round-trip tests for the posting codecs.

The lazy decoders are the query-scan hot path and decode one page per pull;
these properties pin a list split over many small pages to the same list
stored on one large page, across randomized page sizes, including the
term-score variants and truncated inputs.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ChecksumError
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
from tests.helpers import (
    chunk_postings,
    chunk_runs,
    id_postings,
    paginate,
    scored_postings,
)

doc_ids = st.integers(min_value=0, max_value=2 ** 31 - 1)
term_scores = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, width=32)
page_sizes = st.integers(min_value=64, max_value=256)
#: Large enough to hold any list below on one page: the "eager" reference.
ONE_PAGE = 1 << 16


def lazy(decoder, encode, columns: tuple, page_size: int) -> list:
    """Encode ``columns`` at ``page_size`` and decode a page per pull."""
    return list(decoder(paginate(encode(*columns, page_size=page_size), page_size)))


@settings(max_examples=100, deadline=None)
@given(value=st.integers(min_value=0, max_value=2 ** 62))
def test_varint_round_trip(value):
    decoded, offset = decode_varint(encode_varint(value), 0)
    assert decoded == value
    assert offset == len(encode_varint(value))


@settings(max_examples=60, deadline=None)
@given(ids=st.lists(doc_ids, max_size=200, unique=True))
def test_id_postings_round_trip(ids):
    ids = sorted(ids)
    blocks = lazy(iter_blocked_id_postings_lazy, encode_blocked_id_postings,
                  (ids,), ONE_PAGE)
    assert id_postings(blocks) == [(doc_id, 0.0) for doc_id in ids]


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
    columns = ([doc for doc, _score in ordered], [score for _doc, score in ordered])
    blocks = lazy(iter_blocked_scored_postings_lazy, encode_blocked_scored_postings,
                  columns, ONE_PAGE)
    assert scored_postings(blocks) == [(doc, score, 0.0) for doc, score in ordered]


@settings(max_examples=60, deadline=None)
@given(
    triples=st.lists(
        st.tuples(doc_ids, st.integers(min_value=1, max_value=20)),
        max_size=150,
        unique_by=lambda entry: entry[0],
    ),
    page_size=page_sizes,
)
def test_chunk_runs_round_trip_eager_and_lazy(triples, page_size):
    runs = chunk_runs([(doc, chunk, 0.0) for doc, chunk in triples])
    expected = chunk_postings(runs)
    for size in (ONE_PAGE, page_size):
        assert chunk_postings(lazy(iter_blocked_chunk_postings_lazy,
                                   encode_blocked_chunk_runs, (runs,), size)) == expected


@settings(max_examples=60, deadline=None)
@given(
    ids=st.lists(doc_ids, max_size=200, unique=True),
    page_size=page_sizes,
)
def test_lazy_id_decoding_is_page_size_independent(ids, page_size):
    ids = sorted(ids)
    assert id_postings(lazy(iter_blocked_id_postings_lazy, encode_blocked_id_postings,
                            (ids,), page_size)) == [(doc_id, 0.0) for doc_id in ids]


# ---------------------------------------------------------------------------
# Many small pages vs one large page, across every list kind
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    entries=st.lists(st.tuples(doc_ids, term_scores), max_size=150,
                     unique_by=lambda entry: entry[0]),
    page_size=page_sizes,
)
def test_lazy_id_termscore_matches_eager(entries, page_size):
    entries = sorted(entries)
    columns = ([doc for doc, _ts in entries], [ts for _doc, ts in entries])
    eager, small = (
        id_postings(lazy(iter_blocked_id_postings_lazy, encode_blocked_id_postings,
                         columns, size))
        for size in (ONE_PAGE, page_size))
    assert small == eager == entries


@settings(max_examples=60, deadline=None)
@given(
    entries=st.lists(
        st.tuples(doc_ids, st.floats(min_value=0, max_value=1e6, allow_nan=False),
                  term_scores),
        max_size=100,
        unique_by=lambda entry: entry[0],
    ),
    page_size=page_sizes,
    with_term_scores=st.booleans(),
)
def test_lazy_scored_matches_eager(entries, page_size, with_term_scores):
    ordered = sorted(entries, key=lambda entry: -entry[1])
    columns = ([doc for doc, _s, _ts in ordered], [score for _d, score, _ts in ordered],
               [ts for _d, _s, ts in ordered] if with_term_scores else None)
    eager, small = (
        scored_postings(lazy(iter_blocked_scored_postings_lazy,
                             encode_blocked_scored_postings, columns, size))
        for size in (ONE_PAGE, page_size))
    assert small == eager == [
        (doc, score, ts if with_term_scores else 0.0) for doc, score, ts in ordered]


@settings(max_examples=60, deadline=None)
@given(
    triples=st.lists(
        st.tuples(doc_ids, st.integers(min_value=1, max_value=20), term_scores),
        max_size=150,
        unique_by=lambda entry: entry[0],
    ),
    page_size=page_sizes,
)
def test_lazy_chunk_termscore_matches_eager(triples, page_size):
    runs = chunk_runs(triples, with_term_scores=True)
    eager, small = (
        chunk_postings(lazy(iter_blocked_chunk_postings_lazy, encode_blocked_chunk_runs,
                            (runs,), size))
        for size in (ONE_PAGE, page_size))
    assert small == eager == chunk_postings(runs)


# ---------------------------------------------------------------------------
# Truncation: the lazy decoders must fail loudly, never fabricate postings
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    ids=st.lists(doc_ids, min_size=4, max_size=60, unique=True),
    page_size=page_sizes,
    with_term_scores=st.booleans(),
    data=st.data(),
)
def test_truncated_id_list_raises_or_is_prefix(ids, page_size, with_term_scores, data):
    ids = sorted(ids)
    encoded = encode_blocked_id_postings(ids, [0.5] * len(ids) if with_term_scores else None,
                                         page_size=page_size)
    cut = data.draw(st.integers(min_value=1, max_value=len(encoded) - 1))
    expected = [(doc_id, 0.5 if with_term_scores else 0.0) for doc_id in ids]
    blocks = []
    with pytest.raises(ChecksumError):
        for item in iter_blocked_id_postings_lazy(paginate(encoded[:cut], page_size)):
            blocks.append(item)
    # Everything decoded before the truncation error must be a prefix of the
    # true posting sequence: a page is checked before it is decoded.
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
    page_size=page_sizes,
    with_term_scores=st.booleans(),
    data=st.data(),
)
def test_truncated_chunk_list_raises_or_is_prefix(triples, page_size,
                                                  with_term_scores, data):
    runs = chunk_runs(triples, with_term_scores)
    encoded = encode_blocked_chunk_runs(runs, page_size=page_size)
    cut = data.draw(st.integers(min_value=1, max_value=len(encoded) - 1))
    expected = chunk_postings(runs)
    fragments = []
    with pytest.raises(ChecksumError):
        for item in iter_blocked_chunk_postings_lazy(paginate(encoded[:cut], page_size)):
            fragments.append(item)
    produced = chunk_postings(fragments)
    assert produced == expected[: len(produced)]
