"""Property-based tests for the blocked posting codec.

Mirrors the lazy-vs-eager suite in ``test_posting_properties.py`` for the
blocked binary layout: round-trips for all three list kinds (including empty
lists, single-element blocks and maximal varint values), page-size
independence, torn tails, and single-byte bitrot — which must surface as a
typed error or decode identically, never as silently different postings.
A golden-bytes test pins the wire format itself.
"""

import hashlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ChecksumError, InvertedIndexError
from repro.core.posting import (
    LazyBytesReader,
    Posting,
    ScoredPosting,
    build_chunk_runs,
    decode_blocked_chunk_runs,
    decode_blocked_id_postings,
    decode_blocked_scored_postings,
    encode_blocked_chunk_runs,
    encode_blocked_id_postings,
    encode_blocked_scored_postings,
    iter_blocked_chunk_postings_lazy,
    iter_blocked_id_postings_lazy,
    iter_blocked_scored_postings_lazy,
    read_block_directory,
)
from tests.helpers import chunk_postings, scored_postings

doc_ids = st.integers(min_value=0, max_value=2 ** 31 - 1)
#: Includes the top of the varint range so multi-byte continuation paths and
#: maximal-length varints are exercised.
wide_doc_ids = st.integers(min_value=0, max_value=2 ** 62)
term_scores = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, width=32)
block_spans = st.sampled_from([1, 2, 3, 7, 64, 128])


def paginate(data: bytes, page_size: int) -> list[bytes]:
    """Split an encoded list into page-sized fragments (as a heap file would)."""
    return [data[i:i + page_size] for i in range(0, len(data), page_size)]


def reader_for(data: bytes, page_size: int) -> LazyBytesReader:
    return LazyBytesReader(iter(paginate(data, page_size)))


def id_postings(blocks) -> list[tuple[int, float]]:
    """Flatten ``(last_doc_id, doc_ids, term_scores)`` blocks into postings."""
    return [
        (doc_id, term_scores[i] if term_scores is not None else 0.0)
        for _last, doc_ids, term_scores in blocks
        for i, doc_id in enumerate(doc_ids)
    ]


# ---------------------------------------------------------------------------
# Round trips: eager and lazy, across block spans and page sizes
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    ids=st.lists(wide_doc_ids, max_size=200, unique=True),
    with_term_scores=st.booleans(),
    block_span=block_spans,
    page_size=st.integers(min_value=1, max_value=48),
)
def test_blocked_id_round_trip(ids, with_term_scores, block_span, page_size):
    postings = [Posting(doc_id=i, term_score=0.5) for i in sorted(ids)]
    data = encode_blocked_id_postings(
        postings, with_term_scores=with_term_scores, block_span=block_span
    )
    decoded = decode_blocked_id_postings(data)
    expected_ts = 0.5 if with_term_scores else 0.0
    assert [(p.doc_id, p.term_score) for p in decoded] == [
        (p.doc_id, expected_ts) for p in postings
    ]
    blocks = list(iter_blocked_id_postings_lazy(reader_for(data, page_size)))
    assert id_postings(blocks) == [(p.doc_id, expected_ts) for p in postings]
    # One item per block, carrying the block's last doc id.
    assert [len(doc_ids) for _last, doc_ids, _ts in blocks] == [
        len(postings[start:start + block_span])
        for start in range(0, len(postings), block_span)
    ]
    assert all(last == doc_ids[-1] for last, doc_ids, _ts in blocks)
    assert all((ts is None) == (not with_term_scores) for _l, _d, ts in blocks)


@settings(max_examples=60, deadline=None)
@given(
    entries=st.lists(
        st.tuples(doc_ids, st.floats(min_value=0, max_value=1e6, allow_nan=False),
                  term_scores),
        max_size=120,
        unique_by=lambda entry: entry[0],
    ),
    with_term_scores=st.booleans(),
    block_span=block_spans,
    page_size=st.integers(min_value=1, max_value=48),
)
def test_blocked_scored_round_trip(entries, with_term_scores, block_span, page_size):
    ordered = sorted(entries, key=lambda entry: (-entry[1], entry[0]))
    postings = [
        ScoredPosting(doc_id=doc, score=score, term_score=ts)
        for doc, score, ts in ordered
    ]
    data = encode_blocked_scored_postings(
        postings, with_term_scores=with_term_scores, block_span=block_span
    )
    decoded = decode_blocked_scored_postings(data)
    expected = [
        (p.doc_id, p.score, p.term_score if with_term_scores else 0.0)
        for p in postings
    ]
    assert [(p.doc_id, p.score, p.term_score) for p in decoded] == expected
    blocks = list(iter_blocked_scored_postings_lazy(reader_for(data, page_size)))
    assert scored_postings(blocks) == expected
    # One item per block, carrying the block's top score.
    assert [len(doc_ids) for _bound, doc_ids, _s, _ts in blocks] == [
        len(postings[start:start + block_span])
        for start in range(0, len(postings), block_span)
    ]
    assert all(bound == scores[0] for bound, _d, scores, _ts in blocks)


@settings(max_examples=60, deadline=None)
@given(
    triples=st.lists(
        st.tuples(doc_ids, st.integers(min_value=1, max_value=20), term_scores),
        max_size=150,
        unique_by=lambda entry: entry[0],
    ),
    with_term_scores=st.booleans(),
    block_span=block_spans,
    page_size=st.integers(min_value=1, max_value=48),
)
def test_blocked_chunk_round_trip(triples, with_term_scores, block_span, page_size):
    runs = build_chunk_runs(triples)
    data = encode_blocked_chunk_runs(
        runs, with_term_scores=with_term_scores, block_span=block_span
    )
    expected_runs = [
        (run.chunk_id,
         tuple((p.doc_id, p.term_score if with_term_scores else 0.0)
               for p in run.postings))
        for run in runs
    ]
    decoded = decode_blocked_chunk_runs(data)
    assert [
        (run.chunk_id, tuple((p.doc_id, p.term_score) for p in run.postings))
        for run in decoded
    ] == expected_runs
    fragments = list(iter_blocked_chunk_postings_lazy(reader_for(data, page_size)))
    assert chunk_postings(fragments) == [
        (chunk_id, doc_id, ts)
        for chunk_id, postings in expected_runs
        for doc_id, ts in postings
    ]
    # One fragment per (block, chunk) pair: a chunk only splits at a block edge.
    assert len(fragments) == sum(
        len({chunk_id for chunk_id, _doc, _ts in block})
        for block in (
            chunk_postings(fragments)[start:start + block_span]
            for start in range(0, len(triples), block_span)
        )
    )
    assert all((ts is None) == (not with_term_scores) for _c, _d, ts in fragments)


def test_empty_lists_round_trip():
    assert decode_blocked_id_postings(encode_blocked_id_postings([])) == []
    assert decode_blocked_scored_postings(encode_blocked_scored_postings([])) == []
    assert decode_blocked_chunk_runs(encode_blocked_chunk_runs([])) == []
    for data, it in [
        (encode_blocked_id_postings([]), iter_blocked_id_postings_lazy),
        (encode_blocked_scored_postings([]), iter_blocked_scored_postings_lazy),
        (encode_blocked_chunk_runs([]), iter_blocked_chunk_postings_lazy),
    ]:
        assert list(it(reader_for(data, 7))) == []
        assert read_block_directory(data).blocks == ()


def test_single_element_blocks_have_one_posting_each():
    postings = [Posting(doc_id=i * 3) for i in range(10)]
    data = encode_blocked_id_postings(postings, block_span=1)
    directory = read_block_directory(data)
    assert len(directory.blocks) == 10
    assert all(block.count == 1 for block in directory.blocks)
    assert [b.last_doc_id for b in directory.blocks] == [p.doc_id for p in postings]


# ---------------------------------------------------------------------------
# Torn tails: truncated payloads fail loudly with a typed error
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    ids=st.lists(doc_ids, min_size=4, max_size=60, unique=True),
    block_span=st.sampled_from([1, 3, 8]),
    page_size=st.integers(min_value=1, max_value=32),
    data=st.data(),
)
def test_torn_tail_raises_typed_error(ids, block_span, page_size, data):
    postings = [Posting(doc_id=i) for i in sorted(ids)]
    encoded = encode_blocked_id_postings(postings, block_span=block_span)
    cut = data.draw(st.integers(min_value=1, max_value=len(encoded) - 1))
    reader = reader_for(encoded[:cut], page_size)
    expected = [(p.doc_id, 0.0) for p in postings]
    blocks = []
    with pytest.raises((ChecksumError, InvertedIndexError)):
        for item in iter_blocked_id_postings_lazy(reader):
            blocks.append(item)
    # Whatever decoded before the error must be a prefix of the true sequence;
    # CRC-checked blocks never emit garbage postings.
    produced = id_postings(blocks)
    assert produced == expected[: len(produced)]


@settings(max_examples=40, deadline=None)
@given(
    triples=st.lists(
        st.tuples(doc_ids, st.integers(min_value=1, max_value=10), term_scores),
        min_size=4,
        max_size=60,
        unique_by=lambda entry: entry[0],
    ),
    block_span=st.sampled_from([1, 3, 8]),
    page_size=st.integers(min_value=1, max_value=32),
    data=st.data(),
)
def test_torn_chunk_tail_raises_typed_error(triples, block_span, page_size, data):
    runs = build_chunk_runs(triples)
    encoded = encode_blocked_chunk_runs(runs, block_span=block_span)
    cut = data.draw(st.integers(min_value=1, max_value=len(encoded) - 1))
    fragments = []
    with pytest.raises((ChecksumError, InvertedIndexError)):
        for item in iter_blocked_chunk_postings_lazy(reader_for(encoded[:cut], page_size)):
            fragments.append(item)
    produced = chunk_postings(fragments)
    expected = [
        (run.chunk_id, p.doc_id, 0.0) for run in runs for p in run.postings
    ]
    assert produced == expected[: len(produced)]


# ---------------------------------------------------------------------------
# Bitrot: a flipped byte is detected or provably harmless, never silent garbage
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    entries=st.lists(
        st.tuples(doc_ids, st.floats(min_value=0, max_value=1e4, allow_nan=False)),
        min_size=1,
        max_size=50,
        unique_by=lambda entry: entry[0],
    ),
    block_span=st.sampled_from([1, 4, 16]),
    position=st.integers(min_value=0, max_value=2 ** 16),
    flip=st.integers(min_value=1, max_value=255),
)
# Header byte 3 is the flags byte; bit 1 once selected a since-removed block
# codec, and a payload carrying it must be rejected, never misdecoded.
@example(entries=[(7, 1.0)], block_span=1, position=3, flip=2)
def test_bitrot_detected_or_identical(entries, block_span, position, flip):
    ordered = sorted(entries, key=lambda entry: (-entry[1], entry[0]))
    postings = [ScoredPosting(doc_id=doc, score=score) for doc, score in ordered]
    encoded = bytearray(encode_blocked_scored_postings(postings, block_span=block_span))
    position %= len(encoded)
    encoded[position] ^= flip
    reference = [(p.doc_id, p.score, 0.0) for p in postings]
    try:
        decoded = scored_postings(
            iter_blocked_scored_postings_lazy(reader_for(bytes(encoded), 16)))
    except (ChecksumError, InvertedIndexError) as exc:
        # Any corrupt flags byte is the typed checksum error specifically.
        assert position != 3 or isinstance(exc, ChecksumError)
        return
    assert decoded == reference


@settings(max_examples=60, deadline=None)
@given(
    ids=st.lists(wide_doc_ids, min_size=1, max_size=60, unique=True),
    with_term_scores=st.booleans(),
    block_span=st.sampled_from([1, 4, 16]),
    position=st.integers(min_value=0, max_value=2 ** 16),
    flip=st.integers(min_value=1, max_value=255),
)
def test_id_bitrot_detected_or_identical(ids, with_term_scores, block_span,
                                         position, flip):
    postings = [Posting(doc_id=i, term_score=(i % 5) / 8) for i in sorted(ids)]
    clean = encode_blocked_id_postings(postings, with_term_scores=with_term_scores,
                                       block_span=block_span)
    payload_start = len(clean) - sum(
        block.length for block in read_block_directory(clean).blocks)
    encoded = bytearray(clean)
    position %= len(encoded)
    encoded[position] ^= flip
    reference = id_postings(iter_blocked_id_postings_lazy(reader_for(clean, 16)))
    try:
        decoded = list(iter_blocked_id_postings_lazy(reader_for(bytes(encoded), 16)))
    except (ChecksumError, InvertedIndexError) as exc:
        # A corrupt block payload is always the typed checksum error.
        assert position < payload_start or isinstance(exc, ChecksumError)
        return
    assert id_postings(decoded) == reference


# ---------------------------------------------------------------------------
# Golden bytes: the wire format is frozen
# ---------------------------------------------------------------------------


def test_golden_bytes_pin_the_wire_format():
    """sha256 of each blocked encoder's output for a fixed multi-block input.

    The digests were taken from the commit before block-max pruning, block
    seeking and the group-varint codec were removed, so they prove that
    removal changed no payload byte (page layout and Table 1 sizes follow).
    """
    ids = [Posting(doc_id=7 * i * i + 3, term_score=(i % 11) / 16) for i in range(300)]
    scored = [
        ScoredPosting(doc_id=(i * 2654435761) % 100003, score=5000.0 - 1.5 * i,
                      term_score=(i % 7) / 8)
        for i in range(300)
    ]
    runs = build_chunk_runs([(5 * i + 1, 1 + i % 9, (i % 13) / 16) for i in range(300)])
    digests = {
        name: hashlib.sha256(
            b"".join(encode(items, with_term_scores=flag) for flag in (False, True))
        ).hexdigest()
        for name, encode, items in [
            ("id", encode_blocked_id_postings, ids),
            ("scored", encode_blocked_scored_postings, scored),
            ("chunk", encode_blocked_chunk_runs, runs),
        ]
    }
    assert digests == {
        "id": "7b05989df34c0075e76934d58cf2b2c508d6460d33c4cbcbbb03ff658a03da60",
        "scored": "de44fd6c61e9ab6251623dd47a3f9cb314af5d3d15976c37dadbdef0bc26c35a",
        "chunk": "fcb4d067a5bd2f498a676f66f1bbe9652ec965c20c65421afeabe5657e07a329",
    }


# ---------------------------------------------------------------------------
# The query cursor: same postings whatever the layout and the list cache
# ---------------------------------------------------------------------------


def _cursor_postings(method: str, blocked: bool, cache_pages: int) -> dict:
    """Every term's cursor output after a storm of writes, flattened.

    A block's bound depends on where the layout cuts blocks, so only chunk
    ids (the bound of every chunk posting) are kept."""
    import random

    from repro.core.indexes.base import QueryStats
    from repro.core.indexes.registry import create_index
    from repro.storage.environment import StorageEnvironment
    from repro.text.documents import DocumentStore
    from tests.conftest import METHOD_OPTIONS

    rng = random.Random(404)
    vocabulary = [f"c{i}" for i in range(6)]
    index = create_index(method, StorageEnvironment(cache_pages=1024, page_size=128),
                         DocumentStore(), blocked_postings=blocked,
                         list_cache_pages=cache_pages, **METHOD_OPTIONS[method])
    for doc_id in range(1, 301):
        index.add_document(doc_id, round(1000 * rng.random() ** 3, 2),
                           terms=rng.sample(vocabulary, rng.randint(1, 4)))
    index.finalize()
    for step in range(40):
        doc_id = rng.randint(1, 300)
        if step % 4 == 0:
            index.update_content(doc_id, rng.sample(vocabulary, rng.randint(1, 4)))
        elif step % 4 == 1 and index.current_score(doc_id) is not None:
            index.delete_document(doc_id)
            index.insert_document(doc_id, rng.sample(vocabulary, 2), rng.random() * 50)
        else:
            index.update_score(doc_id, round(rng.random() * 3000, 2))
    stats = QueryStats()
    out = {}
    for term in vocabulary:
        for _round in range(2):  # a cold and, with the cache on, a warm pass
            out[term] = [
                (bound if method.startswith("chunk") else None, doc_id,
                 0.0 if values is None else values[i], from_short)
                for stream in index._term_stream(0, term, stats)
                for bound, doc_ids, values, from_short in stream
                for i, doc_id in enumerate(doc_ids)
            ]
    return out


@pytest.mark.parametrize("method", ["id", "id_termscore", "chunk",
                                    "chunk_termscore", "score_threshold"])
def test_cursor_yields_same_postings_on_every_layout_and_cache(method):
    expected = _cursor_postings(method, blocked=True, cache_pages=0)
    assert any(expected.values())
    for blocked, cache_pages in [(True, 256), (False, 0), (False, 256)]:
        assert _cursor_postings(method, blocked, cache_pages) == expected, (
            blocked, cache_pages)
