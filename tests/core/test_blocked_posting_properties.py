"""Property-based tests for the long-list page layout.

Every page holds one block: its CRC, its count and its postings (page 0 also
the list's kind/flags byte and total).  These tests pin round trips for all
three list kinds at page sizes 64 to 4096 (including empty lists,
one-posting pages and maximal varint values), that no block exceeds its
page, torn tails, and single-byte bitrot — which must surface as a
``ChecksumError``, never as silently different postings.  Golden bytes pin
the wire format itself.
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ChecksumError
from repro.core.posting import (
    encode_blocked_chunk_runs,
    encode_blocked_id_postings,
    encode_blocked_scored_postings,
    iter_blocked_chunk_postings_lazy,
    iter_blocked_id_postings_lazy,
    iter_blocked_scored_postings_lazy,
    read_list_header,
)
from repro.storage.environment import StorageEnvironment
from tests.helpers import (
    chunk_postings,
    chunk_runs,
    id_postings,
    paginate,
    scored_postings,
)

doc_ids = st.integers(min_value=0, max_value=2 ** 31 - 1)
#: Includes the top of the varint range so multi-byte continuation paths and
#: maximal-length varints are exercised.
wide_doc_ids = st.integers(min_value=0, max_value=2 ** 62)
term_scores = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, width=32)
page_sizes = st.sampled_from([64, 65, 96, 128, 256, 1024, 4096])


def per_page(decoder, pages: list[bytes]) -> list[list]:
    """Decode ``pages`` one pull at a time; the items each page produced."""
    out: list[list] = []

    def feed():
        for page in pages:
            out.append([])
            yield page

    for item in decoder(feed()):
        out[-1].append(item)
    return out


def check_pages(data: bytes, page_size: int) -> list[bytes]:
    """Split ``data`` into pages; every page but the last is exactly full."""
    pages = paginate(data, page_size)
    assert all(len(page) == page_size for page in pages[:-1])
    assert 0 < len(pages[-1]) <= page_size
    return pages


# ---------------------------------------------------------------------------
# Round trips: every kind, with and without term scores, page sizes 64-4096
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    ids=st.lists(wide_doc_ids, max_size=400, unique=True),
    with_term_scores=st.booleans(),
    page_size=page_sizes,
)
def test_blocked_id_round_trip(ids, with_term_scores, page_size):
    ids = sorted(ids)
    data = encode_blocked_id_postings(ids, [0.5] * len(ids) if with_term_scores else None,
                                      page_size=page_size)
    pages = check_pages(data, page_size)
    assert read_list_header(pages[0]) == (0, with_term_scores, len(ids))
    items = per_page(iter_blocked_id_postings_lazy, pages)
    expected_ts = 0.5 if with_term_scores else 0.0
    assert id_postings(sum(items, [])) == [(doc_id, expected_ts) for doc_id in ids]
    # One block per page, carrying the page's last doc id.
    assert all(len(page_items) == 1 for page_items in items if ids)
    assert all(last == doc_ids[-1] for last, doc_ids, _ts in sum(items, []))
    assert all((ts is None) == (not with_term_scores) for _l, _d, ts in sum(items, []))


@settings(max_examples=60, deadline=None)
@given(
    entries=st.lists(
        st.tuples(doc_ids, st.floats(min_value=0, max_value=1e6, allow_nan=False),
                  term_scores),
        max_size=300,
        unique_by=lambda entry: entry[0],
    ),
    with_term_scores=st.booleans(),
    page_size=page_sizes,
)
def test_blocked_scored_round_trip(entries, with_term_scores, page_size):
    ordered = sorted(entries, key=lambda entry: (-entry[1], entry[0]))
    data = encode_blocked_scored_postings(
        [doc for doc, _s, _ts in ordered], [score for _d, score, _ts in ordered],
        [ts for _d, _s, ts in ordered] if with_term_scores else None,
        page_size=page_size)
    pages = check_pages(data, page_size)
    assert read_list_header(pages[0]) == (1, with_term_scores, len(ordered))
    items = per_page(iter_blocked_scored_postings_lazy, pages)
    assert scored_postings(sum(items, [])) == [
        (doc, score, ts if with_term_scores else 0.0) for doc, score, ts in ordered
    ]
    # One block per page, carrying the page's top score.
    assert all(len(page_items) == 1 for page_items in items if ordered)
    assert all(bound == scores[0] for bound, _d, scores, _ts in sum(items, []))


@settings(max_examples=60, deadline=None)
@given(
    triples=st.lists(
        st.tuples(wide_doc_ids, st.integers(min_value=1, max_value=2 ** 40),
                  term_scores),
        max_size=300,
        unique_by=lambda entry: entry[0],
    ),
    chunks=st.integers(min_value=1, max_value=20),
    with_term_scores=st.booleans(),
    page_size=page_sizes,
)
def test_blocked_chunk_round_trip(triples, chunks, with_term_scores, page_size):
    # Few distinct chunk ids (``chunks``) so runs straddle pages, but wide
    # ones, so chunk-id varints take several bytes.
    runs = chunk_runs([(doc, chunk % chunks * 2 ** 34 + 1, ts)
                       for doc, chunk, ts in triples], with_term_scores)
    data = encode_blocked_chunk_runs(runs, page_size=page_size)
    pages = check_pages(data, page_size)
    assert read_list_header(pages[0]) == (2, with_term_scores and bool(triples),
                                          len(triples))
    items = per_page(iter_blocked_chunk_postings_lazy, pages)
    assert chunk_postings(sum(items, [])) == chunk_postings(runs)
    # A page holds one fragment per chunk: a chunk only splits at a page edge.
    for page_items in items:
        chunk_ids = [chunk_id for chunk_id, _docs, _ts in page_items]
        assert chunk_ids == sorted(set(chunk_ids), reverse=True)
    assert all((ts is None) == (not with_term_scores)
               for _c, _d, ts in sum(items, []))


def test_empty_lists_round_trip():
    for kind, encode, columns, decoder in [
        (0, encode_blocked_id_postings, ([],), iter_blocked_id_postings_lazy),
        (1, encode_blocked_scored_postings, ([], []), iter_blocked_scored_postings_lazy),
        (2, encode_blocked_chunk_runs, ([],), iter_blocked_chunk_postings_lazy),
    ]:
        data = encode(*columns, page_size=64)
        assert read_list_header(data) == (kind, False, 0)
        assert list(decoder(paginate(data, 64))) == []


def test_single_element_blocks_have_one_posting_each():
    # A 12-byte page holds the CRC, page 0's header, a count and exactly one
    # posting with a term score; a second posting never fits.
    ids = [i * 3 for i in range(10)]
    data = encode_blocked_id_postings(ids, [i / 8 for i in range(10)], page_size=12)
    pages = check_pages(data, 12)
    assert len(pages) == 10
    items = per_page(iter_blocked_id_postings_lazy, pages)
    assert [[(last, doc_ids) for last, doc_ids, _ts in page_items]
            for page_items in items] == [[(doc_id, [doc_id])] for doc_id in ids]


# ---------------------------------------------------------------------------
# Torn tails: truncated lists fail loudly with a typed error
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    ids=st.lists(doc_ids, min_size=4, max_size=200, unique=True),
    page_size=st.sampled_from([64, 80, 128]),
    data=st.data(),
)
def test_torn_tail_raises_typed_error(ids, page_size, data):
    ids = sorted(ids)
    encoded = encode_blocked_id_postings(ids, page_size=page_size)
    pages = paginate(encoded, page_size)
    # Cut inside a page, or drop whole pages at a page edge.
    cut = data.draw(st.one_of(
        st.integers(min_value=1, max_value=len(encoded) - 1),
        st.sampled_from([page_size * n for n in range(1, len(pages))] or [1])))
    expected = [(doc_id, 0.0) for doc_id in ids]
    blocks = []
    with pytest.raises(ChecksumError):
        for item in iter_blocked_id_postings_lazy(paginate(encoded[:cut], page_size)):
            blocks.append(item)
    # Whatever decoded before the error must be a prefix of the true sequence;
    # CRC-checked pages never emit garbage postings.
    produced = id_postings(blocks)
    assert produced == expected[: len(produced)]


@settings(max_examples=40, deadline=None)
@given(
    triples=st.lists(
        st.tuples(doc_ids, st.integers(min_value=1, max_value=10), term_scores),
        min_size=4,
        max_size=150,
        unique_by=lambda entry: entry[0],
    ),
    page_size=st.sampled_from([64, 80, 128]),
    data=st.data(),
)
def test_torn_chunk_tail_raises_typed_error(triples, page_size, data):
    runs = chunk_runs(triples)
    encoded = encode_blocked_chunk_runs(runs, page_size=page_size)
    cut = data.draw(st.integers(min_value=1, max_value=len(encoded) - 1))
    fragments = []
    with pytest.raises(ChecksumError):
        for item in iter_blocked_chunk_postings_lazy(paginate(encoded[:cut], page_size)):
            fragments.append(item)
    produced = chunk_postings(fragments)
    expected = chunk_postings(runs)
    assert produced == expected[: len(produced)]


# ---------------------------------------------------------------------------
# Bitrot: every flipped byte in every page raises ChecksumError
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    entries=st.lists(
        st.tuples(doc_ids, st.floats(min_value=0, max_value=1e4, allow_nan=False)),
        min_size=1,
        max_size=50,
        unique_by=lambda entry: entry[0],
    ),
    page_size=st.sampled_from([64, 128]),
    position=st.integers(min_value=0, max_value=2 ** 16),
    flip=st.integers(min_value=1, max_value=255),
)
def test_bitrot_detected_or_identical(entries, page_size, position, flip):
    ordered = sorted(entries, key=lambda entry: (-entry[1], entry[0]))
    encoded = bytearray(encode_blocked_scored_postings(
        [doc for doc, _score in ordered], [score for _doc, score in ordered],
        page_size=page_size))
    encoded[position % len(encoded)] ^= flip
    with pytest.raises(ChecksumError):
        list(iter_blocked_scored_postings_lazy(paginate(bytes(encoded), page_size)))


@settings(max_examples=60, deadline=None)
@given(
    ids=st.lists(wide_doc_ids, min_size=1, max_size=60, unique=True),
    with_term_scores=st.booleans(),
    page_size=st.sampled_from([64, 128]),
    position=st.integers(min_value=0, max_value=2 ** 16),
    flip=st.integers(min_value=1, max_value=255),
)
def test_id_bitrot_detected_or_identical(ids, with_term_scores, page_size,
                                         position, flip):
    ids = sorted(ids)
    encoded = bytearray(encode_blocked_id_postings(
        ids, [(i % 5) / 8 for i in ids] if with_term_scores else None,
        page_size=page_size))
    encoded[position % len(encoded)] ^= flip
    with pytest.raises(ChecksumError):
        list(iter_blocked_id_postings_lazy(paginate(bytes(encoded), page_size)))


@pytest.mark.parametrize("backend", ["memory", "file"])
def test_every_byte_flip_in_a_stored_list_raises(backend, tmp_path):
    """Each byte of each stored page, flipped on the disk, fails the scan."""
    env = StorageEnvironment(cache_pages=16, page_size=64,
                             path=str(tmp_path / "env") if backend == "file" else None)
    runs = chunk_runs([(3 * i + 1, 1 + i % 4, i / 64) for i in range(40)],
                      with_term_scores=True)
    heap = env.create_heapfile("lists")
    handle = heap.write(encode_blocked_chunk_runs(runs, page_size=64))
    assert handle.page_count > 2
    expected = chunk_postings(iter_blocked_chunk_postings_lazy(heap.iter_pages(handle)))
    for page_id in handle.page_ids:
        page = env.disk.peek(page_id)
        pristine = page.data
        for position in range(len(pristine)):
            mutated = bytearray(pristine)
            mutated[position] ^= 0x41
            page.write(bytes(mutated))
            env.disk.write(page)
            env.pool.drop({page_id})
            with pytest.raises(ChecksumError):
                list(iter_blocked_chunk_postings_lazy(heap.iter_pages(handle)))
        page.write(pristine)
        env.disk.write(page)
        env.pool.drop({page_id})
    assert chunk_postings(
        iter_blocked_chunk_postings_lazy(heap.iter_pages(handle))) == expected
    env.close()


# ---------------------------------------------------------------------------
# Golden bytes: the wire format is frozen
# ---------------------------------------------------------------------------


def test_golden_bytes_pin_the_wire_format():
    """One tiny list of each kind byte for byte, and sha256 digests of each
    encoder's output for a fixed multi-page input (pages of 128 bytes)."""
    tiny = {
        "id": encode_blocked_id_postings([3, 130], [0.5, 0.25]),
        "scored": encode_blocked_scored_postings([9, 4], [2.0, 1.5]),
        "chunk": encode_blocked_chunk_runs(
            chunk_runs([(5, 2, 0.0), (1, 2, 0.0), (8, 1, 0.0)])),
    }
    # crc32 | kind/flags, total | count | postings
    assert {name: data.hex(" ") for name, data in tiny.items()} == {
        "id": "dc 44 ce f9 01 02 02 03 00 00 00 3f 7f 00 00 80 3e",
        "scored": "5d 41 a1 97 02 02 02 00 00 00 00 00 00 00 40 09 00 00 00"
                  " 00 00 00 00 00 00 f8 3f 04 00 00 00",
        "chunk": "ab 2e 34 23 04 03 03 02 02 01 04 01 01 08",
    }
    ids = [7 * i * i + 3 for i in range(300)]
    id_term_scores = [(i % 11) / 16 for i in range(300)]
    scored = ([(i * 2654435761) % 100003 for i in range(300)],
              [5000.0 - 1.5 * i for i in range(300)])
    scored_term_scores = [(i % 7) / 8 for i in range(300)]
    triples = [(5 * i + 1, 1 + i % 9, (i % 13) / 16) for i in range(300)]
    digests = {
        name: hashlib.sha256(
            b"".join(encode(*columns, page_size=128) for columns in variants)
        ).hexdigest()
        for name, encode, variants in [
            ("id", encode_blocked_id_postings, [(ids,), (ids, id_term_scores)]),
            ("scored", encode_blocked_scored_postings,
             [scored, (*scored, scored_term_scores)]),
            ("chunk", encode_blocked_chunk_runs,
             [(chunk_runs(triples),), (chunk_runs(triples, with_term_scores=True),)]),
        ]
    }
    assert digests == {
        "id": "7e9de39ad3a9566a64af3904ce145693bb1c4723cd3126a11e2208f4fc100da5",
        "scored": "83704a654a5be9f273533479c20faa631bd10653c5bea00efdd13435039840b9",
        "chunk": "24be6606357a1e3c6fa0d514346144fa9c70d8a1cdeb9367ed23959094412510",
    }


# ---------------------------------------------------------------------------
# The query cursor: same postings whatever the page size and the list cache
# ---------------------------------------------------------------------------


def _cursor_postings(method: str, page_size: int, cache_pages: int) -> dict:
    """Every term's cursor output after a storm of writes, flattened.

    A block's bound depends on where pages cut the list, so only chunk ids
    (the bound of every chunk posting) are kept."""
    import random

    from repro.core.indexes.base import QueryStats
    from repro.core.indexes.registry import create_index
    from repro.text.documents import DocumentStore
    from tests.conftest import METHOD_OPTIONS

    rng = random.Random(404)
    vocabulary = [f"c{i}" for i in range(6)]
    index = create_index(method, StorageEnvironment(cache_pages=1024, page_size=page_size),
                         DocumentStore(), list_cache_pages=cache_pages,
                         **METHOD_OPTIONS[method])
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
    """The page size decides where blocks end; the postings must not move."""
    expected = _cursor_postings(method, page_size=128, cache_pages=0)
    assert any(expected.values())
    for page_size, cache_pages in [(128, 256), (512, 0), (4096, 16)]:
        assert _cursor_postings(method, page_size, cache_pages) == expected, (
            page_size, cache_pages)
