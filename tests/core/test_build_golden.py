"""Golden bytes and counters for the bulk build of all six methods.

A seeded corpus is staged in shuffled doc-id order and finalized at 128- and
512-byte pages.  It has score ties (integer scores), ties on chunk
boundaries (base score 1 and ratio 2 put boundaries on powers of two that
documents hold exactly), single-posting lists, lists that span many pages,
large doc-id gaps (multi-byte deltas) and repeated terms (the TermScore
variants' ``tf / length``).

Per method and page size it pins a sha256 over every long list in write
order — term, segment id, page ids and page bytes — (the clustered items
and pages for Score, plus the fancy entries and floors for
Chunk-TermScore), the Table 1 sizes, and the storage counters right after
``finalize``.  The buffer pool is small, so the build evicts and writes
back pages, and the counters depend on the order pages are written in.

The values were recorded from the per-posting build that preceded the
column build (one ``Posting`` object per posting, chunk runs grouped per
term); the column build writes the same pages in the same order.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.core.indexes.registry import available_methods, create_index
from repro.storage.environment import StorageEnvironment
from repro.text.documents import DocumentStore

OPTIONS = {
    "chunk": {"chunk_ratio": 2.0, "min_chunk_size": 8},
    "chunk_termscore": {"chunk_ratio": 2.0, "min_chunk_size": 8, "fancy_size": 4},
    "score_threshold": {"threshold_ratio": 3.0},
}


def _corpus() -> list[tuple[int, float, list[str]]]:
    rng = random.Random(4242)
    common = [f"c{i}" for i in range(12)]
    doc_ids = rng.sample(range(1, 1_000), 450) + rng.sample(range(5_000, 3_000_000), 150)
    rng.shuffle(doc_ids)
    corpus = []
    for number, doc_id in enumerate(doc_ids):
        # Zipf-like draws: the first common terms reach most documents.
        terms = [common[min(int(rng.paretovariate(1.2)) - 1, 11)]
                 for _ in range(rng.randint(2, 12))]
        terms.append(f"rare{number}")          # a single-posting list
        if number % 7 == 0:
            terms += ["tie"] * rng.randint(1, 3)
        score = float(rng.choice([0, 1, 1, 2, 2, 2, 3, 4, 4, 7, 8, 8, 16, 31, 32, 64]))
        corpus.append((doc_id, score, terms))
    return corpus


def _build(method: str, page_size: int):
    env = StorageEnvironment(cache_pages=24, page_size=page_size)
    index = create_index(method, env, DocumentStore(), **OPTIONS.get(method, {}))
    for doc_id, score, terms in _corpus():
        index.add_document(doc_id, score, terms=terms)
    index.finalize()
    return index, env.snapshot()


def _fingerprint(method: str, page_size: int) -> tuple:
    index, snapshot = _build(method, page_size)
    digest = hashlib.sha256()
    if method == "score":
        digest.update(repr(list(index._lists.items())).encode())
        digest.update(repr(sorted(index._lists.page_ids())).encode())
    else:
        heap = index._long_lists
        for term, handle in index._segments.items():
            digest.update(repr((term, handle.segment_id, handle.page_ids)).encode())
            for page in heap.peek_pages(handle):
                digest.update(page)
    if method == "chunk_termscore":
        digest.update(repr(list(index._fancy.items())).encode())
        digest.update(repr(index._fancy_floor_by_term).encode())
    disk, pool = snapshot.disk, snapshot.pool
    return (digest.hexdigest()[:24],
            (index.long_list_size_bytes(), index.short_list_size_bytes(),
             index.update_stats.long_list_postings_written),
            (disk.reads, disk.writes, disk.random_reads, disk.sequential_reads,
             disk.bytes_read, disk.bytes_written),
            (pool.hits, pool.misses, pool.evictions, pool.dirty_writebacks))


#: ``(method, page_size) -> (digest, (long bytes, short bytes, postings
#: written), disk counters, pool counters)``.
GOLDEN = {
    ('chunk', 128): ('3ff2c8be6830750bb2a434d7',
                      (10350, 7, 2646), (267, 1686, 264, 3, 34176, 123008),
                      (2185, 267, 968, 961)),
    ('chunk', 512): ('eb68ed8e909579aa43439415',
                      (10201, 7, 2646), (6, 1274, 5, 1, 3072, 321536),
                      (1817, 6, 628, 628)),
    ('chunk_termscore', 128): ('56442f3af44b15eb7f784a93',
                                (21631, 7, 2646), (268, 1859, 265, 3, 34304, 134144),
                                (2367, 268, 1055, 1048)),
    ('chunk_termscore', 512): ('7c8f3fa201f5a83a4c880a36',
                                (20940, 7, 2646), (7, 1313, 6, 1, 3584, 331776),
                                (1945, 7, 648, 648)),
    ('id', 128): ('bd14ef4d2d461c2c750c969c',
                   (8634, 7, 2646), (267, 1680, 264, 3, 34176, 122624),
                   (2184, 267, 965, 958)),
    ('id', 512): ('0e276d57cc0f7a453bf827eb',
                   (8536, 7, 2646), (6, 1272, 5, 1, 3072, 321024),
                   (1816, 6, 627, 627)),
    ('id_termscore', 128): ('5406cff2c6d6d37c6f0cdf6b',
                             (19799, 7, 2646), (267, 1814, 264, 3, 34176, 131200),
                             (2184, 267, 1032, 1025)),
    ('id_termscore', 512): ('70bd230bbfd09151ce208783',
                             (19229, 7, 2646), (6, 1298, 5, 1, 3072, 327680),
                             (1816, 6, 640, 640)),
    ('score', 128): ('ac1d75cd6daac8e54fac5ef3',
                      (63754, 0, 2646), (4997, 4391, 4979, 18, 639616, 451328),
                      (14383, 4997, 5838, 3526)),
    ('score', 512): ('a8cc974d11430addc693b444',
                      (49516, 0, 2646), (1118, 1439, 1101, 17, 572416, 646144),
                      (11049, 1118, 1271, 1262)),
    ('score_threshold', 128): ('76a24dff3790987e3ace3d2d',
                                (37601, 7, 2646), (267, 2040, 264, 3, 34176, 145664),
                                (2185, 267, 1145, 1138)),
    ('score_threshold', 512): ('e906e3c7d6710e2ac6187d2a',
                                (36367, 7, 2646), (6, 1356, 5, 1, 3072, 342528),
                                (1817, 6, 669, 669)),
}


@pytest.mark.parametrize("page_size", [128, 512])
@pytest.mark.parametrize("method", available_methods())
def test_build_is_byte_identical(method, page_size):
    digest, sizes, disk, pool = _fingerprint(method, page_size)
    golden_digest, golden_sizes, golden_disk, golden_pool = GOLDEN[method, page_size]
    assert sizes == golden_sizes, "Table 1 sizes / postings written moved"
    assert disk == golden_disk, "post-finalize disk counters moved"
    assert pool == golden_pool, "post-finalize buffer-pool counters moved"
    assert digest == golden_digest, "long-list bytes, ids or write order moved"
