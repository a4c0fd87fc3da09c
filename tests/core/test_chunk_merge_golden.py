"""Golden counters for the Chunk and Chunk-TermScore merges.

A fixed seeded storm — short-list promotions, score drops, inserts, deletes,
and content updates that remove a term and later add it back — runs against
both chunked methods, with a cold long-list cache before every query.  Each query's ``(results, pages_read, postings_scanned,
chunks_scanned, candidates, stopped_early)`` is pinned by digest, plus the
per-counter totals so a failure names the counter that moved.

The values except pages were recorded from the per-posting merge that
preceded the chunk-at-a-time evaluation: they prove the merge pulls exactly
the same postings and stops at the same chunk.  Pages were re-pinned when
long lists moved to one block per page.  Postings were re-pinned when a
content update's ``REM`` moved to ``(term, 1, doc_id)``, where the ``ADD``
of a term added back no longer overwrites it, and when the TermScore
variants started re-filing a content update's kept terms; Chunk-TermScore's
results moved with the corrected term scores.  Pages were re-pinned once
more when B+-tree nodes became exact-size byte runs: denser short-list and
bookkeeping trees read fewer pages (414 -> 404 and 946 -> 937, no query
reading more), with every other counter unchanged.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.core.indexes.registry import create_index
from repro.storage.environment import StorageEnvironment
from repro.text.documents import DocumentStore

from tests.helpers import reference_top_k

VOCABULARY = [f"g{i:02d}" for i in range(24)]
OPTIONS = {"chunk_ratio": 1.7, "min_chunk_size": 6}


def _build(method: str):
    rng = random.Random(2505)
    env = StorageEnvironment(cache_pages=4096, page_size=128)
    documents = DocumentStore()
    options = dict(OPTIONS)
    if method == "chunk_termscore":
        options["fancy_size"] = 6
    index = create_index(method, env, documents, **options)
    contents: dict[int, set[str]] = {}
    scores: dict[int, float] = {}
    for doc_id in range(1, 401):
        terms = [rng.choice(VOCABULARY) for _ in range(rng.randint(4, 14))]
        # Skewed scores so the geometric chunk boundaries hold similar counts.
        scores[doc_id] = round(1000.0 * rng.random() ** 4, 2)
        contents[doc_id] = set(terms)
        index.add_document(doc_id, scores[doc_id], terms=terms)
    index.finalize()
    return index, contents, scores


def _storm(index, contents, scores, rng: random.Random) -> list[tuple]:
    """Apply one seeded storm, querying cold after every step; return records."""
    deleted: set[int] = set()
    records: list[tuple] = []
    next_doc = 1000
    removed_term: dict[int, str] = {}

    def live_docs() -> list[int]:
        return sorted(doc for doc in scores if doc not in deleted)

    def query() -> None:
        terms = rng.sample(VOCABULARY[:10], rng.choice((1, 2, 2, 3)))
        k = rng.choice((3, 10, 25))
        conjunctive = rng.random() < 0.6
        index.drop_long_list_cache()
        response = index.query(terms, k=k, conjunctive=conjunctive)
        stats = response.stats
        results = tuple((r.doc_id, r.score) for r in response.results)
        records.append((tuple(terms), k, conjunctive, results, stats.pages_read,
                        stats.postings_scanned, stats.chunks_scanned,
                        stats.candidates, stats.stopped_early))
        if index.method_name == "chunk":
            assert list(results) == reference_top_k(
                contents, scores, deleted, terms, k, conjunctive)

    for step in range(60):
        action = step % 6
        docs = live_docs()
        if action == 0:
            # Promotions: large jumps move postings into the short lists.
            for doc_id in rng.sample(docs, 12):
                scores[doc_id] = round(scores[doc_id] * rng.uniform(2.0, 9.0) + 50, 2)
                index.update_score(doc_id, scores[doc_id])
        elif action == 1:
            window = [(doc_id, round(rng.uniform(0.0, 4000.0), 2))
                      for doc_id in rng.sample(docs, 20)]
            for doc_id, score in window:
                scores[doc_id] = score
            index.apply_batch(window)
        elif action == 2:
            next_doc += 1
            terms = [rng.choice(VOCABULARY) for _ in range(rng.randint(4, 10))]
            scores[next_doc] = round(rng.uniform(0.0, 5000.0), 2)
            contents[next_doc] = set(terms)
            index.insert_document(next_doc, terms, scores[next_doc])
        elif action == 3:
            doc_id = rng.choice(docs)
            deleted.add(doc_id)
            index.delete_document(doc_id)
        elif action == 4:
            # Content update that REMs a query-pool term ...
            doc_id = rng.choice([d for d in docs if d not in removed_term
                                 and contents[d] & set(VOCABULARY[:10])])
            term = sorted(contents[doc_id] & set(VOCABULARY[:10]))[0]
            removed_term[doc_id] = term
            contents[doc_id] = contents[doc_id] - {term}
            index.update_content(doc_id, sorted(contents[doc_id]))
        else:
            # ... and a later one that re-ADDs it.
            pending = [d for d in removed_term if d not in deleted
                       and removed_term[d] not in contents[d]]
            if pending:
                doc_id = pending[0]
                contents[doc_id] = contents[doc_id] | {removed_term[doc_id]}
                index.update_content(doc_id, sorted(contents[doc_id]))
        for _ in range(3):
            query()
    return records


def _summary(records: list[tuple]) -> dict:
    return {
        "queries": len(records),
        "pages_read": sum(r[4] for r in records),
        "postings_scanned": sum(r[5] for r in records),
        "chunks_scanned": sum(r[6] for r in records),
        "candidates": sum(r[7] for r in records),
        "stopped_early": sum(r[8] for r in records),
        "digest": hashlib.sha256(repr(records).encode()).hexdigest()[:16],
    }


def _golden(pages_read: int, postings_scanned: int, candidates: int,
            digest: str) -> dict:
    # Chunks and stopping points do not depend on the method; pages do (term
    # scores), postings do (Chunk-TermScore re-files a content update's kept
    # terms), candidates do (Chunk-TermScore scores all-fancy documents
    # before the chunk scan).
    return {"queries": 180, "pages_read": pages_read,
            "postings_scanned": postings_scanned, "chunks_scanned": 733,
            "candidates": candidates, "stopped_early": 167, "digest": digest}


GOLDEN = {
    "chunk": _golden(404, 27142, 8848, "2b2af24583ee7a07"),
    "chunk_termscore": _golden(937, 27382, 8754, "c2117544f67a8f78"),
}


@pytest.mark.parametrize("method", ["chunk", "chunk_termscore"])
def test_merge_counters_match_golden(method):
    index, contents, scores = _build(method)
    records = _storm(index, contents, scores, random.Random(77))
    assert _summary(records) == GOLDEN[method]
