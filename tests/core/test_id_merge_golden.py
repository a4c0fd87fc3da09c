"""Golden counters for the ID and ID-TermScore merges.

A fixed seeded storm — single score updates, batched windows, new-id
inserts, deletes, and content updates that remove a term and later add it
back — runs against both ID-ordered methods.  Most
queries run with a cold long-list cache; every fourth one with a cold buffer
pool, so Score-table and list pages are fetched from disk together.  Each
query's ``(results, pages_read, postings_scanned, candidates, score_lookups,
heap_offers, estimated_io_ms)`` is pinned by digest, plus the per-counter
totals so a failure names the counter that moved.  ``estimated_io_ms``
prices sequential and random reads differently, so it pins the order in
which list pages and Score-table pages are read.

The values except pages and ``estimated_io_ms`` were recorded from the
posting-at-a-time merge that preceded the block-at-a-time evaluation: they
prove the window merge pulls exactly the same postings and looks up the same
candidates.  Pages and their order were re-pinned when long lists moved to
one block per page.  ID-TermScore's postings, pages and results were
re-pinned when it started re-filing a content update's kept terms, whose
term scores move with the document length.  Pages and ``estimated_io_ms``
were re-pinned once more when B+-tree nodes became exact-size byte runs:
at these 128-byte pages a pickled node split at 64 bytes, so the Score
table now spans far fewer pages (ID 11 737 -> 4 368, ID-TermScore 13 667
-> 5 929 pages; no query reads more), with every other counter unchanged.
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


def _build(method: str):
    rng = random.Random(3003)
    env = StorageEnvironment(cache_pages=4096, page_size=128)
    index = create_index(method, env, DocumentStore())
    contents: dict[int, list[str]] = {}
    scores: dict[int, float] = {}
    for doc_id in range(1, 401):
        terms = [rng.choice(VOCABULARY) for _ in range(rng.randint(4, 14))]
        scores[doc_id] = round(1000.0 * rng.random() ** 4, 2)
        contents[doc_id] = terms
        index.add_document(doc_id, scores[doc_id], terms=terms)
    index.finalize()
    return index, contents, scores


def _storm(index, contents, scores, rng: random.Random) -> list[tuple]:
    """Apply one seeded storm, querying after every step; return records."""
    deleted: set[int] = set()
    records: list[tuple] = []
    next_doc = 1000
    removed_term: dict[int, str] = {}

    def live_docs() -> list[int]:
        return sorted(doc for doc in scores if doc not in deleted)

    def query() -> None:
        terms = rng.sample(VOCABULARY[:10], rng.choice((1, 2, 2, 3)))
        k = rng.choice((3, 10, 25))
        conjunctive = rng.random() < 0.5
        if len(records) % 4 == 3:
            index.env.drop_cache()
        else:
            index.drop_long_list_cache()
        response = index.query(terms, k=k, conjunctive=conjunctive)
        stats = response.stats
        results = tuple((r.doc_id, r.score) for r in response.results)
        records.append((tuple(terms), k, conjunctive, results, stats.pages_read,
                        stats.postings_scanned, stats.candidates,
                        stats.score_lookups, stats.heap_offers,
                        round(stats.estimated_io_ms, 6)))
        if index.method_name == "id":
            live = {doc: set(doc_terms) for doc, doc_terms in contents.items()}
            assert list(results) == reference_top_k(
                live, scores, deleted, terms, k, conjunctive)

    for step in range(60):
        action = step % 6
        docs = live_docs()
        if action == 0:
            for doc_id in rng.sample(docs, 12):
                scores[doc_id] = round(scores[doc_id] * rng.uniform(0.2, 9.0) + 5, 2)
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
            contents[next_doc] = terms
            index.insert_document(next_doc, terms, scores[next_doc])
        elif action == 3:
            doc_id = rng.choice(docs)
            deleted.add(doc_id)
            index.delete_document(doc_id)
        elif action == 4:
            # Content update that REMs a query-pool term ...
            doc_id = rng.choice([d for d in docs if d not in removed_term
                                 and set(contents[d]) & set(VOCABULARY[:10])])
            term = sorted(set(contents[doc_id]) & set(VOCABULARY[:10]))[0]
            removed_term[doc_id] = term
            contents[doc_id] = [t for t in contents[doc_id] if t != term]
            index.update_content(doc_id, contents[doc_id])
        else:
            # ... and a later one that re-ADDs it.
            pending = [d for d in removed_term if d not in deleted
                       and removed_term[d] not in contents[d]]
            if pending:
                doc_id = pending[0]
                contents[doc_id] = contents[doc_id] + [removed_term[doc_id]]
                index.update_content(doc_id, contents[doc_id])
        for _ in range(3):
            query()
    return records


def _summary(records: list[tuple]) -> dict:
    return {
        "queries": len(records),
        "pages_read": sum(r[4] for r in records),
        "postings_scanned": sum(r[5] for r in records),
        "candidates": sum(r[6] for r in records),
        "score_lookups": sum(r[7] for r in records),
        "heap_offers": sum(r[8] for r in records),
        "estimated_io_ms": round(sum(r[9] for r in records), 3),
        "digest": hashlib.sha256(repr(records).encode()).hexdigest()[:16],
    }


def _golden(pages_read: int, postings_scanned: int, estimated_io_ms: float,
            digest: str) -> dict:
    # Candidates, lookups and offers do not depend on the method; pages and
    # their sequential/random split do, and so do postings (ID-TermScore
    # re-files a content update's kept terms in the delta list).
    return {"queries": 180, "pages_read": pages_read,
            "postings_scanned": postings_scanned, "candidates": 22854,
            "score_lookups": 22854, "heap_offers": 22531,
            "estimated_io_ms": estimated_io_ms, "digest": digest}


GOLDEN = {
    "id": _golden(4368, 43634, 19047.93, "cc07ae519821c3cb"),
    "id_termscore": _golden(5929, 44064, 31964.94, "1af721a0bb30c123"),
}


@pytest.mark.parametrize("method", ["id", "id_termscore"])
def test_merge_counters_match_golden(method):
    index, contents, scores = _build(method)
    records = _storm(index, contents, scores, random.Random(78))
    assert _summary(records) == GOLDEN[method]
