"""Shared helpers for the test suite.

The most important helpers are :func:`reference_top_k`, a brute-force
re-implementation of the paper's query semantics — rank the documents
matching the keywords by their *latest* scores — and
:class:`ReferenceModel`, which keeps the state those answers come from
across writes, commits and recoveries.  Every index method must produce
the same answer (Theorems 1 and 2), which is what the equivalence,
property-based and state-machine tests check.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Mapping, Sequence

from repro.core.indexes.base import InvertedIndex
from repro.storage.environment import StorageEnvironment
from repro.text.documents import DocumentStore


def reference_top_k(
    documents: Mapping[int, set[str]],
    scores: Mapping[int, float],
    deleted: set[int],
    keywords: Sequence[str],
    k: int,
    conjunctive: bool = True,
    term_scores: Mapping[int, Mapping[str, float]] | None = None,
    term_weight: float = 1.0,
) -> list[tuple[int, float]]:
    """Ground-truth top-k: (doc_id, score) pairs, best first.

    ``term_scores`` maps doc -> term -> per-term score; when provided, the
    combined scoring function ``svr + term_weight * sum(term scores over the
    matching keywords)`` is used (the §4.3.3 combination).
    Ties are broken towards smaller document ids, matching
    :class:`repro.core.result_heap.ResultHeap`.
    """
    matches: list[tuple[int, float]] = []
    for doc_id, terms in documents.items():
        if doc_id in deleted or doc_id not in scores:
            continue
        contained = [keyword for keyword in keywords if keyword in terms]
        if conjunctive and len(contained) != len(keywords):
            continue
        if not conjunctive and not contained:
            continue
        score = scores[doc_id]
        if term_scores is not None:
            score += term_weight * sum(
                term_scores.get(doc_id, {}).get(keyword, 0.0) for keyword in contained
            )
        matches.append((doc_id, score))
    matches.sort(key=lambda item: (-item[1], item[0]))
    return matches[:k]


class ReferenceModel:
    """Brute-force model of one index: its contents and the answers they imply.

    It holds each document's terms, its latest score, the deleted set and
    the normalised term frequencies the TermScore methods rank by.
    :meth:`commit` snapshots that state and :meth:`rollback` returns to the
    snapshot, which is exactly what recovery must reproduce.

    :meth:`check` holds a method's answer to the contract:

    * SVR-only methods: exactly :func:`reference_top_k`.
    * ID-TermScore, and Chunk-TermScore on AND (or one-term) queries: the
      combined scores, rank-wise within ``1e-6`` per query term (long-list
      postings store the term score as a 32-bit float), and the documents
      wherever the score is not tied within that tolerance.
    * Chunk-TermScore on multi-term OR queries, which adds only the
      completing posting's term score: distinct live matches whose scores
      lie rank-wise in ``[svr, svr + terms * max_ntf]`` of the best SVR
      scores (the slack of the benchmark's frozen twin).
    """

    def __init__(self, method: str) -> None:
        self.method = method
        self.terms: dict[int, list[str]] = {}
        self.scores: dict[int, float] = {}
        self.deleted: set[int] = set()
        self.ntf: dict[int, dict[str, float]] = {}
        self.commit()

    # -- writes, mirroring the index API -------------------------------------

    def insert(self, doc_id: int, terms: Sequence[str], score: float) -> None:
        """A build-time add, an insert or a re-insert."""
        self.deleted.discard(doc_id)
        self.scores[doc_id] = float(score)
        self.update_content(doc_id, terms)

    def delete(self, doc_id: int) -> None:
        self.deleted.add(doc_id)

    def update_score(self, doc_id: int, score: float) -> None:
        """Also legal on a deleted document; a re-insert replaces it."""
        self.scores[doc_id] = float(score)

    def update_content(self, doc_id: int, terms: Sequence[str]) -> None:
        self.terms[doc_id] = list(terms)
        self.ntf[doc_id] = normalized_tf(terms)

    def commit(self) -> None:
        self.committed = (dict(self.terms), dict(self.scores), set(self.deleted),
                          dict(self.ntf))

    def rollback(self) -> None:
        """Back to the last :meth:`commit`, as crash recovery must go."""
        terms, scores, deleted, ntf = self.committed
        self.terms, self.scores = dict(terms), dict(scores)
        self.deleted, self.ntf = set(deleted), dict(ntf)

    # -- reads ----------------------------------------------------------------

    @property
    def live(self) -> list[int]:
        return sorted(doc_id for doc_id in self.scores if doc_id not in self.deleted)

    def ranking(self, keywords: Sequence[str], conjunctive: bool,
                term_scores: bool) -> list[tuple[int, float]]:
        """Every live match, best first (svr only, or svr plus term scores)."""
        documents = {doc_id: set(terms) for doc_id, terms in self.terms.items()}
        return reference_top_k(documents, self.scores, self.deleted, keywords,
                               len(documents), conjunctive,
                               term_scores=self.ntf if term_scores else None)

    def check(self, results, keywords: Sequence[str], k: int,
              conjunctive: bool) -> None:
        """Assert that ``results``, a sequence of ``QueryResult``, answer the query."""
        got = [(result.doc_id, result.score) for result in results]
        keywords = list(dict.fromkeys(keywords))
        where = (self.method, keywords, k, conjunctive, got)
        if self.method not in ("id_termscore", "chunk_termscore"):
            assert got == self.ranking(keywords, conjunctive, False)[:k], where
            return
        terms = len(keywords)
        if self.method == "chunk_termscore" and not conjunctive and terms > 1:
            ranking = self.ranking(keywords, False, False)
            want = ranking[:k]
            matches = {doc_id for doc_id, _score in ranking}
            above = terms * max((value for doc_id in self.live
                                 for value in self.ntf[doc_id].values()), default=0.0)
            assert len(got) == len(want), where
            assert len({doc_id for doc_id, _ in got}) == len(got), where
            assert {doc_id for doc_id, _ in got} <= matches, where
            assert all(score <= found <= score + above
                       for (_doc, found), (_d, score) in zip(got, want)), where
            return
        tolerance = 1e-6 * terms
        ranking = self.ranking(keywords, conjunctive, True)
        want = ranking[:k]
        assert len(got) == len(want), where
        assert len({doc_id for doc_id, _ in got}) == len(got), where
        assert {doc_id for doc_id, _ in got} <= {doc_id for doc_id, _ in ranking}, where
        for position, ((doc_id, found), (want_doc, score)) in enumerate(zip(got, want)):
            assert abs(found - score) <= tolerance, where
            tied = any(abs(ranking[other][1] - score) <= 2 * tolerance
                       for other in (position - 1, position + 1)
                       if 0 <= other < len(ranking))
            assert tied or doc_id == want_doc, where

    def check_contents(self, index) -> None:
        """Assert that a text index holds exactly the model's documents."""
        assert index.document_count() == len(self.live)
        for doc_id, score in self.scores.items():
            expected = None if doc_id in self.deleted else score
            assert index.current_score(doc_id) == expected, (doc_id, expected)
            assert (dict(index.documents.get(doc_id).term_frequencies)
                    == Counter(self.terms[doc_id])), doc_id


def paginate(data: bytes, page_size: int) -> list[bytes]:
    """Split an encoded long list into pages, as a heap file stores it."""
    return [data[i:i + page_size] for i in range(0, len(data), page_size)]


def id_postings(blocks) -> list[tuple[int, float]]:
    """Flatten ``(last_doc_id, doc_ids, term_scores)`` blocks into
    ``(doc_id, term_score)`` postings."""
    return [
        (doc_id, term_scores[i] if term_scores is not None else 0.0)
        for _last, doc_ids, term_scores in blocks
        for i, doc_id in enumerate(doc_ids)
    ]


def chunk_postings(fragments) -> list[tuple[int, int, float]]:
    """Flatten ``(chunk_id, doc_ids, term_scores)`` fragments into postings."""
    return [
        (chunk_id, doc_id, term_scores[i] if term_scores is not None else 0.0)
        for chunk_id, doc_ids, term_scores in fragments
        for i, doc_id in enumerate(doc_ids)
    ]


def chunk_runs(triples: Iterable[tuple[int, int, float]], with_term_scores: bool = False
               ) -> list[tuple[int, list[int], "list[float] | None"]]:
    """Group ``(doc_id, chunk_id, term_score)`` triples into the chunk
    encoder's ``(chunk_id, doc_ids, term_scores)`` runs: chunk ids
    decreasing, doc ids increasing within a run, term scores aligned with
    them when ``with_term_scores`` and ``None`` otherwise."""
    runs: list = []
    for doc_id, chunk_id, term_score in sorted(triples, key=lambda t: (-t[1], t[0])):
        if not runs or runs[-1][0] != chunk_id:
            runs.append((chunk_id, [], [] if with_term_scores else None))
        runs[-1][1].append(doc_id)
        if with_term_scores:
            runs[-1][2].append(term_score)
    return runs


def scored_postings(blocks) -> list[tuple[int, float, float]]:
    """Flatten ``(bound, doc_ids, scores, term_scores)`` blocks into
    ``(doc_id, score, term_score)`` postings."""
    return [
        (doc_id, scores[i], term_scores[i] if term_scores is not None else 0.0)
        for _bound, doc_ids, scores, term_scores in blocks
        for i, doc_id in enumerate(doc_ids)
    ]


def normalized_tf(terms: Sequence[str]) -> dict[str, float]:
    """Normalised term frequencies of a term sequence (the TermScore per-term score)."""
    counts: dict[str, int] = {}
    for term in terms:
        counts[term] = counts.get(term, 0) + 1
    total = len(terms)
    if total == 0:
        return {}
    return {term: count / total for term, count in counts.items()}


def build_index(method: str, corpus: Iterable[tuple[int, Sequence[str], float]],
                cache_pages: int = 512, **options):
    """Build a raw :class:`InvertedIndex` (not the text-index facade) over a corpus.

    ``corpus`` yields ``(doc_id, terms, score)`` triples.  Returns the index;
    its document store and environment are reachable as attributes.
    """
    from repro.core.indexes.registry import create_index

    env = StorageEnvironment(cache_pages=cache_pages)
    documents = DocumentStore()
    index = create_index(method, env, documents, **options)
    for doc_id, terms, score in corpus:
        index.add_document(doc_id, score, terms=terms)
    index.finalize()
    return index


def query_doc_scores(index: InvertedIndex, keywords: Sequence[str], k: int,
                     conjunctive: bool = True) -> list[tuple[int, float]]:
    """Run a query and return (doc_id, score) pairs for comparison with the reference."""
    response = index.query(keywords, k=k, conjunctive=conjunctive)
    return [(result.doc_id, result.score) for result in response.results]


def _plain_env(env):
    """Unwrap a single-shard ShardedEnvironment to its one plain environment.

    A single-shard sharded environment is physically fingerprint-identical
    to the plain engine, so the physical helpers below reach through to the
    one shard.
    """
    shards = getattr(env, "shards", None)
    if shards is not None and len(shards) == 1:
        return shards[0]
    return env


def category_fingerprint(env: StorageEnvironment) -> dict:
    """Every buffer-pool and disk accounting category of one environment.

    Shared by the sharding fidelity tests: two engines are only
    fingerprint-identical when every one of these counters matches.  A
    sharded environment reports the per-category sums (its aggregation
    contract).
    """
    snapshot = env.snapshot()
    pool, disk = snapshot.pool, snapshot.disk
    return {
        "hits": pool.hits, "misses": pool.misses, "evictions": pool.evictions,
        "dirty_writebacks": pool.dirty_writebacks,
        "reads": disk.reads, "writes": disk.writes,
        "random_reads": disk.random_reads,
        "sequential_reads": disk.sequential_reads,
        "bytes_read": disk.bytes_read, "bytes_written": disk.bytes_written,
    }


def disk_page_bytes(env: StorageEnvironment) -> dict[int, bytes]:
    """Every on-disk page's payload bytes (flushing frames first so dirty
    decoded nodes materialise)."""
    env = _plain_env(env)
    env.pool.flush()
    disk = env.disk
    return {
        page_id: disk.peek(page_id).data
        for page_id in range(disk._next_page_id)
        if disk.contains(page_id)
    }
