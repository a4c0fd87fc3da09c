"""Method-specific behaviour: update costs, early termination, list sizes, API contracts.

The equivalence tests establish that every method returns the right answers;
these tests pin down the *mechanisms* the paper describes — which structures an
update touches, when queries stop early, and how the long lists compare in size.
"""

from __future__ import annotations

import pytest

from repro.errors import DocumentNotFoundError, InvertedIndexError, QueryError
from tests.conftest import METHOD_OPTIONS, make_corpus
from tests.helpers import build_index, disk_page_bytes


@pytest.fixture
def corpus(rng):
    return make_corpus(rng, num_docs=60, vocabulary=30, terms_per_doc=15, max_score=10_000.0)


class TestLifecycleContracts:
    @pytest.mark.parametrize("method", sorted(METHOD_OPTIONS))
    def test_operations_require_finalize(self, method, corpus):
        from repro.core.indexes.registry import create_index
        from repro.storage.environment import StorageEnvironment
        from repro.text.documents import DocumentStore

        index = create_index(method, StorageEnvironment(cache_pages=64), DocumentStore(),
                             **METHOD_OPTIONS[method])
        index.add_document(1, 10.0, terms=["a", "b"])
        with pytest.raises(InvertedIndexError):
            index.query(["a"], k=1)
        with pytest.raises(InvertedIndexError):
            index.update_score(1, 20.0)
        index.finalize()
        assert index.finalized
        with pytest.raises(InvertedIndexError):
            index.add_document(2, 5.0, terms=["c"])
        with pytest.raises(InvertedIndexError):
            index.finalize()

    @pytest.mark.parametrize("method", sorted(METHOD_OPTIONS))
    def test_query_validation(self, method, corpus):
        index = build_index(method, corpus, **METHOD_OPTIONS[method])
        with pytest.raises(QueryError):
            index.query([], k=5)
        with pytest.raises(QueryError):
            index.query(["w000"], k=0)

    @pytest.mark.parametrize("method", sorted(METHOD_OPTIONS))
    def test_update_unknown_document_raises(self, method, corpus):
        index = build_index(method, corpus, **METHOD_OPTIONS[method])
        with pytest.raises(DocumentNotFoundError):
            index.update_score(10_000, 5.0)

    @pytest.mark.parametrize("method", sorted(METHOD_OPTIONS))
    def test_negative_scores_rejected(self, method, corpus):
        index = build_index(method, corpus, **METHOD_OPTIONS[method])
        with pytest.raises(InvertedIndexError):
            index.update_score(corpus[0][0], -1.0)

    @pytest.mark.parametrize("method", sorted(METHOD_OPTIONS))
    @pytest.mark.parametrize("score", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_scores_rejected_by_every_write(self, method, score, corpus):
        """NaN has no rank and an infinite score collides with the chunk
        bounds' and the result heap's sentinels: every write entry point
        refuses both, and a rejected window writes nothing."""
        from repro.core.indexes.registry import create_index
        from repro.storage.environment import StorageEnvironment
        from repro.text.documents import DocumentStore

        staged = create_index(method, StorageEnvironment(cache_pages=64), DocumentStore(),
                              **METHOD_OPTIONS[method])
        with pytest.raises(InvertedIndexError):
            staged.add_document(1, score, terms=["a"])
        index = build_index(method, corpus, **METHOD_OPTIONS[method])
        doc_id = corpus[0][0]
        before = index.current_score(doc_id)
        with pytest.raises(InvertedIndexError):
            index.update_score(doc_id, score)
        with pytest.raises(InvertedIndexError):
            index.apply_batch([(doc_id, before + 1.0), (doc_id, score)])
        assert index.current_score(doc_id) == before
        with pytest.raises(InvertedIndexError):
            index.insert_document(10_000, ["w000"], score)
        assert index.current_score(10_000) is None

    @pytest.mark.parametrize("method", sorted(METHOD_OPTIONS))
    @pytest.mark.parametrize("doc_id", [-1, 2 ** 32, 2 ** 64, True, 1.0])
    def test_out_of_range_doc_ids_rejected_before_any_write(self, method, doc_id, corpus):
        """The narrowest key field holding a doc id is an unsigned 32-bit
        int: every write entry point refuses any other id up front, so no
        store is left half-written."""
        from repro.core.indexes.base import MAX_DOC_ID
        from repro.core.indexes.registry import create_index
        from repro.storage.environment import StorageEnvironment
        from repro.text.documents import DocumentStore

        assert MAX_DOC_ID == 2 ** 32 - 1
        staged = create_index(method, StorageEnvironment(cache_pages=64), DocumentStore(),
                              **METHOD_OPTIONS[method])
        with pytest.raises(InvertedIndexError):
            staged.add_document(doc_id, 1.0, terms=["a"])
        assert len(staged.score_table) == 0 and not staged.documents.contains(doc_id)

        index = build_index(method, corpus, **METHOD_OPTIONS[method])
        known = corpus[0][0]
        pages = disk_page_bytes(index.env)
        scores = {doc: index.current_score(doc) for doc, _terms, _score in corpus}
        calls = [
            lambda: index.update_score(doc_id, 1.0),
            lambda: index.apply_batch([(known, scores[known] + 1.0), (doc_id, 1.0)]),
            lambda: index.insert_document(doc_id, ["w000"], 1.0),
            lambda: index.delete_document(doc_id),
            lambda: index.update_content(doc_id, ["w000"]),
        ]
        for call in calls:
            with pytest.raises(InvertedIndexError):
                call()
        assert disk_page_bytes(index.env) == pages
        assert {doc: index.current_score(doc) for doc, _terms, _score in corpus} == scores
        assert sorted(index.documents.doc_ids()) == sorted(doc for doc, _t, _s in corpus)

    @pytest.mark.parametrize("method", sorted(METHOD_OPTIONS))
    def test_staging_a_doc_id_twice_is_rejected_before_any_write(self, method):
        """A second ``add_document`` of a staged id (content already in the
        forward index) raises and leaves the first staging alone: the build
        holds each document once, so every list has one posting per term."""
        from repro.core.indexes.registry import create_index
        from repro.storage.environment import StorageEnvironment
        from repro.text.documents import DocumentStore

        documents = DocumentStore()
        documents.add_terms(1, ["a", "b"])
        documents.add_terms(2, ["a"])
        index = create_index(method, StorageEnvironment(cache_pages=64), documents,
                             **METHOD_OPTIONS[method])
        index.add_document(1, 5.0)
        index.add_document(2, 1.0)
        pages = disk_page_bytes(index.env)
        for score in (5.0, 9.0):
            with pytest.raises(InvertedIndexError):
                index.add_document(1, score)
        assert disk_page_bytes(index.env) == pages
        assert index.score_table.get(1) == 5.0
        index.finalize()
        response = index.query(["a"], k=5, conjunctive=False)
        assert response.doc_ids() == [1, 2]
        assert response.stats.postings_scanned <= 2

    @pytest.mark.parametrize("method", sorted(METHOD_OPTIONS))
    def test_query_for_unknown_term_returns_empty(self, method, corpus):
        index = build_index(method, corpus, **METHOD_OPTIONS[method])
        response = index.query(["never-seen-term"], k=5)
        assert response.results == ()

    @pytest.mark.parametrize("method", sorted(METHOD_OPTIONS))
    def test_document_count_tracks_inserts_and_deletes(self, method, corpus):
        index = build_index(method, corpus, **METHOD_OPTIONS[method])
        assert index.document_count() == len(corpus)
        index.delete_document(corpus[0][0])
        assert index.document_count() == len(corpus) - 1
        index.insert_document(9_999, ["w001", "w002"], 10.0)
        assert index.document_count() == len(corpus)


class TestUpdateCostMechanisms:
    def test_id_method_updates_touch_only_the_score_table(self, corpus):
        index = build_index("id", corpus)
        before = index.update_stats.short_list_postings_written
        for doc_id, _terms, _score in corpus[:20]:
            index.update_score(doc_id, 123.0)
        assert index.update_stats.short_list_postings_written == before
        assert index.short_list_size_bytes() >= 0

    def test_score_method_rewrites_one_posting_per_term(self, corpus):
        index = build_index("score", corpus)
        doc_id, terms, _score = corpus[0]
        before = index.update_stats.short_list_postings_written
        index.update_score(doc_id, 99_999.0)
        assert index.update_stats.short_list_postings_written - before == len(set(terms))

    def test_score_threshold_defers_small_updates(self, corpus):
        index = build_index("score_threshold", corpus, threshold_ratio=2.0)
        doc_id, _terms, score = corpus[0]
        index.update_score(doc_id, score * 1.5)         # below the threshold
        assert index.update_stats.short_list_updates == 0
        index.update_score(doc_id, max(score * 4.0, 1.0))  # beyond the threshold
        assert index.update_stats.short_list_updates == 1

    def test_chunk_defers_updates_within_two_chunks(self, corpus):
        index = build_index("chunk", corpus, chunk_ratio=3.0, min_chunk_size=2)
        chunk_map = index.chunk_map
        doc_id, _terms, score = corpus[0]
        same_chunk_score = score  # unchanged score: same chunk, no short-list work
        index.update_score(doc_id, same_chunk_score)
        assert index.update_stats.short_list_updates == 0
        # A jump of more than one chunk must create short-list postings.
        current_chunk = chunk_map.chunk_of(score)
        if current_chunk + 2 <= chunk_map.num_chunks:
            big_score = chunk_map.lower_bound(current_chunk + 2) * 1.01
            index.update_score(doc_id, big_score)
            assert index.update_stats.short_list_updates == 1

    def test_chunk_score_decreases_never_touch_short_lists(self, corpus):
        index = build_index("chunk", corpus, chunk_ratio=3.0, min_chunk_size=2)
        for doc_id, _terms, score in corpus[:20]:
            index.update_score(doc_id, score * 0.1)
        assert index.update_stats.short_list_updates == 0


class TestQueryMechanisms:
    def test_id_method_scans_all_postings(self, corpus):
        index = build_index("id", corpus)
        vocabulary = sorted({term for _d, terms, _s in corpus for term in terms})
        term = vocabulary[0]
        matching = sum(1 for _d, terms, _s in corpus if term in terms)
        response = index.query([term], k=1)
        assert response.stats.postings_scanned >= matching

    def test_score_method_stops_early(self, corpus):
        index = build_index("score", corpus)
        vocabulary = sorted({term for _d, terms, _s in corpus for term in terms})
        response = index.query(vocabulary[:2], k=1)
        assert response.stats.stopped_early

    def test_chunk_query_reports_chunks_scanned(self, corpus):
        index = build_index("chunk", corpus, chunk_ratio=3.0, min_chunk_size=2)
        vocabulary = sorted({term for _d, terms, _s in corpus for term in terms})
        response = index.query(vocabulary[:2], k=1)
        assert response.stats.chunks_scanned >= 1
        assert response.stats.chunks_scanned <= index.chunk_map.num_chunks

    def test_results_are_sorted_and_bounded_by_k(self, corpus):
        for method, options in METHOD_OPTIONS.items():
            index = build_index(method, corpus, **options)
            vocabulary = sorted({term for _d, terms, _s in corpus for term in terms})
            response = index.query(vocabulary[:1], k=7)
            scores = [result.score for result in response.results]
            assert scores == sorted(scores, reverse=True)
            assert len(response.results) <= 7

    def test_query_stats_include_io_counters(self, corpus):
        index = build_index("chunk", corpus, chunk_ratio=3.0, min_chunk_size=2)
        index.drop_long_list_cache()
        vocabulary = sorted({term for _d, terms, _s in corpus for term in terms})
        response = index.query(vocabulary[:1], k=3)
        assert response.stats.pages_read >= 1
        assert response.stats.estimated_io_ms > 0.0


class TestLongListSizes:
    def test_relative_sizes_follow_table1(self, rng):
        corpus = make_corpus(rng, num_docs=150, vocabulary=60, terms_per_doc=25,
                             max_score=100_000.0)
        sizes = {}
        for method in ("id", "score", "score_threshold", "chunk", "id_termscore",
                       "chunk_termscore"):
            index = build_index(method, corpus, **METHOD_OPTIONS[method])
            sizes[method] = index.long_list_size_bytes()
        assert sizes["score"] > sizes["score_threshold"]
        assert sizes["score_threshold"] > sizes["id"]
        assert sizes["id_termscore"] > sizes["id"]
        assert sizes["chunk_termscore"] > sizes["chunk"]
        assert sizes["chunk"] < 2 * sizes["id"]

    def test_drop_long_list_cache_forces_reads(self, rng):
        corpus = make_corpus(rng, num_docs=80, vocabulary=40, terms_per_doc=20)
        for method in ("id", "chunk", "score_threshold"):
            index = build_index(method, corpus, **METHOD_OPTIONS[method])
            vocabulary = sorted({term for _d, terms, _s in corpus for term in terms})
            index.query(vocabulary[:1], k=3)        # warm
            warm = index.query(vocabulary[:1], k=3).stats.pages_read
            index.drop_long_list_cache()
            cold = index.query(vocabulary[:1], k=3).stats.pages_read
            assert cold >= warm
