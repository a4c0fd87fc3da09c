"""Chaos-storm and failure-domain tests: the engine under injected faults.

The top half pins the *shard quarantine* contract deterministically: a
quarantined shard degrades queries (flagged, never silently wrong), fails
writes fast with a typed error before any mutation, is skipped by degraded
commits, and is re-admitted by ``reopen_shard`` from its checkpoint + WAL.

The bottom half is the chaos property: for arbitrary seeded fault schedules,
every method on both backends either succeeds, raises a typed
:class:`ReproError` leaving the engine at its last committed state, or
quarantines the faulty shard — and after recovery, contents and top-k equal
the committed prefix of a fault-free memory twin.  With injection disabled
(or a ``FaultPlan.none()`` attached), I/O fingerprints are bit-identical to
an index with no injector at all.
"""

from __future__ import annotations

import os
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tests.conftest import METHOD_OPTIONS, make_corpus
from tests.helpers import category_fingerprint
from repro.core.text_index import SVRTextIndex
from repro.errors import ShardQuarantinedError, StorageError
from repro.storage.faults import FaultPlan, FaultSpec
from repro.storage.sharding import shard_of_doc, shard_of_term
from repro.workloads.chaos import (
    ChaosStormConfig,
    fault_seed_from_environ,
    run_chaos_storm,
)

METHODS = tuple(METHOD_OPTIONS)

#: Backends the storm sweep covers.  The CI chaos matrix sets
#: ``REPRO_CHAOS_BACKEND`` to pin one backend per leg so a failure names it;
#: unset (local runs), every storm covers both.
CHAOS_BACKENDS = tuple(
    backend for backend in ("memory", "file")
    if os.environ.get("REPRO_CHAOS_BACKEND", backend) == backend
) or ("memory", "file")


def _corpus(num_docs: int = 40) -> list:
    return make_corpus(random.Random(5), num_docs=num_docs, vocabulary=20,
                       terms_per_doc=8)


def _build(method: str = "score", path: "str | None" = None, shards: int = 2,
           corpus: "list | None" = None, **extra) -> SVRTextIndex:
    index = SVRTextIndex(method=method, path=path, shards=shards,
                         cache_pages=256, page_size=512,
                         **{**METHOD_OPTIONS[method], **extra})
    for doc_id, terms, score in (corpus or _corpus()):
        index.add_document_terms(doc_id, terms, score)
    index.finalize()
    return index


def _term_on_shard(index: SVRTextIndex, shard: int) -> str:
    for _doc_id, terms, _score in _corpus():
        for term in terms:
            if shard_of_term(term, index.shard_count) == shard:
                return term
    raise AssertionError("no term routes to the shard")


def _doc_on_shard(index: SVRTextIndex, shard: int) -> int:
    for doc_id, _terms, _score in _corpus():
        if shard_of_doc(doc_id, index.shard_count) == shard:
            return doc_id
    raise AssertionError("no doc routes to the shard")


# ---------------------------------------------------------------------------
# Quarantine: degraded queries, fail-fast writes, reopen
# ---------------------------------------------------------------------------


class TestQuarantine:
    def test_degraded_query_flags_skipped_terms(self, tmp_path):
        index = _build(path=str(tmp_path / "i"))
        index.checkpoint()
        bad = _term_on_shard(index, 1)
        good = _term_on_shard(index, 0)
        baseline = index.search([good], k=5)
        index.router.quarantine_shard(1, "test quarantine")
        assert index.degraded
        assert index.quarantined_shards() == (1,)
        response = index.search([good, bad], k=5)
        assert response.stats.degraded
        assert response.stats.terms_skipped == 1
        # Keywords entirely on healthy shards answer normally, unflagged.
        clean = index.search([good], k=5)
        assert not clean.stats.degraded
        assert ([r.doc_id for r in clean.results]
                == [r.doc_id for r in baseline.results])
        index.router.reopen_shard(1)
        index.close()

    def test_all_keywords_quarantined_yields_empty_degraded_answer(
            self, tmp_path):
        index = _build(path=str(tmp_path / "i"))
        index.checkpoint()
        bad = _term_on_shard(index, 1)
        index.router.quarantine_shard(1, "test quarantine")
        response = index.search([bad], k=5)
        assert response.stats.degraded and list(response.results) == []
        index.router.reopen_shard(1)
        index.close()

    def test_writes_fail_fast_with_typed_error(self, tmp_path):
        index = _build(path=str(tmp_path / "i"))
        index.checkpoint()
        index.router.quarantine_shard(1, "test quarantine")
        doc_id = _doc_on_shard(index, 1)
        before = index.current_score(doc_id)
        with pytest.raises(ShardQuarantinedError) as excinfo:
            index.apply_score_updates([(doc_id, 123.456)])
        assert excinfo.value.shard == 1
        assert index.current_score(doc_id) == before  # nothing mutated
        with pytest.raises(ShardQuarantinedError):
            index.insert_document_terms(
                99_999, [_term_on_shard(index, 1)], 1.0)
        index.router.reopen_shard(1)
        index.close()

    def test_degraded_commit_skips_and_reopen_readmits(self, tmp_path):
        index = _build(path=str(tmp_path / "i"))
        index.checkpoint()
        healthy_doc = _doc_on_shard(index, 0)
        index.router.quarantine_shard(1, "test quarantine")
        # A healthy-shard write still works and commits (degraded commit).
        hd_terms = [t for d, t, _s in _corpus() if d == healthy_doc][0]
        if all(shard_of_term(t, 2) == 0 for t in hd_terms):
            index.apply_score_updates([(healthy_doc, 777.0)])
        index.commit()
        assert (index.env.shards[1].committed_batches
                < index.env.shards[0].committed_batches)
        index.reopen_shard(1)
        assert not index.degraded
        # The reopened shard serves reads and writes again, and the next
        # commit brings it back level with the commit point.
        quarantined_doc = _doc_on_shard(index, 1)
        behind = index.env.shards[1].committed_batches
        index.apply_score_updates([(quarantined_doc, 555.0)])
        index.commit()
        assert index.current_score(quarantined_doc) == 555.0
        # Shard 1 participates in commits again (its own counter advances; it
        # stays numerically behind shard 0 by the batches it missed, which
        # recovery accepts as a legitimate degraded-commit history).
        assert index.env.shards[1].committed_batches == behind + 1
        index.close()
        recovered = SVRTextIndex.open(str(tmp_path / "i"))
        assert recovered.current_score(quarantined_doc) == 555.0
        recovered.close()

    def test_shard_zero_cannot_be_skipped(self, tmp_path):
        index = _build(path=str(tmp_path / "i"))
        index.checkpoint()
        index.router.quarantine_shard(0, "commit point down")
        with pytest.raises(StorageError, match="shard 0"):
            index.commit()
        index.close()

    def test_hard_storage_error_quarantines_the_shard(self, tmp_path):
        built = _build(path=str(tmp_path / "i"))
        built.checkpoint()
        built.close()
        # Reopen: the cache starts cold, so shard 1's reads must hit disk.
        index = SVRTextIndex.open(str(tmp_path / "i"))
        # Schedule exactly one retry-exhausting run of read failures on
        # shard 1; the shard tag is what lets the router attribute the
        # failure domain.  (The schedule must end: the degraded retry still
        # reads shard 1 for doc-sharded score lookups.)
        from repro.storage.faults import DEFAULT_RETRY_BUDGET

        index.env.shards[1].inject_faults(FaultPlan(
            specs=(FaultSpec(op="read", kind="transient", at=0,
                             run=DEFAULT_RETRY_BUDGET + 1),),
        ), shard=1)
        bad = _term_on_shard(index, 1)
        good = _term_on_shard(index, 0)
        response = index.search([good, bad], k=5)
        assert response.stats.degraded
        assert 1 in index.quarantined_shards()
        health = [h for h in index.shard_health() if h.shard == 1][0]
        assert health.quarantined and "retries" in health.reason
        index.env.shards[1].clear_faults()
        index.reopen_shard(1)
        assert not index.degraded
        assert not index.search([good, bad], k=5).stats.degraded
        index.close()

    def test_blocked_payload_bitrot_quarantines_the_shard(self, tmp_path):
        """Silent page corruption in a blocked long list is a hard fault.

        A flipped byte below the page layer fails the codec's per-block CRC
        during the scan; :class:`ChecksumError` is in ``HARD_FAULT_ERRORS``,
        so the router quarantines the shard and degrades the query instead of
        returning silently wrong results.  Restoring the bytes and reopening
        the shard fully revives it.
        """
        from repro.storage.sharding import shard_of_term as term_shard

        hot = next(f"hot{i}" for i in range(100) if term_shard(f"hot{i}", 2) == 1)
        rng = random.Random(7)
        # blocked_postings is pinned (not left to REPRO_BLOCKED_POSTINGS):
        # the per-block CRC under test only exists in the blocked layout, and
        # the option persists through the app blob, so the reopen below keeps
        # decoding the same way whatever the environment flag says.
        index = SVRTextIndex(method="id", path=str(tmp_path / "i"), shards=2,
                             cache_pages=256, page_size=256,
                             blocked_postings=True)
        # Widely spaced doc ids make the blocked list span several pages.
        for doc_id in range(600):
            index.add_document_terms(doc_id * 9973, [hot, f"x{doc_id % 5}"],
                                     rng.uniform(1.0, 500.0))
        index.finalize()
        index.checkpoint()
        index.close()

        index = SVRTextIndex.open(str(tmp_path / "i"))
        sharded_handle = index.index._segments[hot]
        assert sharded_handle.shard == 1
        page_id = sharded_handle.handle.page_ids[-1]
        disk = index.env.shards[1].disk
        page = disk.peek(page_id)
        pristine = page.data
        mutated = bytearray(pristine)
        mutated[len(mutated) // 2] ^= 0x41
        page.write(bytes(mutated))
        disk.write(page)

        response = index.search([hot], k=700)
        assert response.stats.degraded
        assert 1 in index.quarantined_shards()
        health = [h for h in index.shard_health() if h.shard == 1][0]
        assert health.quarantined

        # Restore the bytes; reopening the shard lifts the quarantine and the
        # scan decodes cleanly again.
        page.write(pristine)
        disk.write(page)
        index.reopen_shard(1)
        assert not index.degraded
        assert not index.search([hot], k=700).stats.degraded
        index.close()

    def test_reopen_requires_durable_backend(self):
        index = _build(path=None)
        index.router.quarantine_shard(1, "test")
        with pytest.raises(StorageError):
            index.reopen_shard(1)
        index.close()


# ---------------------------------------------------------------------------
# REPRO_FAULT_SEED plumbing
# ---------------------------------------------------------------------------


class TestFaultSeedEnviron:
    def test_unset_returns_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULT_SEED", raising=False)
        assert fault_seed_from_environ() is None
        assert fault_seed_from_environ(7) == 7

    def test_set_parses(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_SEED", "13")
        assert fault_seed_from_environ() == 13

    def test_garbage_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_SEED", "not-a-seed")
        assert fault_seed_from_environ(3) == 3


# ---------------------------------------------------------------------------
# Fingerprint invariance with injection disabled
# ---------------------------------------------------------------------------


class TestDisabledInjectionInvariance:
    @pytest.mark.parametrize("backend", ["memory", "file"])
    def test_none_plan_fingerprint_identical(self, backend, tmp_path):
        prints = []
        for attach, sub in ((False, "a"), (True, "b")):
            path = (str(tmp_path / sub) if backend == "file" else None)
            index = _build(path=path)
            if attach:
                index.inject_faults(FaultPlan.none())
                assert index.env.shards[0].disk.fault_injector is None
            index.apply_score_updates([(1, 42.0), (2, 77.0)])
            if index.durable:
                index.checkpoint()
            index.search([_term_on_shard(index, 0)], k=5)
            prints.append(category_fingerprint(index.env))
            index.close()
        assert prints[0] == prints[1]


# ---------------------------------------------------------------------------
# The chaos property
# ---------------------------------------------------------------------------


CHAOS_SETTINGS = settings(
    max_examples=8, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestChaosStorms:
    @pytest.mark.parametrize("method", METHODS)
    def test_storm_survives_on_both_backends(self, method, tmp_path):
        corpus = _corpus()
        for backend in CHAOS_BACKENDS:
            config = ChaosStormConfig(
                backend=backend, num_batches=5, batch_size=6,
                fault_seed=fault_seed_from_environ(0),
                rate=0.04, escalations=2,
            )
            path = (str(tmp_path / f"{method}-{backend}")
                    if backend == "file" else None)
            result = run_chaos_storm(path, method, corpus, config, shards=2,
                                     **METHOD_OPTIONS[method])
            assert result.survived, result.mismatches
            assert result.cycles_committed <= result.cycles_attempted
            assert not result.unrecovered

    @CHAOS_SETTINGS
    @given(
        fault_seed=st.integers(min_value=0, max_value=10_000),
        method=st.sampled_from(METHODS),
        backend=st.sampled_from(CHAOS_BACKENDS),
        escalations=st.integers(min_value=0, max_value=3),
    )
    def test_arbitrary_fault_schedules_hold_the_contract(
            self, tmp_path_factory, fault_seed, method, backend, escalations):
        corpus = _corpus(num_docs=30)
        config = ChaosStormConfig(
            backend=backend, num_batches=4, batch_size=5,
            fault_seed=fault_seed, rate=0.05, escalations=escalations,
        )
        path = None
        if backend == "file":
            path = str(tmp_path_factory.mktemp("chaos")
                       / f"{method}-{fault_seed}")
        result = run_chaos_storm(path, method, corpus, config, shards=2,
                                 **METHOD_OPTIONS[method])
        # The contract: typed failures only (anything untyped would have
        # propagated out of run_chaos_storm), recovered state equal to the
        # committed prefix of the fault-free twin, clean data at rest.
        assert result.survived, (result.typed_errors, result.mismatches)

    def test_file_storms_actually_escalate_somewhere(self, tmp_path):
        # Guard against the storm silently degenerating into a no-fault walk:
        # across a small seed sweep the file profile must produce at least
        # one injected fault and one typed hard failure + recovery.
        corpus = _corpus()
        total_injected = total_recoveries = 0
        for seed in range(3):
            config = ChaosStormConfig(backend="file", num_batches=5,
                                      batch_size=6, fault_seed=seed,
                                      rate=0.05, escalations=2)
            result = run_chaos_storm(str(tmp_path / f"s{seed}"), "score",
                                     corpus, config, shards=2)
            assert result.survived, result.mismatches
            total_injected += sum(result.faults_injected.values())
            total_recoveries += result.recoveries
        assert total_injected > 0
        assert total_recoveries > 0
