"""One state machine over the engine's configuration space, held to one model.

Each run draws a method, a shard count, a backend, the hot-term list cache
and tracing, builds a text index over a small fixed corpus whose longest
lists span several pages, and then interleaves every write the engine
accepts — insert, delete, re-insert (same or new terms, lower or higher
score), score updates, batched windows, content updates — with queries,
commits, checkpoints, crashes, seeded storage faults and shard quarantine.

Every answer is checked against :class:`tests.helpers.ReferenceModel`.  At
each commit the machine records the engine's answers to a fixed probe set;
after every recovery the engine must equal the model's committed snapshot
and reproduce those answers bit for bit, which holds the TermScore methods
to exactness across recovery where the model allows them slack.

A write that fails under an injected fault is not part of the committed
prefix: on the file backend the machine crashes the index, recovers it and
rolls the model back.  The memory backend has nothing to recover from, so
its fault profile schedules only faults the retry machinery absorbs, and a
failure there fails the run.

The budget is fixed and derandomized, so every run sees the same examples.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.core.text_index import SVRTextIndex
from repro.errors import StorageError
from repro.obs.trace import set_tracing
from repro.storage.faults import FaultPlan
from repro.storage.sharding import shard_of_term
from tests.conftest import METHOD_OPTIONS
from tests.helpers import ReferenceModel

VOCABULARY = [f"v{i}" for i in range(8)]
#: Doc ids step by four-byte varint deltas, so that at ``PAGE_SIZE`` the
#: common terms' long lists span several pages for every long-list kind.
DOC_STRIDE = 2_097_169
PAGE_SIZE = 128
CACHE_PAGES = 256
LIST_CACHE_PAGES = 8

#: Queries whose answers are recorded at each commit and replayed after
#: each recovery.
PROBES = (
    (("v0",), 5, True),
    (("v0", "v4"), 3, True),
    (("v1", "v2", "v5"), 10, False),
)


def _corpus() -> list[tuple[int, list[str], float]]:
    """40 documents; low-numbered terms are common, high-numbered rare."""
    rng = random.Random(2026)
    return [
        (doc * DOC_STRIDE,
         [rng.choice(VOCABULARY[:rng.randint(1, len(VOCABULARY))])
          for _ in range(rng.randint(3, 9))],
         round(rng.uniform(1.0, 1000.0), 2))
        for doc in range(1, 41)
    ]


CONFIGS = st.fixed_dictionaries({
    "shards": st.sampled_from((1, 2, 4)),
    "backend": st.sampled_from(("memory", "file")),
    "list_cache": st.booleans(),
    "tracing": st.booleans(),
})
TERMS = st.lists(st.sampled_from(VOCABULARY), min_size=1, max_size=6)
KEYWORDS = st.lists(st.sampled_from(VOCABULARY), min_size=1, max_size=3, unique=True)
SCORES = st.integers(0, 200_000).map(lambda cents: cents / 100)
#: Writes pick among the eight highest doc ids of a pool, so that a short
#: run still stacks several writes on one document.
PICKS = st.integers(0, 7)
#: 100 exceeds the corpus: the whole ranking, so any stray document shows.
KS = st.sampled_from((1, 3, 10, 100))


class IndexMachine(RuleBasedStateMachine):
    """One method's engine under one drawn configuration, and its model."""

    def __init__(self, method: str) -> None:
        super().__init__()
        self.method = method
        self.index: "SVRTextIndex | None" = None
        self.directory: "str | None" = None
        self.path: "str | None" = None
        self.tracing_was = None
        self.plan: "FaultPlan | None" = None
        #: Recoveries from failures under injected faults.
        self.fault_recoveries = 0

    @initialize(config=CONFIGS)
    def build(self, config: dict) -> None:
        self.config = config
        self.model = ReferenceModel(self.method)
        self.tracing_was = set_tracing(config["tracing"])
        if config["backend"] == "file":
            self.directory = tempfile.mkdtemp(prefix="repro-machine-")
            self.path = os.path.join(self.directory, "index")
        self.index = SVRTextIndex(
            method=self.method, path=self.path, shards=config["shards"],
            cache_pages=CACHE_PAGES, page_size=PAGE_SIZE,
            list_cache_pages=LIST_CACHE_PAGES if config["list_cache"] else 0,
            **METHOD_OPTIONS[self.method],
        )
        for doc_id, terms, score in _corpus():
            self.index.add_document_terms(doc_id, terms, score)
            self.model.insert(doc_id, terms, score)
        self.index.finalize()
        self.next_doc = (len(self.model.scores) + 1) * DOC_STRIDE
        assert self._commit()

    def teardown(self) -> None:
        if self.index is not None:
            self.index.clear_faults()
            # The directory goes next, so a durable index need not checkpoint.
            (self.index.crash if self.durable else self.index.close)()
        if self.directory is not None:
            shutil.rmtree(self.directory, ignore_errors=True)
        if self.tracing_was is not None:
            set_tracing(self.tracing_was)

    # -- helpers ------------------------------------------------------------------

    @property
    def durable(self) -> bool:
        return self.config["backend"] == "file"

    def _write(self, write, record, doc_ids) -> None:
        """Run ``write`` on the index; on success ``record`` it in the model
        and rank every match of the terms the written documents lost, then
        of the terms they have."""
        before = {term for doc_id in doc_ids for term in self.model.terms.get(doc_id, ())}
        try:
            write(self.index)
        except StorageError as error:
            self._recover_from_fault(error)
            return
        record(self.model)
        after = {term for doc_id in doc_ids for term in self.model.terms[doc_id]}
        for terms in (before - after, after):
            if terms:
                self.query(sorted(terms), k=100, conjunctive=False)

    def _recover_from_fault(self, error: StorageError) -> None:
        """A failure under injected faults rolls back to the last commit."""
        if self.plan is None or not self.durable:
            raise error
        self.fault_recoveries += 1
        self._recover()

    def _recover(self) -> None:
        """Crash, reopen, and check the engine against the committed state."""
        self.index.crash()
        self.index = SVRTextIndex.open(self.path, cache_pages=CACHE_PAGES)
        self.model.rollback()
        self.model.check_contents(self.index)
        assert self._probe() == self.probes
        if self.plan is not None:
            self.index.inject_faults(self.plan)

    def _probe(self) -> list:
        answers = []
        for keywords, k, conjunctive in PROBES:
            results = self.index.search(keywords, k=k, conjunctive=conjunctive).results
            self.model.check(results, keywords, k, conjunctive)
            answers.append([(result.doc_id, result.score) for result in results])
        return answers

    def _commit(self, checkpoint: bool = False) -> bool:
        """Commit (or checkpoint).  A durable index also records, fault-free,
        the probe answers its recoveries must reproduce."""
        try:
            (self.index.checkpoint if checkpoint else self.index.commit)()
        except StorageError as error:
            self._recover_from_fault(error)
            return False
        self.model.commit()
        if self.durable:
            self.index.clear_faults()
            self.probes = self._probe()
            if self.plan is not None:
                self.index.inject_faults(self.plan)
        return True

    def _pick(self, docs, pick: int) -> int:
        docs = sorted(docs, reverse=True)
        return docs[pick % len(docs)]

    # -- writes -------------------------------------------------------------------

    @rule(terms=TERMS, score=SCORES)
    def insert(self, terms, score) -> None:
        doc_id = self.next_doc
        self.next_doc += DOC_STRIDE
        self._write(lambda index: index.insert_document_terms(doc_id, terms, score),
                    lambda model: model.insert(doc_id, terms, score), [doc_id])

    @precondition(lambda self: self.model.live)
    @rule(pick=PICKS)
    def delete(self, pick) -> None:
        doc_id = self._pick(self.model.live, pick)
        self._write(lambda index: index.delete_document(doc_id),
                    lambda model: model.delete(doc_id), [doc_id])

    @precondition(lambda self: self.model.deleted)
    @rule(pick=PICKS, same_terms=st.booleans(), terms=TERMS, higher=st.booleans(),
          percent=st.integers(1, 99))
    def reinsert(self, pick, same_terms, terms, higher, percent) -> None:
        doc_id = self._pick(self.model.deleted, pick)
        if same_terms:
            terms = self.model.terms[doc_id]
        old = self.model.scores[doc_id]
        score = round(old * (1 + percent) if higher else old * percent / 100, 2)
        self._write(lambda index: index.insert_document_terms(doc_id, terms, score),
                    lambda model: model.insert(doc_id, terms, score), [doc_id])

    @rule(pick=PICKS, score=SCORES, deleted=st.booleans())
    def update_score(self, pick, score, deleted) -> None:
        # Deleted documents too: the Score table keeps their rows.
        doc_id = self._pick(self.model.deleted if deleted and self.model.deleted
                            else self.model.live or self.model.scores, pick)
        self._write(lambda index: index.update_score(doc_id, score),
                    lambda model: model.update_score(doc_id, score), [doc_id])

    @precondition(lambda self: self.model.live)
    @rule(pick=PICKS, terms=TERMS)
    def update_content(self, pick, terms) -> None:
        doc_id = self._pick(self.model.live, pick)
        self._write(lambda index: index.update_content(doc_id, " ".join(terms)),
                    lambda model: model.update_content(doc_id, terms), [doc_id])

    @rule(window=st.lists(st.tuples(PICKS, SCORES), min_size=1, max_size=8))
    def apply_score_updates(self, window) -> None:
        updates = [(self._pick(self.model.scores, pick), score)
                   for pick, score in window]

        def record(model) -> None:
            for doc_id, score in updates:
                model.update_score(doc_id, score)

        self._write(lambda index: index.apply_score_updates(updates), record,
                    [doc_id for doc_id, _score in updates])

    # -- queries --------------------------------------------------------------------

    @rule(keywords=KEYWORDS, k=KS, conjunctive=st.booleans())
    def query(self, keywords, k, conjunctive) -> None:
        try:
            response = self.index.search(keywords, k=k, conjunctive=conjunctive)
        except StorageError as error:
            self._recover_from_fault(error)
            return
        if self.index.router.degraded:
            # A hard fault quarantined a shard mid-query: the answer is
            # partial by design, and the shard comes back by recovery.
            assert self.plan is not None and self.durable
            self._recover()
            return
        self.model.check(response.results, keywords, k, conjunctive)

    # -- durability -----------------------------------------------------------------

    @rule(checkpoint=st.booleans())
    def commit(self, checkpoint) -> None:
        self._commit(checkpoint)

    @precondition(lambda self: self.durable)
    @rule()
    def crash_and_recover(self) -> None:
        self._recover()

    @rule(seed=st.integers(0, 10_000), escalations=st.integers(0, 3))
    def inject_faults(self, seed, escalations) -> None:
        self.plan = FaultPlan.chaos(seed, backend=self.config["backend"],
                                    rate=0.05, escalations=escalations)
        self.index.inject_faults(self.plan)

    @precondition(lambda self: self.plan is not None)
    @rule()
    def clear_faults(self) -> None:
        self.plan = None
        self.index.clear_faults()

    @precondition(lambda self: self.durable and self.config["shards"] > 1
                  and self.plan is None)
    @rule(shard=st.integers(0, 3), keywords=KEYWORDS, k=KS, conjunctive=st.booleans())
    def quarantine_and_reopen(self, shard, keywords, k, conjunctive) -> None:
        """A degraded query answers from the healthy shards' terms only, and
        the reopened shard comes back at the commit it last took part in."""
        shard %= self.config["shards"]
        assert self._commit()
        self.index.router.quarantine_shard(shard, "state machine")
        response = self.index.search(keywords, k=k, conjunctive=conjunctive)
        kept = [term for term in keywords
                if shard_of_term(term, self.config["shards"]) != shard]
        assert response.stats.degraded == (len(kept) < len(keywords))
        if kept:
            self.model.check(response.results, kept, k, conjunctive)
        else:
            assert response.results == ()
        self.index.reopen_shard(shard)
        assert not self.index.degraded
        self.model.check_contents(self.index)
        assert self._probe() == self.probes


def scripted_window(rng: random.Random, size: int) -> list:
    """``(pick, score)`` pairs for the ``apply_score_updates`` rule."""
    return [(rng.randrange(8), round(rng.uniform(0.0, 2000.0), 2))
            for _ in range(size)]


@contextmanager
def scripted_machine(method: str, shards: int = 1, backend: str = "file"):
    """The machine outside hypothesis, for tests that call its rules in a
    fixed order."""
    machine = IndexMachine(method)
    try:
        machine.build({"shards": shards, "backend": backend,
                       "list_cache": False, "tracing": False})
        yield machine
    finally:
        machine.teardown()


#: The committed budget, per method.
BUDGET = settings(max_examples=7, stateful_step_count=30, derandomize=True,
                  database=None, deadline=None,
                  suppress_health_check=list(HealthCheck))


@pytest.mark.parametrize("method", sorted(METHOD_OPTIONS))
def test_engine_matches_reference_model(method):
    run_state_machine_as_test(lambda: IndexMachine(method), settings=BUDGET)
