"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.storage.buffer_pool import BufferPool
from repro.storage.disk import SimulatedDisk
from repro.storage.environment import StorageEnvironment

#: Options that make the chunked methods behave sensibly on tiny corpora.
SMALL_CHUNK_OPTIONS = {"chunk_ratio": 3.0, "min_chunk_size": 2}

#: All index methods with the options the tests use for each.
METHOD_OPTIONS: dict[str, dict] = {
    "id": {},
    "score": {},
    "score_threshold": {"threshold_ratio": 2.0},
    "chunk": dict(SMALL_CHUNK_OPTIONS),
    "id_termscore": {},
    "chunk_termscore": {**SMALL_CHUNK_OPTIONS, "fancy_size": 5},
}

#: Methods whose ranking uses SVR scores only (identical results expected).
SVR_ONLY_METHODS = ("id", "score", "score_threshold", "chunk")

#: Methods whose ranking combines SVR and term scores.
TERMSCORE_METHODS = ("id_termscore", "chunk_termscore")

#: Deterministic seeds for the randomized update storms of the batch
#: equivalence harness (hypothesis-style explicit examples: each seed drives
#: one reproducible storm through every index method).
UPDATE_STORM_SEEDS = (11, 23, 57, 2026)


@pytest.fixture
def env():
    """A fresh storage environment with a modest cache (closed at teardown)."""
    environment = StorageEnvironment(cache_pages=256)
    yield environment
    environment.close()

@pytest.fixture
def tiny_pool() -> BufferPool:
    """A buffer pool small enough to force evictions."""
    return BufferPool(SimulatedDisk(), capacity_pages=4)


@pytest.fixture
def rng() -> random.Random:
    """A deterministic random generator for test data."""
    return random.Random(1234)


def make_corpus(rng: random.Random, num_docs: int = 40, vocabulary: int = 25,
                terms_per_doc: int = 12, max_score: float = 1000.0):
    """A small random corpus: list of (doc_id, terms, score)."""
    vocab = [f"w{i:03d}" for i in range(vocabulary)]
    corpus = []
    for doc_id in range(1, num_docs + 1):
        terms = [rng.choice(vocab) for _ in range(terms_per_doc)]
        score = round(rng.uniform(0.0, max_score), 2)
        corpus.append((doc_id, terms, score))
    return corpus


@pytest.fixture
def small_corpus(rng: random.Random):
    """A deterministic small corpus shared by the index tests."""
    return make_corpus(rng)
