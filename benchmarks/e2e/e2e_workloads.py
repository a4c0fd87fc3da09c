"""The four end-to-end workloads.

Each workload generates all of its inputs from the seed before anything is
timed, builds one index replica at a time, and replays a *fixed* operation
schedule through a :class:`~e2e_harness.Session`.  ``README.md`` records why
each workload exists and which layers it works.

All workloads share page_size 512, k = 10 and two-term queries drawn from
the "unselective" frequent-term pool, so long lists span many pages, as they
do at the paper's scale.
"""

from __future__ import annotations

import gc
import os
import random
import shutil
import statistics
import time
from dataclasses import dataclass, replace

from repro import SVRTextIndex
from repro.workloads import (
    QueryWorkload,
    QueryWorkloadConfig,
    ServiceLoadConfig,
    ServiceLoadDriver,
    SyntheticCorpusConfig,
    UpdateWorkload,
    UpdateWorkloadConfig,
    generate_corpus,
)
from repro.workloads.updates import resolve_batch, window_updates

from e2e_harness import (
    FsyncLedger,
    Session,
    Twin,
    calibration_kernel,
    directory_bytes,
    merge_min,
    speed_factor,
)

PAGE_SIZE = 512
TOP_K = 10
#: Chunk / Score-Threshold tuning of the repository's "small" bench scale.
CHUNK_OPTIONS = {"chunk_ratio": 2.2, "min_chunk_size": 20}
METHOD_OPTIONS = {
    "id": {},
    "score": {},
    "score_threshold": {"threshold_ratio": 4.0},
    "chunk": CHUNK_OPTIONS,
    "id_termscore": {},
    "chunk_termscore": {**CHUNK_OPTIONS, "fancy_size": 25},
}
TERMSCORE_METHODS = ("id_termscore", "chunk_termscore")
#: Seed of the corpus and of the pools of queries and score deltas.  ``--seed``
#: decides the order in which a run draws from the pools (see README "What
#: the seed changes").
POOL_SEED = 7

_perf = time.perf_counter


@dataclass(frozen=True)
class Sizes:
    """Corpus shape and schedule length of one workload at one scale."""

    docs: int
    terms_per_doc: int
    vocab: int
    rounds: int
    #: Workload-specific query count (cold queries of ``durable_commit``,
    #: queries and update windows per pass of ``service_hot``).
    queries: int = 0
    #: Fewest rounds ``--seconds`` may scale the schedule down to, so that an
    #: untraced run never issues fewer than 1000 queries per replica.
    min_rounds: int = 1

    def with_rounds(self, factor: float, floor: int = 1) -> "Sizes":
        return replace(self, rounds=max(floor, round(self.rounds * factor)))


def _queries(frequent, sizes: Sizes, count: int, pool: int, rng: random.Random,
             conjunctive: bool = True):
    """Pool ``pool``'s first ``count`` queries, in the order ``rng`` gives them."""
    config = QueryWorkloadConfig(num_queries=count, terms_per_query=2,
                                 selectivity="unselective", k=TOP_K,
                                 conjunctive=conjunctive, seed=POOL_SEED + pool)
    queries = list(QueryWorkload(config, frequent, vocabulary_size=sizes.vocab)
                   .generate())
    rng.shuffle(queries)
    return queries


def _delta_windows(corpus, count: int, window: int, pool: int, rng: random.Random):
    """Pool ``pool``'s first ``count`` windows of score deltas, in ``rng``'s order.

    Windows change places, deltas keep their size and their window: every
    seed applies the same steps to the same documents, in another order.
    """
    stream = UpdateWorkload(
        UpdateWorkloadConfig(num_updates=count * window, seed=POOL_SEED + pool),
        corpus.scores(),
    ).generate_list()
    windows = list(window_updates(stream, window))
    rng.shuffle(windows)
    return windows


def _resolved_windows(corpus, count: int, window: int, pool: int, rng: random.Random):
    """The same windows as absolute ``(doc, new_score)`` pairs, resolved in
    the order they will be applied."""
    running = corpus.scores()
    windows = []
    for batch in _delta_windows(corpus, count, window, pool, rng):
        resolved = resolve_batch(batch, running)
        running.update(resolved)
        windows.append(resolved)
    return windows


def _build(corpus, method: str, **options) -> SVRTextIndex:
    index = SVRTextIndex(method=method, page_size=PAGE_SIZE, **options)
    for document in corpus.documents:
        index.add_document_terms(document.doc_id, document.terms, document.score)
    index.finalize()
    return index


def _disk_writes(index) -> int:
    return index.env.snapshot().disk.writes


class Workload:
    """Common shape: generate -> build replicas -> one pass per replica."""

    name = ""
    full = Sizes(0, 0, 0, 0)
    smoke = Sizes(0, 0, 0, 0)
    #: Replicas must agree on every counter (false only with racing clients).
    deterministic = True
    #: Closed-loop clients that run side by side.
    clients = 1

    def __init__(self, seed: int, sizes: Sizes, out_dir: str) -> None:
        self.seed = seed
        self.sizes = sizes
        self.out_dir = out_dir
        #: Orders the draws from the pools; consumed by ``generate`` only.
        self.rng = random.Random(seed)

    # The base implementation covers the corpus; subclasses add their streams.
    def generate(self) -> None:
        sizes = self.sizes
        self.corpus = generate_corpus(SyntheticCorpusConfig(
            num_docs=sizes.docs, terms_per_doc=sizes.terms_per_doc,
            num_distinct_terms=sizes.vocab, seed=POOL_SEED,
        ))
        #: Vocabulary by falling frequency; queries draw from its head.
        self.frequent = self.corpus.frequent_terms(sizes.vocab)

    def trace_sizes(self) -> Sizes:
        """The traced run replays a third of the schedule."""
        return self.sizes.with_rounds(1 / 3)

    def make_twin(self) -> None:
        """Harness-side reference model; not part of the engine's set-up."""
        self.twin = Twin(self.corpus)

    def build(self, number: int):
        raise NotImplementedError

    def run(self, number: int, replica, session: Session) -> dict[str, float]:
        """Replay the schedule on one replica; returns its count metrics."""
        raise NotImplementedError

    def merge(self, sessions: list[Session]) -> Session:
        return merge_min(sessions)

    def close(self, replicas: list) -> None:
        for index in replicas:
            index.close()

    def _exact(self, query, term_weight: float = 0.0):
        twin = self.twin
        return lambda response: twin.check_exact(
            response, query.keywords, query.k, query.conjunctive,
            term_weight=term_weight)


def _count_metrics(session: Session, indexes: list, writes_before: list[int],
                   postings: int) -> dict[str, float]:
    """The three count metrics of a memory-backed pass, closed by one untimed
    flush per index (index size is averaged over ``indexes``)."""
    written = size = 0
    for index, before in zip(indexes, writes_before):
        index.commit()
        written += _disk_writes(index) - before
        size += index.env.total_size_bytes()
    stats = session.stats()
    return {
        "pages_read_per_query": sum(row.pages_read for row in stats) / len(stats),
        "pages_written_per_update": written / session.updates_applied,
        "index_bytes_per_posting": size / len(indexes) / postings,
    }


class SvrCold(Workload):
    """Chunk method, cold long lists after update storms (the paper's regime)."""

    name = "svr_cold"
    full = Sizes(docs=4000, terms_per_doc=60, vocab=16000, rounds=70, min_rounds=42)
    smoke = Sizes(docs=200, terms_per_doc=30, vocab=4000, rounds=2)
    windows_per_round = 4
    window = 256
    queries_per_round = 24

    def generate(self) -> None:
        super().generate()
        rounds = self.sizes.rounds
        self.queries = _queries(self.frequent, self.sizes,
                                rounds * self.queries_per_round, 1, self.rng)
        self.windows = _resolved_windows(
            self.corpus, rounds * self.windows_per_round, self.window, 2, self.rng)

    def build(self, number: int):
        return _build(self.corpus, "chunk", cache_pages=2048, shards=1, threads=1,
                      list_cache_pages=0, **CHUNK_OPTIONS)

    def run(self, number, index, session):
        writes_before = _disk_writes(index)
        windows = iter(self.windows)
        queries = iter(self.queries)
        scores = self.twin.scores
        for _round in range(self.sizes.rounds):
            session.begin_round()
            for _ in range(self.windows_per_round):
                window = next(windows)
                session.write(index, lambda index, w=window: index.apply_score_updates(w),
                              updates=len(window), label="chunk")
                scores.update(window)
            for _ in range(self.queries_per_round):
                query = next(queries)
                session.query(index, query, "chunk", cold=True,
                              check=self._exact(query))
        return _count_metrics(session, [index], [writes_before],
                              self.twin.posting_count)


class MethodsSweep(Workload):
    """All six methods, unbatched updates, working set that fits the pool."""

    name = "methods_sweep"
    full = Sizes(docs=1000, terms_per_doc=50, vocab=8000, rounds=15, min_rounds=10)
    smoke = Sizes(docs=80, terms_per_doc=20, vocab=3000, rounds=1)
    updates_per_round = 30
    queries_per_round = 9  # of each kind: conjunctive and disjunctive

    def generate(self) -> None:
        super().generate()
        rounds = self.sizes.rounds
        count = rounds * self.queries_per_round
        self.conjunctive = _queries(self.frequent, self.sizes, count, 1, self.rng)
        self.disjunctive = _queries(self.frequent, self.sizes, count, 3, self.rng,
                                    conjunctive=False)
        self.updates = [
            pair
            for window in _resolved_windows(self.corpus, rounds,
                                            self.updates_per_round, 2, self.rng)
            for pair in window
        ]

    def build(self, number: int):
        """One replica = one index per method, each over its own environment."""
        indexes = {}
        for method, options in METHOD_OPTIONS.items():
            index = _build(self.corpus, method, cache_pages=4096, shards=1,
                           threads=1, list_cache_pages=0, **options)
            # Start from an empty pool: the measured phase then pays exactly
            # the compulsory misses of a working set that fits, so
            # pages_read_per_query is small, non-zero and deterministic.
            index.env.drop_cache()
            indexes[method] = index
        return indexes

    def _check(self, method: str, query, reference: dict):
        twin = self.twin
        if method not in TERMSCORE_METHODS:
            return self._exact(query)
        terms = len(query.keywords)
        if query.conjunctive:
            # Combined score = SVR score + sum of the query terms' normalised
            # TFs, up to the 32-bit rounding of long-list term scores.
            return lambda response: twin.check_scores(
                response, query.keywords, query.k, True,
                term_weight=1.0, below=1e-6 * terms, above=1e-6 * terms)
        slack = terms * twin.max_ntf

        def check(response) -> bool:
            if not twin.check_scores(response, query.keywords, query.k, False,
                                     term_weight=0.0, below=0.0, above=slack):
                return False
            # The two TermScore methods are also held to each other.
            other = reference.setdefault(query.keywords, response)
            return len(other.results) == len(response.results) and all(
                abs(a.score - b.score) <= slack
                for a, b in zip(other.results, response.results))

        return check

    def run(self, number, indexes, session):
        writes_before = [_disk_writes(index) for index in indexes.values()]
        per_round = self.updates_per_round
        for round_no in range(self.sizes.rounds):
            session.begin_round()
            updates = self.updates[round_no * per_round:(round_no + 1) * per_round]
            # Every method answers this round's queries after this round's
            # updates, so the twin moves once, up front.
            self.twin.scores.update(updates)
            lo = round_no * self.queries_per_round
            hi = lo + self.queries_per_round
            termscore_answers: dict = {}
            for method, index in indexes.items():
                for doc_id, score in updates:
                    session.write(
                        index,
                        lambda index, d=doc_id, s=score: index.update_score(d, s),
                        updates=1, label=method)
                for query in self.conjunctive[lo:hi] + self.disjunctive[lo:hi]:
                    session.query(index, query, method, cold=False,
                                  check=self._check(method, query, termscore_answers))
        # index_bytes_per_posting is the mean over the six methods' indexes.
        return _count_metrics(session, list(indexes.values()), writes_before,
                              self.twin.posting_count)

    def close(self, replicas) -> None:
        for replica in replicas:
            for index in replica.values():
                index.close()


class DurableCommit(Workload):
    """Chunk method on the file backend: commit, checkpoint, crash, recover.

    Flush policy: the engine's default — one fsync per ``commit()``.
    """

    name = "durable_commit"
    full = Sizes(docs=2000, terms_per_doc=50, vocab=10000, rounds=60, queries=1000,
                 min_rounds=6)
    smoke = Sizes(docs=100, terms_per_doc=25, vocab=3000, rounds=4, queries=20)
    window = 128
    probes = 50

    def __init__(self, seed, sizes, out_dir, drop_last_commit: bool = False) -> None:
        super().__init__(seed, sizes, out_dir)
        self.drop_last_commit = drop_last_commit
        self.ledger = FsyncLedger()
        self.root = os.path.join(out_dir, f"durable_commit.{os.getpid()}")

    def generate(self) -> None:
        super().generate()
        commits = self.sizes.rounds
        self.query_count = self.sizes.queries
        self.queries = _queries(self.frequent, self.sizes,
                                self.query_count + self.probes, 1, self.rng)
        # One extra window is applied but never committed: it must vanish.
        self.windows = _resolved_windows(self.corpus, commits + 1, self.window,
                                         2, self.rng)
        shutil.rmtree(self.root, ignore_errors=True)
        os.makedirs(self.root)
        self.ledger.install()

    def trace_sizes(self) -> Sizes:
        third = super().trace_sizes()
        return replace(third, queries=max(1, third.queries // 3))

    def _path(self, number: int) -> str:
        return os.path.join(self.root, f"replica{number}")

    def build(self, number: int):
        index = _build(self.corpus, "chunk", cache_pages=4096, shards=1, threads=1,
                       list_cache_pages=0, path=self._path(number), **CHUNK_OPTIONS)
        index.checkpoint()
        return index

    def run(self, number, index, session):
        ledger = self.ledger
        scores = self.twin.scores
        writes_before = _disk_writes(index)
        commits = self.sizes.rounds
        # Checkpoint after every third of the commits except the last, so the
        # crash finds committed batches that live only in the WAL.
        checkpoint_every = max(2, commits // 3)
        fsyncs_before, fsync_s_before = ledger.calls, ledger.seconds
        for count, window in enumerate(self.windows[:commits], start=1):
            if count % 5 == 1:
                session.begin_round()

            def commit_window(index, w=window):
                index.apply_score_updates(w)
                index.commit()

            session.write(index, commit_window, updates=len(window), label="chunk")
            scores.update(window)
            if count % checkpoint_every == 0 and count < commits:
                session.write(index, lambda index: index.checkpoint(),
                              updates=0, label="checkpoint")
        # Checkpoints fsync too; they are few and counted with the commits
        # they follow.
        session.extra["wal.fsyncs_per_commit"] = (
            (ledger.calls - fsyncs_before) / commits)
        session.extra_s["wal.fsync_per_commit"] = (
            (ledger.seconds - fsync_s_before) / commits)
        session.begin_round()
        for query in self.queries[:self.query_count]:
            session.query(index, query, "chunk", cold=True, check=self._exact(query))
        stats = session.stats()
        updates = session.updates_applied
        wal_bytes = sum(row["bytes_appended"] for row in index.observability()["wal"])
        session.extra["wal.bytes_per_update"] = wal_bytes / updates
        counts = {
            "pages_read_per_query": sum(row.pages_read for row in stats) / len(stats),
            "pages_written_per_update": (_disk_writes(index) - writes_before) / updates,
        }
        acknowledged = self.twin.copy_scores()
        index.apply_score_updates(self.windows[commits])  # never committed
        stored, live = self._crash_and_recover(number, index, session, acknowledged)
        counts["index_bytes_per_posting"] = stored / self.twin.posting_count
        session.extra["persistence.file_bytes_per_live_byte"] = stored / live
        return counts

    def _crash_and_recover(self, number: int, index, session: Session,
                           acknowledged: dict[int, float]) -> tuple[int, int]:
        """Crash, drop unflushed bytes, reopen, verify.

        Returns the bytes of the index directory after a final checkpoint
        and the live bytes the engine reports (``(1, 1)`` if it cannot open).
        """
        path = self._path(number)
        session.attempted += 1
        index.crash()
        self.ledger.discard_unflushed(
            path, drop_last_sync_of="wal.log" if self.drop_last_commit else "")
        started = _perf()
        try:
            recovered = SVRTextIndex.open(path)
        except Exception as exc:
            session.fail(f"recovery of replica {number}: {exc!r}")
            return 1, 1
        session.extra_s["persistence.recovery"] = _perf() - started
        if recovered.current_scores(acknowledged) != acknowledged:
            session.fail(f"replica {number}: recovered scores are not the "
                         "last acknowledged commit's")
        for query in self.queries[self.query_count:]:
            response = recovered.search(query.keywords, k=query.k)
            if not self.twin.check_exact(response, query.keywords, query.k, True,
                                         scores=acknowledged):
                session.fail(f"replica {number}: wrong top-k after recovery")
                break
        recovered.checkpoint()
        stored, live = directory_bytes(path), recovered.env.total_size_bytes()
        recovered.close()
        return stored, live

    def close(self, replicas) -> None:
        self.ledger.uninstall()
        shutil.rmtree(self.root, ignore_errors=True)


class ServiceHot(Workload):
    """Chunk method, 2 shards x 2 threads, hot-term list cache, 2 clients.

    Closed loop: each client issues its next operation when the previous one
    returns.  Interleavings differ between runs, so per pass the latencies of
    the replica whose pass finished fastest are kept.  Throughput of either
    kind of operation is its count over the time the two clients spent on
    that kind (the sum of its latencies, halved), so writers slowed down to
    make readers faster show in ``update_ops_s``.
    """

    name = "service_hot"
    full = Sizes(docs=4000, terms_per_doc=60, vocab=16000, rounds=5, queries=250,
                 min_rounds=4)
    smoke = Sizes(docs=150, terms_per_doc=30, vocab=4000, rounds=1, queries=16)
    deterministic = False
    clients = 2
    batch_window = 32
    probes = 20

    def generate(self) -> None:
        super().generate()
        per_pass = self.sizes.queries
        self.drivers = []
        for pass_no in range(self.sizes.rounds):
            queries = _queries(self.frequent, self.sizes, per_pass,
                               10 * pass_no + 1, self.rng)
            # The driver resolves the deltas against the index's own scores.
            updates = [update for window in _delta_windows(
                self.corpus, per_pass, self.batch_window, 10 * pass_no + 2, self.rng)
                for update in window]
            self.drivers.append(ServiceLoadDriver(
                ServiceLoadConfig(num_clients=self.clients, query_fraction=0.5,
                                  batch_window=self.batch_window,
                                  seed=self.seed + pass_no),
                queries, updates))
        self.probe_queries = _queries(self.frequent, self.sizes, self.probes,
                                      5, self.rng)

    def trace_sizes(self) -> Sizes:
        return replace(self.sizes, rounds=max(1, self.sizes.rounds // 3))

    def build(self, number: int):
        return _build(self.corpus, "chunk", cache_pages=4096, shards=2, threads=2,
                      list_cache_pages=1024, **CHUNK_OPTIONS)

    def run(self, number, index, session):
        doc_ids = self.corpus.doc_ids()
        for driver in self.drivers:
            session.begin_round()
            session.calibrate(10)
            try:
                result = driver.run(index)
            except Exception as exc:
                session.attempted += 1
                session.fail(f"service pass: {exc!r}")
                result = None
            else:
                session.attempted += result.queries_run + result.update_windows
            session.calibrate(10)
            session.passes.append(result)
            self._probe(index, doc_ids, session)
        done = [result for result in session.passes if result is not None]
        updates = sum(result.updates_applied for result in done)
        return {
            "pages_read_per_query": (sum(result.pages_read for result in done)
                                     / sum(result.queries_run for result in done)),
            "pages_written_per_update": (
                sum(result.pages_written for result in done) / updates),
            "index_bytes_per_posting": (
                index.env.total_size_bytes() / self.twin.posting_count),
        }

    def _probe(self, index, doc_ids, session: Session) -> None:
        """At quiescence, answers must be the brute-force top-k of the
        engine's own Score table (concurrent clients race on read-modify-write
        of a score, so the harness cannot predict the table itself)."""
        scores = index.current_scores(doc_ids)
        for query in self.probe_queries:
            session.attempted += 1
            response = index.search(query.keywords, k=query.k)
            if not self.twin.check_exact(response, query.keywords, query.k, True,
                                         scores=scores):
                session.fail(f"service probe {query.keywords}: wrong top-k")

    def merge(self, sessions):
        """Per pass, the samples of the replica whose pass finished fastest."""
        merged = merge_min(sessions)
        factors = [session.speed for session in sessions]
        for results in zip(*(session.passes for session in sessions)):
            walls = [(result.wall_seconds / factor, factor, result)
                     for result, factor in zip(results, factors) if result is not None]
            if not walls:
                continue
            wall, factor, best = min(walls, key=lambda entry: entry[0])
            merged.spreads.append(max(entry[0] for entry in walls) / wall)
            scale = 1e3 * factor
            merged.query_s.extend(ms / scale for ms in best.query_latencies_ms)
            merged.query_label.extend(["chunk"] * best.queries_run)
            merged.write_s.extend(ms / scale for ms in best.window_latencies_ms)
            merged.write_label.extend(["chunk"] * best.update_windows)
            merged.write_updates.extend(
                [best.updates_applied // best.update_windows] * best.update_windows)
        return merged


def build_replicas(workload: Workload, count: int) -> tuple[list, float, list[float]]:
    """Generate the inputs and build ``count`` replicas.

    Returns the replicas, ``setup_s`` — input generation plus the median
    build (plus the first checkpoint where the workload is durable) — and
    the machine-speed factor of every build.  Each phase is bracketed by
    bursts of the calibration kernel and divided by the speed factor they
    give.
    """
    def burst() -> list[float]:
        return [calibration_kernel() for _ in range(12)]

    phases = []  # (seconds, kernel samples before and after)
    replicas = []
    before = burst()
    for number in range(-1, count):
        started = _perf()
        if number < 0:
            workload.generate()
        else:
            replicas.append(workload.build(number))
        elapsed = _perf() - started
        freeze_setup_garbage()
        after = burst()
        phases.append((elapsed, before + after))
        before = after
    speeds = [speed_factor(kernel) for _seconds, kernel in phases]
    scaled = [seconds / speed for (seconds, _kernel), speed in zip(phases, speeds)]
    return replicas, scaled[0] + statistics.median(scaled[1:]), speeds[1:]


def run_passes(workload: Workload, replicas: list) -> tuple[list[Session], list[dict]]:
    """One pass per replica -> (the passes' sessions, their count metrics)."""
    workload.make_twin()
    sessions: list[Session] = []
    counts = []
    for number, replica in enumerate(replicas):
        workload.twin.reset()
        freeze_setup_garbage()
        session = Session(reference=sessions[0] if sessions else None)
        counts.append(workload.run(number, replica, session))
        sessions.append(session)
    if workload.deterministic and any(other != counts[0] for other in counts[1:]):
        sessions[0].fail(f"replicas disagree on counters: {counts}")
    return sessions, counts


WORKLOADS = {cls.name: cls for cls in (SvrCold, MethodsSweep, DurableCommit, ServiceHot)}


def freeze_setup_garbage() -> None:
    """Move everything built so far out of the collector's way.

    The cyclic GC stays enabled for the measured operations; freezing only
    stops it from re-traversing three replicas' worth of index objects on
    every full collection, which would otherwise make build N+1 slower than
    build N and inject pauses proportional to the harness's own footprint.
    """
    gc.collect()
    gc.freeze()
