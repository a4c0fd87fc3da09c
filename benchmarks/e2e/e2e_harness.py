"""Measurement primitives shared by the four end-to-end workloads.

Everything here talks to the engine through its public surface only
(``SVRTextIndex`` methods, ``QueryResponse`` fields, ``env.snapshot()``).
The noise rules implemented here are explained, with the measured effect of
each, in ``README.md`` next to this file.
"""

from __future__ import annotations

import gc
import heapq
import os
import resource
import statistics
import time
from collections import Counter
from typing import Callable, Sequence

from repro.workloads import percentile

#: Identical replicas the whole schedule is replayed on, one after the other;
#: an operation's time is the minimum of the three (see README "Noise rules").
REPLICAS = 3

_perf = time.perf_counter


def peak_rss_mb() -> float:
    """Peak resident set of this process in MiB (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: Kernel time every reported duration is quoted at: a duration measured
#: while the kernel takes 5 ms is reported as four fifths of itself.  This
#: holds for every time the benchmark prints, end-to-end and per-layer alike;
#: only the spans in the trace file stay as the clock read them.
KERNEL_REFERENCE_S = 0.004


def calibration_kernel() -> float:
    """Seconds a fixed ~4 ms pure-Python loop takes right now.

    The host slows whole runs down by 10-20 % for minutes at a time; the
    kernel slows down with them, so durations are reported relative to it
    (see README "Machine-speed factor").  It shares no code with the engine
    and touches no memory to speak of, so its time does not depend on what
    the engine left in the caches.
    """
    started = _perf()
    acc = 0
    for value in range(60000):
        acc = (acc + value * value) % 1000003
    return _perf() - started


class Twin:
    """Brute-force reference model: doc -> terms and doc -> latest score.

    Content never changes in these workloads, so the term -> documents map is
    built once; scores follow every acknowledged update.
    """

    def __init__(self, corpus) -> None:
        self._corpus = corpus
        self.scores: dict[int, float] = corpus.scores()
        self.postings: dict[str, set[int]] = {}
        self.posting_count = 0
        #: doc -> term -> normalised term frequency (the TermScore methods'
        #: per-posting term score).
        self._ntf: dict[int, dict[str, float]] = {}
        for document in corpus.documents:
            length = len(document.terms)
            ntf = {term: count / length
                   for term, count in Counter(document.terms).items()}
            self._ntf[document.doc_id] = ntf
            self.posting_count += len(ntf)
            for term in ntf:
                self.postings.setdefault(term, set()).add(document.doc_id)
        #: Largest normalised term frequency in the corpus: bounds how far a
        #: TermScore method's combined score can sit above the SVR score.
        self.max_ntf = max(max(ntf.values()) for ntf in self._ntf.values())

    def reset(self) -> None:
        """Back to the corpus's scores, for the next replica's pass."""
        self.scores = self._corpus.scores()

    def copy_scores(self) -> dict[int, float]:
        return dict(self.scores)

    def matches(self, keywords: Sequence[str], conjunctive: bool) -> set[int]:
        lists = [self.postings.get(term, set()) for term in keywords]
        if conjunctive:
            return set.intersection(*lists) if lists else set()
        return set().union(*lists)

    def top_scores(self, keywords: Sequence[str], k: int, conjunctive: bool,
                   scores: "dict[int, float] | None" = None,
                   term_weight: float = 0.0) -> list[tuple[float, int]]:
        """Best ``k`` ``(score, doc_id)`` pairs, score descending, id ascending.

        ``term_weight > 0`` adds the combined-scoring term (normalised TF of
        every query term), which is exact for conjunctive queries.
        """
        scores = self.scores if scores is None else scores
        docs = self.matches(keywords, conjunctive)
        if term_weight:
            def rank(doc_id: int) -> tuple[float, int]:
                ntf = self._ntf[doc_id]
                bonus = sum(ntf.get(term, 0.0) for term in keywords)
                return (-(scores[doc_id] + term_weight * bonus), doc_id)
        else:
            def rank(doc_id: int) -> tuple[float, int]:
                return (-scores[doc_id], doc_id)
        best = heapq.nsmallest(k, map(rank, docs))
        return [(-neg, doc_id) for neg, doc_id in best]

    def check_exact(self, response, keywords, k, conjunctive,
                    scores=None, term_weight: float = 0.0) -> bool:
        """Engine top-k equals brute force: score sequence, and doc ids
        wherever the score is not tied with a neighbour."""
        want = self.top_scores(keywords, k, conjunctive, scores, term_weight)
        got = [(r.score, r.doc_id) for r in response.results]
        if [s for s, _ in got] != [s for s, _ in want]:
            return False
        for position, (score, doc_id) in enumerate(want):
            tied = ((position > 0 and want[position - 1][0] == score)
                    or (position + 1 < len(want) and want[position + 1][0] == score)
                    or len(want) == k and position == k - 1)
            if not tied and got[position][1] != doc_id:
                return False
        return True

    def check_scores(self, response, keywords, k, conjunctive,
                     term_weight: float, below: float, above: float) -> bool:
        """Rank-wise scores lie in ``[want - below, want + above]``.

        For the TermScore methods, whose answers cannot be reproduced bit for
        bit from outside: long-list postings carry the term score as a 32-bit
        float and short-list postings as a 64-bit one, and the two methods
        add different subsets of the term scores to a disjunctive match.
        Perturbing every document's score by at most ``e`` moves the i-th
        best score by at most ``e``, so the rank-wise test is sound.
        """
        want = self.top_scores(keywords, k, conjunctive, term_weight=term_weight)
        got = [r.score for r in response.results]
        if len(got) != len(want):
            return False
        return all(score - below <= found <= score + above
                   for found, (score, _doc) in zip(got, want))


class Session:
    """One replica's pass over a workload's schedule.

    Records the seconds of every operation in schedule order, so that
    :func:`merge_min` can take, operation by operation, the fastest of the
    passes.  The first pass checks every answer against the oracle; later
    passes (``reference`` = the first) must reproduce its answers and
    ``QueryStats`` exactly, which is the cheaper and the stricter test.
    """

    def __init__(self, reference: "Session | None" = None) -> None:
        self.reference = reference
        self.query_s: list[float] = []
        self.query_label: list[str] = []
        #: ``(results, stats)`` per query, ``None`` where the query raised.
        self.answers: list = []
        self.write_s: list[float] = []
        self.write_label: list[str] = []
        self.write_updates: list[int] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.calib_s: list[float] = []
        self._calibrated = 0.0
        #: Max/min over the passes' timings of one operation (merged sessions).
        self.spreads: list[float] = []
        #: Workload-specific per-layer values measured outside the tracer:
        #: counts, and durations in seconds (rescaled like every other time).
        self.extra: dict[str, float] = {}
        self.extra_s: dict[str, float] = {}
        #: ``service_hot``: one ``ServiceLoadResult`` (or ``None``) per pass.
        self.passes: list = []

    # -- bookkeeping ---------------------------------------------------------

    def begin_round(self) -> None:
        gc.collect()
        self.calibrate()

    def calibrate(self, samples: int = 1) -> None:
        for _ in range(samples):
            self.calib_s.append(calibration_kernel())
        self._calibrated = _perf()

    def _keep_calibrating(self) -> None:
        """A kernel sample every 40 ms of the pass, between operations."""
        if _perf() - self._calibrated >= 0.04:
            self.calibrate()

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(reason)

    # -- operations ------------------------------------------------------------

    def query(self, index, query, label: str, cold: bool,
              check: "Callable[[object], bool] | None") -> None:
        """One timed top-k query, preceded by an untimed drop of the cached
        long-list pages when ``cold``."""
        self.attempted += 1
        keywords, k, conjunctive = query.keywords, query.k, query.conjunctive
        self._keep_calibrating()
        if cold:
            index.drop_long_list_cache()
        answer = None
        started = _perf()
        try:
            response = index.search(keywords, k=k, conjunctive=conjunctive)
            elapsed = _perf() - started
            answer = (response.results, response.stats)
        except Exception as exc:  # a failed operation, not a harness crash
            elapsed = _perf() - started
            self.fail(f"{label} query {keywords}: {exc!r}")
        position = len(self.query_s)
        self.query_s.append(elapsed)
        self.query_label.append(label)
        self.answers.append(answer)
        if answer is None:
            return
        if self.reference is not None:
            if self.reference.answers[position] != answer:
                self.fail(f"{label} query {keywords}: replicas disagree")
        elif check is not None and not check(response):
            self.fail(f"{label} query {keywords} conj={conjunctive}: wrong top-k")

    def write(self, index, call: Callable, updates: int, label: str) -> None:
        """One timed write operation carrying ``updates`` score updates."""
        self.attempted += 1
        self._keep_calibrating()
        started = _perf()
        try:
            call(index)
        except Exception as exc:
            self.fail(f"{label} write: {exc!r}")
        self.write_s.append(_perf() - started)
        self.write_label.append(label)
        self.write_updates.append(updates)

    # -- summaries ---------------------------------------------------------------

    @property
    def speed(self) -> float:
        """Machine-speed factor of this pass."""
        return speed_factor(self.calib_s)

    @property
    def wall_s(self) -> float:
        """Seconds spent inside timed operations."""
        return sum(self.query_s) + sum(self.write_s)

    @property
    def updates_applied(self) -> int:
        return sum(self.write_updates)

    def stats(self) -> list:
        """``QueryStats`` of the answered queries."""
        return [answer[1] for answer in self.answers if answer is not None]

    def queries_of(self, label: str) -> list[float]:
        return _labelled(self.query_s, self.query_label, label)

    def writes_of(self, label: str) -> list[float]:
        return _labelled(self.write_s, self.write_label, label)

    def updates_of(self, label: str) -> int:
        return sum(_labelled(self.write_updates, self.write_label, label))

    def timing_metrics(self, clients: int = 1) -> dict[str, float]:
        """The timing metrics of a (merged) session.

        Throughput is operations over the time spent on that kind of
        operation: the sum of its latencies, shared between ``clients``
        closed-loop clients that run side by side.
        """
        # A write operation that carries no updates (a checkpoint) costs
        # update throughput but is not a sample of the write latency.
        writes = [s for s, n in zip(self.write_s, self.write_updates) if n]
        return {
            "query_p50_ms": percentile(self.query_s, 0.50) * 1e3,
            "query_p99_ms": percentile(self.query_s, 0.99) * 1e3,
            "query_ops_s": clients * len(self.query_s) / sum(self.query_s),
            "update_ops_s": clients * self.updates_applied / sum(self.write_s),
            "write_p50_ms": percentile(writes, 0.50) * 1e3,
        }

    def harness_metrics(self) -> dict[str, float]:
        return {
            "harness.calib_ms": statistics.median(self.calib_s) * 1e3,
            "harness.replica_spread": (
                statistics.median(self.spreads) if self.spreads else 1.0),
        }


def _labelled(values: Sequence, labels: "Sequence[str]", label: str) -> list:
    return [value for value, own in zip(values, labels) if own == label]


def speed_factor(kernel_s: "Sequence[float]") -> float:
    """How much slower than the reference the machine ran these kernels."""
    return statistics.median(kernel_s) / KERNEL_REFERENCE_S


def merge_min(sessions: "Sequence[Session]") -> Session:
    """The passes of identical replicas folded into one session.

    Every operation's time becomes the minimum over the passes, each pass's
    times first divided by that pass's machine-speed factor.  The passes run
    one after the other, so the timings of one operation lie seconds apart
    and a slow phase of the host has to outlast the whole run to reach the
    minimum.
    """
    first = sessions[0]
    merged = Session()
    factors = [session.speed for session in sessions]
    merged.query_label = list(first.query_label)
    merged.write_label = list(first.write_label)
    merged.write_updates = list(first.write_updates)
    merged.answers = first.answers
    for name in ("query_s", "write_s"):
        columns = list(zip(*([seconds / factor for seconds in getattr(session, name)]
                             for session, factor in zip(sessions, factors))))
        setattr(merged, name, [min(column) for column in columns])
        if len(sessions) > 1:
            merged.spreads.extend(max(column) / min(column)
                                  for column in columns if min(column) > 0)
    for session in sessions:
        merged.attempted += session.attempted
        merged.failed += session.failed
        merged.failures.extend(session.failures)
        merged.calib_s.extend(session.calib_s)
    merged.extra = {key: min(session.extra[key] for session in sessions)
                    for key in first.extra
                    if all(key in session.extra for session in sessions)}
    merged.extra_s = {key: min(session.extra_s[key] / factor
                               for session, factor in zip(sessions, factors))
                      for key in first.extra_s
                      if all(key in session.extra_s for session in sessions)}
    return merged


class FsyncLedger:
    """Remembers every file's size at its last completed ``os.fsync``.

    Killing a process leaves the OS page cache intact, so a crash test that
    only drops file handles proves nothing about durability.  With the ledger
    installed, :meth:`discard_unflushed` cuts every file under a directory
    back to the size it had when it was last fsynced — bytes the engine wrote
    but never flushed are gone, exactly as after a power loss.  (Overwrites
    in place below that size are not rolled back; the engine's commit path is
    append-only, so size is the whole story for the WAL.)
    """

    def __init__(self) -> None:
        self._sizes: dict[tuple[int, int], list[int]] = {}
        self._original: "Callable | None" = None
        self.calls = 0
        self.seconds = 0.0

    def install(self) -> None:
        original = self._original = os.fsync
        sizes = self._sizes

        def fsync(fd):
            if not isinstance(fd, int):
                fd = fd.fileno()
            started = _perf()
            original(fd)
            self.seconds += _perf() - started
            self.calls += 1
            info = os.fstat(fd)
            sizes.setdefault((info.st_dev, info.st_ino), []).append(info.st_size)

        os.fsync = fsync

    def uninstall(self) -> None:
        if self._original is not None:
            os.fsync = self._original
            self._original = None

    def discard_unflushed(self, directory: str, drop_last_sync_of: str = "") -> int:
        """Truncate every file under ``directory`` to its last-synced size.

        ``drop_last_sync_of`` names a file whose *previous* synced size is
        used instead — the sabotage the README uses to show that the
        durability check fails when a committed batch is thrown away.
        Returns the number of bytes discarded.
        """
        discarded = 0
        for root, _dirs, files in os.walk(directory):
            for name in files:
                path = os.path.join(root, name)
                info = os.stat(path)
                history = self._sizes.get((info.st_dev, info.st_ino), [])
                if name == drop_last_sync_of and len(history) > 1:
                    history = history[:-1]
                synced = history[-1] if history else 0
                if info.st_size > synced:
                    discarded += info.st_size - synced
                    os.truncate(path, synced)
        return discarded


def directory_bytes(directory: str) -> int:
    return sum(
        os.path.getsize(os.path.join(root, name))
        for root, _dirs, files in os.walk(directory) for name in files
    )
