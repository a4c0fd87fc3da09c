"""The traced run: timing wrappers at the layer boundaries, installed from here.

End-to-end numbers are always measured untraced.  ``--trace 1`` replays one
third of the schedule twice: first untraced on two replicas (per-method
latencies, ``harness.replica_spread``, and the untraced wall time of exactly
these operations), then — after :func:`install` has wrapped the engine's
layer boundaries at class level — on one freshly built replica.  Every
wrapper records a span (name, start, end, parent, op id); spans stay in
memory and are written to ``out/<workload>.trace.jsonl`` at exit.  A layer's
self time is its span minus the child spans that ran on the same thread.
Like every time the benchmark prints, self times are divided by the
machine-speed factor of the pass they were measured in; the spans in the
trace file stay as the clock read them.

Nothing under ``src/`` is edited: the wrappers are ``setattr`` on classes and
module namespaces, and :func:`uninstall` puts the originals back.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict

from e2e_harness import Session
from repro.workloads import percentile

_perf = time.perf_counter

#: Root spans: one op id per call into the public text-index surface.
ROOT_METHODS = ("apply_score_updates", "update_score", "commit", "checkpoint")
WRITE_ROOTS = {"text_index.apply_score_updates", "text_index.update_score",
               "text_index.commit", "text_index.checkpoint"}
BTREE_WRITES = {"btree.insert", "btree.delete", "btree.insert_many",
                "btree.delete_many"}
LAZY_DECODERS = ("iter_blocked_id_postings_lazy",
                 "iter_blocked_scored_postings_lazy",
                 "iter_blocked_chunk_postings_lazy")
ENCODERS = ("encode_blocked_id_postings", "encode_blocked_scored_postings",
            "encode_blocked_chunk_runs")


class _ThreadState:
    """One thread's spans as parallel columns.

    Columns of ints, floats and interned names instead of one container per
    span: the cyclic GC then has nothing to traverse, however many hundred
    thousand spans a run records (per-span lists made every full collection
    walk all of them, which showed up as traced time in the parents).
    """

    __slots__ = ("stack", "ids", "parents", "ops", "names", "starts", "ends",
                 "op", "inherited")

    def __init__(self) -> None:
        self.stack: list[int] = []      # span ids of the open spans
        self.ids: list[int] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.op = 0
        self.inherited = 0


class Tracer:
    """Span recorder; one set of columns per thread, merged at the end.

    ``phase`` gates the wrappers: ``"off"`` (pass straight through),
    ``"build"`` (only the posting encoders record) or ``"ops"`` (everything
    else records).
    """

    def __init__(self) -> None:
        self.phase = "off"
        self.ids = itertools.count(1)
        self.op_ids = itertools.count(1)
        self.counts: dict[str, float] = defaultdict(float)
        #: ``(method, QueryStats, results returned)`` of every traced search.
        self.answers: list[tuple] = []
        self._local = threading.local()
        self._threads: list[_ThreadState] = []
        self._lock = threading.Lock()

    def state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._threads.append(state)
            return state

    def begin(self, name: str, root: bool = False) -> tuple:
        """Open a span on this thread; returns the handle :meth:`end` takes."""
        state = self.state()
        stack = state.stack
        if stack:
            parent, op = stack[-1], state.op
        elif root:
            parent, op = 0, next(self.op_ids)
            state.op = op
        else:
            # Work outside any benchmark operation (op 0) or a task bound to
            # the span that submitted it from another thread.
            parent = state.inherited
            op = state.op if parent else 0
        span_id = next(self.ids)
        position = len(state.ids)
        state.ids.append(span_id)
        state.parents.append(parent)
        state.ops.append(op)
        state.names.append(name)
        state.ends.append(0.0)
        stack.append(span_id)
        state.starts.append(_perf())
        return state, position

    def end(self, handle: tuple) -> None:
        now = _perf()
        state, position = handle
        state.ends[position] = now
        state.stack.pop()
        if not state.stack and not state.inherited:
            state.op = 0

    def spans(self) -> list[tuple]:
        """All finished spans as ``(id, parent, op, name, start, end, thread)``."""
        merged = []
        for thread_no, state in enumerate(self._threads):
            merged.extend(zip(state.ids, state.parents, state.ops, state.names,
                              state.starts, state.ends,
                              itertools.repeat(thread_no)))
        return merged


# ---------------------------------------------------------------------------
# Wrapper factories
# ---------------------------------------------------------------------------

def _span_wrapper(tracer: Tracer, original, name: str, phase: str = "ops",
                  root: bool = False):
    def traced(*args, **kwargs):
        if tracer.phase != phase:
            return original(*args, **kwargs)
        record = tracer.begin(name, root)
        try:
            return original(*args, **kwargs)
        finally:
            tracer.end(record)

    traced.__wrapped__ = original
    return traced


class _TracedIterator:
    """Charges every ``next()`` of a lazy stream to its layer."""

    __slots__ = ("_advance", "_name", "_tracer")

    def __init__(self, tracer: Tracer, iterator, name: str) -> None:
        self._advance = iterator.__next__
        self._name = name
        self._tracer = tracer

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self._tracer
        if tracer.phase != "ops":
            return self._advance()
        record = tracer.begin(self._name)
        try:
            return self._advance()
        finally:
            tracer.end(record)


def _iterator_wrapper(tracer: Tracer, original, name: str):
    def traced(*args, **kwargs):
        if tracer.phase != "ops":
            return original(*args, **kwargs)
        return _TracedIterator(tracer, iter(original(*args, **kwargs)), name)

    traced.__wrapped__ = original
    return traced


def _search_wrapper(tracer: Tracer, original):
    """``SVRTextIndex.search``: root span, and keep the answer's counters, so
    the per-layer counts also cover queries a library driver issues."""

    def traced(self, *args, **kwargs):
        if tracer.phase != "ops":
            return original(self, *args, **kwargs)
        record = tracer.begin("text_index.search", root=True)
        try:
            response = original(self, *args, **kwargs)
        finally:
            tracer.end(record)
        tracer.answers.append((self.method, response.stats, len(response.results)))
        return response

    traced.__wrapped__ = original
    return traced


def _index_query_wrapper(tracer: Tracer, original):
    """``InvertedIndex.query`` span, named after the method it runs."""
    names: dict[str, str] = {}

    def traced(self, *args, **kwargs):
        if tracer.phase != "ops":
            return original(self, *args, **kwargs)
        method = self.method_name
        name = names.get(method)
        if name is None:
            name = names[method] = f"indexes.{method}.query"
        record = tracer.begin(name)
        try:
            return original(self, *args, **kwargs)
        finally:
            tracer.end(record)

    traced.__wrapped__ = original
    return traced


def _submit_wrapper(tracer: Tracer, original):
    """``ExecutorPool.submit``: span, and carry the caller's span to the task."""

    def traced(self, shard, fn):
        if tracer.phase != "ops":
            return original(self, shard, fn)
        record = tracer.begin("exec.submit")
        state, position = record
        parent, op = state.ids[position], state.ops[position]

        def bound():
            state = tracer.state()
            if state.stack:
                # Stolen by the awaiting caller: nests under its wait span.
                return fn()
            state.inherited, state.op = parent, op
            try:
                return fn()
            finally:
                state.inherited, state.op = 0, 0

        try:
            return original(self, shard, bound)
        finally:
            tracer.end(record)

    traced.__wrapped__ = original
    return traced


def _wal_commit_wrapper(tracer: Tracer, original):
    """``WriteAheadLog.commit``: span plus the catalog blob's size."""

    def traced(self, batch_id, catalog):
        if tracer.phase != "ops":
            return original(self, batch_id, catalog)
        tracer.counts["catalog_blob_bytes"] += len(catalog)
        tracer.counts["wal_commits"] += 1
        record = tracer.begin("wal.commit")
        try:
            return original(self, batch_id, catalog)
        finally:
            tracer.end(record)

    traced.__wrapped__ = original
    return traced


def install(tracer: Tracer) -> list[tuple]:
    """Wrap the layer boundaries; returns the undo list for :func:`uninstall`."""
    import repro.core.indexes  # noqa: F401  (loads every method module)
    from repro.core import posting
    from repro.core.index_router import IndexRouter
    from repro.core.indexes.base import InvertedIndex
    from repro.core.list_cache import InvertedListCache
    from repro.core.result_heap import ResultHeap
    from repro.core.text_index import SVRTextIndex
    from repro.exec.executor import ExecutorPool, ShardFuture
    from repro.obs.metrics import MetricsRegistry
    from repro.storage.btree import BPlusTree
    from repro.storage.buffer_pool import BufferPool
    from repro.storage.disk import SimulatedDisk
    from repro.storage.heap_file import HeapFile
    from repro.storage.persistence.file_disk import FileBackedDisk
    from repro.storage.persistence.wal import WriteAheadLog

    undo: list[tuple] = []

    def patch(owner, attribute: str, wrapper) -> None:
        undo.append((owner, attribute, owner.__dict__[attribute]
                     if isinstance(owner, type) else getattr(owner, attribute)))
        setattr(owner, attribute, wrapper)

    def spans(owner, layer: str, attributes, **options) -> None:
        for attribute in attributes:
            patch(owner, attribute, _span_wrapper(
                tracer, getattr(owner, attribute), f"{layer}.{attribute}", **options))

    patch(SVRTextIndex, "search", _search_wrapper(tracer, SVRTextIndex.search))
    spans(SVRTextIndex, "text_index", ROOT_METHODS, root=True)
    spans(IndexRouter, "index_router", ("query", "apply_batch"))
    patch(InvertedIndex, "query", _index_query_wrapper(tracer, InvertedIndex.query))
    spans(BPlusTree, "btree", ("get", "insert", "delete", "insert_many",
                               "delete_many"))
    patch(BPlusTree, "items",
          _iterator_wrapper(tracer, BPlusTree.items, "btree.items"))
    spans(BufferPool, "buffer_pool", ("get", "put"))
    spans(HeapFile, "heap_file", ("read", "write"))
    patch(HeapFile, "iter_pages",
          _iterator_wrapper(tracer, HeapFile.iter_pages, "heap_file.iter_pages"))
    spans(SimulatedDisk, "disk", ("read", "write"))
    spans(FileBackedDisk, "persistence", ("commit_batch", "checkpoint"))
    spans(WriteAheadLog, "wal", ("append_write",))
    patch(WriteAheadLog, "commit",
          _wal_commit_wrapper(tracer, WriteAheadLog.commit))
    patch(os, "fsync", _span_wrapper(tracer, os.fsync, "os.fsync"))
    spans(InvertedListCache, "list_cache", ("get", "put"))
    patch(ExecutorPool, "submit", _submit_wrapper(tracer, ExecutorPool.submit))
    spans(ExecutorPool, "exec", ("map_shards",))
    patch(ShardFuture, "result",
          _span_wrapper(tracer, ShardFuture.result, "exec.future_wait"))
    spans(ResultHeap, "result_heap", ("add",))
    for attribute in ("add_many", "observe", "inc"):
        patch(MetricsRegistry, attribute, _span_wrapper(
            tracer, getattr(MetricsRegistry, attribute), "obs.registry"))

    # Module-level functions: patch the defining module and every
    # ``repro.core.indexes.*`` namespace that imported the name.
    namespaces = [posting] + [
        module for name, module in sorted(sys.modules.items())
        if name.startswith("repro.core.indexes.") and module is not None
    ]
    for name in LAZY_DECODERS:
        original = getattr(posting, name)
        wrapper = _iterator_wrapper(tracer, original, "posting.decode")
        for namespace in namespaces:
            if getattr(namespace, name, None) is original:
                patch(namespace, name, wrapper)
    for name in ENCODERS:
        original = getattr(posting, name)
        wrapper = _span_wrapper(tracer, original, "posting.encode", phase="build")
        for namespace in namespaces:
            if getattr(namespace, name, None) is original:
                patch(namespace, name, wrapper)
    return undo


def uninstall(undo: list[tuple]) -> None:
    for owner, attribute, original in reversed(undo):
        setattr(owner, attribute, original)


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------

def measure_span_overhead(samples: int = 20000) -> tuple[float, float]:
    """Seconds one span adds inside and outside its own timestamps.

    Timed on a throwaway tracer around a no-op.  The part inside the
    timestamps inflates the span's own self time; the part outside inflates
    its parent's.  :class:`TraceSummary` subtracts both, so a layer with
    hundreds of cheap children per operation is not charged for recording
    them.  The spans written to the trace file stay raw.
    """
    def noop():
        return None

    tracer = Tracer()
    wrapped = _span_wrapper(tracer, noop, "noop")
    tracer.phase = "ops"
    outer = tracer.begin("outer", root=True)
    started = _perf()
    for _ in range(samples):
        wrapped()
    traced_s = _perf() - started
    tracer.end(outer)
    started = _perf()
    for _ in range(samples):
        noop()
    bare_s = _perf() - started
    inside = sum(end - start for _i, _p, _o, name, start, end, _t
                 in tracer.spans() if name == "noop") / samples
    outside = max(0.0, (traced_s - bare_s) / samples - inside)
    return inside, outside


class TraceSummary:
    """Self times and call counts per (root op kind, span name).

    A span's raw self time is its duration minus the child spans that ran on
    the same thread (children on executor threads overlap the parent's wait
    and are accounted on their own thread).  Its net self time also takes
    off the measured cost of recording the span and its children.  All
    seconds are divided by ``speed``, the traced pass's machine-speed factor
    (``build_speed`` for the posting encoders, which run during the build).
    """

    def __init__(self, spans: list[tuple], overhead: tuple[float, float],
                 speed: float, build_speed: float) -> None:
        inside, outside = overhead
        thread_of = {}
        root_kind: dict[int, str] = {}
        root_thread: dict[int, int] = {}
        for span_id, parent, op, name, _start, _end, thread in spans:
            thread_of[span_id] = thread
            if not parent and op:
                root_kind[op] = name
                root_thread[op] = thread
        children_s: dict[int, float] = defaultdict(float)
        children_n: dict[int, int] = defaultdict(int)
        pool_gets: dict[int, int] = defaultdict(int)
        for _id, parent, _op, name, start, end, thread in spans:
            if parent and thread_of.get(parent) == thread:
                children_s[parent] += end - start
                children_n[parent] += 1
                if name == "buffer_pool.get":
                    pool_gets[parent] += 1
        #: (root kind, span name) -> [raw self seconds, net self seconds, calls]
        self.cells: dict[tuple[str, str], list] = defaultdict(lambda: [0.0, 0.0, 0])
        #: root kind -> [wall seconds, ops, raw self seconds on the root's thread]
        self.roots: dict[str, list] = defaultdict(lambda: [0.0, 0, 0.0])
        self.encode_s = 0.0
        btree_gets = btree_pages = 0
        for span_id, parent, op, name, start, end, thread in spans:
            if name == "posting.encode":
                self.encode_s += (end - start) / build_speed
                continue
            kind = root_kind.get(op)
            if kind is None:
                continue  # work outside any benchmark operation
            raw = (end - start) - children_s.get(span_id, 0.0)
            net = max(0.0, raw - inside - children_n.get(span_id, 0) * outside)
            cell = self.cells[(kind, name)]
            cell[0] += raw / speed
            cell[1] += net / speed
            cell[2] += 1
            root = self.roots[kind]
            if thread == root_thread[op]:
                root[2] += raw / speed
            if not parent:
                root[0] += (end - start) / speed
                root[1] += 1
            if name == "btree.get":
                btree_gets += 1
                btree_pages += pool_gets.get(span_id, 0)
        #: Mean buffer-pool fetches per point lookup = levels descended.
        self.pages_per_btree_get = _ratio(btree_pages, btree_gets)

    def self_s(self, names, kinds=None) -> float:
        """Net self seconds of the named spans (under the given root kinds)."""
        return sum(cell[1] for (kind, name), cell in self.cells.items()
                   if name in names and (kinds is None or kind in kinds))

    def calls(self, names, kinds=None) -> int:
        return sum(cell[2] for (kind, name), cell in self.cells.items()
                   if name in names and (kinds is None or kind in kinds))

    def table(self) -> str:
        """Per root op kind: wall time and every layer's share of it."""
        lines = []
        for kind, (wall, ops, covered) in sorted(self.roots.items()):
            lines.append(
                f"  {kind}: {ops} ops, traced wall {wall * 1e3:.1f} ms; raw self "
                f"times on the root's thread sum to {covered / wall:.1%} of it")
            lines.append(f"    {'layer':<34} {'raw self':>13} {'share':>7} "
                         f"{'net self':>13} {'calls':>9}")
            rows = [(name, cell) for (cell_kind, name), cell in self.cells.items()
                    if cell_kind == kind]
            for name, (raw, net, calls) in sorted(rows, key=lambda row: -row[1][0]):
                lines.append(f"    {name:<34} {raw * 1e3:>10.2f} ms {raw / wall:>7.1%} "
                             f"{net * 1e3:>10.2f} ms {calls:>9}")
        return "\n".join(lines)


def write_trace(spans: list[tuple], path: str) -> None:
    """JSON lines: a header object, then one array per span (times in
    microseconds from the first span)."""
    origin = min((span[4] for span in spans), default=0.0)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps({"columns": ["id", "parent", "op", "name", "thread",
                                             "start_us", "end_us"]}) + "\n")
        handle.writelines(
            f'[{span_id},{parent},{op},"{name}",{thread},'
            f'{(start - origin) * 1e6:.1f},{(end - origin) * 1e6:.1f}]\n'
            for span_id, parent, op, name, start, end, thread in spans)


# ---------------------------------------------------------------------------
# The traced run
# ---------------------------------------------------------------------------

def _io_marks(index) -> dict:
    """Lifetime pool/disk/cache counters from the engine's public snapshot."""
    snapshot = index.observability()
    pool = defaultdict(int)
    disk = defaultdict(int)
    for row in snapshot["shard_io"]:
        for key, value in row["pool"].items():
            pool[key] += value
        for key, value in row["disk"].items():
            disk[key] += value
    cache = snapshot["list_cache"] or {}
    return {
        "pool": pool, "disk": disk, "cache": cache,
        "combined_windows": snapshot["engine"]["combined_windows"],
        "load": index.shard_load(),
    }


def _indexes_of(replica) -> list:
    return list(replica.values()) if isinstance(replica, dict) else [replica]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def traced_run(workload, make_workload, out_dir: str):
    """Run the untraced and the traced pass; returns (per-layer values, session)."""
    from e2e_workloads import build_replicas, run_passes

    # Pass 1, untraced, two replicas of a third of the schedule.
    untraced = workload
    untraced.sizes = untraced.trace_sizes()
    replicas, _setup_s, _speeds = build_replicas(untraced, 2)
    try:
        sessions, _counts = run_passes(untraced, replicas)
    finally:
        untraced.close(replicas)
    plain = untraced.merge(sessions)
    del replicas

    # Pass 2: the same operations on one replica built with wrappers in place.
    tracer = Tracer()
    traced_workload = make_workload()
    traced_workload.sizes = traced_workload.trace_sizes()
    traced_replicas: list = []
    undo = install(tracer)
    try:
        tracer.phase = "build"
        traced_replicas, _setup_s, build_speeds = build_replicas(traced_workload, 1)
        tracer.phase = "off"
        indexes = _indexes_of(traced_replicas[0])
        before = [_io_marks(index) for index in indexes]
        tracer.phase = "ops"
        try:
            sessions, _counts = run_passes(traced_workload, traced_replicas)
        finally:
            tracer.phase = "off"
        after = [_io_marks(index) for index in indexes]
    finally:
        traced_workload.close(traced_replicas)
        uninstall(undo)
    speed = sessions[0].speed
    session = traced_workload.merge(sessions)

    spans = tracer.spans()
    write_trace(spans, os.path.join(out_dir, f"{workload.name}.trace.jsonl"))
    overhead = measure_span_overhead()
    summary = TraceSummary(spans, overhead, speed, build_speeds[0])
    print(f"per-layer self time by root operation kind ({len(spans)} spans; "
          f"recording one costs {overhead[0] * 1e6:.2f} us inside and "
          f"{overhead[1] * 1e6:.2f} us outside its timestamps; times below are "
          f"divided by the pass's machine-speed factor {speed:.3f}):")
    print(summary.table())

    values = layer_values(plain, session, summary, tracer, before, after)
    session.attempted += plain.attempted
    session.failed += plain.failed
    session.failures = plain.failures + session.failures
    return values, session


def layer_values(plain: Session, session: Session, summary: TraceSummary,
                 tracer: Tracer, before: list[dict],
                 after: list[dict]) -> dict[str, float]:
    """Every per-layer metric of BENCHMARK.json; layers that did no work read 0.

    ``plain`` is the merged untraced session, ``session`` the traced one.
    """
    search = {"text_index.search"}
    queries = summary.calls(search)
    updates = session.updates_applied
    per_query_ms = lambda names: _ratio(summary.self_s(names, search) * 1e3, queries)
    per_query_calls = lambda names: _ratio(summary.calls(names, search), queries)

    def delta(group: str, key: str) -> int:
        return sum(b[group].get(key, 0) - a[group].get(key, 0)
                   for a, b in zip(before, after))

    # Counters of the traced pass's own queries, whoever issued them.
    stats = [row for _method, row, _results in tracer.answers]
    results_returned = sum(results for _method, _row, results in tracer.answers)

    values: dict[str, float] = {}
    values["text_index.search_self_ms"] = per_query_ms({"text_index.search"})
    # The query tail the traced run's sample supports: a third of the
    # schedule leaves fewer than ten queries beyond p99.
    values["text_index.search_p95_ms"] = percentile(plain.query_s, 0.95) * 1e3
    values["index_router.query_self_ms"] = per_query_ms({"index_router.query"})
    apply_calls = summary.calls({"index_router.apply_batch"})
    values["index_router.apply_batch_self_ms"] = _ratio(
        summary.self_s({"index_router.apply_batch"}) * 1e3, apply_calls)
    combined = delta_plain(before, after, "combined_windows")
    values["index_router.combined_windows"] = float(combined)
    values["index_router.updates_per_combined_window"] = _ratio(updates, combined)

    from e2e_workloads import METHOD_OPTIONS

    for method in METHOD_OPTIONS:
        latencies = plain.queries_of(method)
        writes = plain.writes_of(method)
        rows = [row for own, row, _results in tracer.answers if own == method]
        prefix = f"indexes.{method}."
        values[prefix + "query_p50_ms"] = (
            percentile(latencies, 0.5) * 1e3 if latencies else 0.0)
        # Microseconds per score update on this method's write path.
        values[prefix + "update_us"] = _ratio(
            sum(writes) * 1e6, plain.updates_of(method))
        values[prefix + "postings_scanned_per_query"] = _ratio(
            sum(row.postings_scanned for row in rows), len(rows))
        values[prefix + "pages_read_per_query"] = _ratio(
            sum(row.pages_read for row in rows), len(rows))
    chunk_queries = summary.calls({"indexes.chunk.query"})
    values["indexes.chunk.merge_self_ms_per_query"] = _ratio(
        summary.self_s({"indexes.chunk.query"}) * 1e3, chunk_queries)
    chunk_rows = [row for own, row, _results in tracer.answers if own == "chunk"]
    values["indexes.chunk.score_lookups_per_query"] = _ratio(
        sum(row.score_lookups for row in chunk_rows), len(chunk_rows))

    decode = {"posting.decode"}
    values["posting.decode_self_ms_per_query"] = per_query_ms(decode)
    values["posting.decode_ns_per_posting"] = _ratio(
        summary.self_s(decode) * 1e9, summary.calls(decode))
    values["posting.blocks_skipped_per_query"] = _ratio(
        sum(row.blocks_skipped for row in stats), len(stats))
    values["posting.postings_scanned_per_result"] = _ratio(
        sum(row.postings_scanned for row in stats), results_returned)
    values["posting.encode_ms_total"] = summary.encode_s * 1e3

    values["result_heap.add_calls_per_query"] = per_query_calls({"result_heap.add"})
    values["result_heap.self_ms_per_query"] = per_query_ms({"result_heap.add"})

    hits, misses = delta("cache", "hits"), delta("cache", "misses")
    values["list_cache.hit_rate"] = _ratio(hits, hits + misses)
    values["list_cache.evictions"] = float(delta("cache", "evictions"))
    values["list_cache.invalidations_per_window"] = _ratio(
        delta("cache", "invalidations"), apply_calls)

    values["exec.tasks_per_query"] = per_query_calls({"exec.submit"})
    values["exec.submit_self_ms_per_query"] = per_query_ms({"exec.submit"})
    values["exec.future_wait_ms_per_query"] = per_query_ms({"exec.future_wait"})

    values["btree.get_calls_per_query"] = per_query_calls({"btree.get"})
    values["btree.get_self_ms_per_query"] = per_query_ms({"btree.get"})
    values["btree.write_self_ms_per_update"] = _ratio(
        summary.self_s(BTREE_WRITES, WRITE_ROOTS) * 1e3, updates)
    values["btree.height"] = summary.pages_per_btree_get

    pool_hits, pool_misses = delta("pool", "hits"), delta("pool", "misses")
    values["buffer_pool.hit_rate"] = _ratio(pool_hits, pool_hits + pool_misses)
    values["buffer_pool.evictions"] = float(delta("pool", "evictions"))
    values["buffer_pool.get_self_ms_per_query"] = per_query_ms({"buffer_pool.get"})
    values["heap_file.pages_per_query"] = per_query_calls({"heap_file.iter_pages"})
    values["heap_file.iter_pages_self_ms_per_query"] = per_query_ms(
        {"heap_file.iter_pages"})
    values["disk.reads_seq"] = float(delta("disk", "sequential_reads"))
    values["disk.reads_rand"] = float(delta("disk", "random_reads"))
    values["disk.writes"] = float(delta("disk", "writes"))
    values["disk.sim_cost_ms_per_query"] = _ratio(
        sum(row.estimated_io_ms for row in stats), len(stats))

    loads = [b["load"].diff(a["load"]) for a, b in zip(before, after)]
    values["sharding.load_skew"] = max(load.skew for load in loads)

    commits = tracer.counts["wal_commits"]
    values["persistence.commit_self_ms"] = _ratio(
        summary.self_s({"persistence.commit_batch"}) * 1e3,
        summary.calls({"persistence.commit_batch"}))
    values["persistence.catalog_blob_bytes_per_commit"] = _ratio(
        tracer.counts["catalog_blob_bytes"], commits)
    checkpoints = plain.writes_of("checkpoint")
    values["persistence.checkpoint_ms"] = _ratio(sum(checkpoints) * 1e3,
                                                 len(checkpoints))
    values["persistence.write_p95_ms"] = (
        percentile(plain.write_s, 0.95) * 1e3 if commits else 0.0)
    for name in ("wal.bytes_per_update", "wal.fsyncs_per_commit",
                 "persistence.file_bytes_per_live_byte"):
        values[name] = plain.extra.get(name, 0.0)
    values["wal.fsync_ms_per_commit"] = plain.extra_s.get(
        "wal.fsync_per_commit", 0.0) * 1e3
    values["persistence.recovery_ms"] = plain.extra_s.get(
        "persistence.recovery", 0.0) * 1e3

    values["obs.registry_self_ms_per_query"] = per_query_ms({"obs.registry"})

    values.update(plain.harness_metrics())
    # ``plain`` holds per-operation minima of two passes, the traced session
    # one pass: the ratio slightly overstates what tracing costs.
    values["harness.trace_overhead_x"] = _ratio(session.wall_s, plain.wall_s)
    return values


def delta_plain(before: list[dict], after: list[dict], key: str) -> int:
    return sum(b[key] - a[key] for a, b in zip(before, after))

