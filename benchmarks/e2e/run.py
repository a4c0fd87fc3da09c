#!/usr/bin/env python3
"""End-to-end + per-layer benchmark of the SVR engine (see README.md here).

    python3 benchmarks/e2e/run.py --workload svr_cold --seed 7
    python3 benchmarks/e2e/run.py --workload svr_cold --seed 7 --trace 1
    python3 benchmarks/e2e/run.py --stability > benchmarks/e2e/STABILITY.md

One run = one workload in one fresh interpreter.  It prints every metric by
name with its unit, the operations attempted and failed, and — as the last
line of standard output — the JSON object ``BENCHMARK.json``'s contract asks
for.  ``--trace 0`` (default) measures the end-to-end metrics untraced;
``--trace 1`` installs the timing wrappers of ``e2e_tracing.py`` and reports
the per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
MANIFEST = os.path.join(ROOT, "BENCHMARK.json")
OUT_DIR = os.path.join(HERE, "out")
#: ``--stability``: runs per set, one seed per run (what the acceptance check
#: of this benchmark does).
RUNS_PER_SET = 10
#: Decided by the operations alone: they repeat exactly for one seed wherever
#: no clients race.
COUNT_METRICS = ("pages_read_per_query", "pages_written_per_update",
                 "index_bytes_per_posting")
RACING_WORKLOADS = ("service_hot",)


def load_manifest() -> dict:
    with open(MANIFEST, encoding="utf-8") as handle:
        return json.load(handle)


def reexec_with_clean_environment() -> None:
    """Restart under ``PYTHONHASHSEED=0`` with every ``REPRO_*`` switch unset.

    String-set iteration order otherwise differs between processes and moves
    the engine's sequential/random read classification (and, through dict
    layout, timings); the ``REPRO_*`` variables select engine code paths and
    must not leak in from the caller's shell.
    """
    stray = [name for name in os.environ if name.startswith("REPRO_")]
    if os.environ.get("PYTHONHASHSEED") == "0" and not stray:
        return
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    sys.stdout.flush()
    os.execve(sys.executable, [sys.executable, os.path.abspath(__file__)]
              + sys.argv[1:], env)


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------

def make_workload(args, manifest):
    from e2e_workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    if args.scale == "smoke":
        sizes = cls.smoke
    else:
        sizes = cls.full.with_rounds(args.seconds / manifest["run_seconds"],
                                     floor=cls.full.min_rounds)
    extra = {}
    if args.workload == "durable_commit":
        extra["drop_last_commit"] = args.drop_last_commit
    return cls(args.seed, sizes, OUT_DIR, **extra)


def run_untraced(workload) -> tuple[dict, "object"]:
    from e2e_harness import REPLICAS, peak_rss_mb
    from e2e_workloads import build_replicas, run_passes

    replicas, setup_s, _speeds = build_replicas(workload, REPLICAS)
    try:
        sessions, counts = run_passes(workload, replicas)
    finally:
        workload.close(replicas)
    merged = workload.merge(sessions)
    values = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb()}
    values.update(merged.timing_metrics(workload.clients))
    # Identical on the serial workloads; the middle replica's with racing clients.
    values.update({name: statistics.median(count[name] for count in counts)
                   for name in counts[0]})
    values.update(merged.harness_metrics())
    return values, merged


def run_once(args) -> int:
    manifest = load_manifest()
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        print(f"error: the engine's sources are not at {source}", file=sys.stderr)
        return 2
    sys.path[:0] = [HERE, source]
    os.makedirs(OUT_DIR, exist_ok=True)
    workload = make_workload(args, manifest)
    wall_started = time.perf_counter()
    if args.trace:
        from e2e_tracing import traced_run

        values, session = traced_run(
            workload, lambda: make_workload(args, manifest), OUT_DIR)
        declared = manifest["per_layer"]
    else:
        values, session = run_untraced(workload)
        declared = manifest["end_to_end"]
    wall_s = time.perf_counter() - wall_started

    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"error: no value computed for declared metrics {missing}",
              file=sys.stderr)
        return 2
    print(f"workload {args.workload}  seed {args.seed}  scale {args.scale}  "
          f"trace {args.trace}  wall {wall_s:.1f} s")
    metrics = {}
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"  {name:<46} {values[name]:>16.6f} {unit}")
    for name in sorted(set(values) - set(metrics)):
        print(f"  ({name:<44} {values[name]:>16.6f})")
    print(f"  ops_attempted {session.attempted}")
    print(f"  ops_failed {session.failed}")
    for reason in session.failures:
        print(f"  FAILED: {reason}")
    print(json.dumps({
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": metrics,
    }))
    return 0


# ---------------------------------------------------------------------------
# --stability: do two sets of runs of the same code agree?
# ---------------------------------------------------------------------------

def _spread(values: list[float]) -> float:
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def stability(args) -> int:
    """Two interleaved sets of runs per workload, one seed per run.

    Applies the rule the bounds in ``BENCHMARK.json`` were set by (README
    "Noise rules" 9).  Per end-to-end metric, a bound must cover twice the
    amount by which the second set's median is worse than the first's, and
    one and a half times the inter-quartile spread of either set (as a share
    of its median; about 3.6 standard errors of the difference between two
    ten-run medians; ``setup_s`` is exempt, as in the acceptance check).  The
    count metrics must also repeat exactly between the two sets, seed by
    seed, wherever no clients race.  A spread above a third of its bound is
    marked ``wide``.
    """
    manifest = load_manifest()
    names = [w["name"] for w in manifest["workloads"]]
    samples: dict = {name: ({}, {}) for name in names}
    walls: dict = {name: [] for name in names}
    for run in range(RUNS_PER_SET):
        for which in (0, 1):
            for name in names:
                command = [sys.executable, os.path.abspath(__file__),
                           "--workload", name, "--seed", str(args.seed + run),
                           "--seconds", str(args.seconds), "--trace", "0"]
                started = time.perf_counter()
                done = subprocess.run(command, capture_output=True, text=True)
                walls[name].append(time.perf_counter() - started)
                if done.returncode != 0:
                    print(done.stdout, done.stderr, file=sys.stderr)
                    return 2
                result = json.loads(done.stdout.strip().splitlines()[-1])
                if not result["correct"]:
                    print(f"{name} seed {args.seed + run}: "
                          f"{result['failed']} operations failed", file=sys.stderr)
                    return 2
                for metric, entry in result["metrics"].items():
                    samples[name][which].setdefault(metric, []).append(entry["value"])
                print(f"# run {run + 1}/{RUNS_PER_SET} set {'AB'[which]} {name} "
                      f"{walls[name][-1]:.1f} s", file=sys.stderr)

    exceeded = False
    print(f"nproc {os.cpu_count()}  python {sys.version.split()[0]}  "
          f"runs per set {RUNS_PER_SET}  "
          f"seeds {args.seed}..{args.seed + RUNS_PER_SET - 1}  "
          f"--seconds {args.seconds}")
    for name in names:
        wall = walls[name]
        print(f"\n## {name}  (wall per run: median {statistics.median(wall):.1f} s, "
              f"max {max(wall):.1f} s)\n")
        print("| metric | median A | median B | B worse by | spread A | spread B "
              "| needs | bound | |")
        print("|---|---:|---:|---:|---:|---:|---:|---:|---|")
        for metric in manifest["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            a, b = samples[name][0][key], samples[name][1][key]
            med_a, med_b = statistics.median(a), statistics.median(b)
            worse = (med_b - med_a) / med_a
            if metric["better"] == "higher":
                worse = -worse
            spreads = (_spread(a), _spread(b))
            needs = max(2 * worse, 0.0 if key == "setup_s" else 1.5 * max(spreads))
            verdict = "ok" if needs <= bound else "EXCEEDED"
            if key in COUNT_METRICS and name not in RACING_WORKLOADS and a != b:
                verdict = "NOT REPEATABLE"
            exceeded |= verdict != "ok"
            if verdict == "ok" and key != "setup_s" and 3 * max(spreads) > bound:
                verdict = "ok (wide)"
            print(f"| {key} | {med_a:.4f} | {med_b:.4f} | {worse:+.2%} | "
                  f"{spreads[0]:.2%} | {spreads[1]:.2%} | {needs:.3f} | "
                  f"{bound:.2f} | {verdict} |")
    return 1 if exceeded else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[
        "svr_cold", "methods_sweep", "durable_commit", "service_hot"])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None,
                        help="size of the timed phase; the schedule length is "
                             "fixed from it before timing starts "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", choices=["full", "smoke"], default="full")
    parser.add_argument("--stability", action="store_true",
                        help=f"run two interleaved sets of {RUNS_PER_SET} runs per "
                             "workload and compare them against the bounds")
    parser.add_argument("--drop-last-commit", action="store_true",
                        help="durable_commit only: sabotage the crash step by "
                             "also discarding the last *synced* commit, to show "
                             "that the durability check notices")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = load_manifest()["run_seconds"]
    if args.stability:
        return stability(args)
    if args.workload is None:
        parser.error("--workload is required (or --stability)")
    reexec_with_clean_environment()
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
