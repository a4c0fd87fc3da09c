"""Smoke test of the end-to-end benchmark (collected by the tier-1 suite).

Runs all four workloads at ``--scale smoke``, untraced and traced, through
the real command line, and checks the contract ``BENCHMARK.json`` declares:
every declared metric is printed by name with its unit, no operation fails,
the count metrics of the three serial workloads repeat exactly, and the
durability check fails when a committed batch is thrown away.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
ROOT = os.path.dirname(os.path.dirname(HERE))
SERIAL = ("svr_cold", "methods_sweep", "durable_commit")
COUNT_METRICS = ("pages_read_per_query", "pages_written_per_update",
                 "index_bytes_per_posting")
#: The run whose crash step also throws away the last *synced* commit.
SABOTAGED = ("durable_commit", 0, "sabotaged")


def _run(workload: str, trace: int, *extra: str):
    done = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "7",
         "--scale", "smoke", "--trace", str(trace), *extra],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.fixture(scope="module")
def manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def outputs(manifest):
    """stdout of every run, keyed by (workload, trace, repeat)."""
    names = [workload["name"] for workload in manifest["workloads"]]
    jobs = [(name, trace, 0) for name in names for trace in (0, 1)]
    jobs += [(name, 0, 1) for name in SERIAL]
    jobs.append(SABOTAGED)
    with ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
        results = pool.map(
            lambda job: _run(job[0], job[1], *(
                ["--drop-last-commit"] if job is SABOTAGED else [])), jobs)
        return dict(zip(jobs, results))


def _result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_four_workloads_declared(manifest):
    assert [w["name"] for w in manifest["workloads"]] == [
        "svr_cold", "methods_sweep", "durable_commit", "service_hot"]
    assert manifest["paths"] == ["benchmarks/e2e"]
    assert any(m["name"] == "setup_s" for m in manifest["end_to_end"])


def test_every_declared_metric_is_printed_with_its_unit(manifest, outputs):
    for (workload, trace, _repeat), stdout in outputs.items():
        declared = manifest["per_layer" if trace else "end_to_end"]
        result = _result(stdout)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert set(result["metrics"]) == {m["name"] for m in declared}, workload
        lines = stdout.splitlines()
        for metric in declared:
            entry = result["metrics"][metric["name"]]
            assert entry["unit"] == metric["unit"]
            assert isinstance(entry["value"], (int, float))
            assert any(line.split()[:1] == [metric["name"]]
                       and line.split()[-1] == metric["unit"]
                       for line in lines), (workload, metric["name"])


def test_no_operation_fails(outputs):
    for job, stdout in outputs.items():
        if job is SABOTAGED:
            continue
        workload, trace, _repeat = job
        result = _result(stdout)
        assert result["attempted"] >= 1
        assert result["failed"] == 0 and result["correct"], (workload, trace, stdout)
        assert "  ops_failed 0" in stdout.splitlines()


def test_serial_count_metrics_repeat_exactly(outputs):
    for workload in SERIAL:
        first = _result(outputs[(workload, 0, 0)])["metrics"]
        second = _result(outputs[(workload, 0, 1)])["metrics"]
        for name in COUNT_METRICS:
            assert first[name]["value"] == second[name]["value"], (workload, name)


def test_durability_check_notices_a_dropped_commit(outputs):
    """Cutting the WAL back to the previous fsync must fail the recovery
    check on every replica: the check has teeth."""
    stdout = outputs[SABOTAGED]
    result = _result(stdout)
    assert not result["correct"] and result["failed"] >= 3, stdout
    assert "recovered scores are not the last acknowledged commit's" in stdout
