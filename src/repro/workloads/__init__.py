"""Data and workload generators mirroring the paper's experimental setup (§5.1).

* :mod:`repro.workloads.zipf` — Zipf samplers for term frequencies, score
  distributions and update skew.
* :mod:`repro.workloads.synthetic` — the synthetic corpus R(Id, StructuredColumn,
  TextColumn) with Zipf term frequencies and Zipf-distributed scores.
* :mod:`repro.workloads.updates` — score-update workloads (mean step size,
  focus set, update direction).
* :mod:`repro.workloads.queries` — keyword-query workloads (selectivity classes,
  conjunctive/disjunctive, number of desired results).
* :mod:`repro.workloads.archive` — an Internet-Archive-style relational data set
  (Movies / Reviews / Statistics) with the paper's example SVR specification.
* :mod:`repro.workloads.multiclient` — deterministic interleaved multi-client
  replay of mixed query/update traffic (the sharded-engine workload).
* :mod:`repro.workloads.service` — the same per-client schedules replayed by
  closed-loop *concurrent* client threads with a p50/p95/p99 latency profile
  and an optional background checkpoint cadence (the concurrent-engine
  service workload).

Crash, recovery and fault storms are not workloads here: the state machine
in ``tests/core/test_state_machine.py`` drives them against a reference
model.
"""

from repro.workloads.archive import ArchiveConfig, InternetArchiveDataset
from repro.workloads.multiclient import (
    MultiClientConfig,
    MultiClientDriver,
    MultiClientResult,
)
from repro.workloads.queries import KeywordQuery, QueryWorkload, QueryWorkloadConfig
from repro.workloads.service import (
    ServiceLoadConfig,
    ServiceLoadDriver,
    ServiceLoadResult,
    percentile,
)
from repro.workloads.synthetic import (
    SyntheticCorpus,
    SyntheticCorpusConfig,
    SyntheticDocument,
    generate_corpus,
)
from repro.workloads.updates import ScoreUpdate, UpdateWorkload, UpdateWorkloadConfig
from repro.workloads.zipf import ZipfSampler, zipf_scores

__all__ = [
    "ZipfSampler",
    "zipf_scores",
    "SyntheticCorpusConfig",
    "SyntheticCorpus",
    "SyntheticDocument",
    "generate_corpus",
    "UpdateWorkloadConfig",
    "UpdateWorkload",
    "ScoreUpdate",
    "QueryWorkloadConfig",
    "QueryWorkload",
    "KeywordQuery",
    "ArchiveConfig",
    "InternetArchiveDataset",
    "MultiClientConfig",
    "MultiClientDriver",
    "MultiClientResult",
    "ServiceLoadConfig",
    "ServiceLoadDriver",
    "ServiceLoadResult",
    "percentile",
]
