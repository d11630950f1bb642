"""Sharded parallel survey execution with content-addressed caching.

The world survey is embarrassingly parallel across ASes *provided*
every random draw is content-keyed rather than sequence-dependent —
which the measurement platform (campaign seeds), the scenario wobble,
and the fault injectors all guarantee.  This package exploits that:

* :mod:`repro.parallel.sharding`  — round-robin AS partitioning;
* :mod:`repro.parallel.worker`    — per-shard compute (pure functions
  of a picklable task, observability silenced);
* :mod:`repro.parallel.executor`  — parent-side orchestration: filter,
  fault pinning, cache lookup, pool dispatch, sorted merge, obs
  re-emission;
* :mod:`repro.parallel.cache`     — per-AS results keyed by a digest
  of everything that can change them.

The contract, enforced by ``tests/parallel/``: for any worker count
and any cache temperature, ``survey_to_dict`` output is byte-identical
to the serial path — classifications, failures, and quality-ledger
counts included.
"""

from .cache import (
    CacheStats,
    PIPELINE_SALT,
    ResultCache,
    canonical_json,
    dataset_as_fingerprint,
    fingerprint_digest,
    survey_as_fingerprint,
)
from .executor import (
    WORKERS_ENV,
    classify_dataset_sharded,
    resolve_workers,
    run_survey_period_parallel,
)
from .sharding import partition_asns, shard_groups
from .transport import (
    PackedDataset,
    PackedSignals,
    ShmBlockRef,
    pack_arrays,
    pack_dataset,
    pack_signals,
    unpack_arrays,
    unpack_dataset,
    unpack_signals,
)
from .worker import (
    ASOutcome,
    DatasetShardTask,
    ShardResult,
    SurveyShardTask,
    run_dataset_shard,
    run_survey_shard,
    slice_dataset,
)

__all__ = [
    "PIPELINE_SALT",
    "WORKERS_ENV",
    "CacheStats",
    "ResultCache",
    "canonical_json",
    "fingerprint_digest",
    "survey_as_fingerprint",
    "dataset_as_fingerprint",
    "resolve_workers",
    "run_survey_period_parallel",
    "classify_dataset_sharded",
    "partition_asns",
    "shard_groups",
    "ASOutcome",
    "ShardResult",
    "SurveyShardTask",
    "DatasetShardTask",
    "run_survey_shard",
    "run_dataset_shard",
    "slice_dataset",
    "ShmBlockRef",
    "PackedDataset",
    "PackedSignals",
    "pack_arrays",
    "unpack_arrays",
    "pack_dataset",
    "unpack_dataset",
    "pack_signals",
    "unpack_signals",
]
