"""Longitudinal survey archive — durable storage for survey results.

The paper publishes per-period survey verdicts on a public site; this
package is the reproduction's storage tier for that site:

* :mod:`repro.store.archive`  — :class:`SurveyArchive`, the
  append-only, schema-versioned multi-period store with atomic
  commits, checksum/quarantine discipline, secondary indexes (ASN /
  country / severity) and longitudinal queries;
* :mod:`repro.store.segments` — the packed-segment format compaction
  folds period JSON into (memory-mapped; one slice per point lookup);
* :mod:`repro.store.io`       — the byte-level write seam (atomic
  durable writes) production and the chaos harness share;
* :mod:`repro.store.journal`  — the write-ahead commit journal and
  the crash-recovery replay the archive runs on open;
* :mod:`repro.store.fsck`     — the offline integrity audit/repair
  behind ``repro store fsck``;
* :mod:`repro.store.errors`   — archive failures, rooted in the
  :mod:`repro.netbase.errors` taxonomy so the CLI and
  :mod:`repro.serve` map them to exit codes / HTTP statuses.

The serving layer on top is :mod:`repro.serve`.
"""

from .archive import (
    ARCHIVE_FORMAT,
    ArchiveStats,
    LivePeriodWriter,
    SCHEMA_VERSION,
    SurveyArchive,
    payload_checksum,
)
from .errors import (
    AnomalyReportExistsError,
    AnomalyReportNotFoundError,
    ArchiveCorruptionError,
    ArchiveError,
    ASNotFoundError,
    LinkNotFoundError,
    PeriodExistsError,
    PeriodNotFoundError,
    SchemaVersionError,
)
from .fsck import (
    EXIT_CLEAN,
    EXIT_ERRORS,
    EXIT_REPAIRED,
    EXIT_UNUSABLE,
    FsckFinding,
    FsckReport,
    run_fsck,
)
from .io import REAL_IO, StoreIO
from .journal import (
    CommitJournal,
    RecoveryReport,
    TornJournal,
    recover,
    sweep_tmp_files,
)
from .segments import MAGIC, SegmentReader, write_segment

__all__ = [
    "SurveyArchive",
    "LivePeriodWriter",
    "ArchiveStats",
    "SCHEMA_VERSION",
    "ARCHIVE_FORMAT",
    "payload_checksum",
    "ArchiveError",
    "PeriodExistsError",
    "PeriodNotFoundError",
    "ASNotFoundError",
    "AnomalyReportExistsError",
    "AnomalyReportNotFoundError",
    "LinkNotFoundError",
    "ArchiveCorruptionError",
    "SchemaVersionError",
    "SegmentReader",
    "write_segment",
    "MAGIC",
    "StoreIO",
    "REAL_IO",
    "CommitJournal",
    "RecoveryReport",
    "TornJournal",
    "recover",
    "sweep_tmp_files",
    "run_fsck",
    "FsckReport",
    "FsckFinding",
    "EXIT_CLEAN",
    "EXIT_ERRORS",
    "EXIT_REPAIRED",
    "EXIT_UNUSABLE",
]
