"""Streaming survey engine: traceroutes append as they arrive.

The batch pipeline (``repro.core``) analyzes a finished period in one
pass.  This package is its incremental twin for continuous operation:
:class:`StreamingSurvey` ingests records one at a time or in
micro-batches, keeps exact (or opt-in P² approximate) medians for the
bins still open, finalizes bins as the watermark passes them through
the batch estimator's grouped-median pass, and reclassifies only the
ASes whose inputs changed.  ``tests/stream`` holds the differential
harness that proves a finalized streaming survey bit-identical to the
batch run.

:class:`LastMileMonitor` (:mod:`.monitor`) is the sustained-congestion
monitor over an unbounded result stream — the paper's *raclette* tool,
also runnable as ``python -m repro.raclette``.  It closes bins per
probe rather than on the engine's watermark, and shares the engine's
:class:`ExactMedian` for its open bins.
"""

from .engine import STAGE, StreamingSurvey
from .median import ExactMedian, P2Median
from .monitor import (
    Alert,
    AlertSink,
    LastMileMonitor,
    ListSink,
    MonitorConfig,
    PrintSink,
    RollingMinimum,
)
from .records import (
    ProbeRecord,
    SampleRecord,
    StreamRecord,
    TraceRecord,
    dataset_to_records,
    micro_batches,
    shuffle_within_bins,
)

__all__ = [
    "STAGE",
    "StreamingSurvey",
    "ExactMedian",
    "P2Median",
    "Alert",
    "AlertSink",
    "LastMileMonitor",
    "ListSink",
    "MonitorConfig",
    "PrintSink",
    "RollingMinimum",
    "ProbeRecord",
    "SampleRecord",
    "StreamRecord",
    "TraceRecord",
    "dataset_to_records",
    "micro_batches",
    "shuffle_within_bins",
]
