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
"""

from .engine import STAGE, StreamingSurvey
from .median import ExactMedian, P2Median
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
    "ProbeRecord",
    "SampleRecord",
    "StreamRecord",
    "TraceRecord",
    "dataset_to_records",
    "micro_batches",
    "shuffle_within_bins",
]
