"""The incremental survey engine: traceroutes append as they arrive.

:class:`StreamingSurvey` is the streaming twin of
:func:`repro.core.survey.classify_dataset`: records are ingested one
at a time (or in micro-batches), per-probe per-bin medians are
maintained online while bins are open, bins are finalized as the
watermark passes them, and AS-level aggregates plus daily-pattern
classifications are recomputed *only for ASes whose inputs changed*.

Equivalence contract (enforced by ``tests/stream``): with exact
medians, a finalized streaming survey is **bit-identical** — under
:func:`repro.io.survey_to_dict` — to the batch pipeline run over the
same data, for any arrival order within a bin and any micro-batch
split.  The contract holds because every numeric decision is
delegated to the same code the batch path runs:

* timestamp gating, binning and boundary sampling of raw traceroutes
  mirror :func:`repro.core.lastmile._scan_results` decision for
  decision (same quality-ledger entries included);
* bin finalization runs the batch estimator's grouped-median pass
  (:func:`repro.core.kernels.vector.dataset_bin_medians`) over the
  closing bins' pooled samples — the exact computation the batch
  estimator performs, one call per chunk of closing buffers;
* classification runs :func:`repro.core.survey.classify_asn_batch`
  over the changed ASes with per-AS quality fragments, and the final
  ledger is assembled in the batch pipeline's stage order.

The opt-in approximate mode (``approximate=True``) swaps the open-bin
buffer for the constant-memory P² estimator
(:class:`repro.stream.median.P2Median`); finalized medians then agree
with the exact ones only within a tolerance (see DESIGN.md §13), so
approximate surveys are *not* bit-identical — they trade exactness
for bounded memory.

Ledger fine print: the survey-facing ledger (``result.quality``)
matches a batch run's **counts exactly**; quarantine *samples* (the
capped human-readable details) may list in a different order because
the batch path books all aggregation entries before any
classification entry while the engine merges per-AS fragments.
Streaming-only events — late records dropped against a closed bin
(``STALE_RECORD``) and bins that closed under the sanity threshold
(``SPARSE_BIN``) — land on the separate :attr:`engine_quality`
ledger: the batch pipeline has no equivalent entries, and the
equivalence contract is over the survey ledger.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from ..core.filtering import asns_with_min_probes
from ..core.kernels import record_kernel_op
from ..core.kernels.vector import dataset_bin_medians, flatten_samples
from ..core.lastmile import (
    MIN_TRACEROUTES_PER_BIN,
    STAGE as LASTMILE_STAGE,
    lastmile_samples,
)
from ..core.series import LastMileDataset, ProbeBinSeries
from ..core.survey import (
    ASFailure,
    ASReport,
    DEFAULT_THRESHOLDS,
    SurveyResult,
    _record_survey_metrics,
    classify_asn_batch,
)
from ..obs import get_observer
from ..quality import DataQualityReport, DropReason
from ..timebase import MeasurementPeriod, TimeGrid
from .median import ExactMedian, P2Median
from .records import ProbeRecord, SampleRecord, TraceRecord

STAGE = "stream-engine"

#: Closing (probe, bin) buffers finalized per grouped-median call.
#: One call per buffer pays the pass's fixed numpy overhead per bin;
#: one call over every buffer holds all their samples in flat arrays
#: at once (DESIGN.md §10 has the measurements).
FINALIZE_CHUNK = 512


@dataclass
class _CachedAS:
    """One AS's last classification: inputs, outcome, ledger fragment."""

    probe_ids: Tuple[int, ...]
    report: Optional[ASReport]
    failure: Optional[ASFailure]
    fragment: DataQualityReport


class StreamingSurvey:
    """Incremental per-period survey over an appending record stream.

    Ingest :class:`~repro.stream.records.ProbeRecord` /
    :class:`~repro.stream.records.SampleRecord` /
    :class:`~repro.stream.records.TraceRecord` via :meth:`ingest` or
    :meth:`ingest_many`, close bins with :meth:`close_through` (or
    :meth:`advance_watermark`), snapshot an in-progress survey with
    :meth:`emit_partial`, and complete it with :meth:`finalize`.
    """

    def __init__(
        self,
        period: MeasurementPeriod,
        min_probes: int = 3,
        thresholds=DEFAULT_THRESHOLDS,
        table=None,
        approximate: bool = False,
        min_traceroutes: int = MIN_TRACEROUTES_PER_BIN,
        max_attempts: int = 2,
    ):
        self.period = period
        self.grid = TimeGrid(period)
        self.min_probes = min_probes
        self.thresholds = thresholds
        self.table = table
        self.approximate = approximate
        self.min_traceroutes = min_traceroutes
        self.max_attempts = max_attempts
        #: Quality fragment of the raw-traceroute scan (core-lastmile
        #: entries) — merged into every emitted survey's ledger.
        self.scan_quality = DataQualityReport()
        #: Streaming-only accounting (stale records, sparse bins);
        #: deliberately *not* part of the survey ledger.
        self.engine_quality = DataQualityReport()
        self._medians: Dict[int, np.ndarray] = {}
        self._counts: Dict[int, np.ndarray] = {}
        self._meta: Dict[int, object] = {}
        self._open: Dict[Tuple[int, int], object] = {}
        self._closed_through = -1
        self._dirty: Set[int] = set()
        self._cache: Dict[int, _CachedAS] = {}
        self._final: Optional[SurveyResult] = None
        self.records_ingested = 0
        self.stale_records = 0
        self.sparse_bins = 0

    # -- ingest --------------------------------------------------------

    def ingest(self, record) -> None:
        """Append one record to the survey."""
        if self._final is not None:
            raise ValueError(
                "survey already finalized; no further records accepted"
            )
        self.records_ingested += 1
        if isinstance(record, ProbeRecord):
            self._register(record)
        elif isinstance(record, SampleRecord):
            self._observe(
                record.prb_id, record.bin_index, record.samples,
                trusted=True,
            )
        elif isinstance(record, TraceRecord):
            self._ingest_trace(record)
        else:
            raise TypeError(
                f"not a stream record: {type(record).__name__}"
            )

    def ingest_many(self, records: Iterable) -> int:
        """Append a micro-batch; returns how many records it held."""
        n = 0
        for record in records:
            self.ingest(record)
            n += 1
        return n

    def _register(self, record: ProbeRecord) -> None:
        if record.meta is not None:
            self._meta[record.prb_id] = record.meta
        if record.tracked:
            self._ensure_series(record.prb_id)
        self._dirty.add(record.prb_id)

    def _ensure_series(self, prb_id: int) -> None:
        if prb_id not in self._medians:
            self._medians[prb_id] = np.full(
                self.grid.num_bins, np.nan, dtype=np.float64
            )
            self._counts[prb_id] = np.zeros(
                self.grid.num_bins, dtype=np.int64
            )

    def _ingest_trace(self, record: TraceRecord) -> None:
        """Stages 1–3 of the paper for one arriving traceroute —
        the same decisions :func:`repro.core.lastmile._scan_results`
        makes, one record at a time."""
        result = record.result
        quality = self.scan_quality
        quality.ingest(LASTMILE_STAGE)
        timestamp = result.timestamp
        if not np.isfinite(timestamp):
            quality.drop(
                LASTMILE_STAGE, DropReason.MALFORMED_RECORD,
                detail=f"probe {result.prb_id}: timestamp "
                f"{timestamp!r}",
            )
            return
        duration = self.grid.num_bins * self.grid.bin_seconds
        if timestamp < 0 or timestamp > duration:
            quality.drop(
                LASTMILE_STAGE, DropReason.OUT_OF_PERIOD,
                detail=f"probe {result.prb_id}: timestamp "
                f"{timestamp:.0f}s outside 0..{duration}s",
            )
            return
        bin_index = int(self.grid.bin_index(timestamp))
        samples = lastmile_samples(result)
        counted = self._observe(
            result.prb_id, bin_index, samples, trusted=False
        )
        if counted and not samples:
            # Counted toward bin sanity, but flagged: the probe was
            # measuring yet produced no usable boundary pair.
            quality.degrade(
                LASTMILE_STAGE, DropReason.NO_BOUNDARY,
                detail=f"probe {result.prb_id}: no usable "
                "private→public hop pair",
            )

    def _observe(
        self,
        prb_id: int,
        bin_index: int,
        samples: Iterable[float],
        trusted: bool,
    ) -> bool:
        if not 0 <= bin_index < self.grid.num_bins:
            raise ValueError(
                f"bin index {bin_index} outside grid "
                f"0..{self.grid.num_bins - 1}"
            )
        if bin_index <= self._closed_through:
            self.stale_records += 1
            self.engine_quality.drop(
                STAGE, DropReason.STALE_RECORD,
                detail=f"probe {prb_id}: bin {bin_index} already "
                f"closed (watermark {self._closed_through})",
            )
            return False
        self._ensure_series(prb_id)
        self._counts[prb_id][bin_index] += 1
        samples = list(samples)
        if samples:
            key = (prb_id, bin_index)
            estimator = self._open.get(key)
            if estimator is None:
                estimator = (
                    P2Median() if self.approximate else ExactMedian()
                )
                self._open[key] = estimator
            estimator.extend(samples)
        self._dirty.add(prb_id)
        return True

    # -- bin lifecycle -------------------------------------------------

    @property
    def closed_through(self) -> int:
        """Highest finalized bin index (-1: every bin still open)."""
        return self._closed_through

    def open_bins(self) -> int:
        """Open (probe, bin) buffers currently held."""
        return len(self._open)

    def advance_watermark(self, seconds: float) -> int:
        """Close every bin that ends at or before ``seconds``.

        Returns the number of (probe, bin) buffers finalized.  A
        record arriving later for a closed bin is dropped as
        ``STALE_RECORD`` on :attr:`engine_quality`.
        """
        raw = int(seconds // self.grid.bin_seconds)
        return self.close_through(
            min(raw, self.grid.num_bins) - 1
        )

    def close_through(self, bin_index: int) -> int:
        """Finalize all open bins with index ≤ ``bin_index``.

        Exact mode runs the batch estimator's grouped-median pass over
        the closing bins' pooled samples, :data:`FINALIZE_CHUNK`
        buffers per call — bit-identical to the batch estimator;
        approximate mode reads the P² marker.  Bins under the sanity
        threshold stay NaN and are booked ``SPARSE_BIN`` on
        :attr:`engine_quality`.
        """
        bin_index = min(bin_index, self.grid.num_bins - 1)
        if bin_index <= self._closed_through:
            return 0
        closing = sorted(k for k in self._open if k[1] <= bin_index)
        for start in range(0, len(closing), FINALIZE_CHUNK):
            self._finalize(closing[start:start + FINALIZE_CHUNK])
        if closing:
            record_kernel_op("bin-medians", len(closing))
        self._closed_through = bin_index
        return len(closing)

    def _finalize(self, keys: List[Tuple[int, int]]) -> None:
        """Close the open buffers ``keys`` (sorted) into the series."""
        estimators = [self._open.pop(key) for key in keys]
        counts = np.array(
            [self._counts[prb_id][b] for prb_id, b in keys],
            dtype=np.int64,
        )
        if self.approximate:
            values = [
                estimator.value()
                if count >= self.min_traceroutes else float("nan")
                for estimator, count in zip(estimators, counts)
            ]
        else:
            medians, _ = dataset_bin_medians(
                *flatten_samples(
                    range(len(keys)),
                    [estimator.samples() for estimator in estimators],
                ),
                len(keys), 1, counts[:, None], self.min_traceroutes,
            )
            values = medians[:, 0].tolist()
        for (prb_id, b), count, value in zip(keys, counts, values):
            if count < self.min_traceroutes:
                self.sparse_bins += 1
                self.engine_quality.degrade(
                    STAGE, DropReason.SPARSE_BIN,
                    detail=f"probe {prb_id}: bin {b} closed with "
                    f"{count} < {self.min_traceroutes} traceroutes",
                )
            if not math.isnan(value):
                self._medians[prb_id][b] = value
                self._dirty.add(prb_id)

    # -- classification ------------------------------------------------

    def emit_partial(self) -> SurveyResult:
        """Classify the survey as it stands (open bins count as
        not-yet-estimated); reuses cached results for unchanged ASes.
        """
        return self._classify()

    def finalize(self) -> SurveyResult:
        """Close every bin, classify, and seal the survey.

        Idempotent: repeated calls return the same result object.
        """
        if self._final is None:
            self.close_through(self.grid.num_bins - 1)
            self._final = self._classify()
        return self._final

    def dataset(self) -> LastMileDataset:
        """The current finalized view as a batch dataset (open bins
        render as NaN)."""
        dataset = LastMileDataset(grid=self.grid)
        for prb_id in sorted(self._medians):
            dataset.add(
                ProbeBinSeries(
                    prb_id=prb_id,
                    median_rtt_ms=self._medians[prb_id],
                    traceroute_counts=self._counts[prb_id],
                ),
                meta=self._meta.get(prb_id),
            )
        # Metadata-only probes (registered untracked) must stay
        # visible to the filter, exactly like a batch dataset holding
        # metadata without a series.
        for prb_id, meta in self._meta.items():
            if prb_id not in dataset.probe_meta:
                dataset.probe_meta[prb_id] = meta
        return dataset

    def _classify(self) -> SurveyResult:
        obs = get_observer()
        log = obs.logger.bind(stage=STAGE, period=self.period.name)
        with obs.stage_span(
            "stream-classify", period=self.period.name,
        ) as span:
            dataset = self.dataset()
            filter_quality = DataQualityReport()
            groups = asns_with_min_probes(
                dataset.probe_meta, min_probes=self.min_probes,
                table=self.table, quality=filter_quality,
            )
            for asn in list(self._cache):
                if asn not in groups:
                    del self._cache[asn]
            to_run: List[Tuple[int, List[int]]] = []
            for asn, probe_ids in groups.items():
                cached = self._cache.get(asn)
                if (
                    cached is None
                    or cached.probe_ids != tuple(probe_ids)
                    or self._dirty.intersection(probe_ids)
                ):
                    to_run.append((asn, probe_ids))
            fragments = {
                asn: DataQualityReport() for asn, _ in to_run
            }
            outcomes = classify_asn_batch(
                dataset, to_run, thresholds=self.thresholds,
                max_attempts=self.max_attempts, keep_signals=False,
                quality_for=lambda asn: fragments[asn], log=log,
            )
            for asn, report, failure, _signal in outcomes:
                self._cache[asn] = _CachedAS(
                    probe_ids=tuple(groups[asn]),
                    report=report, failure=failure,
                    fragment=fragments[asn],
                )
            self._dirty.clear()
            quality = DataQualityReport()
            quality.merge(self.scan_quality)
            quality.merge(filter_quality)
            result = SurveyResult(period=self.period, quality=quality)
            for asn in groups:
                cached = self._cache[asn]
                quality.merge(cached.fragment)
                if cached.failure is not None:
                    result.failures[asn] = cached.failure
                else:
                    result.reports[asn] = cached.report
            span.set_attr("ases", len(groups))
            span.set_attr("reclassified", len(to_run))
            obs.counter(
                "stream_reclassified_total",
                "ASes reclassified per incremental emit",
            ).inc(len(to_run))
            _record_survey_metrics(obs, result)
        return result

    # -- status --------------------------------------------------------

    def status(self) -> Dict:
        """A machine-readable snapshot of engine state for operators."""
        return {
            "period": self.period.name,
            "mode": "p2" if self.approximate else "exact",
            "records_ingested": self.records_ingested,
            "probes": len(self._medians),
            "registered": len(self._meta),
            "open_bins": len(self._open),
            "closed_through": self._closed_through,
            "num_bins": self.grid.num_bins,
            "stale_records": self.stale_records,
            "sparse_bins": self.sparse_bins,
            "finalized": self._final is not None,
        }
