"""Shard workers: the unit of work one pool process executes.

Two worker entry points, both module-level (so they pickle by
reference into pool processes):

* :func:`run_survey_shard` — generative path.  The worker rebuilds the
  *full* world and platform from the spec list (cheap — seconds per
  hundred ASes), then generates measurement series only for its
  shard's probes.  Rebuilding everything is what keeps sharding exact:
  world construction consumes order-dependent RNG (per-ISP seed
  spawning, platform-wide version sampling, sequential probe ids), so
  the only way a worker sees bit-identical probes is to replay the
  identical build; per-probe *measurement* randomness is content-keyed
  (:func:`repro.atlas.platform._campaign_seed`), so generating a
  subset yields the same series the full run would.
* :func:`run_dataset_shard` — in-memory path over a pre-built
  :class:`~repro.core.series.LastMileDataset` slice.

Workers observe their own work: when the parent runs under a live
observer, each task carries ``capture_telemetry=True`` plus the
parent's :class:`~repro.obs.TraceContext`, and the worker installs a
fresh capturing observer whose metrics and span subtree come back as
a :class:`~repro.obs.TelemetrySnapshot` on the shard result — the
parent merges the metrics (per-stage totals then equal the serial
run's) and grafts the spans under its ``survey-shard`` marker.  Under
a no-op parent the worker keeps the old NOOP path, so the silenced
fast case pays nothing.  Either way, per-AS quality is recorded on
fresh per-AS ledgers that the parent merges in sorted order,
reproducing the serial ledger's counts; telemetry never touches the
classification output, so byte-equivalence and the content-addressed
cache are unaffected.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..core.classify import ClassificationThresholds, DEFAULT_THRESHOLDS
from ..core.series import LastMileDataset
from ..core.survey import ASFailure, ASReport, classify_asn_batch
from ..faults.base import FaultLog
from ..quality import DataQualityReport
from ..timebase import MeasurementPeriod


@dataclass
class ASOutcome:
    """One AS's result as computed inside a shard."""

    asn: int
    report: Optional[ASReport]
    failure: Optional[ASFailure]
    quality: DataQualityReport
    signal: Optional[object] = None


@dataclass
class ShardResult:
    """Everything one shard hands back to the parent."""

    index: int
    outcomes: List[ASOutcome]
    fault_log: FaultLog
    wall_seconds: float
    #: Worker-side metrics + spans (None when the parent ran un-observed).
    telemetry: Optional[object] = None
    #: Kept signals shipped via shared memory instead of pickling
    #: (None when ``keep_signals`` is off or no AS kept a signal).
    packed_signals: Optional[object] = None


@dataclass
class SurveyShardTask:
    """Inputs of one generative-survey shard (fully picklable)."""

    index: int
    #: The *complete* spec list — the worker must rebuild the whole
    #: world to replay its order-dependent RNG (see module docstring).
    specs: List
    period: MeasurementPeriod
    lockdown: bool
    seed: int
    #: This shard's slice of the filtered population.
    groups: Dict[int, List[int]]
    thresholds: ClassificationThresholds = DEFAULT_THRESHOLDS
    max_attempts: int = 2
    #: Dataset injectors with targets already pinned by the parent.
    faults: List = field(default_factory=list)
    fault_seed: int = 0
    #: True when the parent runs observed: the worker captures its own
    #: metrics/spans and ships them back as a TelemetrySnapshot.
    capture_telemetry: bool = False
    #: The parent's trace identity (trace id + dispatching span id).
    trace_context: Optional[object] = None


@dataclass
class DatasetShardTask:
    """Inputs of one in-memory classify shard.

    ``dataset`` is either the sliced :class:`LastMileDataset` itself
    (pickle boundary) or a
    :class:`~repro.parallel.transport.PackedDataset` whose numeric
    payload rides in shared memory (zero-copy boundary); the worker
    handles both.
    """

    index: int
    dataset: object
    groups: Dict[int, List[int]]
    thresholds: ClassificationThresholds = DEFAULT_THRESHOLDS
    max_attempts: int = 2
    keep_signals: bool = False
    #: See :class:`SurveyShardTask.capture_telemetry`.
    capture_telemetry: bool = False
    #: See :class:`SurveyShardTask.trace_context`.
    trace_context: Optional[object] = None


@contextmanager
def _shard_observer(task):
    """The worker's observer for one task.

    ``capture_telemetry`` off: the historical NOOP silencing (nothing
    recorded, nothing shipped).  On: a fresh capturing observer whose
    tracer adopts the parent's trace id; yields a snapshot callback so
    the caller can freeze it after the work.  Always restores the
    previous process-wide observer — the in-process ``workers=1``
    fallback runs this in the parent.
    """
    from ..obs import (
        NOOP,
        Observability,
        TelemetrySnapshot,
        get_observer,
        set_observer,
    )

    previous = get_observer()
    if not task.capture_telemetry:
        set_observer(NOOP)
        try:
            yield lambda: None
        finally:
            set_observer(previous)
        return
    context = task.trace_context
    observer = Observability()
    if context is not None:
        observer.tracer.trace_id = context.trace_id
    set_observer(observer)
    try:
        yield lambda: TelemetrySnapshot.capture(
            observer, shard=task.index, context=context,
        )
    finally:
        set_observer(previous)


def run_survey_shard(task: SurveyShardTask) -> ShardResult:
    """Rebuild the world, generate this shard's probes, classify."""
    from ..scenarios.worldsurvey import build_survey_world

    started = time.perf_counter()
    with _shard_observer(task) as snapshot:
        world, platform = build_survey_world(
            task.specs, lockdown=task.lockdown, seed=task.seed,
            period_name=task.period.name,
        )
        del world  # classification needs only the dataset
        wanted = {
            prb_id
            for probe_ids in task.groups.values()
            for prb_id in probe_ids
        }
        probes = [p for p in platform.probes if p.probe_id in wanted]
        dataset = platform.run_period_binned(task.period, probes=probes)
        fault_log = FaultLog()
        if task.faults:
            from ..faults.dataset import inject_dataset

            inject_dataset(
                dataset, task.faults, seed=task.fault_seed,
                log=fault_log,
            )
        outcomes = _classify_groups(
            dataset, task.groups, task.thresholds, task.max_attempts,
        )
        telemetry = snapshot()
    return ShardResult(
        index=task.index,
        outcomes=outcomes,
        fault_log=fault_log,
        wall_seconds=time.perf_counter() - started,
        telemetry=telemetry,
    )


def run_dataset_shard(task: DatasetShardTask) -> ShardResult:
    """Classify one shard of an already-built dataset."""
    from .transport import PackedDataset, pack_signals, unpack_dataset

    started = time.perf_counter()
    with _shard_observer(task) as snapshot:
        if isinstance(task.dataset, PackedDataset):
            dataset, close_dataset = unpack_dataset(task.dataset)
        else:
            dataset, close_dataset = task.dataset, lambda: None
        try:
            outcomes = _classify_groups(
                dataset, task.groups, task.thresholds,
                task.max_attempts, keep_signals=task.keep_signals,
            )
        finally:
            close_dataset()
        packed_signals = None
        if task.keep_signals:
            kept = {
                outcome.asn: outcome.signal
                for outcome in outcomes
                if outcome.signal is not None
            }
            packed_signals = pack_signals(kept)
        try:
            if packed_signals is not None:
                for outcome in outcomes:
                    outcome.signal = None
            telemetry = snapshot()
        except BaseException:
            # The worker created the block; if the result never makes
            # it back, the worker must unlink it.
            if packed_signals is not None:
                packed_signals.release()
            raise
    return ShardResult(
        index=task.index,
        outcomes=outcomes,
        fault_log=FaultLog(),
        wall_seconds=time.perf_counter() - started,
        telemetry=telemetry,
        packed_signals=packed_signals,
    )


def slice_dataset(
    dataset: LastMileDataset, probe_ids: Sequence[int]
) -> LastMileDataset:
    """A shard-sized view of a dataset (series/meta for given probes).

    Series objects are shared, not copied — safe because
    classification only reads them.
    """
    subset = LastMileDataset(grid=dataset.grid)
    for prb_id in probe_ids:
        meta = dataset.probe_meta.get(prb_id)
        if meta is not None:
            subset.probe_meta[prb_id] = meta
        series = dataset.series.get(prb_id)
        if series is not None:
            subset.series[prb_id] = series
    return subset


def _classify_groups(
    dataset: LastMileDataset,
    groups: Dict[int, List[int]],
    thresholds: ClassificationThresholds,
    max_attempts: int,
    keep_signals: bool = False,
) -> List[ASOutcome]:
    ledgers = {asn: DataQualityReport() for asn in groups}
    batch = classify_asn_batch(
        dataset, [(asn, groups[asn]) for asn in sorted(groups)],
        thresholds=thresholds, max_attempts=max_attempts,
        keep_signals=keep_signals, quality_for=ledgers.__getitem__,
    )
    return [
        ASOutcome(
            asn=asn, report=report, failure=failure,
            quality=ledgers[asn], signal=signal,
        )
        for asn, report, failure, signal in batch
    ]
