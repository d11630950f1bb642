"""Survey orchestration (paper §3).

Runs the full detection pipeline over every AS hosting at least three
probes, per measurement period, and derives the paper's headline
statistics: the share of ASes with no daily pattern, the number of
reported (congested) ASes, recurrence across periods, the COVID
increase, the eyeball-rank breakdown (Fig. 4) and the geographic
distribution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..apnic import EyeballRanking, RANK_BUCKETS, bucket_for_rank
from ..netbase.errors import EmptyPopulationError, TransientFaultError
from ..obs import get_observer
from ..quality import DataQualityReport, DropReason
from ..timebase import MeasurementPeriod
from .aggregate import STAGE as AGGREGATE_STAGE, AggregatedSignal
from .classify import (
    Classification,
    ClassificationThresholds,
    DEFAULT_THRESHOLDS,
    Severity,
    classify_markers,
)
from .filtering import asns_with_min_probes
from .kernels import record_kernel_op
from .kernels.flat import (
    dataset_matrices,
    delay_matrix,
    population_median_pass,
)
from .kernels.vector import markers_batch
from .lastmile import MIN_TRACEROUTES_PER_BIN
from .series import LastMileDataset
from .spectral import STAGE as SPECTRAL_STAGE

STAGE = "core-survey"


@dataclass(frozen=True)
class ASFailure:
    """One AS the survey could not classify, with why and how hard
    it tried."""

    asn: int
    error: str          # exception class name
    message: str
    attempts: int = 1

    def __str__(self) -> str:
        return (
            f"AS{self.asn}: {self.error} after {self.attempts} "
            f"attempt(s) — {self.message}"
        )


@dataclass
class ASReport:
    """Classification of one AS in one period."""

    asn: int
    probe_count: int
    classification: Classification

    @property
    def severity(self) -> Severity:
        """Shortcut to the classification's severity."""
        return self.classification.severity

    @property
    def is_reported(self) -> bool:
        """True when the AS counts as congested (§3.1)."""
        return self.severity.is_reported


@dataclass
class SurveyResult:
    """All AS classifications for one measurement period."""

    period: MeasurementPeriod
    reports: Dict[int, ASReport] = field(default_factory=dict)
    #: Per-AS aggregated signals, retained only when
    #: ``classify_dataset(..., keep_signals=True)`` (used by the
    #: drill-down page export).
    signals: Dict[int, object] = field(default_factory=dict)
    #: ASes whose classification failed and was isolated — the survey
    #: is partial, not crashed.  Empty on a clean run.
    failures: Dict[int, ASFailure] = field(default_factory=dict)
    #: What the pipeline ingested/dropped/degraded producing this
    #: result, per stage.
    quality: DataQualityReport = field(default_factory=DataQualityReport)

    @property
    def monitored_count(self) -> int:
        """ASes with enough probes to be classified."""
        return len(self.reports)

    def failed_asns(self) -> List[int]:
        """ASes the survey had to give up on, sorted."""
        return sorted(self.failures)

    def reported_asns(self) -> List[int]:
        """Congested (non-None) ASes, sorted."""
        return sorted(
            asn for asn, report in self.reports.items()
            if report.is_reported
        )

    def asns_with_severity(self, severity: Severity) -> List[int]:
        """ASes with exactly the given severity, sorted."""
        return sorted(
            asn for asn, report in self.reports.items()
            if report.severity == severity
        )

    def severity_counts(self) -> Dict[Severity, int]:
        """Count of ASes in each class."""
        counts = {severity: 0 for severity in Severity}
        for report in self.reports.values():
            counts[report.severity] += 1
        return counts

    def none_fraction(self) -> float:
        """Share of monitored ASes classified None (§3.1: ~90 %)."""
        if not self.reports:
            return float("nan")
        return 1.0 - len(self.reported_asns()) / self.monitored_count

    def prominent_frequencies(self) -> np.ndarray:
        """Prominent frequency (cph) per AS (Fig. 3 top).

        ASes with degenerate signals are skipped.
        """
        return np.array([
            report.classification.markers.prominent_frequency_cph
            for report in self.reports.values()
            if report.classification.markers is not None
        ])

    def daily_amplitudes(self) -> np.ndarray:
        """Daily-component amplitude (ms) per AS (Fig. 3 bottom)."""
        return np.array([
            report.classification.daily_amplitude_ms
            for report in self.reports.values()
        ])


def classify_asn_batch(
    dataset: LastMileDataset,
    ordered_groups: Sequence[Tuple[int, Sequence[int]]],
    thresholds: ClassificationThresholds = DEFAULT_THRESHOLDS,
    max_attempts: int = 2,
    keep_signals: bool = False,
    quality_for=None,
    log=None,
) -> List[Tuple[int, Optional[ASReport], Optional[ASFailure],
                Optional[object]]]:
    """Run the aggregate → spectral → classify chain for many ASes.

    The unit of work the serial survey, the shard workers
    (:mod:`repro.parallel`) and the streaming engine share, so the
    paths cannot drift.  Every AS's population is aggregated through
    the flat survey pass (:func:`_aggregate_populations`, where each
    AS keeps its own retry/isolation envelope), then marker extraction
    for every surviving signal runs as one :func:`markers_batch` call
    — a single :func:`scipy.signal.welch` over the (AS x bins) matrix.
    Extraction sits outside the retry envelope because it is total: it
    maps degenerate signals to None instead of raising.

    ``quality_for(asn)`` supplies the ledger each AS's accounting
    lands on (the serial survey shares one, shard workers keep one
    per AS); None means no accounting.  Returns
    ``(asn, report, failure, signal)`` tuples in input order, where
    exactly one of ``report``/``failure`` is set and ``signal`` is
    retained only when ``keep_signals``.
    """
    obs = get_observer()
    if log is None:
        log = obs.logger.bind(stage=STAGE)
    if quality_for is None:
        quality_for = lambda asn: None  # noqa: E731
    staged = _aggregate_populations(
        dataset, ordered_groups, quality_for, max_attempts, obs, log,
    )
    survivors = [
        entry for entry in staged if entry[3] is None
    ]
    signals = [signal.delay_ms for _, _, signal, _ in survivors]
    with obs.stage_span("spectral", signals=len(signals)):
        obs.items_in(SPECTRAL_STAGE, len(signals))
        record_kernel_op("markers-batch", len(signals))
        markers_list = markers_batch(signals, dataset.grid.bin_seconds)
        obs.items_out(
            SPECTRAL_STAGE,
            sum(markers is not None for markers in markers_list),
        )
    markers_by_asn = {
        asn: markers
        for (asn, _, _, _), markers in zip(survivors, markers_list)
    }
    outcomes = []
    for asn, probe_ids, signal, failure in staged:
        if failure is not None:
            outcomes.append((asn, None, failure, None))
            continue
        markers = markers_by_asn[asn]
        quality = quality_for(asn)
        if markers is None and quality is not None:
            quality.degrade(
                STAGE, DropReason.DEGENERATE_SIGNAL,
                detail=f"AS{asn}: signal too flat/short/gappy; "
                "classified None",
            )
        classification = classify_markers(markers, thresholds)
        report = ASReport(
            asn=asn,
            probe_count=len(probe_ids),
            classification=classification,
        )
        outcomes.append(
            (asn, report, None, signal if keep_signals else None)
        )
    return outcomes


def _aggregate_populations(
    dataset: LastMileDataset,
    ordered_groups: Sequence[Tuple[int, Sequence[int]]],
    quality_for,
    max_attempts: int,
    obs,
    log,
) -> List[Tuple[int, Sequence[int], Optional[object],
                Optional[ASFailure]]]:
    """Aggregate every AS through the flat survey pass.

    The (probe x bin) delay matrix is built once for the whole
    dataset; each AS's envelope (span, retry, isolation) only
    *gathers* its row indices (:func:`_gather_population`), and a
    single :func:`population_median_pass` computes every AS's
    aggregated signal at the end.  Quality events land on each AS's
    ledger in the order :func:`~repro.core.aggregate.aggregate_population`
    emits them (ingest → missing-series drop → dead-probe degrade).

    Failures are *isolated*: a :class:`TransientFaultError` is retried
    up to ``max_attempts`` times, and any terminal error becomes an
    :class:`ASFailure` recorded on the AS's ledger, never a raised
    exception.
    """
    index, medians_matrix, counts_matrix = dataset_matrices(dataset)
    delays, dead = delay_matrix(
        medians_matrix, counts_matrix, MIN_TRACEROUTES_PER_BIN
    )
    del medians_matrix, counts_matrix

    gathered: List[Tuple[int, Sequence[int], Optional[np.ndarray],
                         Optional[ASFailure]]] = []
    for asn, probe_ids in ordered_groups:
        quality = quality_for(asn)
        rows = None
        failure = None
        # One span per AS (aggregate nests under it) so the renderer
        # can collapse the fan-out into one line.
        with obs.span("classify", asn=asn):
            attempts = 0
            while True:
                attempts += 1
                try:
                    rows = _gather_population(
                        dataset, probe_ids, quality, index, dead
                    )
                    break
                except Exception as exc:  # noqa: BLE001 — isolation
                    if (
                        isinstance(exc, TransientFaultError)
                        and attempts < max_attempts
                    ):
                        continue
                    failure = _build_failure(
                        asn, exc, attempts, quality, log
                    )
                    break
        gathered.append((asn, probe_ids, rows, failure))

    survivors = [entry for entry in gathered if entry[3] is None]
    record_kernel_op("population-medians", len(survivors))
    medians, contributing = population_median_pass(
        delays, [rows for _, _, rows, _ in survivors]
    )
    signals = {}
    for group, (asn, _probe_ids, rows, _failure) in enumerate(
        survivors
    ):
        delay_ms = np.where(
            contributing[group] >= 1, medians[group], np.nan
        )
        signals[asn] = AggregatedSignal(
            grid=dataset.grid,
            delay_ms=delay_ms,
            probe_count=len(rows),
            contributing=contributing[group],
        )
    return [
        (asn, probe_ids, signals.get(asn), failure)
        for asn, probe_ids, _rows, failure in gathered
    ]


def _gather_population(
    dataset: LastMileDataset,
    probe_ids: Sequence[int],
    quality: Optional[DataQualityReport],
    index: Dict[int, int],
    dead: np.ndarray,
) -> np.ndarray:
    """One AS's share of the flat pass: its rows of the delay matrix.

    Books the aggregation stage's accounting (ingest, probes without a
    series, probes without a valid bin) and raises
    :class:`EmptyPopulationError` when no requested probe has a
    series.  ``index`` maps probe ids to matrix rows, ``dead`` flags
    rows without any valid bin.
    """
    obs = get_observer()
    requested = list(probe_ids)
    with obs.stage_span("aggregate", probes=len(requested)):
        present = [p for p in requested if p in dataset.series]
        obs.items_in(AGGREGATE_STAGE, len(requested))
        if quality is not None:
            quality.ingest(AGGREGATE_STAGE, n=len(requested))
            missing = len(requested) - len(present)
            if missing:
                quality.drop(
                    AGGREGATE_STAGE, DropReason.NO_VALID_BINS,
                    n=missing,
                    detail=f"{missing} probes have metadata but no series",
                )
        if not present:
            raise EmptyPopulationError(
                f"no probes to aggregate (requested {len(requested)})"
            )
        rows = np.fromiter(
            (index[p] for p in present),
            dtype=np.int64, count=len(present),
        )
        if quality is not None:
            dead_count = int(dead[rows].sum())
            if dead_count:
                quality.degrade(
                    AGGREGATE_STAGE, DropReason.NO_VALID_BINS,
                    n=dead_count,
                    detail=f"{dead_count} probes contributed no valid bin",
                )
        obs.items_out(AGGREGATE_STAGE, len(present))
        return rows


def classify_dataset(
    dataset: LastMileDataset,
    period: MeasurementPeriod,
    min_probes: int = 3,
    thresholds: ClassificationThresholds = DEFAULT_THRESHOLDS,
    table=None,
    keep_signals: bool = False,
    quality: Optional[DataQualityReport] = None,
    max_attempts: int = 2,
    workers: Optional[int] = None,
    cache=None,
) -> SurveyResult:
    """Classify every qualifying AS of one period's dataset.

    ``keep_signals`` retains each AS's aggregated signal on the
    result (needed by the per-AS drill-down export; costs one float64
    array per AS).

    Per-AS failures are *isolated*: an AS whose aggregation or
    classification raises is retried up to ``max_attempts`` times when
    the error is a :class:`TransientFaultError`, then recorded in
    ``result.failures`` (and on the quality ledger) while the survey
    continues — one poisoned AS yields a partial result with a failure
    log, never a crashed survey.

    An explicit ``workers`` (or a ``cache``) routes through the
    sharded executor (:func:`repro.parallel.classify_dataset_sharded`),
    which produces identical results for any worker count.  Unlike the
    scenario entry points, ``workers=None`` here always means the
    serial path below — the environment knob is not consulted, so
    instrumentation-sensitive callers keep their span structure.
    """
    if workers is not None or cache is not None:
        from ..parallel import classify_dataset_sharded

        return classify_dataset_sharded(
            dataset, period, workers=workers or 1,
            min_probes=min_probes, thresholds=thresholds, table=table,
            keep_signals=keep_signals, quality=quality,
            max_attempts=max_attempts, cache=cache,
        )
    obs = get_observer()
    log = obs.logger.bind(stage=STAGE, period=period.name)
    result = SurveyResult(
        period=period,
        quality=quality if quality is not None else DataQualityReport(),
    )
    quality = result.quality
    with obs.stage_span("classify-dataset", period=period.name) as outer:
        groups = asns_with_min_probes(
            dataset.probe_meta, min_probes=min_probes, table=table,
            quality=quality,
        )
        obs.items_in(STAGE, len(groups))
        log.info("classify-start", ases=len(groups))
        outcomes = classify_asn_batch(
            dataset, list(groups.items()),
            thresholds=thresholds, max_attempts=max_attempts,
            keep_signals=keep_signals,
            quality_for=lambda asn: quality, log=log,
        )
        for asn, report, failure, signal in outcomes:
            if failure is not None:
                result.failures[asn] = failure
                continue
            result.reports[asn] = report
            if keep_signals and signal is not None:
                result.signals[asn] = signal
        obs.items_out(STAGE, len(result.reports))
        outer.set_attr("reported", len(result.reported_asns()))
        outer.set_attr("failures", len(result.failures))
        _record_survey_metrics(obs, result)
        log.info(
            "classify-done",
            monitored=result.monitored_count,
            reported=len(result.reported_asns()),
            failures=len(result.failures),
        )
    return result


def _record_survey_metrics(obs, result: SurveyResult) -> None:
    """Mirror one period's outcome + quality ledger into the registry."""
    if not obs.enabled:
        return
    severity_counter = obs.counter(
        "survey_as_classified_total",
        "AS classifications per period and severity",
        ("period", "severity"),
    )
    for severity, count in result.severity_counts().items():
        if count:
            severity_counter.inc(
                count, period=result.period.name,
                severity=severity.value,
            )
    if result.failures:
        obs.counter(
            "survey_as_failures_total",
            "ASes the survey gave up on", ("period",),
        ).inc(len(result.failures), period=result.period.name)
    obs.record_quality(result.quality)


def _build_failure(
    asn: int,
    exc: Exception,
    attempts: int,
    quality: Optional[DataQualityReport],
    log,
) -> ASFailure:
    """An :class:`ASFailure` for one error, logged and recorded on the
    ledger."""
    log.warning(
        "as-failed", asn=asn,
        error=type(exc).__name__, attempts=attempts,
    )
    if quality is not None:
        quality.drop(
            STAGE, DropReason.AS_FAILURE,
            detail=f"AS{asn}: {type(exc).__name__}: {exc}",
        )
    return ASFailure(
        asn=asn,
        error=type(exc).__name__,
        message=str(exc),
        attempts=attempts,
    )


@dataclass
class SurveySuite:
    """Results across several measurement periods (§3 longitudinal)."""

    results: Dict[str, SurveyResult] = field(default_factory=dict)

    def add(self, result: SurveyResult) -> None:
        """Insert one period's result, keyed by period name."""
        self.results[result.period.name] = result

    def period_names(self) -> List[str]:
        """Period names in insertion order."""
        return list(self.results)

    def average_reported(self) -> float:
        """Mean number of reported ASes per period (§3.1: ~47)."""
        counts = [
            len(r.reported_asns()) for r in self.results.values()
        ]
        return float(np.mean(counts)) if counts else float("nan")

    def recurrent_asns(self, min_fraction: float = 0.5) -> List[int]:
        """ASes reported in at least ``min_fraction`` of the periods.

        The paper: 36 ASes reported for at least half the periods.
        """
        if not self.results:
            return []
        tally: Dict[int, int] = {}
        for result in self.results.values():
            for asn in result.reported_asns():
                tally[asn] = tally.get(asn, 0) + 1
        need = min_fraction * len(self.results)
        return sorted(a for a, n in tally.items() if n >= need)

    def churn_between(self, before: str, after: str) -> float:
        """Jaccard similarity of the reported-AS sets of two periods.

        §3.1: "We observe little churn over the two years" — high
        similarity between consecutive periods' reported sets.
        Periods missing from the suite (empty or single-period suites
        probing arbitrary names) yield NaN rather than raising, so
        longitudinal summaries degrade gracefully.
        """
        from .stats import churn_jaccard

        if before not in self.results or after not in self.results:
            return float("nan")
        return churn_jaccard(
            self.results[before].reported_asns(),
            self.results[after].reported_asns(),
        )

    def mean_consecutive_similarity(self) -> float:
        """Average Jaccard similarity between consecutive periods."""
        names = self.period_names()
        if len(names) < 2:
            return float("nan")
        values = [
            self.churn_between(a, b)
            for a, b in zip(names, names[1:])
        ]
        return float(np.mean(values))

    def ingest_into(self, archive, ranking=None) -> List[str]:
        """Commit every period into a :class:`repro.store.SurveyArchive`.

        The bridge from a fresh survey run to the durable longitudinal
        archive the serving layer (:mod:`repro.serve`) reads.
        ``ranking`` (an :class:`~repro.apnic.EyeballRanking`) populates
        the archive's country index.  Returns the committed period
        names.
        """
        return archive.ingest_suite(self, ranking=ranking)

    def reported_increase(
        self, before: str, after: str
    ) -> Tuple[int, int, float]:
        """(count_before, count_after, relative increase).

        The paper's COVID comparison: 45 → 70 ASes, +55 %.
        """
        count_before = len(self.results[before].reported_asns())
        count_after = len(self.results[after].reported_asns())
        if count_before == 0:
            return count_before, count_after, float("inf")
        increase = (count_after - count_before) / count_before
        return count_before, count_after, increase


def breakdown_by_rank(
    result: SurveyResult,
    ranking: EyeballRanking,
) -> Dict[str, Dict[Severity, int]]:
    """AS counts per (Fig. 4 rank bucket, severity)."""
    breakdown: Dict[str, Dict[Severity, int]] = {
        label: {severity: 0 for severity in Severity}
        for label, _range in RANK_BUCKETS
    }
    for asn, report in result.reports.items():
        rank = ranking.rank_of(asn)
        if rank is None:
            continue
        breakdown[bucket_for_rank(rank)][report.severity] += 1
    return breakdown


def breakdown_percentages(
    breakdown: Dict[str, Dict[Severity, int]]
) -> Dict[str, Dict[Severity, float]]:
    """Convert bucket counts to the percentages plotted in Fig. 4.

    Percentages are of *all classified ASes*, as the figure's y-axis.
    """
    total = sum(
        count for bucket in breakdown.values() for count in bucket.values()
    )
    if total == 0:
        return {
            label: {severity: 0.0 for severity in bucket}
            for label, bucket in breakdown.items()
        }
    return {
        label: {
            severity: 100.0 * count / total
            for severity, count in bucket.items()
        }
        for label, bucket in breakdown.items()
    }


def geographic_distribution(
    results: Sequence[SurveyResult],
    ranking: EyeballRanking,
    severity: Optional[Severity] = None,
) -> Dict[str, int]:
    """Reported-AS counts per country across periods (§3.2).

    With ``severity`` given, only that class is counted (the paper's
    Severe-report tally where Japan leads at 18 %).  Each (period, AS)
    report counts once, as in the paper's per-report accounting.
    """
    counts: Dict[str, int] = {}
    for result in results:
        for asn, report in result.reports.items():
            if severity is None:
                if not report.is_reported:
                    continue
            elif report.severity != severity:
                continue
            estimate = ranking.get(asn)
            if estimate is None:
                continue
            counts[estimate.country] = counts.get(estimate.country, 0) + 1
    return dict(sorted(counts.items(), key=lambda kv: -kv[1]))
