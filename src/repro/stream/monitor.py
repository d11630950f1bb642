"""Sustained-congestion monitor (the paper's *raclette* tool [16]).

Consumes traceroute results as they arrive (roughly timestamp-ordered,
as the Atlas result stream is), keeps one open 30-minute bin per probe
in an :class:`~repro.stream.median.ExactMedian` — the same estimator
:class:`~repro.stream.engine.StreamingSurvey` buffers its open bins
in — and, as bins close, updates per-AS aggregated queueing-delay
state with a rolling propagation-delay baseline.  Sustained deviations
raise :class:`Alert` records on an :class:`AlertSink`.

The per-bin estimates match the batch pipeline's (same bin width,
same median, same sanity threshold); the only difference is the
baseline, a rolling-window minimum instead of a whole-period minimum —
the right choice for an unbounded stream.

Why this is not a sink on :class:`StreamingSurvey`: the engine closes
bins on one global watermark over a finite
:class:`~repro.timebase.MeasurementPeriod` grid.  The monitor serves an
unbounded stream with no grid, and closes each probe's bin on its own
(a probe's next-bin record closes it; probes lagging the stream head
by ``max_open_bins`` are force-closed), dropping stale stragglers and
duplicates per probe.  Driving it through the engine would need a
second closure mode in the engine's per-record ingest hot path.
"""

from __future__ import annotations

import math
import sys
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Protocol, Tuple

import numpy as np

from ..atlas.traceroute import TracerouteResult
from ..core.lastmile import MIN_TRACEROUTES_PER_BIN, lastmile_samples
from ..obs import get_observer
from ..quality import DataQualityReport, DropReason
from ..timebase import DELAY_BIN_SECONDS
from .median import ExactMedian

#: Quality-ledger stage of the monitor (the metric names keep the
#: tool's ``raclette_`` prefix).
STAGE = "raclette-monitor"


# -- alerts ----------------------------------------------------------------


@dataclass(frozen=True)
class Alert:
    """One congestion state change for an AS.

    ``kind`` is ``"congestion-start"`` (sustained elevated delay) or
    ``"congestion-end"`` (delay back under the threshold).
    """

    asn: int
    start_bin: int
    bin_seconds: int
    delay_ms: float
    kind: str

    @property
    def start_seconds(self) -> float:
        """Stream-relative start time of the alert condition."""
        return self.start_bin * float(self.bin_seconds)

    def __str__(self) -> str:
        hours = self.start_seconds / 3600.0
        return (
            f"[{self.kind}] AS{self.asn} at t+{hours:.1f}h "
            f"(aggregated delay {self.delay_ms:.2f} ms)"
        )


class AlertSink(Protocol):
    """Anything that can receive alerts."""

    def emit(self, alert: Alert) -> None:  # pragma: no cover - protocol
        """Receive one alert."""
        ...


class ListSink:
    """Collects alerts in memory (default sink; easy to assert on)."""

    def __init__(self):
        self.alerts: List[Alert] = []

    def emit(self, alert: Alert) -> None:
        """Store the alert."""
        self.alerts.append(alert)

    def starts(self) -> List[Alert]:
        """Only the congestion-start alerts."""
        return [a for a in self.alerts if a.kind == "congestion-start"]

    def ends(self) -> List[Alert]:
        """Only the congestion-end alerts."""
        return [a for a in self.alerts if a.kind == "congestion-end"]


class PrintSink:
    """Writes alerts to a stream as they fire (CLI default)."""

    def __init__(self, stream=None):
        self.stream = stream if stream is not None else sys.stdout

    def emit(self, alert: Alert) -> None:
        """Print the alert immediately."""
        print(str(alert), file=self.stream)


# -- rolling baseline ------------------------------------------------------


class RollingMinimum:
    """Sliding-window minimum with O(1) amortized updates.

    ``window`` is in *pushes*: with one push per 30-minute bin, a
    window of 336 covers one week — the streaming stand-in for the
    per-period minimum baseline of the batch pipeline.
    """

    def __init__(self, window: int):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.window = window
        self._deque: Deque[Tuple[int, float]] = deque()
        self._index = 0

    def push(self, value: float) -> float:
        """Insert one value; returns the current window minimum."""
        value = float(value)
        while self._deque and self._deque[-1][1] >= value:
            self._deque.pop()
        self._deque.append((self._index, value))
        self._index += 1
        cutoff = self._index - self.window
        while self._deque and self._deque[0][0] < cutoff:
            self._deque.popleft()
        return self._deque[0][1]

    def minimum(self) -> Optional[float]:
        """Current window minimum, or None when empty."""
        return self._deque[0][1] if self._deque else None


# -- monitor ---------------------------------------------------------------


@dataclass
class MonitorConfig:
    """Tunables of the streaming monitor."""

    bin_seconds: int = DELAY_BIN_SECONDS
    min_traceroutes: int = MIN_TRACEROUTES_PER_BIN
    #: Rolling-baseline window, in bins (336 = one week of 30-min bins).
    baseline_window_bins: int = 336
    #: Aggregated delay above baseline that arms an alert (the paper's
    #: Mild threshold: §4 shows throughput collapses past ~1 ms).
    alert_threshold_ms: float = 1.0
    #: Consecutive elevated bins required before an alert fires — the
    #: streaming analogue of "persistent" (4 bins = 2 hours).
    alert_min_bins: int = 4
    #: Bins a probe may lag behind the stream head before its open bin
    #: is force-closed (out-of-order tolerance).
    max_open_bins: int = 2


class _ProbeState:
    """Open-bin accumulator for one probe."""

    __slots__ = ("current_bin", "median", "count", "seen")

    def __init__(self):
        self.current_bin: Optional[int] = None
        self.median = ExactMedian()
        self.count = 0
        #: (msm_id, timestamp) keys seen in the open bin — duplicate
        #: suppression bounded to one bin's worth of memory.
        self.seen = set()

    def reset(self, bin_index: int) -> None:
        self.current_bin = bin_index
        self.median = ExactMedian()
        self.count = 0
        self.seen = set()


class _ASState:
    """Aggregation state for one AS."""

    __slots__ = ("baseline", "pending", "elevated_bins", "history",
                 "alerting")

    def __init__(self, window: int):
        self.baseline = RollingMinimum(window)
        #: bin index -> list of per-probe medians awaiting aggregation.
        self.pending: Dict[int, List[float]] = {}
        self.elevated_bins = 0
        #: closed (bin_index, aggregated_delay) pairs, newest last.
        self.history: List[tuple] = []
        self.alerting = False


class LastMileMonitor:
    """Streaming §2-pipeline with alerting.

    ``asn_of`` maps a probe id to its AS (use
    :func:`repro.core.filtering.resolve_probe_asn` against a RIB for
    the paper-faithful mapping, or a static dict for tests).
    """

    def __init__(
        self,
        asn_of: Callable[[int], Optional[int]],
        config: Optional[MonitorConfig] = None,
        sink: Optional[AlertSink] = None,
    ):
        self.asn_of = asn_of
        self.config = config or MonitorConfig()
        self.sink = sink if sink is not None else ListSink()
        self._probes: Dict[int, _ProbeState] = {}
        self._ases: Dict[int, _ASState] = {}
        self._head_bin = -1
        self.results_seen = 0
        self.bins_closed = 0
        self.alerts_emitted = 0
        #: Bins closed but not aggregated, keyed by the reason-code
        #: string — never a bare count.
        self.bins_skipped: Dict[str, int] = {}
        #: What the stream did to us: duplicates, stale stragglers,
        #: malformed records — dropped with reason codes, never a crash.
        self.quality = DataQualityReport()
        obs = get_observer()
        self._m_results = obs.counter(
            "raclette_results_total", "traceroute results ingested"
        ).labels()
        self._m_bins_closed = obs.counter(
            "raclette_bins_closed_total", "probe bins closed"
        ).labels()
        self._m_bins_skipped = obs.counter(
            "raclette_bins_skipped_total",
            "closed probe bins discarded before aggregation",
            ("reason",),
        )
        self._m_records_skipped = obs.counter(
            "raclette_records_skipped_total",
            "ingested results dropped by the fault-tolerance path",
            ("reason",),
        )
        self._m_alerts = obs.counter(
            "raclette_alerts_total", "alerts emitted", ("kind",)
        )
        self._m_asns = obs.gauge(
            "raclette_monitored_asns", "ASes with aggregated state"
        )

    def _drop_record(
        self, reason: DropReason, detail: str
    ) -> None:
        """Reason-coded record skip: quality ledger + metrics."""
        self.quality.drop(STAGE, reason, detail=detail)
        self._m_records_skipped.inc(1, reason=reason.value)

    def _skip_bin(self, reason: DropReason, detail: str) -> None:
        """Reason-coded bin skip: local tally + ledger + metrics."""
        key = reason.value
        self.bins_skipped[key] = self.bins_skipped.get(key, 0) + 1
        self.quality.drop(STAGE, reason, detail=detail)
        self._m_bins_skipped.inc(1, reason=key)

    # -- ingestion -------------------------------------------------------

    def ingest(self, result: TracerouteResult) -> None:
        """Feed one traceroute result.

        Tolerates what live streams do: duplicated results are dropped,
        stale stragglers (bins already closed) are dropped, records
        with non-finite timestamps or malformed hop data are dropped —
        each with a reason code on :attr:`quality` — and gaps simply
        leave bins unclosed, which the rolling baseline rides out.
        """
        self.results_seen += 1
        self._m_results.inc()
        self.quality.ingest(STAGE)
        timestamp = result.timestamp
        if not np.isfinite(timestamp):
            self._drop_record(
                DropReason.MALFORMED_RECORD,
                f"probe {result.prb_id}: timestamp {timestamp!r}",
            )
            return
        bin_index = int(timestamp // self.config.bin_seconds)
        if bin_index > self._head_bin:
            self._head_bin = bin_index
            self._expire_lagging_probes()

        state = self._probes.get(result.prb_id)
        if state is None:
            state = _ProbeState()
            state.reset(bin_index)
            self._probes[result.prb_id] = state
        elif state.current_bin is None:
            state.reset(bin_index)
        elif bin_index != state.current_bin:
            if bin_index < state.current_bin:
                self._drop_record(
                    DropReason.STALE_RECORD,
                    f"probe {result.prb_id}: bin {bin_index} "
                    f"already closed (open bin {state.current_bin})",
                )
                return  # stale straggler: already closed that bin
            self._close_probe_bin(result.prb_id, state)
            state.reset(bin_index)

        key = (result.msm_id, timestamp)
        if key in state.seen:
            self._drop_record(
                DropReason.DUPLICATE_RECORD,
                f"probe {result.prb_id}: msm {result.msm_id} "
                f"@{timestamp:.0f}s repeated",
            )
            return
        state.seen.add(key)

        state.count += 1
        try:
            samples = lastmile_samples(result)
        except (ValueError, TypeError) as exc:
            self._drop_record(
                DropReason.MALFORMED_RECORD,
                f"probe {result.prb_id}: {exc}",
            )
            return
        state.median.extend(samples)

    def ingest_many(self, results) -> None:
        """Feed an iterable of results."""
        for result in results:
            self.ingest(result)

    def flush(self) -> None:
        """Close every open bin (end of stream)."""
        for prb_id, state in self._probes.items():
            if state.current_bin is not None:
                self._close_probe_bin(prb_id, state)
                state.current_bin = None
        for asn in list(self._ases):
            self._aggregate_ready(asn, up_to_bin=None)

    # -- bin closing -------------------------------------------------------

    def _expire_lagging_probes(self) -> None:
        horizon = self._head_bin - self.config.max_open_bins
        for prb_id, state in self._probes.items():
            if state.current_bin is not None and state.current_bin < horizon:
                self._close_probe_bin(prb_id, state)
                state.current_bin = None
        for asn in list(self._ases):
            self._aggregate_ready(asn, up_to_bin=horizon)

    def _close_probe_bin(self, prb_id: int, state: _ProbeState) -> None:
        self.bins_closed += 1
        self._m_bins_closed.inc()
        if state.count < self.config.min_traceroutes:
            # The paper's disconnected-probe sanity check.
            self._skip_bin(
                DropReason.SPARSE_BIN,
                f"probe {prb_id}: bin {state.current_bin} closed with "
                f"{state.count} < {self.config.min_traceroutes} "
                "traceroutes",
            )
            return
        median = state.median.value()
        if math.isnan(median):
            self._skip_bin(
                DropReason.NO_VALID_BINS,
                f"probe {prb_id}: bin {state.current_bin} had no "
                "usable last-mile samples",
            )
            return
        asn = self.asn_of(prb_id)
        if asn is None:
            self._skip_bin(
                DropReason.UNRESOLVED_ASN,
                f"probe {prb_id}: no AS mapping; bin "
                f"{state.current_bin} discarded",
            )
            return
        as_state = self._ases.get(asn)
        if as_state is None:
            as_state = _ASState(self.config.baseline_window_bins)
            self._ases[asn] = as_state
            self._m_asns.set(len(self._ases))
        as_state.pending.setdefault(state.current_bin, []).append(median)

    def _aggregate_ready(self, asn: int, up_to_bin: Optional[int]) -> None:
        state = self._ases[asn]
        ready = sorted(
            b for b in state.pending
            if up_to_bin is None or b < up_to_bin
        )
        for bin_index in ready:
            medians = state.pending.pop(bin_index)
            raw = float(np.median(medians))
            baseline = state.baseline.push(raw)
            delay = max(raw - baseline, 0.0)
            state.history.append((bin_index, delay))
            self._evaluate_alert(asn, state, bin_index, delay)

    # -- alerting -----------------------------------------------------------

    def _evaluate_alert(
        self, asn: int, state: _ASState, bin_index: int, delay: float
    ) -> None:
        cfg = self.config
        if delay > cfg.alert_threshold_ms:
            state.elevated_bins += 1
            if (
                state.elevated_bins >= cfg.alert_min_bins
                and not state.alerting
            ):
                state.alerting = True
                self.alerts_emitted += 1
                self._m_alerts.inc(1, kind="congestion-start")
                self.sink.emit(Alert(
                    asn=asn,
                    start_bin=bin_index - cfg.alert_min_bins + 1,
                    bin_seconds=cfg.bin_seconds,
                    delay_ms=delay,
                    kind="congestion-start",
                ))
        else:
            if state.alerting:
                self.alerts_emitted += 1
                self._m_alerts.inc(1, kind="congestion-end")
                self.sink.emit(Alert(
                    asn=asn,
                    start_bin=bin_index,
                    bin_seconds=cfg.bin_seconds,
                    delay_ms=delay,
                    kind="congestion-end",
                ))
            state.alerting = False
            state.elevated_bins = 0

    # -- inspection ----------------------------------------------------------

    def delay_series(self, asn: int) -> List[tuple]:
        """Closed ``(bin_index, aggregated_delay_ms)`` pairs of an AS."""
        state = self._ases.get(asn)
        return list(state.history) if state else []

    def monitored_asns(self) -> List[int]:
        """ASes with at least one closed aggregated bin."""
        return sorted(
            asn for asn, state in self._ases.items() if state.history
        )

    def summary(self) -> str:
        """One-line status for logs, skips broken down by reason."""
        line = (
            f"raclette: {self.results_seen} results, "
            f"{self.bins_closed} probe-bins closed, "
            f"{len(self.monitored_asns())} ASes, "
            f"{self.alerts_emitted} alerts"
        )
        entry = self.quality.stages.get(STAGE)
        if entry is not None and entry.dropped:
            parts = [
                f"{reason.value}={count}"
                for reason, count in sorted(
                    entry.dropped.items(), key=lambda kv: kv[0].value
                )
            ]
            line += ", dropped: " + " ".join(parts)
        return line
