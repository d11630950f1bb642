"""Queueing-delay derivation and population aggregation (paper §2.1).

From per-probe binned last-mile medians:

* per-probe queueing delay = median RTT series minus the *minimum*
  median over the period (the propagation-delay baseline, recomputed
  per period to absorb deployment changes);
* population (AS or AS+geo) aggregated queueing delay = the median
  across probes at each bin.

Median aggregation is what makes the signal robust: a minority of
congested (or broken) probes cannot move it — only majority-wide,
long-lasting congestion shows up, which is the paper's stated design.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

import numpy as np

from ..netbase.errors import EmptyPopulationError
from ..obs import get_observer
from ..quality import DataQualityReport, DropReason
from ..timebase import TimeGrid
from .kernels import record_kernel_op
from .kernels.flat import delay_matrix
from .lastmile import MIN_TRACEROUTES_PER_BIN
from .series import LastMileDataset, ProbeBinSeries

STAGE = "core-aggregate"


@dataclass
class AggregatedSignal:
    """Population-level queueing delay over one measurement period."""

    grid: TimeGrid
    delay_ms: np.ndarray            # per-bin aggregated queueing delay
    probe_count: int                # probes contributing to the signal
    contributing: np.ndarray        # per-bin number of valid probes

    def __post_init__(self):
        self.delay_ms = np.asarray(self.delay_ms, dtype=np.float64)
        self.contributing = np.asarray(self.contributing, dtype=np.int64)
        if self.delay_ms.shape[0] != self.grid.num_bins:
            raise ValueError("signal length does not match grid")

    @property
    def max_delay_ms(self) -> float:
        """Maximum aggregated queueing delay over the period.

        NaN (not an exception) when every bin is invalid — an AS can
        survey successfully yet yield no valid aggregate bin at all,
        and reporting must still render such a page.
        """
        if np.all(np.isnan(self.delay_ms)):
            return float("nan")
        return float(np.nanmax(self.delay_ms))

    def daily_max_ms(self) -> np.ndarray:
        """Per-day maximum delay (the markers of the paper's Fig. 5).

        Days where every bin is invalid yield NaN.
        """
        per_day = self.grid.bins_per_day
        days = self.grid.num_bins // per_day
        daily = self.delay_ms[: days * per_day].reshape(days, per_day)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return np.nanmax(daily, axis=1)


def probe_queuing_delay(
    series: ProbeBinSeries,
    min_traceroutes: int = MIN_TRACEROUTES_PER_BIN,
) -> np.ndarray:
    """Per-probe queueing delay: medians minus the period minimum.

    Invalid bins (too few traceroutes / no estimate) are NaN.  If no
    valid bin exists the whole series is NaN.
    """
    valid = series.valid_mask(min_traceroutes)
    delays = np.where(valid, series.median_rtt_ms, np.nan)
    if not valid.any():
        return delays
    return delays - np.nanmin(delays)


def aggregate_population(
    dataset: LastMileDataset,
    probe_ids: Optional[Sequence[int]] = None,
    min_traceroutes: int = MIN_TRACEROUTES_PER_BIN,
    min_probes_per_bin: int = 1,
    quality: Optional[DataQualityReport] = None,
) -> AggregatedSignal:
    """Median queueing delay across a probe population, per bin.

    ``probe_ids`` defaults to every probe in the dataset.  Bins where
    fewer than ``min_probes_per_bin`` probes have a valid estimate are
    NaN.  Raises :class:`EmptyPopulationError` (a ``ValueError``) when
    no requested probe has a series — callers with failure isolation
    (the survey) catch it and quarantine the population.  Probes that
    contribute no valid bin at all are noted on ``quality``.
    """
    if probe_ids is None:
        probe_ids = dataset.probe_ids()
    requested = list(probe_ids)
    obs = get_observer()
    with obs.stage_span("aggregate", probes=len(requested)):
        probe_ids = [p for p in requested if p in dataset.series]
        obs.items_in(STAGE, len(requested))
        if quality is not None:
            quality.ingest(STAGE, n=len(requested))
            missing = len(requested) - len(probe_ids)
            if missing:
                quality.drop(
                    STAGE, DropReason.NO_VALID_BINS, n=missing,
                    detail=(
                        f"{missing} probes have metadata but no series"
                    ),
                )
        if not probe_ids:
            raise EmptyPopulationError(
                f"no probes to aggregate (requested {len(requested)})"
            )

        record_kernel_op("stack-delays")
        stacked, dead_rows = delay_matrix(
            np.stack([dataset.series[p].median_rtt_ms for p in probe_ids]),
            np.stack([
                dataset.series[p].traceroute_counts for p in probe_ids
            ]),
            min_traceroutes,
        )
        if quality is not None:
            dead = int(dead_rows.sum())
            if dead:
                quality.degrade(
                    STAGE, DropReason.NO_VALID_BINS, n=dead,
                    detail=f"{dead} probes contributed no valid bin",
                )
        contributing = np.sum(~np.isnan(stacked), axis=0)
        with warnings.catch_warnings():
            # All-NaN bins (every probe invalid) legitimately yield NaN.
            warnings.simplefilter("ignore", RuntimeWarning)
            medians = np.nanmedian(stacked, axis=0)
        medians = np.where(
            contributing >= min_probes_per_bin, medians, np.nan
        )
        obs.items_out(STAGE, len(probe_ids))
        return AggregatedSignal(
            grid=dataset.grid,
            delay_ms=medians,
            probe_count=len(probe_ids),
            contributing=contributing,
        )


def probes_with_daily_delay_over(
    dataset: LastMileDataset,
    probe_ids: Sequence[int],
    threshold_ms: float,
    min_days_fraction: float = 0.5,
) -> List[int]:
    """Probes whose own queueing delay exceeds a threshold daily.

    Used for the paper's §2.2 observation that the share of ISP_US
    probes with daily delay over 5 ms tripled in April 2020.  A probe
    qualifies when, on at least ``min_days_fraction`` of its observed
    days, its daily maximum queueing delay exceeds ``threshold_ms``.
    """
    grid = dataset.grid
    per_day = grid.bins_per_day
    days = grid.num_bins // per_day
    qualifying = []
    for prb_id in probe_ids:
        series = dataset.series.get(prb_id)
        if series is None:
            continue
        delays = probe_queuing_delay(series)[: days * per_day]
        daily = delays.reshape(days, per_day)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            daily_max = np.nanmax(daily, axis=1)
        observed = ~np.isnan(daily_max)
        if not observed.any():
            continue
        exceeded = np.sum(daily_max[observed] > threshold_ms)
        if exceeded / observed.sum() >= min_days_fraction:
            qualifying.append(prb_id)
    return qualifying
