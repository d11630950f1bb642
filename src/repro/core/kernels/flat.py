"""The flat survey pass: whole-dataset arrays built once, used by
every stage.

* :func:`scan_lastmile_flat` — one pass over a probe's traceroutes
  producing flat ``(bin, sample)`` arrays directly: hop addresses are
  classified once per distinct address (they repeat for the whole
  period), timestamp gating and binning follow
  :meth:`~repro.timebase.TimeGrid.bin_index` exactly, and the paper's
  pairwise private/public subtraction is computed for *all*
  traceroutes in a handful of ``repeat``/``take`` operations instead
  of a 3 x 3 Python product per traceroute.
* :func:`dataset_matrices` / :func:`delay_matrix` — the
  (probe x bin) median/count matrices built once per dataset, and the
  queueing-delay rows derived from them in one 2-D pass mirroring
  :func:`~repro.core.aggregate.probe_queuing_delay` row for row.
* :func:`population_median_pass` — per-AS aggregated medians and
  contributing counts for *every* AS in one pass: a NaN-padded
  (bin x group x probe) cube sorted along its last axis, or, past a
  size cap, one :func:`~repro.core.kernels.vector.grouped_median`
  call over ``group * num_bins + bin`` keys of the NaN-filtered delay
  values.  ``numpy.nanmedian`` over a matrix column is by definition
  the median of that column's non-NaN members, so both are
  bit-identical to it — all-NaN columns become empty groups and yield
  NaN, as ``nanmedian`` (warning suppressed) does.

Equivalence with the per-item loops of :mod:`.reference` (the test
oracle) is a hard contract, enforced by ``tests/kernels`` and the
pinned fixtures under ``tests/golden``: same series, same signals,
same quality-ledger events in the same order.  Quality accounting
therefore stays *per record, in record order* — only the numeric
work is batched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ...quality import DataQualityReport, DropReason
from .vector import grouped_median

#: Stage key for quality accounting — must match
#: :data:`repro.core.lastmile.STAGE` (not imported to avoid a cycle).
_LASTMILE_STAGE = "core-lastmile"

#: Hop-address classification memo.  Addresses repeat massively (one
#: probe traverses the same gateway and edge router all period), so
#: the parse + special-prefix matching runs once per distinct string.
_HOP_KIND_CACHE: Dict[str, str] = {}
_HOP_KIND_CACHE_MAX = 1 << 20


def _hop_kind(address: str) -> str:
    """Cached :func:`~repro.core.lastmile.classify_hop_address`."""
    kind = _HOP_KIND_CACHE.get(address)
    if kind is None:
        from ..lastmile import classify_hop_address

        if len(_HOP_KIND_CACHE) >= _HOP_KIND_CACHE_MAX:
            _HOP_KIND_CACHE.clear()
        kind = classify_hop_address(address)
        _HOP_KIND_CACHE[address] = kind
    return kind


@dataclass
class FlatScan:
    """Flat per-sample output of one probe's traceroute scan."""

    prb_id: Optional[int]
    processed: int
    #: Bin index of every individual last-mile sample.
    sample_bins: np.ndarray
    #: The sample values, in (traceroute, public-major pair) order.
    sample_values: np.ndarray


def scan_lastmile_flat(
    results,
    grid,
    prb_id: Optional[int] = None,
    quality: Optional[DataQualityReport] = None,
    counts: Optional[np.ndarray] = None,
) -> FlatScan:
    """Stages 1-3 of the estimation for one probe, flat-array output.

    Semantically identical to the reference scan
    (:func:`repro.core.lastmile._scan_results` +
    :func:`~repro.core.lastmile.lastmile_samples`): same timestamp
    gating, same bin sanity counting, same sanity filter on replies,
    and the same quality events with the same details *in the same
    record order*.  The difference is mechanical: the boundary walk
    uses the address-kind memo, and the pairwise subtraction for all
    traceroutes happens in one vectorized pass at the end.
    """
    if not isinstance(results, list):
        results = list(results)
    if counts is None:
        counts = np.zeros(grid.num_bins, dtype=np.int64)
    bin_seconds = grid.bin_seconds
    num_bins = grid.num_bins
    duration = num_bins * bin_seconds
    last_bin = num_bins - 1
    isfinite = math.isfinite
    kind_cache = _HOP_KIND_CACHE

    # Two-hop (private->public) traceroutes: flat reply pools plus
    # per-traceroute pool sizes, pairwise-expanded after the loop.
    pair_bins: List[int] = []
    pub_pool: List[float] = []
    priv_pool: List[float] = []
    pub_sizes: List[int] = []
    priv_sizes: List[int] = []
    # Anchor traceroutes (no private hop): replies are the samples.
    anchor_bins: List[int] = []
    anchor_pool: List[float] = []
    anchor_sizes: List[int] = []

    processed = 0
    for result in results:
        processed += 1
        if prb_id is None:
            prb_id = result.prb_id
        if quality is not None:
            quality.ingest(_LASTMILE_STAGE)
        timestamp = result.timestamp
        if not isfinite(timestamp):
            if quality is not None:
                quality.drop(
                    _LASTMILE_STAGE, DropReason.MALFORMED_RECORD,
                    detail=f"probe {result.prb_id}: timestamp "
                    f"{timestamp!r}",
                )
            continue
        if timestamp < 0 or timestamp > duration:
            if quality is not None:
                quality.drop(
                    _LASTMILE_STAGE, DropReason.OUT_OF_PERIOD,
                    detail=f"probe {result.prb_id}: timestamp "
                    f"{timestamp:.0f}s outside 0..{duration}s",
                )
            continue
        bin_index = int(timestamp // bin_seconds)
        if bin_index > last_bin:
            bin_index = last_bin
        counts[bin_index] += 1

        last_private = None
        public = None
        for hop in result.hops:
            address = hop.responding_address
            if address is None:
                continue
            kind = kind_cache.get(address)
            if kind is None:
                kind = _hop_kind(address)
            if kind == "private":
                last_private = hop
            elif kind == "public":
                public = hop
                break
        samples_found = False
        if public is not None:
            pub = [
                r.rtt_ms for r in public.replies
                if r.rtt_ms is not None
                and isfinite(r.rtt_ms) and r.rtt_ms >= 0.0
            ]
            if last_private is None:
                if pub:
                    anchor_bins.append(bin_index)
                    anchor_pool.extend(pub)
                    anchor_sizes.append(len(pub))
                    samples_found = True
            elif pub:
                priv = [
                    r.rtt_ms for r in last_private.replies
                    if r.rtt_ms is not None
                    and isfinite(r.rtt_ms) and r.rtt_ms >= 0.0
                ]
                if priv:
                    pair_bins.append(bin_index)
                    pub_pool.extend(pub)
                    priv_pool.extend(priv)
                    pub_sizes.append(len(pub))
                    priv_sizes.append(len(priv))
                    samples_found = True
        if not samples_found and quality is not None:
            quality.degrade(
                _LASTMILE_STAGE, DropReason.NO_BOUNDARY,
                detail=f"probe {result.prb_id}: no usable "
                "private→public hop pair",
            )

    chunks_bins: List[np.ndarray] = []
    chunks_values: List[np.ndarray] = []
    if pair_bins:
        pub_arr = np.asarray(pub_pool, dtype=np.float64)
        priv_arr = np.asarray(priv_pool, dtype=np.float64)
        p = np.asarray(pub_sizes, dtype=np.int64)
        q = np.asarray(priv_sizes, dtype=np.int64)
        # Public-major pair order, as the reference list product:
        # each public reply subtracts its traceroute's q private
        # replies in sequence.
        minuend = np.repeat(pub_arr, np.repeat(q, p))
        n_per = p * q
        total = int(n_per.sum())
        rec = np.repeat(np.arange(len(p), dtype=np.int64), n_per)
        local = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(n_per) - n_per, n_per
        )
        priv_starts = np.cumsum(q) - q
        subtrahend = priv_arr[priv_starts[rec] + local % q[rec]]
        chunks_values.append(minuend - subtrahend)
        chunks_bins.append(np.repeat(
            np.asarray(pair_bins, dtype=np.int64), n_per
        ))
    if anchor_bins:
        chunks_values.append(np.asarray(anchor_pool, dtype=np.float64))
        chunks_bins.append(np.repeat(
            np.asarray(anchor_bins, dtype=np.int64),
            np.asarray(anchor_sizes, dtype=np.int64),
        ))
    if chunks_bins:
        sample_bins = np.concatenate(chunks_bins)
        sample_values = np.concatenate(chunks_values)
    else:
        sample_bins = np.zeros(0, dtype=np.int64)
        sample_values = np.zeros(0, dtype=np.float64)
    return FlatScan(
        prb_id=prb_id,
        processed=processed,
        sample_bins=sample_bins,
        sample_values=sample_values,
    )


def dataset_matrices(
    dataset,
) -> Tuple[Dict[int, int], np.ndarray, np.ndarray]:
    """(probe -> row index, median matrix, count matrix) for a dataset.

    Rows follow :meth:`LastMileDataset.probe_ids` (sorted) order.
    Built once per survey; every AS's aggregation gathers row indices
    from here instead of re-stacking its probes' series.
    """
    ids = dataset.probe_ids()
    num_bins = dataset.grid.num_bins
    medians = np.empty((len(ids), num_bins), dtype=np.float64)
    counts = np.empty((len(ids), num_bins), dtype=np.int64)
    for row, prb_id in enumerate(ids):
        series = dataset.series[prb_id]
        medians[row] = series.median_rtt_ms
        counts[row] = series.traceroute_counts
    return {prb_id: row for row, prb_id in enumerate(ids)}, medians, counts


def delay_matrix(
    medians: np.ndarray,
    counts: np.ndarray,
    min_traceroutes: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Queueing-delay rows for *all* probes in one 2-D pass.

    Row ``i`` equals
    ``probe_queuing_delay(series_i, min_traceroutes)`` exactly: bins
    failing the sanity mask are NaN, rows with at least one valid bin
    subtract their own ``nanmin`` baseline, all-NaN rows stay
    unsubtracted.  Returns ``(delays, dead)`` where ``dead`` flags
    rows that contributed no valid bin at all.
    """
    valid = (counts >= min_traceroutes) & ~np.isnan(medians)
    delays = np.where(valid, medians, np.nan)
    alive = valid.any(axis=1)
    if alive.any():
        delays[alive] -= np.nanmin(delays[alive], axis=1)[:, None]
    return delays, ~alive


def population_median_pass(
    delays: np.ndarray,
    group_rows: Sequence[np.ndarray],
) -> Tuple[np.ndarray, np.ndarray]:
    """Aggregated medians + contributing counts for many populations.

    One grouped-median call over ``group * num_bins + bin`` keys of
    the non-NaN delay values replaces one ``nanmedian`` call per AS.
    Returns ``(medians, contributing)`` of shape (groups x bins);
    groups may share rows (a probe requested twice is counted twice,
    as ``aggregate_population`` stacks it twice).
    """
    num_groups = len(group_rows)
    num_bins = delays.shape[1]
    if num_groups == 0:
        return (
            np.zeros((0, num_bins)),
            np.zeros((0, num_bins), dtype=np.int64),
        )
    lengths = np.fromiter(
        (len(rows) for rows in group_rows),
        dtype=np.int64, count=num_groups,
    )
    max_rows = int(lengths.max()) if num_groups else 0
    if max_rows == 0:
        return (
            np.full((num_groups, num_bins), np.nan),
            np.zeros((num_groups, num_bins), dtype=np.int64),
        )
    if num_groups * num_bins * max_rows <= _CUBE_MAX_ELEMENTS:
        return _cube_median_pass(
            delays, group_rows, lengths, max_rows
        )
    # Skewed/huge populations: grouped-median keyed fallback (same
    # exact midpoint arithmetic, bounded memory).
    rows_concat = np.concatenate(
        [np.asarray(r, dtype=np.int64) for r in group_rows]
    )
    group_of_row = np.repeat(
        np.arange(num_groups, dtype=np.int64), lengths
    )
    values = delays[rows_concat].ravel()
    keys = (
        group_of_row[:, None] * num_bins
        + np.arange(num_bins, dtype=np.int64)[None, :]
    ).ravel()
    ok = ~np.isnan(values)
    medians = grouped_median(
        keys[ok], values[ok], num_groups * num_bins
    ).reshape(num_groups, num_bins)
    contributing = np.bincount(
        keys[ok], minlength=num_groups * num_bins
    ).astype(np.int64).reshape(num_groups, num_bins)
    return medians, contributing


#: Cap on the padded (bin x group x probe) cube; beyond this the
#: keyed grouped-median fallback bounds memory instead.
_CUBE_MAX_ELEMENTS = 8_000_000


def _cube_median_pass(
    delays: np.ndarray,
    group_rows: Sequence[np.ndarray],
    lengths: np.ndarray,
    max_rows: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Population medians via a NaN-padded (bin x group x probe) cube.

    Group memberships are known up front, so instead of sorting
    ``group * num_bins + bin`` keys we gather each group's delay rows
    into a padded cube (pad slots are NaN) and take the exact
    ``0.5 * (lo + hi)`` midpoint along the last axis — the same
    arithmetic as :func:`numpy.nanmedian` and
    :func:`~repro.core.kernels.vector.grouped_median`, with one sort
    of a contiguous axis instead of an argsort over all keys.
    """
    num_groups = len(group_rows)
    row_index = np.zeros((num_groups, max_rows), dtype=np.int64)
    padded = np.ones((num_groups, max_rows), dtype=bool)
    for group, rows in enumerate(group_rows):
        row_index[group, : lengths[group]] = rows
        padded[group, : lengths[group]] = False
    # (bin, group, probe-slot): one gather, contiguous along the slots
    # so the sort stays cheap; pad slots become NaN.
    cube = delays.T[:, row_index]
    cube[:, padded] = np.nan
    missing = np.isnan(cube)
    contributing = max_rows - missing.sum(axis=2)
    cube[missing] = np.inf
    del missing
    cube.sort(axis=2)
    lo_idx = np.where(contributing > 0, (contributing - 1) // 2, 0)
    hi_idx = contributing // 2
    lo = np.take_along_axis(cube, lo_idx[:, :, None], axis=2)[:, :, 0]
    hi = np.take_along_axis(cube, hi_idx[:, :, None], axis=2)[:, :, 0]
    medians = 0.5 * (lo + hi)
    medians[contributing == 0] = np.nan
    return (
        np.ascontiguousarray(medians.T),
        np.ascontiguousarray(contributing.T, dtype=np.int64),
    )
