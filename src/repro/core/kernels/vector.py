"""The median and spectral kernels of the analysis pipeline.

The pipeline's numeric hot spots as plain functions over flat arrays:

* :func:`grouped_median` — the median of every group of a flat
  ``(group, value)`` array in one sort, bit-equal to per-group
  :func:`numpy.median` calls;
* :func:`dataset_bin_medians` — per-(row, bin) medians for *all*
  rows at once from flat ``row * num_bins + bin`` keys (probes of a
  dataset, links of an anomaly scan, closing stream buffers), with
  :func:`flatten_samples` turning per-traceroute sample lists into
  those flat arrays;
* :func:`markers_batch` — spectral markers via a single
  :func:`scipy.signal.welch` call over an (AS x bins) matrix, with
  the degenerate-signal gates applied per row beforehand.

:mod:`.reference` holds the per-item loops these replace; it is the
test oracle they are proven bit-identical against.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ...timebase import SECONDS_PER_DAY, SECONDS_PER_HOUR


def grouped_median(
    group_ids: np.ndarray,
    values: np.ndarray,
    num_groups: int,
) -> np.ndarray:
    """Median of ``values`` per group, bit-equal to ``numpy.median``.

    Values are ordered within their groups by one in-place sort of
    the integer key ``group * n + value_rank``, the rank coming from
    one argsort of the values: the order ``lexsort((values,
    group_ids))`` gives, at a fraction of its cost, in a few flat
    arrays of the input's length.  Segment extents come from
    ``searchsorted``.  The median is the middle element (odd groups)
    or the exact ``0.5 * (lo + hi)`` midpoint average ``numpy.median``
    computes (even groups).  ``numpy.median`` propagates NaN — any NaN
    member makes the group's median NaN — which is applied per group.
    Empty groups yield NaN.
    """
    medians = np.full(num_groups, np.nan)
    n = len(values)
    if n == 0:
        return medians
    group_ids = np.asarray(group_ids, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    by_value = np.argsort(values)
    key = np.empty(n, dtype=np.int64)
    key[by_value] = np.arange(n)
    ascending = values[by_value]
    del by_value
    key += group_ids * n
    key.sort()
    bounds = np.searchsorted(
        key, np.arange(num_groups + 1, dtype=np.int64) * n
    )
    starts, sizes = bounds[:-1], np.diff(bounds)
    np.remainder(key, n, out=key)
    sorted_values = ascending[key]
    del key, ascending
    present = np.flatnonzero(sizes)
    starts, sizes = starts[present], sizes[present]
    lo = sorted_values[starts + (sizes - 1) // 2]
    hi = sorted_values[starts + sizes // 2]
    has_nan = np.zeros(num_groups, dtype=bool)
    has_nan[group_ids[np.isnan(values)]] = True
    medians[present] = np.where(has_nan[present], np.nan, 0.5 * (lo + hi))
    return medians


def dataset_bin_medians(
    sample_keys: np.ndarray,
    sample_values: np.ndarray,
    num_probes: int,
    num_bins: int,
    counts_matrix: np.ndarray,
    min_traceroutes: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-(row, bin) medians from flat ``row * num_bins + bin`` keys.

    One grouped-median pass covers every row (probe, link, or open
    stream buffer).  A cell is estimated when it has at least one
    sample *and* ``counts_matrix >= min_traceroutes``; every other
    cell stays NaN.  Returns the (row x bin) median matrix and the
    per-row count of estimated bins.
    """
    medians = np.full((num_probes, num_bins), np.nan)
    if not len(sample_keys):
        return medians, np.zeros(num_probes, dtype=np.int64)
    counts_matrix = np.asarray(counts_matrix)
    grouped = grouped_median(
        sample_keys, sample_values, num_probes * num_bins
    ).reshape(num_probes, num_bins)
    sampled = np.zeros(num_probes * num_bins, dtype=bool)
    sampled[sample_keys] = True
    sampled = sampled.reshape(num_probes, num_bins)
    estimated = sampled & (counts_matrix >= min_traceroutes)
    medians[estimated] = grouped[estimated]
    return medians, estimated.sum(axis=1).astype(np.int64)


def flatten_samples(
    keys: Sequence[int],
    sample_lists: Sequence[Sequence[float]],
) -> Tuple[np.ndarray, np.ndarray]:
    """Expand per-traceroute sample lists into flat (key, value) arrays:
    every sample of ``sample_lists[i]`` is keyed ``keys[i]``."""
    lengths = np.fromiter(
        (len(samples) for samples in sample_lists),
        dtype=np.int64, count=len(sample_lists),
    )
    flat_keys = np.repeat(np.asarray(keys, dtype=np.int64), lengths)
    flat_values = np.fromiter(
        itertools.chain.from_iterable(sample_lists),
        dtype=np.float64, count=int(lengths.sum()),
    )
    return flat_keys, flat_values


def markers_batch(
    signals: Sequence[np.ndarray],
    bin_seconds: int,
    segment_days: Optional[int] = None,
    max_gap_fraction: Optional[float] = None,
) -> List:
    """Spectral markers for many signals with one Welch call.

    The degenerate gates of
    :func:`~repro.core.spectral.extract_markers` run per row, in
    the same order (shape, gap fraction, constant-after-fill,
    too-short-for-Welch); surviving rows of equal length share a
    single :func:`scipy.signal.welch` call (``axis=-1``), which is
    bit-identical to per-row calls.  Degenerate rows yield None.
    """
    # scipy.signal is imported here rather than at module top so that
    # it keeps loading through repro.core.spectral: pulled in first
    # from this module (which repro.core imports earlier), it made
    # ``import repro.cli`` about 0.3 s slower on 2 vCPU.
    from scipy import signal as sp_signal

    from ..spectral import (
        DAILY_FREQUENCY_CPH,
        MAX_GAP_FRACTION,
        SEGMENT_DAYS,
        SpectralMarkers,
        fill_gaps,
    )

    if segment_days is None:
        segment_days = SEGMENT_DAYS
    if max_gap_fraction is None:
        max_gap_fraction = MAX_GAP_FRACTION
    markers: List[Optional[SpectralMarkers]] = [None] * len(signals)
    by_length: Dict[int, List[Tuple[int, np.ndarray]]] = {}
    for i, values in enumerate(signals):
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 1 or values.size < 2:
            continue
        nan_fraction = float(np.mean(np.isnan(values)))
        if nan_fraction > max_gap_fraction:
            continue
        filled = fill_gaps(values)
        if np.allclose(filled, filled[0]):
            continue
        by_length.setdefault(len(filled), []).append((i, filled))
    bins_per_day = SECONDS_PER_DAY // bin_seconds
    sample_rate_per_hour = SECONDS_PER_HOUR / bin_seconds
    for length, entries in by_length.items():
        nperseg = min(segment_days * bins_per_day, length)
        if nperseg < 2:
            continue    # welch_periodogram raises -> None markers
        matrix = np.vstack([filled for _, filled in entries])
        freqs, power = sp_signal.welch(
            matrix,
            fs=sample_rate_per_hour,
            nperseg=nperseg,
            scaling="spectrum",
            detrend="constant",
            axis=-1,
        )
        amplitude = 2.0 * np.sqrt(2.0 * power)
        start = 2           # DC bin + 1 skipped multi-day-trend bin
        if start >= len(freqs):
            continue        # prominent() raises -> None markers
        prominent = start + np.argmax(
            amplitude[:, start:], axis=1
        )
        daily_index = int(
            np.argmin(np.abs(freqs - DAILY_FREQUENCY_CPH))
        )
        for row, (i, _filled) in enumerate(entries):
            index = int(prominent[row])
            markers[i] = SpectralMarkers(
                prominent_frequency_cph=float(freqs[index]),
                prominent_amplitude_ms=float(amplitude[row, index]),
                daily_amplitude_ms=float(
                    amplitude[row, daily_index]
                ),
            )
    return markers


