"""The reference kernels: the original per-item Python loops.

Every method is a verbatim transplant of the loop the pipeline ran
before it was vectorized, so this module *is* the paper's prose:
per-bin :func:`numpy.median` calls, one
:func:`~repro.core.aggregate.probe_queuing_delay` per probe, one
:func:`~repro.core.spectral.extract_markers` per signal.

It is a test oracle, not a runtime path: no module of the pipeline
imports it.  ``tests/kernels`` proves the production functions of
:mod:`.vector` and :mod:`.flat` bit-identical to these loops, and the
kernel benchmarks time the two against each other.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np


class ReferenceKernels:
    """Loop implementations of the four pipeline hot spots."""

    def bin_medians(
        self,
        sample_bins: Sequence[int],
        sample_lists: Sequence[List[float]],
        counts: np.ndarray,
        num_bins: int,
        min_traceroutes: int,
    ) -> Tuple[np.ndarray, int]:
        """Per-bin medians of one probe's samples (§2.1 stage 4).

        ``sample_bins[i]`` is the bin of the i-th sampled traceroute,
        ``sample_lists[i]`` its (non-empty) sample list.  Bins with
        fewer than ``min_traceroutes`` traceroutes — by ``counts``,
        which includes sample-less traceroutes — stay NaN.  Returns
        the medians and the number of estimated bins.
        """
        samples_per_bin: Dict[int, List[float]] = {}
        for bin_index, samples in zip(sample_bins, sample_lists):
            samples_per_bin.setdefault(bin_index, []).extend(samples)
        medians = np.full(num_bins, np.nan)
        valid_bins = 0
        for bin_index, samples in samples_per_bin.items():
            if counts[bin_index] >= min_traceroutes:
                medians[bin_index] = float(np.median(samples))
                valid_bins += 1
        return medians, valid_bins

    def stack_probe_delays(
        self,
        dataset,
        probe_ids: Sequence[int],
        min_traceroutes: int,
    ) -> np.ndarray:
        """Queueing-delay rows for a probe population (one per probe)."""
        from ..aggregate import probe_queuing_delay

        return np.vstack([
            probe_queuing_delay(dataset.series[p], min_traceroutes)
            for p in probe_ids
        ])

    def markers_batch(
        self,
        signals: Sequence[np.ndarray],
        bin_seconds: int,
        segment_days: Optional[int] = None,
        max_gap_fraction: Optional[float] = None,
    ) -> List:
        """Spectral markers per signal, one Welch run each."""
        from ..spectral import MAX_GAP_FRACTION, SEGMENT_DAYS, extract_markers

        if segment_days is None:
            segment_days = SEGMENT_DAYS
        if max_gap_fraction is None:
            max_gap_fraction = MAX_GAP_FRACTION
        return [
            extract_markers(
                values, bin_seconds, segment_days, max_gap_fraction
            )
            for values in signals
        ]


#: The shared instance (the loops are stateless).
REFERENCE = ReferenceKernels()
