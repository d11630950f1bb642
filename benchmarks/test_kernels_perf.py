"""E13 — kernel benchmarks (not a paper figure).

Times the reference oracle's loops (:mod:`repro.core.kernels.reference`)
against the production kernels on each hot stage at survey scale
(200 probes x 7 days) and writes the results as machine-readable
``BENCH_kernels.json`` at the repo root::

    {"machine": {...},
     "stages": [{"stage": ..., "backend": ..., "wall_ms": ...,
                 "speedup": ...}]}

``speedup`` on a vector row is reference-wall / vector-wall for the
same stage (reference rows carry 1.0).  The binning+median stage must
clear the 3x bar that justified the vectorized kernels.
"""

import datetime as dt
import time
import warnings

import numpy as np
import pytest

from conftest import BENCH_KERNELS_JSON, record_kernel_bench, write_report
from repro.core import (
    LastMileDataset,
    ProbeBinSeries,
    asns_with_min_probes,
    classify_dataset,
    classify_markers,
)
from repro.core.kernels.flat import delay_matrix
from repro.core.kernels.reference import REFERENCE
from repro.core.kernels.vector import (
    dataset_bin_medians,
    flatten_samples,
    markers_batch,
)
from repro.timebase import MeasurementPeriod, TimeGrid

NUM_PROBES = 200
PERIOD = MeasurementPeriod("perf-kernels", dt.datetime(2019, 9, 2), 7)
GRID = TimeGrid(PERIOD)
TRACEROUTES_PER_BIN = 3
SAMPLES_PER_TRACEROUTE = 9


def best_of(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.fixture(scope="module")
def scanned_samples():
    """Pre-scanned (bins, samples, counts) per probe — the exact
    input the median stage receives after the per-result scan, at
    200 probes x 7 days x 3 traceroutes/bin."""
    rng = np.random.default_rng(0)
    per_probe = []
    for _ in range(NUM_PROBES):
        sample_bins = np.repeat(
            np.arange(GRID.num_bins), TRACEROUTES_PER_BIN
        )
        sample_lists = [
            list(rng.normal(3.0, 0.5, SAMPLES_PER_TRACEROUTE))
            for _ in range(len(sample_bins))
        ]
        counts = np.full(
            GRID.num_bins, TRACEROUTES_PER_BIN, dtype=np.int64
        )
        per_probe.append((list(sample_bins), sample_lists, counts))
    return per_probe


@pytest.fixture(scope="module")
def binned_dataset():
    """A 200-probe binned dataset with realistic NaN gaps."""
    rng = np.random.default_rng(1)
    dataset = LastMileDataset(grid=GRID)
    t = np.arange(GRID.num_bins) / GRID.bins_per_day
    for prb_id in range(NUM_PROBES):
        medians = (
            rng.uniform(1.0, 3.0)
            + rng.normal(0, 0.05, GRID.num_bins)
            + rng.uniform(0.0, 2.0) * (1 + np.sin(2 * np.pi * t))
        )
        counts = np.full(GRID.num_bins, 24)
        gap = rng.integers(0, GRID.num_bins - 8)
        counts[gap:gap + 8] = 0
        dataset.add(ProbeBinSeries(
            prb_id=prb_id,
            median_rtt_ms=np.where(counts > 0, medians, np.nan),
            traceroute_counts=counts,
        ))
    return dataset


def test_perf_bin_medians_3x(scanned_samples):
    """Binning + grouped median, the pipeline's hottest loop: the
    single lexsort pass over the whole dataset must be at least 3x
    faster than the per-bin reference medians."""

    def run_reference():
        return [
            REFERENCE.bin_medians(
                bins_, lists_, counts, GRID.num_bins, 3
            )
            for bins_, lists_, counts in scanned_samples
        ]

    def run_vector():
        keys = []
        flat_lists = []
        counts_matrix = np.zeros(
            (NUM_PROBES, GRID.num_bins), dtype=np.int64
        )
        for row, (bins_, lists_, counts) in enumerate(
            scanned_samples
        ):
            keys.extend(row * GRID.num_bins + b for b in bins_)
            flat_lists.extend(lists_)
            counts_matrix[row] = counts
        return dataset_bin_medians(
            *flatten_samples(keys, flat_lists),
            NUM_PROBES, GRID.num_bins, counts_matrix, 3,
        )

    # Equivalence first, so the timings compare equal outputs.
    reference = run_reference()
    medians_matrix, valid = run_vector()
    for row, (medians, valid_bins) in enumerate(reference):
        assert np.array_equal(
            medians_matrix[row], medians, equal_nan=True
        )
        assert valid[row] == valid_bins

    reference_s = best_of(run_reference)
    vector_s = best_of(run_vector)
    speedup = record_kernel_bench("bin-medians", reference_s, vector_s)
    write_report(
        "kernels_bin_medians",
        f"{NUM_PROBES} probes x {PERIOD.days} days "
        f"({GRID.num_bins} bins, {TRACEROUTES_PER_BIN} traceroutes/"
        f"bin x {SAMPLES_PER_TRACEROUTE} samples)\n"
        f"reference: {reference_s * 1e3:.1f} ms\n"
        f"vector:    {vector_s * 1e3:.1f} ms\n"
        f"speedup:   {speedup:.2f}x",
    )
    assert speedup >= 3.0, (
        f"vector binning+median speedup {speedup:.2f}x below the "
        "3x bar"
    )


def test_perf_stack_delays(binned_dataset):
    """Queueing-delay stacking across the probe population."""
    ids = binned_dataset.probe_ids()

    def run_vector():
        delays, _dead = delay_matrix(
            np.stack([
                binned_dataset.series[p].median_rtt_ms for p in ids
            ]),
            np.stack([
                binned_dataset.series[p].traceroute_counts for p in ids
            ]),
            3,
        )
        return delays

    a = REFERENCE.stack_probe_delays(binned_dataset, ids, 3)
    assert np.array_equal(a, run_vector(), equal_nan=True)

    reference_s = best_of(
        lambda: REFERENCE.stack_probe_delays(binned_dataset, ids, 3)
    )
    vector_s = best_of(run_vector)
    speedup = record_kernel_bench("stack-delays", reference_s, vector_s)
    write_report(
        "kernels_stack_delays",
        f"{NUM_PROBES} probes x {GRID.num_bins} bins\n"
        f"reference: {reference_s * 1e3:.2f} ms\n"
        f"vector:    {vector_s * 1e3:.2f} ms\n"
        f"speedup:   {speedup:.2f}x",
    )
    assert speedup > 0


def test_perf_markers_batch(binned_dataset):
    """Welch marker extraction: one batched call vs per-signal FFTs."""
    rng = np.random.default_rng(2)
    t = np.arange(GRID.num_bins) / GRID.bins_per_day
    signals = [
        rng.uniform(0.2, 2.5) * (1 + np.sin(2 * np.pi * t))
        + rng.normal(0, 0.05, GRID.num_bins)
        for _ in range(100)
    ]

    assert (
        markers_batch(signals, GRID.bin_seconds)
        == REFERENCE.markers_batch(signals, GRID.bin_seconds)
    )

    reference_s = best_of(
        lambda: REFERENCE.markers_batch(signals, GRID.bin_seconds)
    )
    vector_s = best_of(
        lambda: markers_batch(signals, GRID.bin_seconds)
    )
    speedup = record_kernel_bench("markers-batch", reference_s, vector_s)
    write_report(
        "kernels_markers_batch",
        f"{len(signals)} signals x {GRID.num_bins} bins\n"
        f"reference: {reference_s * 1e3:.2f} ms\n"
        f"vector:    {vector_s * 1e3:.2f} ms\n"
        f"speedup:   {speedup:.2f}x",
    )
    assert speedup > 0


def reference_classify(dataset):
    """The per-AS survey loop on the oracle: reference queueing-delay
    rows and one ``nanmedian`` per AS, then per-signal markers."""
    groups = asns_with_min_probes(dataset.probe_meta, min_probes=3)
    signals = []
    for probe_ids in groups.values():
        stacked = REFERENCE.stack_probe_delays(dataset, probe_ids, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            signals.append(np.nanmedian(stacked, axis=0))
    markers = REFERENCE.markers_batch(signals, GRID.bin_seconds)
    return {
        asn: classify_markers(m) for asn, m in zip(groups, markers)
    }


def test_perf_classify_dataset_end_to_end():
    """Whole classify_dataset wall-clock against the oracle's loop."""
    rng = np.random.default_rng(3)
    from repro.atlas import ProbeMeta

    dataset = LastMileDataset(grid=GRID)
    t = np.arange(GRID.num_bins) / GRID.bins_per_day
    prb_id = 1
    for asn in range(100, 150):
        amplitude = rng.uniform(0.0, 2.5)
        for _ in range(4):
            medians = (
                rng.uniform(1.0, 3.0)
                + rng.normal(0, 0.05, GRID.num_bins)
                + amplitude * (1 + np.sin(2 * np.pi * t))
            )
            dataset.add(
                ProbeBinSeries(
                    prb_id=prb_id, median_rtt_ms=medians,
                    traceroute_counts=np.full(GRID.num_bins, 24),
                ),
                meta=ProbeMeta(
                    prb_id=prb_id, asn=asn, is_anchor=False,
                    public_address="20.0.0.1",
                ),
            )
            prb_id += 1

    reference = reference_classify(dataset)
    vector = classify_dataset(dataset, PERIOD)
    assert {
        asn: report.classification
        for asn, report in vector.reports.items()
    } == reference

    reference_s = best_of(
        lambda: reference_classify(dataset), repeats=3
    )
    vector_s = best_of(
        lambda: classify_dataset(dataset, PERIOD), repeats=3
    )
    speedup = record_kernel_bench(
        "classify-dataset", reference_s, vector_s
    )
    write_report(
        "kernels_classify_dataset",
        f"50 ASes x 4 probes x {PERIOD.days} days\n"
        f"reference: {reference_s * 1e3:.1f} ms\n"
        f"vector:    {vector_s * 1e3:.1f} ms\n"
        f"speedup:   {speedup:.2f}x\n"
        f"wrote {BENCH_KERNELS_JSON}",
    )
    assert BENCH_KERNELS_JSON.exists()
    # The flat survey pass replaces 2 x num_ases nanmedian calls and
    # per-AS Python stacking with one grouped-median kernel call; the
    # acceptance bar for that rewrite is 4x end to end.
    assert speedup >= 4.0, (
        f"classify-dataset flat pass regressed to {speedup:.2f}x "
        "(bar: 4x)"
    )
