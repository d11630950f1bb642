"""Differential tests for the flat survey pass primitives.

``repro.core.kernels.flat`` re-derives every stage of the survey —
the traceroute scan, per-probe bin medians, queueing-delay rows, and
per-AS population medians — from flat arrays.  Each primitive must be
*bit-identical* to its reference twin; this suite proves it at the
primitive level (the end-to-end guarantee lives in
``test_differential.py``), including the dirty inputs the reference
scan's quality accounting was written for.
"""

import datetime as dt

import numpy as np
import pytest

from repro.core.aggregate import probe_queuing_delay
from repro.core.kernels.flat import (
    _CUBE_MAX_ELEMENTS,
    delay_matrix,
    dataset_matrices,
    population_median_pass,
    scan_lastmile_flat,
)
from repro.core.kernels.vector import dataset_bin_medians
from repro.core.lastmile import (
    MIN_TRACEROUTES_PER_BIN,
    estimate_probe_series,
    lastmile_samples,
)
from repro.core.series import ProbeBinSeries
from repro.timebase import MeasurementPeriod, TimeGrid

from tests.core.test_lastmile import hop, traceroute, typical_traceroute
from tests.kernels.oracle import reference_population_medians
from tests.kernels.test_differential import (
    degenerate_dataset,
    synthetic_dataset,
)

DAY = MeasurementPeriod("flat-day", dt.datetime(2019, 9, 2), 1)
GRID = TimeGrid(DAY)


def dirty_results():
    """Every scan edge in one result list, in a deliberate order so
    quality-ledger ordering is exercised too."""
    results = [
        typical_traceroute(timestamp=i * 137.0, public_rtt=2.0 + i % 5)
        for i in range(40)
    ]
    results.append(typical_traceroute(timestamp=float("nan")))
    results.append(typical_traceroute(timestamp=-1.0))
    results.append(
        typical_traceroute(timestamp=GRID.num_bins * GRID.bin_seconds + 5.0)
    )
    # Exactly at the period edge: bin index clamps to the last bin.
    results.append(
        typical_traceroute(
            timestamp=float(GRID.num_bins * GRID.bin_seconds)
        )
    )
    # All public replies timed out -> NO_BOUNDARY degrade.
    results.append(traceroute([
        hop(1, "192.168.1.1", [0.4] * 3),
        hop(2, "60.0.0.1", [None] * 3),
    ], timestamp=90.0))
    # Public replies NaN / negative -> filtered, NO_BOUNDARY.
    results.append(traceroute([
        hop(1, "192.168.1.1", [0.4] * 3),
        hop(2, "60.0.0.1", [float("nan"), None, float("inf")]),
    ], timestamp=150.0))
    # Anchor-style: no private hop, public replies are the samples.
    results.append(traceroute([
        hop(1, "60.0.0.2", [5.0, 6.0, 7.0]),
    ], timestamp=300.0))
    # Asymmetric reply counts: 2 public x 3 private pairs.
    results.append(traceroute([
        hop(1, "10.0.0.1", [0.2, 0.3, 0.4]),
        hop(2, "60.0.0.3", [3.0, None, 4.0]),
    ], timestamp=420.0))
    # Private hop only -> no boundary at all.
    results.append(traceroute([
        hop(1, "192.168.1.1", [0.5] * 3),
    ], timestamp=500.0))
    return results


class TestFlatScan:
    def test_samples_match_reference_per_traceroute(self):
        """The flat scan's (bin, value) samples equal the reference
        ``lastmile_samples`` output, traceroute by traceroute."""
        results = dirty_results()
        scan = scan_lastmile_flat(results, GRID)

        expected_bins, expected_values = [], []
        duration = GRID.num_bins * GRID.bin_seconds
        pair_chunks, anchor_chunks = [], []
        for r in results:
            ts = r.timestamp
            if not np.isfinite(ts) or ts < 0 or ts > duration:
                continue
            samples = lastmile_samples(r)
            if not samples:
                continue
            b = int(GRID.bin_index(ts))
            has_private = any(
                h.responding_address
                and h.responding_address.startswith(("192.168", "10."))
                for h in r.hops
            )
            (pair_chunks if has_private else anchor_chunks).append(
                (b, samples)
            )
        # Flat layout: all pairwise chunks first, anchors after.
        for b, samples in pair_chunks + anchor_chunks:
            expected_bins.extend([b] * len(samples))
            expected_values.extend(samples)

        assert scan.processed == len(results)
        np.testing.assert_array_equal(
            scan.sample_bins, np.asarray(expected_bins, dtype=np.int64)
        )
        np.testing.assert_array_equal(
            scan.sample_values, np.asarray(expected_values)
        )

    def test_quality_ledger_matches_reference_estimation(self):
        """Series and full ledger equal what the reference estimation
        produced on these results (pinned in
        ``tests/golden/differential_golden.json``)."""
        from tests.golden.regenerate import DIFFERENTIAL_WORLDS
        from tests.kernels.test_differential import assert_pinned

        assert_pinned(
            "flat-pass-estimation",
            DIFFERENTIAL_WORLDS["flat-pass-estimation"](),
        )

    def test_empty_results_with_prb_id(self):
        scan = scan_lastmile_flat([], GRID, prb_id=77)
        assert scan.prb_id == 77
        assert scan.processed == 0
        assert scan.sample_bins.size == 0
        assert scan.sample_values.size == 0

    def test_empty_results_without_prb_id_raises_upstream(self):
        with pytest.raises(ValueError):
            estimate_probe_series([], GRID)

    def test_counts_accumulate_into_caller_array(self):
        counts = np.zeros(GRID.num_bins, dtype=np.int64)
        scan_lastmile_flat(
            [typical_traceroute(timestamp=10.0)] * 3, GRID,
            counts=counts,
        )
        assert counts[0] == 3
        assert counts.sum() == 3


def flat_bin_medians(sample_bins, sample_values, counts, num_bins,
                     min_traceroutes):
    """One probe's bin medians through the whole-dataset kernel."""
    medians, estimated = dataset_bin_medians(
        sample_bins, sample_values, 1, num_bins, counts[None, :],
        min_traceroutes,
    )
    return medians[0], int(estimated[0])


class TestFlatBinMedians:
    def test_matches_numpy_median_per_bin(self):
        rng = np.random.default_rng(11)
        n = 500
        bins = rng.integers(0, GRID.num_bins, n).astype(np.int64)
        values = rng.normal(5.0, 2.0, n)
        counts = rng.integers(0, 6, GRID.num_bins).astype(np.int64)
        medians, estimated = flat_bin_medians(
            bins, values, counts, GRID.num_bins,
            MIN_TRACEROUTES_PER_BIN,
        )
        expected = np.full(GRID.num_bins, np.nan)
        n_est = 0
        for b in range(GRID.num_bins):
            members = values[bins == b]
            if len(members) and counts[b] >= MIN_TRACEROUTES_PER_BIN:
                expected[b] = np.median(members)
                n_est += 1
        np.testing.assert_array_equal(medians, expected)
        assert estimated == n_est

    def test_empty_samples(self):
        medians, estimated = flat_bin_medians(
            np.zeros(0, dtype=np.int64), np.zeros(0),
            np.zeros(GRID.num_bins, dtype=np.int64),
            GRID.num_bins, MIN_TRACEROUTES_PER_BIN,
        )
        assert np.isnan(medians).all()
        assert estimated == 0


class TestDelayMatrix:
    def test_rows_equal_probe_queuing_delay(self):
        for dataset in (synthetic_dataset(seed=2), degenerate_dataset()):
            index, medians, counts = dataset_matrices(dataset)
            delays, dead = delay_matrix(
                medians, counts, MIN_TRACEROUTES_PER_BIN
            )
            for prb_id, row in index.items():
                series = dataset.series[prb_id]
                expected = probe_queuing_delay(
                    series, MIN_TRACEROUTES_PER_BIN
                )
                np.testing.assert_array_equal(delays[row], expected)
                assert dead[row] == bool(np.isnan(expected).all())

    def test_dataset_matrices_row_order_is_sorted_ids(self):
        dataset = synthetic_dataset(num_ases=3, seed=9)
        index, medians, counts = dataset_matrices(dataset)
        ids = dataset.probe_ids()
        assert list(index) == ids
        assert [index[p] for p in ids] == list(range(len(ids)))
        np.testing.assert_array_equal(
            medians[index[ids[0]]],
            dataset.series[ids[0]].median_rtt_ms,
        )


class TestPopulationMedianPass:
    def _random_case(self, seed, num_probes=40, num_bins=48):
        rng = np.random.default_rng(seed)
        delays = rng.normal(2.0, 1.0, (num_probes, num_bins))
        delays[rng.random((num_probes, num_bins)) < 0.3] = np.nan
        delays[0] = np.nan  # one fully-dead probe row
        groups = []
        start = 0
        while start < num_probes:
            size = int(rng.integers(1, 7))
            groups.append(
                np.arange(start, min(start + size, num_probes),
                          dtype=np.int64)
            )
            start += size
        return delays, groups

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_bit_identical_to_nanmedian(self, seed):
        delays, groups = self._random_case(seed)
        got_m, got_c = population_median_pass(delays, groups)
        exp_m, exp_c = reference_population_medians(delays, groups)
        np.testing.assert_array_equal(got_m, exp_m)
        np.testing.assert_array_equal(got_c, exp_c)

    def test_keyed_fallback_bit_identical(self, monkeypatch):
        """Above the cube cap the keyed grouped-median fallback must
        produce the same bits."""
        import repro.core.kernels.flat as flat_mod

        delays, groups = self._random_case(5)
        cube_m, cube_c = population_median_pass(delays, groups)
        monkeypatch.setattr(flat_mod, "_CUBE_MAX_ELEMENTS", 0)
        keyed_m, keyed_c = population_median_pass(delays, groups)
        np.testing.assert_array_equal(keyed_m, cube_m)
        np.testing.assert_array_equal(keyed_c, cube_c)
        exp_m, exp_c = reference_population_medians(delays, groups)
        np.testing.assert_array_equal(keyed_m, exp_m)
        np.testing.assert_array_equal(keyed_c, exp_c)

    def test_duplicate_rows_stack_twice(self):
        """``aggregate_population`` stacks a probe requested twice
        twice; the flat pass must too."""
        delays, _ = self._random_case(6, num_probes=4)
        rows = np.array([1, 1, 2], dtype=np.int64)
        got_m, got_c = population_median_pass(delays, [rows])
        exp_m, exp_c = reference_population_medians(delays, [rows])
        np.testing.assert_array_equal(got_m, exp_m)
        np.testing.assert_array_equal(got_c, exp_c)

    def test_no_groups(self):
        delays = np.zeros((3, 8))
        medians, contributing = population_median_pass(delays, [])
        assert medians.shape == (0, 8)
        assert contributing.shape == (0, 8)

    def test_all_nan_group_yields_nan(self):
        delays = np.full((2, 6), np.nan)
        medians, contributing = population_median_pass(
            delays, [np.array([0, 1], dtype=np.int64)]
        )
        assert np.isnan(medians).all()
        assert (contributing == 0).all()

    def test_cube_cap_is_sane(self):
        assert _CUBE_MAX_ELEMENTS >= 1_000_000
