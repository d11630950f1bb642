"""Unit behaviour of :class:`repro.stream.StreamingSurvey`.

The differential harness proves whole-survey equivalence; this file
pins the engine's own mechanics: the raw-traceroute ingest path
against :func:`repro.core.lastmile.estimate_probe_series`, watermark
and bin-close bookkeeping, stale/sparse accounting on the engine
ledger, incremental reclassification (only dirty ASes re-run), the
P² mode's tolerance on mixed bins, and the error paths.
"""

import datetime as dt

import numpy as np
import pytest

from repro.atlas import ProbeMeta
from repro.core import estimate_probe_series
from repro.obs import observed
from repro.quality import DataQualityReport, DropReason
from repro.stream import (
    ProbeRecord,
    SampleRecord,
    StreamingSurvey,
    TraceRecord,
    micro_batches,
)
from repro.timebase import MeasurementPeriod, TimeGrid
from tests.core.test_lastmile import hop, traceroute, typical_traceroute
from tests.stream.conftest import PERIOD

DAY = MeasurementPeriod("d", dt.datetime(2019, 9, 2), 1)
DAY_GRID = TimeGrid(DAY)


def meta(prb_id, asn):
    return ProbeMeta(
        prb_id=prb_id, asn=asn, is_anchor=False,
        public_address="20.0.0.1",
    )


def dirty_results():
    """The kernel suite's dirty traceroute mix: clean signal plus a
    NaN timestamp, an out-of-period clock, and a boundary-less path."""
    results = [
        typical_traceroute(timestamp=i * 200.0, public_rtt=3.0 + (i % 7))
        for i in range(120)
    ]
    results.append(typical_traceroute(timestamp=float("nan")))
    results.append(typical_traceroute(timestamp=-50.0))
    results.append(traceroute([
        hop(1, "192.168.1.1", [0.5] * 3),
        hop(2, "60.0.0.1", [float("nan")] * 3),
    ], timestamp=400.0))
    return results


class TestTraceIngestPath:
    def test_matches_batch_estimator_on_dirty_traceroutes(self):
        """Record-at-a-time raw ingest lands on the same series *and*
        the same quality ledger as the batch estimation stage."""
        results = dirty_results()
        batch_quality = DataQualityReport()
        batch = estimate_probe_series(
            results, DAY_GRID, quality=batch_quality
        )

        engine = StreamingSurvey(DAY)
        for result in results:
            engine.ingest(TraceRecord(result))
        engine.close_through(DAY_GRID.num_bins - 1)
        series = engine.dataset().series[1]

        assert np.array_equal(
            series.median_rtt_ms, batch.median_rtt_ms, equal_nan=True
        )
        assert np.array_equal(
            series.traceroute_counts, batch.traceroute_counts
        )
        assert engine.scan_quality.to_dict() == batch_quality.to_dict()

    def test_boundary_less_not_degraded_when_stale(self):
        """A boundary-less traceroute against a *closed* bin is a
        stale drop, not a NO_BOUNDARY degrade — the batch ledger
        books the degrade only for counted records."""
        engine = StreamingSurvey(DAY)
        engine.advance_watermark(DAY_GRID.bin_seconds)  # close bin 0
        engine.ingest(TraceRecord(traceroute([
            hop(1, "192.168.1.1", [0.5] * 3),
            hop(2, "60.0.0.1", [float("nan")] * 3),
        ], timestamp=10.0)))
        assert engine.stale_records == 1
        assert engine.scan_quality.degraded_count(
            DropReason.NO_BOUNDARY
        ) == 0
        assert engine.engine_quality.dropped_count(
            DropReason.STALE_RECORD
        ) == 1


class TestBinLifecycle:
    def test_stale_sample_dropped_not_counted(self):
        engine = StreamingSurvey(DAY)
        engine.ingest(SampleRecord(1, 0, (2.0,)))
        engine.advance_watermark(DAY_GRID.bin_seconds)
        engine.ingest(SampleRecord(1, 0, (9.0,)))
        assert engine.stale_records == 1
        assert int(engine.dataset().series[1].traceroute_counts[0]) == 1

    def test_sparse_bin_stays_nan_and_is_booked(self):
        engine = StreamingSurvey(DAY)
        for _ in range(2):  # below MIN_TRACEROUTES_PER_BIN
            engine.ingest(SampleRecord(1, 0, (4.0,)))
        for _ in range(3):  # at the threshold
            engine.ingest(SampleRecord(1, 1, (6.0,)))
        engine.close_through(1)
        series = engine.dataset().series[1]
        assert np.isnan(series.median_rtt_ms[0])
        assert series.median_rtt_ms[1] == 6.0
        assert engine.sparse_bins == 1
        assert engine.engine_quality.degraded_count(
            DropReason.SPARSE_BIN
        ) == 1

    def test_watermark_closes_elapsed_bins_only(self):
        engine = StreamingSurvey(DAY)
        engine.ingest(SampleRecord(1, 0, (1.0, 2.0, 3.0)))
        engine.ingest(SampleRecord(1, 1, (1.0, 2.0, 3.0)))
        assert engine.advance_watermark(0) == 0
        assert engine.closed_through == -1
        assert engine.advance_watermark(DAY_GRID.bin_seconds) == 1
        assert engine.closed_through == 0
        assert engine.open_bins() == 1
        # A watermark far past the period clamps to the last bin.
        engine.advance_watermark(10 * 24 * 3600.0)
        assert engine.closed_through == DAY_GRID.num_bins - 1
        assert engine.open_bins() == 0
        # Re-closing is a no-op.
        assert engine.close_through(5) == 0

    def test_finalize_is_idempotent(self):
        engine = StreamingSurvey(DAY)
        engine.ingest(SampleRecord(1, 0, (1.0,)))
        assert engine.finalize() is engine.finalize()
        assert engine.status()["finalized"]


class TestIncrementalReclassification:
    def seed_two_ases(self, engine):
        for prb_id in (1, 2, 3):
            engine.ingest(ProbeRecord(prb_id, meta=meta(prb_id, 100)))
        for prb_id in (4, 5, 6):
            engine.ingest(ProbeRecord(prb_id, meta=meta(prb_id, 200)))
        for prb_id in range(1, 7):
            for bin_index in range(DAY_GRID.num_bins):
                engine.ingest(SampleRecord(
                    prb_id, bin_index, (2.0, 3.0, 4.0)
                ))

    def test_only_dirty_ases_rerun(self):
        with observed() as obs:
            engine = StreamingSurvey(DAY)
            self.seed_two_ases(engine)
            counter = obs.metrics.counter(
                "stream_reclassified_total", "", ()
            )
            engine.emit_partial()
            assert counter.value() == 2
            # Nothing changed: the cache answers, nothing re-runs.
            engine.emit_partial()
            assert counter.value() == 2
            # One new observation dirties exactly one AS.
            engine.ingest(SampleRecord(1, 0, (5.0,)))
            engine.emit_partial()
            assert counter.value() == 3

    def test_partial_then_final_surveys_are_consistent(self):
        engine = StreamingSurvey(DAY)
        self.seed_two_ases(engine)
        partial = engine.emit_partial()
        final = engine.finalize()
        assert set(partial.reports) | set(partial.failures) == {100, 200}
        assert set(final.reports) | set(final.failures) == {100, 200}


class TestApproximateTolerance:
    def test_p2_bin_median_within_one_sd_of_exact(self):
        """On mixed samples within a bin (the case decomposed replays
        never produce) the P² estimate stays within the documented
        one-standard-deviation tolerance of the exact median."""
        rng = np.random.default_rng(42)
        sd = 2.0
        exact = StreamingSurvey(DAY)
        approx = StreamingSurvey(DAY, approximate=True)
        for bin_index in range(4):
            samples = rng.normal(10.0, sd, 60)
            for value in samples:
                record = SampleRecord(1, bin_index, (float(value),))
                exact.ingest(record)
                approx.ingest(record)
        exact.close_through(3)
        approx.close_through(3)
        a = exact.dataset().series[1].median_rtt_ms[:4]
        b = approx.dataset().series[1].median_rtt_ms[:4]
        assert np.all(np.isfinite(a)) and np.all(np.isfinite(b))
        assert np.max(np.abs(a - b)) <= sd


class TestRecordsAndErrors:
    def test_untracked_probe_visible_to_filter_only(self):
        engine = StreamingSurvey(DAY)
        engine.ingest(ProbeRecord(9, meta=meta(9, 300), tracked=False))
        dataset = engine.dataset()
        assert 9 in dataset.probe_meta
        assert 9 not in dataset.series

    def test_ingest_after_finalize_rejected(self):
        engine = StreamingSurvey(DAY)
        engine.finalize()
        with pytest.raises(ValueError, match="finalized"):
            engine.ingest(SampleRecord(1, 0, (1.0,)))

    def test_unknown_record_type_rejected(self):
        with pytest.raises(TypeError, match="not a stream record"):
            StreamingSurvey(DAY).ingest({"prb_id": 1})

    def test_out_of_grid_bin_rejected(self):
        engine = StreamingSurvey(DAY)
        with pytest.raises(ValueError, match="outside grid"):
            engine.ingest(SampleRecord(1, DAY_GRID.num_bins, (1.0,)))

    def test_micro_batch_size_validated(self):
        with pytest.raises(ValueError, match="positive"):
            list(micro_batches([SampleRecord(1, 0)], 0))

    def test_status_snapshot(self):
        engine = StreamingSurvey(PERIOD)
        engine.ingest(ProbeRecord(1, meta=meta(1, 100)))
        engine.ingest(SampleRecord(1, 0, (1.0,)))
        status = engine.status()
        assert status["period"] == PERIOD.name
        assert status["mode"] == "exact"
        assert "kernel" not in status
        assert status["records_ingested"] == 2
        assert status["probes"] == 1
        assert status["open_bins"] == 1
        assert not status["finalized"]
