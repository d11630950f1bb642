"""Tests for survey orchestration (§3)."""

import datetime as dt

import numpy as np
import pytest

from repro.apnic import EyeballRanking
from repro.atlas import ProbeMeta
from repro.core import (
    LastMileDataset,
    ProbeBinSeries,
    Severity,
    SurveySuite,
    breakdown_by_rank,
    breakdown_percentages,
    classify_dataset,
    geographic_distribution,
)
from repro.netbase import ASInfo, ASRegistry, ASRole
from repro.timebase import MeasurementPeriod, TimeGrid

PERIOD = MeasurementPeriod("2019-09", dt.datetime(2019, 9, 1), 15)


def synthetic_dataset(congested_asns, quiet_asns, probes_per_asn=4,
                      amplitude=1.5, seed=0):
    """Dataset where given ASes have clean daily congestion."""
    grid = TimeGrid(PERIOD)
    rng = np.random.default_rng(seed)
    dataset = LastMileDataset(grid=grid)
    t = np.arange(grid.num_bins) / grid.bins_per_day
    prb_id = 1
    for asn_list, congested in ((congested_asns, True), (quiet_asns, False)):
        for asn in asn_list:
            for _ in range(probes_per_asn):
                base = rng.uniform(1.0, 3.0)
                medians = base + rng.normal(0, 0.05, grid.num_bins)
                if congested:
                    medians = medians + amplitude * (
                        1 + np.sin(2 * np.pi * t)
                    )
                dataset.add(
                    ProbeBinSeries(
                        prb_id=prb_id,
                        median_rtt_ms=medians,
                        traceroute_counts=np.full(grid.num_bins, 24),
                    ),
                    meta=ProbeMeta(
                        prb_id=prb_id, asn=asn, is_anchor=False,
                        public_address="20.0.0.1",
                    ),
                )
                prb_id += 1
    return dataset


class TestClassifyDataset:
    def test_detects_congested_asns(self):
        dataset = synthetic_dataset([100, 200], [300, 400, 500])
        result = classify_dataset(dataset, PERIOD)
        assert result.monitored_count == 5
        assert result.reported_asns() == [100, 200]
        assert result.none_fraction() == pytest.approx(0.6)

    def test_min_probes_enforced(self):
        dataset = synthetic_dataset([100], [], probes_per_asn=2)
        result = classify_dataset(dataset, PERIOD, min_probes=3)
        assert result.monitored_count == 0

    def test_severity_scales_with_amplitude(self):
        # amplitude A -> sine peak-to-peak 2A
        mild = classify_dataset(
            synthetic_dataset([1], [], amplitude=0.8), PERIOD
        )
        severe = classify_dataset(
            synthetic_dataset([1], [], amplitude=2.5), PERIOD
        )
        assert mild.reports[1].severity == Severity.MILD
        assert severe.reports[1].severity == Severity.SEVERE

    def test_severity_counts_and_lists(self):
        dataset = synthetic_dataset([100], [300])
        result = classify_dataset(dataset, PERIOD)
        counts = result.severity_counts()
        assert counts[Severity.NONE] == 1
        assert sum(counts.values()) == 2
        assert result.asns_with_severity(Severity.NONE) == [300]

    def test_markers_exposed(self):
        dataset = synthetic_dataset([100], [])
        result = classify_dataset(dataset, PERIOD)
        freqs = result.prominent_frequencies()
        amps = result.daily_amplitudes()
        assert freqs.shape == (1,)
        assert freqs[0] == pytest.approx(1 / 24, rel=0.01)
        assert amps[0] > 1.0


class TestSurveySuite:
    def build_suite(self):
        suite = SurveySuite()
        suite.add(classify_dataset(
            synthetic_dataset([100, 200], [300], seed=1), PERIOD
        ))
        second = MeasurementPeriod("2020-04", dt.datetime(2020, 4, 1), 15)
        suite.add(classify_dataset(
            synthetic_dataset([100, 200, 400], [300], seed=2), second
        ))
        return suite

    def test_average_reported(self):
        suite = self.build_suite()
        assert suite.average_reported() == pytest.approx(2.5)

    def test_recurrent_asns(self):
        suite = self.build_suite()
        assert suite.recurrent_asns(min_fraction=1.0) == [100, 200]
        assert suite.recurrent_asns(min_fraction=0.5) == [100, 200, 400]

    def test_reported_increase(self):
        suite = self.build_suite()
        before, after, increase = suite.reported_increase(
            "2019-09", "2020-04"
        )
        assert (before, after) == (2, 3)
        assert increase == pytest.approx(0.5)

    def test_empty_suite(self):
        suite = SurveySuite()
        assert np.isnan(suite.average_reported())
        assert suite.recurrent_asns() == []

    def test_empty_suite_churn_defined(self):
        """Churn over periods the suite never saw is NaN, not a raise."""
        suite = SurveySuite()
        assert np.isnan(suite.churn_between("2019-09", "2020-04"))
        assert np.isnan(suite.mean_consecutive_similarity())

    def test_single_period_suite_degrades_gracefully(self):
        suite = SurveySuite()
        suite.add(classify_dataset(
            synthetic_dataset([100, 200], [300], seed=1), PERIOD
        ))
        assert np.isnan(suite.churn_between("2019-09", "2020-04"))
        assert np.isnan(suite.mean_consecutive_similarity())
        assert suite.recurrent_asns(min_fraction=1.0) == [100, 200]
        assert suite.average_reported() == pytest.approx(2.0)

    def test_churn_missing_period_is_nan(self):
        """One known and one unknown period name: still NaN."""
        suite = self.build_suite()
        assert np.isnan(suite.churn_between("2019-09", "2021-01"))
        assert np.isnan(suite.churn_between("2021-01", "2020-04"))

    def test_churn_between_known_periods(self):
        suite = self.build_suite()
        # {100, 200} vs {100, 200, 400}: Jaccard 2/3.
        assert suite.churn_between("2019-09", "2020-04") == (
            pytest.approx(2 / 3)
        )
        assert suite.mean_consecutive_similarity() == (
            pytest.approx(2 / 3)
        )


class TestBreakdowns:
    def ranking(self):
        registry = ASRegistry()
        # Top-ranked AS 100 (big), mid AS 300, small AS 200.
        registry.register(ASInfo(100, "Big", "JP", ASRole.EYEBALL,
                                 subscribers=10_000_000))
        registry.register(ASInfo(300, "Mid", "US", ASRole.EYEBALL,
                                 subscribers=100_000))
        registry.register(ASInfo(200, "Small", "JP", ASRole.EYEBALL,
                                 subscribers=5_000))
        return EyeballRanking.from_registry(registry)

    def test_breakdown_by_rank(self):
        dataset = synthetic_dataset([100], [200, 300])
        result = classify_dataset(dataset, PERIOD)
        breakdown = breakdown_by_rank(result, self.ranking())
        bucket = breakdown["1 to 10"]
        assert sum(bucket.values()) == 3  # all 3 in top-10 of tiny world
        reported = sum(
            count for severity, count in bucket.items()
            if severity.is_reported
        )
        assert reported == 1

    def test_percentages_sum_to_100(self):
        dataset = synthetic_dataset([100], [200, 300])
        result = classify_dataset(dataset, PERIOD)
        pct = breakdown_percentages(
            breakdown_by_rank(result, self.ranking())
        )
        total = sum(v for bucket in pct.values() for v in bucket.values())
        assert total == pytest.approx(100.0)

    def test_percentages_empty(self):
        pct = breakdown_percentages(
            {label: {s: 0 for s in Severity}
             for label, _r in [("1 to 10", None)]}
        )
        assert pct["1 to 10"][Severity.NONE] == 0.0

    def test_geographic_distribution(self):
        dataset = synthetic_dataset([100, 200], [300])
        result = classify_dataset(dataset, PERIOD)
        geo = geographic_distribution([result], self.ranking())
        assert geo == {"JP": 2}

    def test_geographic_by_severity(self):
        dataset = synthetic_dataset([100], [300], amplitude=2.5)
        result = classify_dataset(dataset, PERIOD)
        geo = geographic_distribution(
            [result], self.ranking(), severity=Severity.SEVERE
        )
        assert geo == {"JP": 1}


class TestFailureIsolation:
    def poisoned_dataset(self):
        """AS 200's probes: metadata present, series stripped."""
        dataset = synthetic_dataset([100], [200, 300])
        for prb_id, meta in dataset.probe_meta.items():
            if meta.asn == 200:
                dataset.series.pop(prb_id, None)
        return dataset

    def test_poisoned_as_isolated(self):
        result = classify_dataset(self.poisoned_dataset(), PERIOD)
        assert result.failed_asns() == [200]
        assert sorted(result.reports) == [100, 300]
        assert result.reported_asns() == [100]
        failure = result.failures[200]
        assert failure.error == "EmptyPopulationError"
        assert failure.attempts == 1
        assert "AS200" in str(failure)

    def test_failure_counted_on_ledger(self):
        from repro.quality import DropReason

        result = classify_dataset(self.poisoned_dataset(), PERIOD)
        assert result.quality.dropped_count(
            DropReason.AS_FAILURE
        ) == 1

    def test_transient_fault_retried(self, monkeypatch):
        from repro.core import survey as survey_module
        from repro.netbase import TransientFaultError

        real = survey_module._gather_population
        calls = {"n": 0}

        def flaky(*args):
            calls["n"] += 1
            if calls["n"] == 1:
                raise TransientFaultError("simulated blip")
            return real(*args)

        monkeypatch.setattr(survey_module, "_gather_population", flaky)
        dataset = synthetic_dataset([100], [])
        result = classify_dataset(dataset, PERIOD, max_attempts=2)
        assert calls["n"] == 2
        assert not result.failures
        assert result.reported_asns() == [100]

    def test_transient_fault_exhausts_retries(self, monkeypatch):
        from repro.core import survey as survey_module
        from repro.netbase import TransientFaultError

        def always_flaky(*args):
            raise TransientFaultError("persistent blip")

        monkeypatch.setattr(
            survey_module, "_gather_population", always_flaky
        )
        dataset = synthetic_dataset([100], [])
        result = classify_dataset(dataset, PERIOD, max_attempts=3)
        assert result.failed_asns() == [100]
        assert result.failures[100].attempts == 3

    def test_degenerate_signal_noted_not_failed(self):
        """All-NaN series: markers None, classified None, not a failure."""
        from repro.quality import DropReason

        dataset = synthetic_dataset([], [300])
        for series in dataset.series.values():
            series.median_rtt_ms[:] = np.nan
        result = classify_dataset(dataset, PERIOD)
        assert not result.failures
        assert result.reports[300].severity == Severity.NONE
        assert result.quality.degraded_count(
            DropReason.DEGENERATE_SIGNAL
        ) == 1
