"""Pipeline-level differential suite: the single path vs the pinned
reference output.

Before the per-item reference loops were demoted to a test oracle,
they ran as a selectable pipeline backend; the outputs they produced
on every world below — seeded worlds, fault-injected datasets,
degenerate inputs (all-NaN bins, single-probe ASes, empty periods),
kept signals, stage-level aggregates and dirty traceroutes — were
frozen into ``tests/golden/differential_golden.json`` after checking
that the vectorized backend agreed byte for byte.  This suite holds
the one remaining pipeline path to those bytes, on the serial path
and through the sharded executor.  The kernel-level properties
(``test_kernel_properties``, ``test_flat_pass``) keep comparing the
production functions with the live oracle.  This file also runs in
the CI chaos leg under ``-W error::RuntimeWarning``: the kernels must
stay warning-silent on degenerate data, like the reference loops.
"""

import datetime as dt

import numpy as np
import pytest

from repro.atlas import ProbeMeta
from repro.core import LastMileDataset, ProbeBinSeries
from repro.faults import BinLoss, NaNBursts, PoisonAS
from repro.parallel import WORKERS_ENV
from repro.timebase import MeasurementPeriod, TimeGrid
from tests.golden.regenerate import (
    DIFFERENTIAL_WORLDS as WORLDS,
    canonical_world,
    pinned_world,
)

PERIOD = MeasurementPeriod("2019-09", dt.datetime(2019, 9, 2), 4)
GRID = TimeGrid(PERIOD)


def assert_pinned(name, value, part=None):
    """``value`` serializes to exactly the pinned bytes of ``name``
    (of its ``part`` entry, when given)."""
    pinned = pinned_world(name)
    if part is not None:
        pinned = pinned[part]
    assert canonical_world(value) == canonical_world(pinned)


@pytest.fixture(autouse=True)
def _pin_environment(monkeypatch):
    """Neutralize the CI matrix knob: every run in this file selects
    its execution mode explicitly."""
    monkeypatch.delenv(WORKERS_ENV, raising=False)


def make_faults():
    """Bin loss, NaN bursts and one poisoned AS."""
    return [
        BinLoss(rate=0.05),
        NaNBursts(probe_rate=0.3),
        PoisonAS(count=1),
    ]


def synthetic_dataset(num_ases=8, probes_per_asn=4, seed=0):
    rng = np.random.default_rng(seed)
    dataset = LastMileDataset(grid=GRID)
    t = np.arange(GRID.num_bins) / GRID.bins_per_day
    prb_id = 1
    for asn in range(100, 100 + num_ases):
        amplitude = rng.uniform(0.0, 2.5)
        for _ in range(probes_per_asn):
            medians = (
                rng.uniform(1.0, 3.0)
                + rng.normal(0, 0.05, GRID.num_bins)
                + amplitude * (1 + np.sin(2 * np.pi * t))
            )
            dataset.add(
                ProbeBinSeries(
                    prb_id=prb_id,
                    median_rtt_ms=medians,
                    traceroute_counts=np.full(GRID.num_bins, 24),
                ),
                meta=ProbeMeta(
                    prb_id=prb_id, asn=asn, is_anchor=False,
                    public_address="20.0.0.1",
                ),
            )
            prb_id += 1
    return dataset


def degenerate_dataset():
    """Every degenerate corner in one dataset: an AS of all-NaN
    probes, a single-probe AS, a constant (flat) AS, an AS with one
    dead probe, and a probe whose counts never reach the sanity
    threshold."""
    dataset = LastMileDataset(grid=GRID)
    bins = GRID.num_bins
    t = np.arange(bins) / GRID.bins_per_day

    def add(prb_id, asn, medians, counts):
        dataset.add(
            ProbeBinSeries(
                prb_id=prb_id, median_rtt_ms=medians,
                traceroute_counts=counts,
            ),
            meta=ProbeMeta(
                prb_id=prb_id, asn=asn, is_anchor=False,
                public_address="20.0.0.1",
            ),
        )

    full = np.full(bins, 24)
    # AS 200: every probe all-NaN (dead population -> degenerate).
    for prb_id in (1, 2, 3):
        add(prb_id, 200, np.full(bins, np.nan), full)
    # AS 201: single probe with a clean daily signal.
    add(4, 201, 2.0 + 1.5 * (1 + np.sin(2 * np.pi * t)), full)
    # AS 202: perfectly constant signal (flat -> classified None).
    for prb_id in (5, 6, 7):
        add(prb_id, 202, np.full(bins, 3.25), full)
    # AS 203: one healthy probe, one all-NaN, one below the
    # traceroute sanity threshold everywhere.
    add(8, 203, 1.0 + np.sin(2 * np.pi * t), full)
    add(9, 203, np.full(bins, np.nan), full)
    add(10, 203, np.full(bins, 2.0), np.full(bins, 2))
    # AS 204: NaN mixed *within* bins-with-samples is impossible at
    # this layer, but half-NaN series exercise the nanmedian path.
    for prb_id in (11, 12, 13):
        medians = 2.0 + 0.5 * np.sin(2 * np.pi * t)
        medians[prb_id::3] = np.nan
        add(prb_id, 204, medians, full)
    return dataset


def dirty_traceroutes():
    """A day of clean traceroutes plus a NaN timestamp, an
    out-of-period clock and an all-NaN public hop."""
    from tests.core.test_lastmile import (
        hop,
        traceroute,
        typical_traceroute,
    )

    results = [
        typical_traceroute(
            timestamp=i * 200.0, public_rtt=3.0 + (i % 7)
        )
        for i in range(120)
    ]
    results.append(typical_traceroute(timestamp=float("nan")))
    results.append(typical_traceroute(timestamp=-50.0))
    results.append(traceroute([
        hop(1, "192.168.1.1", [0.5] * 3),
        hop(2, "60.0.0.1", [float("nan")] * 3),
    ], timestamp=400.0))
    return results


class TestSeededWorldEquivalence:
    def test_serial_survey_identical(self):
        survey = WORLDS["seeded-survey"]()
        assert_pinned("seeded-survey", survey)
        assert len(survey["reports"]) == 10

    def test_sharded_vector_matches_serial_reference(self):
        assert_pinned(
            "seeded-survey", WORLDS["seeded-survey"](workers=3)
        )


class TestFaultedEquivalence:
    def test_faulted_survey_identical(self):
        faulted = WORLDS["faulted-survey"]()
        assert_pinned("faulted-survey", faulted)
        assert faulted["survey"]["failures"], (
            "PoisonAS should fail one AS"
        )

    def test_faulted_sharded_vector_identical(self):
        sharded = WORLDS["faulted-survey"](workers=4)
        assert_pinned("faulted-survey", sharded["survey"], "survey")


class TestDegenerateEquivalence:
    def test_degenerate_dataset_identical(self):
        survey = WORLDS["degenerate-survey"]()["survey"]
        assert_pinned("degenerate-survey", survey, "survey")
        # The flat and dead ASes really exercised the degenerate path.
        assert survey["reports"]["202"]["severity"] == "none"
        assert survey["reports"]["200"]["severity"] == "none"

    def test_single_probe_asn_identical(self):
        survey = WORLDS["single-probe-survey"]()
        assert_pinned("single-probe-survey", survey)
        assert "201" in survey["reports"]

    def test_empty_period_identical(self):
        """A dataset with no probes at all: an empty survey, not an
        error."""
        survey = WORLDS["empty-survey"]()
        assert_pinned("empty-survey", survey)
        assert survey["reports"] == {}
        assert survey["failures"] == {}

    def test_quality_ledgers_identical(self):
        """The full ledger, quarantine samples and their order
        included."""
        ledger = WORLDS["degenerate-survey"]()["quality"]
        assert_pinned("degenerate-survey", ledger, "quality")

    def test_kept_signals_identical(self):
        assert_pinned("kept-signals", WORLDS["kept-signals"]())


class TestStageLevelEquivalence:
    def test_aggregate_identical_on_degenerates(self):
        assert_pinned(
            "degenerate-aggregates", WORLDS["degenerate-aggregates"]()
        )

    def test_estimation_identical_on_dirty_traceroutes(self):
        assert_pinned(
            "dirty-estimation", WORLDS["dirty-estimation"]()
        )
