"""E14 — anomaly-pipeline benchmarks (not a paper figure).

Times the per-link differential-median stage — the anomaly detector's
hottest loop — against the reference oracle's per-link loop at survey
scale (400 links x
7 days x 3 traceroutes/bin x 9 differential samples) and writes the
results as machine-readable ``BENCH_anomaly.json`` at the repo root::

    {"link-medians": {"links": ..., "reference_ms": ...,
                      "vector_ms": ..., "speedup": ...},
     "detect": {"links": ..., "wall_ms": ...}}

The production path reuses the last-mile grouped-median kernel on
link-shaped rows, and must clear the same 3x bar that justified it.
"""

import datetime as dt
import json
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import write_report
from repro.anomaly import LinkObservations, detect_anomalies, link_bin_medians
from repro.anomaly.links import link_id
from repro.core.kernels.reference import REFERENCE
from repro.timebase import MeasurementPeriod, TimeGrid

BENCH_ANOMALY_JSON = Path(__file__).parent.parent / "BENCH_anomaly.json"

NUM_LINKS = 400
PERIOD = MeasurementPeriod("perf-anomaly", dt.datetime(2019, 9, 2), 7)
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


def record_anomaly_bench(section: str, payload: dict) -> None:
    """Upsert one section of BENCH_anomaly.json (same idiom as the
    kernels/serving trajectories: re-running a bench refreshes only
    its own section)."""
    data = {}
    if BENCH_ANOMALY_JSON.exists():
        data = json.loads(BENCH_ANOMALY_JSON.read_text())
    data[section] = payload
    BENCH_ANOMALY_JSON.write_text(json.dumps(data, indent=1) + "\n")


@pytest.fixture(scope="module")
def observations():
    """Survey-scale per-link differential samples, pre-scanned."""
    rng = np.random.default_rng(0)
    obs = LinkObservations(grid=GRID)
    for i in range(NUM_LINKS):
        key = (f"10.{i // 250}.{i % 250}.1", f"10.{i // 250}.{i % 250}.2")
        base = rng.uniform(0.5, 4.0)
        samples = obs.samples.setdefault(key, {})
        counts = obs.counts.setdefault(key, {})
        for bin_index in range(GRID.num_bins):
            samples[bin_index] = list(rng.normal(
                base, 0.4,
                TRACEROUTES_PER_BIN * SAMPLES_PER_TRACEROUTE,
            ))
            counts[bin_index] = TRACEROUTES_PER_BIN
        obs.processed += GRID.num_bins * TRACEROUTES_PER_BIN
    return obs


def reference_link_medians(observations, min_samples=3):
    """The oracle's per-link loop: one reference ``bin_medians`` call
    per link row."""
    keyed = {link_id(*key): key for key in observations.counts}
    link_ids = sorted(keyed)
    num_bins = observations.grid.num_bins
    medians = np.full((len(link_ids), num_bins), np.nan)
    counts = np.zeros((len(link_ids), num_bins), dtype=np.int64)
    for row, name in enumerate(link_ids):
        for bin_index, n in observations.counts[keyed[name]].items():
            counts[row, bin_index] = n
        bins = observations.samples.get(keyed[name], {})
        sample_bins = sorted(bins)
        medians[row], _valid = REFERENCE.bin_medians(
            sample_bins, [bins[b] for b in sample_bins], counts[row],
            num_bins, min_samples,
        )
    return link_ids, medians, counts


def test_perf_link_medians_3x(observations):
    """Grouped differential medians over every (link, bin) cell: the
    single-lexsort vector pass must beat the per-link reference loop
    by at least 3x — the bar that justified routing the anomaly
    pipeline through the shared kernels."""
    ref_ids, ref_medians, ref_counts = reference_link_medians(
        observations
    )
    vec_ids, vec_medians, vec_counts = link_bin_medians(observations)
    # Equivalence first, so the timings compare equal outputs.
    assert ref_ids == vec_ids
    assert np.array_equal(ref_medians, vec_medians, equal_nan=True)
    assert np.array_equal(ref_counts, vec_counts)

    reference_s = best_of(lambda: reference_link_medians(observations))
    vector_s = best_of(lambda: link_bin_medians(observations))
    speedup = reference_s / vector_s if vector_s > 0 else float("inf")
    record_anomaly_bench("link-medians", {
        "links": NUM_LINKS, "bins": GRID.num_bins,
        "samples_per_bin": TRACEROUTES_PER_BIN * SAMPLES_PER_TRACEROUTE,
        "reference_ms": round(reference_s * 1e3, 3),
        "vector_ms": round(vector_s * 1e3, 3),
        "speedup": round(speedup, 2),
    })
    write_report(
        "anomaly_link_medians",
        f"{NUM_LINKS} links x {PERIOD.days} days "
        f"({GRID.num_bins} bins, {TRACEROUTES_PER_BIN} traceroutes/"
        f"bin x {SAMPLES_PER_TRACEROUTE} samples)\n"
        f"reference: {reference_s * 1e3:.1f} ms\n"
        f"vector:    {vector_s * 1e3:.1f} ms\n"
        f"speedup:   {speedup:.2f}x",
    )
    assert speedup >= 3.0, (
        f"vector link-median speedup {speedup:.2f}x below the 3x bar"
    )


def test_perf_detect_end_to_end():
    """Whole-detector wall clock on a simulated world, for the
    trajectory file — no bar, just the number the ROADMAP tracks."""
    from repro.atlas import AtlasPlatform
    from repro.netbase import AccessTechnology, ASInfo, ASRole
    from repro.topology import ProvisioningPolicy, World

    world = World(seed=11)
    isp = world.add_isp(
        ASInfo(
            64500, "SimNet", "JP", ASRole.EYEBALL,
            access_technologies=[AccessTechnology.FTTH_PPPOE_LEGACY],
        ),
        provisioning=ProvisioningPolicy(
            peak_utilization={
                AccessTechnology.FTTH_PPPOE_LEGACY: 0.7
            },
            device_spread=0.01,
            load_jitter_std=0.008,
        ),
    )
    world.add_default_targets()
    world.finalize()
    platform = AtlasPlatform(world)
    deployed = platform.deploy_probes_on_isp(isp, 4)
    period = MeasurementPeriod("perf-detect", dt.datetime(2019, 9, 2), 3)
    dataset = platform.run_period(period, deployed)
    grid = TimeGrid(period, 1800)

    start = time.perf_counter()
    report = detect_anomalies(
        dataset.results, grid, period_name="perf-detect"
    )
    wall_s = time.perf_counter() - start
    assert report.payload["links_total"] > 0
    record_anomaly_bench("detect", {
        "links": report.payload["links_total"],
        "probes": 4, "days": 3,
        "wall_ms": round(wall_s * 1e3, 1),
    })
    write_report(
        "anomaly_detect",
        f"{report.payload['links_total']} links, 4 probes x 3 days\n"
        f"detect wall: {wall_s * 1e3:.0f} ms",
    )
