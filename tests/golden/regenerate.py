"""Regenerate the golden survey fixtures (batch and streamed).

One command, from the repo root:

    PYTHONPATH=src:. python -m tests.golden.regenerate

It refuses to run while the working tree has uncommitted changes
under the pipeline sources (``src/repro/core``, ``src/repro/stream``,
``src/repro/anomaly``) — a golden frozen from unreviewed code
silently blesses whatever the dirty tree computes.  Pass ``--force``
to override, e.g. while iterating on an intentional methodology
change.

Rerun it only when the pipeline's *intended* output changes (a
methodology fix, new thresholds) and commit the refreshed JSON with a
line in the commit message explaining why the numbers moved.

``--differential`` instead freezes ``differential_golden.json``: the
outputs of every world the pipeline-level differential suites
(``tests/kernels``, ``tests/anomaly``) compare.  That fixture was
first generated while the per-item reference loops were still a
selectable pipeline backend, after checking that the vectorized
backend agreed byte for byte; the pipeline now runs only the
vectorized path, so the fixture is what keeps the reference loops'
end-to-end output pinned.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

FIXTURE = Path(__file__).with_name("survey_golden.json")
STREAMED_FIXTURE = Path(__file__).with_name(
    "survey_streamed_golden.json"
)
ANOMALY_FIXTURE = Path(__file__).with_name("anomaly_golden.json")
DIFFERENTIAL_FIXTURE = Path(__file__).with_name(
    "differential_golden.json"
)

#: Source trees whose uncommitted changes block regeneration.
GUARDED = ("src/repro/core", "src/repro/stream", "src/repro/anomaly")

# Frozen world parameters.  Changing any of these is a fixture break:
# regenerate and explain.
NUM_ASES = 12
NUM_COUNTRIES = 6
WORLD_SEED = 5
SURVEY_SEED = 7
PERIOD_NAME = "golden"
PERIOD_START = "2019-09-02"
PERIOD_DAYS = 4


def _period():
    import datetime as dt

    from repro.timebase import MeasurementPeriod

    return MeasurementPeriod(
        PERIOD_NAME,
        dt.datetime.fromisoformat(PERIOD_START),
        PERIOD_DAYS,
    )


def _specs():
    from repro.scenarios import generate_specs

    return generate_specs(
        num_ases=NUM_ASES, num_countries=NUM_COUNTRIES, seed=WORLD_SEED
    )


def build_survey():
    """The frozen world's survey result."""
    from repro.scenarios import run_survey_period

    result, _ = run_survey_period(_specs(), _period(), seed=SURVEY_SEED)
    return result


def build_streamed_survey():
    """The same frozen world replayed through the streaming engine:
    the world's binned dataset decomposed into a record stream and
    fed to :class:`repro.stream.StreamingSurvey`."""
    from repro.scenarios import build_survey_world
    from repro.stream import StreamingSurvey, dataset_to_records

    period = _period()
    world, platform = build_survey_world(
        _specs(), lockdown=False, seed=SURVEY_SEED,
        period_name=period.name,
    )
    dataset = platform.run_period_binned(period)
    engine = StreamingSurvey(period, table=world.table)
    engine.ingest_many(dataset_to_records(dataset))
    return engine.finalize()


# Frozen anomaly world: a hand-built traceroute campaign (no
# simulator, milliseconds to rebuild) with a day-2 delay surge and a
# day-3 next-hop flip, plus a periodically silent hop so link
# spanning is part of the frozen output.
ANOMALY_SEED = 9
ANOMALY_PROBES = 2
ANOMALY_DAYS = 3
ANOMALY_BIN_SECONDS = 1800
# Public addresses: private nears are excluded from forwarding
# tracking, and the flip must be part of the frozen output.
ANOMALY_PATH = ("20.0.0.1", "20.0.0.2", "20.0.0.3", "20.0.0.4")
ANOMALY_SURGE_BINS = range(58, 64)    # day-2 bins, +25 ms past hop 2
ANOMALY_FLIP_BINS = range(126, 132)   # day-3 bins, hop 4 readdressed


def build_anomaly_dataset():
    import numpy as np

    from repro.atlas.traceroute import (
        Hop,
        MeasurementDataset,
        Reply,
        TracerouteResult,
    )

    rng = np.random.default_rng(ANOMALY_SEED)
    day_bins = 86400 // ANOMALY_BIN_SECONDS
    base = (2.0, 5.0, 9.0, 14.0)
    dataset = MeasurementDataset()
    sequence = 0
    for prb_id in (1, 2):
        for bin_index in range(ANOMALY_DAYS * day_bins):
            surged = bin_index in ANOMALY_SURGE_BINS
            flipped = bin_index in ANOMALY_FLIP_BINS
            for k in range(3):
                timestamp = (
                    bin_index * ANOMALY_BIN_SECONDS + k * 600.0 + 1.0
                )
                sequence += 1
                hops = []
                for i, address in enumerate(ANOMALY_PATH):
                    if i == 1 and sequence % 37 == 0:
                        hops.append(Hop(
                            hop=i + 1,
                            replies=(Reply.timeout(),) * 3,
                        ))
                        continue
                    if i == 3 and flipped:
                        address = "20.0.0.7"
                    rtt = base[i] + (25.0 if surged and i >= 2 else 0.0)
                    hops.append(Hop(hop=i + 1, replies=tuple(
                        Reply(address, round(
                            rtt + rng.uniform(0.0, 0.4), 3
                        ))
                        for _ in range(3)
                    )))
                dataset.extend([TracerouteResult(
                    prb_id=prb_id, msm_id=1, timestamp=timestamp,
                    src_address="192.168.1.2",
                    from_address="60.0.0.9",
                    dst_address="9.9.9.9", hops=tuple(hops),
                )])
    return dataset


def build_anomaly_report(shards=1):
    """The frozen campaign's anomaly-report payload."""
    import datetime as dt

    from repro.anomaly import detect_anomalies
    from repro.timebase import MeasurementPeriod, TimeGrid

    period = MeasurementPeriod(
        "golden-anomaly",
        dt.datetime.fromisoformat(PERIOD_START),
        ANOMALY_DAYS,
    )
    dataset = build_anomaly_dataset()
    report = detect_anomalies(
        dataset.results,
        TimeGrid(period, ANOMALY_BIN_SECONDS),
        period_name=period.name, shards=shards,
    )
    return report.payload


def _array(values):
    """A float/int array as a JSON list (NaN kept as NaN)."""
    return [v.item() for v in values]


def _specs10():
    from repro.scenarios import generate_specs

    return generate_specs(num_ases=10, num_countries=6, seed=5)


def _seeded_survey(**run):
    """The 10-AS seeded world; ``run`` adds e.g. ``workers``."""
    from repro.io import survey_to_dict
    from repro.scenarios import run_survey_period
    from tests.kernels.test_differential import PERIOD

    result, _ = run_survey_period(_specs10(), PERIOD, seed=7, **run)
    return survey_to_dict(result)


def _faulted_survey(**run):
    """The seeded world with bin loss, NaN bursts and a poisoned AS."""
    from repro.faults import FaultLog
    from repro.io import survey_to_dict
    from repro.scenarios import run_survey_period
    from tests.kernels.test_differential import PERIOD, make_faults

    fault_log = FaultLog()
    result, _ = run_survey_period(
        _specs10(), PERIOD, seed=7,
        dataset_faults=make_faults(), fault_seed=3,
        fault_log=fault_log, **run,
    )
    return {
        "survey": survey_to_dict(result),
        "fault_counts": dict(sorted(fault_log.counts.items())),
    }


def _classified(dataset, **classify):
    from repro.core import classify_dataset
    from repro.io import survey_to_dict
    from tests.kernels.test_differential import PERIOD

    return survey_to_dict(classify_dataset(dataset, PERIOD, **classify))


def _degenerate_survey():
    """The degenerate corners, with the full (sampled) ledger."""
    from repro.quality import DataQualityReport
    from tests.kernels.test_differential import degenerate_dataset

    ledger = DataQualityReport()
    survey = _classified(degenerate_dataset(), quality=ledger)
    return {"survey": survey, "quality": ledger.to_dict()}


def _single_probe_survey():
    from tests.kernels.test_differential import degenerate_dataset

    return _classified(degenerate_dataset(), min_probes=1)


def _empty_survey():
    from repro.core import LastMileDataset
    from tests.kernels.test_differential import GRID

    return _classified(LastMileDataset(grid=GRID))


def _kept_signals():
    from repro.core import classify_dataset
    from tests.kernels.test_differential import PERIOD, synthetic_dataset

    kept = classify_dataset(
        synthetic_dataset(seed=4), PERIOD, keep_signals=True
    )
    return {
        str(asn): {
            "delay_ms": _array(signal.delay_ms),
            "contributing": _array(signal.contributing),
        }
        for asn, signal in sorted(kept.signals.items())
    }


def _degenerate_aggregates():
    from repro.core import aggregate_population
    from tests.kernels.test_differential import degenerate_dataset

    dataset = degenerate_dataset()
    cases = []
    for probe_ids in ([1, 2, 3], [4], [8, 9, 10], [11, 12, 13]):
        signal = aggregate_population(dataset, probe_ids)
        cases.append({
            "probe_ids": probe_ids,
            "delay_ms": _array(signal.delay_ms),
            "contributing": _array(signal.contributing),
        })
    return cases


def _estimation(results, grid):
    from repro.core import estimate_probe_series
    from repro.quality import DataQualityReport

    quality = DataQualityReport()
    series = estimate_probe_series(results, grid, quality=quality)
    return {
        "median_rtt_ms": _array(series.median_rtt_ms),
        "traceroute_counts": _array(series.traceroute_counts),
        "quality": quality.to_dict(),
    }


def _dirty_estimation():
    import datetime as dt

    from repro.timebase import MeasurementPeriod, TimeGrid
    from tests.kernels.test_differential import dirty_traceroutes

    grid = TimeGrid(MeasurementPeriod("d", dt.datetime(2019, 9, 2), 1))
    return _estimation(dirty_traceroutes(), grid)


def _flat_pass_estimation():
    from tests.kernels.test_flat_pass import GRID, dirty_results

    return _estimation(dirty_results(), GRID)


def _anomaly_campaign():
    from repro.timebase import TimeGrid
    from tests.anomaly.conftest import BIN_SECONDS, simulate

    dataset, period = simulate()
    return dataset.results, TimeGrid(period, BIN_SECONDS)


def _anomaly_report(campaign=None, **detect):
    """The simulated campaign's report; ``detect`` adds ``shards``."""
    from repro.anomaly import detect_anomalies

    results, grid = campaign or _anomaly_campaign()
    return detect_anomalies(
        results, grid, period_name="simulated", **detect
    ).payload


def _anomaly_link_medians(campaign=None):
    from repro.anomaly import link_bin_medians, scan_links

    results, grid = campaign or _anomaly_campaign()
    ids, medians, counts = link_bin_medians(scan_links(results, grid))
    return {
        "link_ids": ids,
        "medians": [_array(row) for row in medians],
        "counts": [_array(row) for row in counts],
    }


#: Every world the pipeline-level differential suites compare, by
#: fixture key.  Tests call the builders (with variant arguments such
#: as ``workers`` or ``shards``) and compare against the pinned entry.
DIFFERENTIAL_WORLDS = {
    "seeded-survey": _seeded_survey,
    "faulted-survey": _faulted_survey,
    "degenerate-survey": _degenerate_survey,
    "single-probe-survey": _single_probe_survey,
    "empty-survey": _empty_survey,
    "kept-signals": _kept_signals,
    "degenerate-aggregates": _degenerate_aggregates,
    "dirty-estimation": _dirty_estimation,
    "flat-pass-estimation": _flat_pass_estimation,
    "anomaly-report": _anomaly_report,
    "anomaly-link-medians": _anomaly_link_medians,
}


def build_differential():
    """Every differential world's output, JSON-ready, by fixture key."""
    return {name: build() for name, build in DIFFERENTIAL_WORLDS.items()}


def canonical_world(value) -> str:
    """One world's canonical serialization — the byte-for-byte
    equality the differential suites assert."""
    return json.dumps(value, sort_keys=True)


def pinned_world(name: str):
    """The pinned output of one differential world."""
    return json.loads(DIFFERENTIAL_FIXTURE.read_text())[name]


def differential_bytes(cases) -> bytes:
    """The canonical serialization the differential suites compare:
    one world per line, keys sorted."""
    lines = ",\n".join(
        f"{json.dumps(name)}: {canonical_world(cases[name])}"
        for name in sorted(cases)
    )
    return ("{\n" + lines + "\n}\n").encode()


def uncommitted_changes(repo_root=None):
    """Guarded-tree paths with uncommitted changes (empty when the
    tree is clean or this is not a git checkout)."""
    root = (
        Path(repo_root) if repo_root is not None
        else Path(__file__).resolve().parents[2]
    )
    try:
        status = subprocess.run(
            ["git", "status", "--porcelain", "--", *GUARDED],
            cwd=root, capture_output=True, text=True,
            timeout=30, check=True,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return []
    return [line[3:] for line in status.splitlines() if line.strip()]


def _write(path: Path, result) -> dict:
    from repro.io import survey_to_dict

    payload = survey_to_dict(result)
    path.write_text(
        json.dumps(payload, indent=1, sort_keys=True) + "\n"
    )
    return payload


def main(argv=None, repo_root=None, out_dir=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tests.golden.regenerate",
        description="Regenerate the golden survey fixtures.",
    )
    parser.add_argument(
        "--force", action="store_true",
        help="regenerate even with uncommitted pipeline changes",
    )
    parser.add_argument(
        "--differential", action="store_true",
        help="freeze the differential suites' worlds "
        f"({DIFFERENTIAL_FIXTURE.name}) instead of the goldens",
    )
    args = parser.parse_args(argv)

    dirty = uncommitted_changes(repo_root)
    if dirty and not args.force:
        print(
            "error: refusing to regenerate golden fixtures with "
            "uncommitted changes under "
            + " / ".join(GUARDED)
            + " (use --force to override): "
            + ", ".join(dirty),
            file=sys.stderr,
        )
        return 1

    out = Path(out_dir) if out_dir is not None else FIXTURE.parent
    if args.differential:
        pinned = differential_bytes(build_differential())
        (out / DIFFERENTIAL_FIXTURE.name).write_bytes(pinned)
        print(f"wrote {out / DIFFERENTIAL_FIXTURE.name} "
              f"({len(json.loads(pinned))} worlds)")
        return 0
    batch = _write(out / FIXTURE.name, build_survey())
    print(f"wrote {out / FIXTURE.name} "
          f"({len(batch['reports'])} reports)")
    streamed = _write(
        out / STREAMED_FIXTURE.name, build_streamed_survey()
    )
    print(f"wrote {out / STREAMED_FIXTURE.name} "
          f"({len(streamed['reports'])} reports)")
    anomaly = build_anomaly_report()
    (out / ANOMALY_FIXTURE.name).write_text(
        json.dumps(anomaly, indent=1, sort_keys=True) + "\n"
    )
    print(f"wrote {out / ANOMALY_FIXTURE.name} "
          f"({anomaly['links_total']} links, "
          f"{len(anomaly['events'])} events)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
