"""The four workloads: inputs made from the seed, operations, output checks.

Imported only by ``worker.py``, the process that runs the program.
Every call goes through the program's public functions with its
defaults; the benchmark generates the inputs and checks the outputs.

Inputs come in ``VARIANTS`` variants.  Operation *k* of a ``survey`` or
``anomaly`` run uses variant ``(seed + k) % VARIANTS``, so a run's
median is taken over several inputs rather than over one input's cost
(variants differ by up to 10 % in cost); a ``stream`` run replays
variant ``seed % VARIANTS`` throughout, because its record feed is
built once before timing.  Each variant's survey and anomaly digests
are pinned in ``pinned.json`` (``PYTHONPATH=src python3
e2ebench/pin.py`` rewrites it), so a change to what the program
computes fails the run on every seed.  Sizes are fixed across variants
-- the survey always simulates ``SURVEY_PROBES`` probes, the stream
always replays ``STREAM_PROBES`` probes' records -- so seeds vary the
data, not the amount of work.
"""

from __future__ import annotations

import datetime as dt
import gc
import hashlib
import json
import shutil
import time
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.anomaly import detect_anomalies
from repro.anomaly import detect as anomaly_detect
from repro.atlas import AtlasPlatform
from repro.core import classify_dataset, classify_markers
from repro.core.spectral import SpectralMarkers
from repro.io.surveys import survey_to_dict
from repro.netbase import AccessTechnology, ASInfo, ASRole
from repro.scenarios import build_survey_world, generate_specs
from repro.store import SurveyArchive
from repro.stream import StreamingSurvey, dataset_to_records, micro_batches
from repro.stream import engine as stream_engine
from repro.timebase import (
    ALL_SURVEY_PERIODS,
    LONGITUDINAL_PERIODS,
    MeasurementPeriod,
    TimeGrid,
)
from repro.topology import ProvisioningPolicy, World

from tracer import NULL

VARIANTS = 32
PINNED = Path(__file__).with_name("pinned.json")

PERIOD = LONGITUDINAL_PERIODS[-1]

#: ``survey``: one period of 40 ASes carrying 140 probes in total.
SURVEY_ASES = 40
SURVEY_PROBES = 140
#: ``anomaly``: a campaign of 1 probe x 2 days (2,304 traceroutes, a
#: sixth of the CLI's 4 x 3 default).
ANOMALY_PROBES = 1
ANOMALY_DAYS = 2
ANOMALY_PEAK_UTILIZATION = 0.7
#: ``stream``: 4 ASes carrying 16 probes (about 270,000 records),
#: replayed in micro-batches of 5,000, checkpointed after each quarter
#: but the last, which ``finalize`` commits.
STREAM_ASES = 4
STREAM_PROBES = 16
STREAM_BATCH = 5000
STREAM_CHECKPOINTS = 3
#: ``serve``: the paper's 646 ASes over all seven survey periods.
SERVE_ASES = 646


def canonical(payload) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def digest(payload) -> str:
    return hashlib.sha256(canonical(payload)).hexdigest()


def fixed_size_specs(seed: int, ases: int, probes: int):
    """``generate_specs`` for ``seed``, probe counts rescaled to sum to
    ``probes`` (at least 3 per AS, the rest in proportion to the drawn
    counts) so every seed simulates the same number of probes."""
    specs = generate_specs(
        num_ases=ases, num_countries=min(ases, 20), seed=seed
    )
    spare = probes - 3 * ases
    if spare < 0:
        raise ValueError(f"{probes} probes cannot cover {ases} ASes")
    weights = np.array([max(s.probe_count - 3, 0) + 1 for s in specs], float)
    exact = spare * weights / weights.sum()
    extra = np.floor(exact).astype(int)
    for index in np.argsort(-(exact - extra), kind="stable")[
        : spare - int(extra.sum())
    ]:
        extra[index] += 1
    return [replace(s, probe_count=3 + int(e)) for s, e in zip(specs, extra)]


def _fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _wchar() -> int:
    with open("/proc/self/io", encoding="ascii") as stats:
        for line in stats:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    return 0


class BatchWorkload:
    """One repeated operation, timed by :meth:`run_op`."""

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.scratch = scratch
        self.ops = 0

    @property
    def variant(self) -> int:
        """The input variant of the next operation."""
        return (self.seed + self.ops) % VARIANTS

    def install(self, tracer) -> None:
        """Patch spans into layers the program calls internally."""

    def prepare(self, op_dir: Path) -> None:
        """Untimed per-operation set-up."""

    def operation(self, tracer) -> Dict:
        raise NotImplementedError

    def check(self, outcome: Dict) -> List[str]:
        raise NotImplementedError

    def run_op(self, tracer=NULL) -> Dict:
        """Prepare, collect the heap, time one operation, check it."""
        op_dir = _fresh_dir(self.scratch / "op")
        self.prepare(op_dir)
        gc.collect()
        wchar = _wchar()
        cpu = time.process_time()
        started = time.perf_counter()
        outcome = self.operation(tracer)
        raw_s = time.perf_counter() - started
        cpu_s = time.process_time() - cpu
        written = _wchar() - wchar
        try:
            problems = self.check(outcome)
        finally:
            self.archive.close()
        self.ops += 1
        return {
            "raw_s": raw_s,
            "cpu_s": cpu_s,
            "bytes_written": written,
            "checkpoints_s": outcome.get("checkpoints_s", []),
            "problems": problems,
        }


class SurveyWorkload(BatchWorkload):
    """``repro survey``: world -> binned simulation -> classify -> commit."""

    def prepare(self, op_dir: Path) -> None:
        self.specs = fixed_size_specs(
            1000 + self.variant, SURVEY_ASES, SURVEY_PROBES
        )
        self.pinned = pinned_digest("survey", self.variant)
        self.archive = SurveyArchive(op_dir / "archive")

    def operation(self, tracer) -> Dict:
        with tracer.span("scenarios.world"):
            world, platform = build_survey_world(
                self.specs, seed=self.variant, period_name=PERIOD.name,
            )
        with tracer.span("atlas.simulate_binned"):
            dataset = platform.run_period_binned(PERIOD)
        with tracer.span("core.classify"):
            result = classify_dataset(dataset, PERIOD, table=world.table)
        with tracer.span("store.period_commit"):
            self.archive.ingest(result)
        tracer.count("atlas.probe_bins",
                      len(dataset.series) * dataset.grid.num_bins)
        tracer.count("core.ases", len(result.reports) + len(result.failures))
        tracer.count("core.ases_reported", sum(
            1 for r in result.reports.values() if r.is_reported))
        return {"result": result}

    def check(self, outcome: Dict) -> List[str]:
        payload = survey_to_dict(outcome["result"])
        self.last_digest = digest(payload)
        return check_survey(
            payload, read_committed(self.archive.root, "get_period"),
            self.pinned,
        )


def read_committed(archive_root, getter: str) -> Dict:
    """``PERIOD``'s committed document, read back by a fresh archive
    handle so the check sees what is on disk."""
    archive = SurveyArchive(archive_root)
    try:
        return getattr(archive, getter)(PERIOD.name)
    finally:
        archive.close()


def check_survey(payload: Dict, committed: Dict,
                 pinned: Optional[str]) -> List[str]:
    """Problems with one survey period's result ``payload``."""
    problems = []
    if canonical(committed) != canonical(payload):
        problems.append("survey: committed period differs from the result")
    if payload["failures"]:
        problems.append(f"survey: {len(payload['failures'])} AS(es) failed")
    if pinned is None:
        problems.append("survey: no pinned digest for this variant")
    elif digest(payload) != pinned:
        problems.append("survey: result digest differs from the pinned one")
    return problems


def anomaly_world(variant: int):
    """The ``repro anomaly`` simulator campaign, seeded by ``variant``."""
    technology = AccessTechnology.FTTH_PPPOE_LEGACY
    world = World(seed=variant)
    isp = world.add_isp(
        ASInfo(64500, "SimNet", "JP", ASRole.EYEBALL,
               access_technologies=[technology]),
        provisioning=ProvisioningPolicy(
            peak_utilization={technology: ANOMALY_PEAK_UTILIZATION},
            device_spread=0.01,
            load_jitter_std=0.008,
        ),
    )
    world.add_default_targets()
    world.finalize()
    platform = AtlasPlatform(world)
    probes = platform.deploy_probes_on_isp(isp, ANOMALY_PROBES)
    return platform, probes


ANOMALY_PERIOD = MeasurementPeriod(PERIOD.name, dt.datetime(2019, 9, 2),
                                   ANOMALY_DAYS)


class AnomalyWorkload(BatchWorkload):
    """``repro anomaly --archive``: campaign -> detection -> commit."""

    def install(self, tracer) -> None:
        tracer.patch(anomaly_detect, "scan_links", "anomaly.scan")
        tracer.patch(
            anomaly_detect, "link_bin_medians", "anomaly.link_medians",
            on_result=lambda tr, result, _args: tr.count(
                "anomaly.cells", int(np.isfinite(result[1]).sum())),
        )

    def prepare(self, op_dir: Path) -> None:
        self.archive = SurveyArchive(op_dir / "archive")
        self.archive.ingest(committed_period(PERIOD.name))
        self.platform, self.probes = anomaly_world(self.variant)
        self.pinned = pinned_digest("anomaly", self.variant)

    def operation(self, tracer) -> Dict:
        with tracer.span("atlas.traceroute"):
            dataset = self.platform.run_period(ANOMALY_PERIOD, self.probes)
        with tracer.span("anomaly.bands_events"):
            report = detect_anomalies(
                dataset.results, TimeGrid(ANOMALY_PERIOD, 1800),
                period_name=PERIOD.name, quality=dataset.quality,
            )
        with tracer.span("store.anomaly_commit"):
            self.archive.ingest_anomalies(PERIOD.name, report)
        payload = report.payload
        tracer.count("atlas.traceroutes", len(dataset))
        tracer.count("anomaly.links", payload["links_total"])
        tracer.count("anomaly.events", len(payload["events"]))
        return {"payload": payload}

    def check(self, outcome: Dict) -> List[str]:
        self.last_digest = digest(outcome["payload"])
        return check_anomaly(
            outcome["payload"],
            read_committed(self.archive.root, "get_anomalies"),
            self.pinned,
        )


def check_anomaly(payload: Dict, committed: Dict,
                  pinned: Optional[str]) -> List[str]:
    """Problems with one anomaly report ``payload``."""
    problems = []
    if canonical(committed) != canonical(payload):
        problems.append("anomaly: committed report differs from the payload")
    if pinned is None:
        problems.append("anomaly: no pinned digest for this variant")
    elif digest(payload) != pinned:
        problems.append("anomaly: report digest differs from the pinned one")
    return problems


def committed_period(name: str) -> Dict:
    """A minimal survey payload for ``name``: anomaly reports attach
    only to committed periods."""
    return {
        "period": {"name": name, "start": "2019-09-02T00:00:00",
                   "days": ANOMALY_DAYS},
        "reports": {"64500": {"probe_count": ANOMALY_PROBES,
                              "severity": "none", "markers": None}},
        "failures": {},
        "quality": {},
    }


class StreamWorkload(BatchWorkload):
    """``repro stream --archive``: micro-batch replay with checkpoints."""

    def __init__(self, seed: int, scratch: Path):
        super().__init__(seed, scratch)
        variant = seed % VARIANTS
        specs = fixed_size_specs(2000 + variant, STREAM_ASES,
                                 STREAM_PROBES)
        world, platform = build_survey_world(
            specs, seed=variant, period_name=PERIOD.name
        )
        dataset = platform.run_period_binned(PERIOD)
        self.table = world.table
        self.records = dataset_to_records(dataset)
        self.expected = canonical(survey_to_dict(
            classify_dataset(dataset, PERIOD, table=world.table)
        ))
        self.checkpoint_every = (
            len(self.records) // (STREAM_CHECKPOINTS + 1) + 1)

    def install(self, tracer) -> None:
        tracer.patch(
            stream_engine, "classify_asn_batch", None,
            on_result=lambda tr, _result, args: tr.count(
                "stream.reclassified", len(args[1])),
        )

    def prepare(self, op_dir: Path) -> None:
        self.archive = SurveyArchive(op_dir / "archive")
        self.writer = self.archive.begin_live_period(PERIOD.name)
        self.engine = StreamingSurvey(PERIOD, table=self.table)

    def operation(self, tracer) -> Dict:
        engine, writer = self.engine, self.writer
        checkpoints = []
        since = 0
        for batch in micro_batches(self.records, STREAM_BATCH):
            with tracer.span("stream.ingest"):
                ingested = engine.ingest_many(batch)
            writer.append(ingested)
            since += ingested
            if since >= self.checkpoint_every:
                since = 0
                started = time.perf_counter()
                with tracer.span("stream.partial"):
                    partial = engine.emit_partial()
                with tracer.span("store.partial_commit"):
                    writer.commit_partial(partial)
                checkpoints.append(time.perf_counter() - started)
        with tracer.span("stream.finalize"):
            result = engine.finalize()
        with tracer.span("store.live_finalize"):
            writer.finalize(result)
        status = engine.status()
        tracer.count("stream.records", status["records_ingested"])
        tracer.count("stream.sparse_bins", status["sparse_bins"])
        tracer.count("stream.stale_records", status["stale_records"])
        return {"result": result, "checkpoints_s": checkpoints}

    def check(self, outcome: Dict) -> List[str]:
        return check_stream(
            survey_to_dict(outcome["result"]),
            read_committed(self.archive.root, "get_period"),
            self.expected,
        )


def check_stream(payload: Dict, committed: Dict,
                 expected: bytes) -> List[str]:
    """Problems with a finalized stream ``payload``; ``expected`` is
    the canonical ``classify_dataset`` payload of the same dataset."""
    problems = []
    got = canonical(payload)
    if got != expected:
        problems.append("stream: finalized result differs from "
                        "classify_dataset on the same dataset")
    if canonical(committed) != got:
        problems.append("stream: committed live period differs from "
                        "the finalized result")
    return problems


BATCH_WORKLOADS = {
    "survey": SurveyWorkload,
    "anomaly": AnomalyWorkload,
    "stream": StreamWorkload,
}


def pinned_digest(workload: str, variant: int) -> Optional[str]:
    """The pinned result digest of one input variant, if any."""
    if not PINNED.exists():
        return None
    return json.loads(PINNED.read_text()).get(workload, {}).get(str(variant))


# -- serve ------------------------------------------------------------


#: The world survey's calibration (``repro.scenarios.worldsurvey``):
#: daily amplitudes fall 83/7/6/4 % at or below 0.5 ms, in (0.5, 1],
#: (1, 3] and above 3 ms -- as ``(share, low_ms, high_ms)``, drawn
#: log-uniformly within each band -- and about 90 % of ASes classify
#: as None.  An AS's daily component is prominent with probability
#: ``DAILY_SHARE``, so 83 % + 17 % x 0.4 = 89.8 % come out None.
AMPLITUDE_BANDS = ((0.83, 0.05, 0.5), (0.07, 0.5, 1.0), (0.06, 1.0, 3.0),
                   (0.04, 3.0, 10.0))
DAILY_SHARE = 0.6


def _severity_payload(rng: np.random.Generator) -> Dict:
    """One AS's classification drawn from the survey's calibration."""
    band = rng.choice(len(AMPLITUDE_BANDS),
                      p=[share for share, _, _ in AMPLITUDE_BANDS])
    _share, low, high = AMPLITUDE_BANDS[band]
    amplitude = float(np.exp(rng.uniform(np.log(low), np.log(high))))
    daily = bool(rng.random() < DAILY_SHARE)
    markers = SpectralMarkers(
        prominent_frequency_cph=1 / 24 if daily else float(
            rng.choice([1 / 12, 1 / 8, 1 / 6])),
        prominent_amplitude_ms=round(amplitude, 6),
        daily_amplitude_ms=round(amplitude if daily else amplitude / 3, 6),
    )
    return {
        "probe_count": int(rng.integers(3, 30)),
        "severity": classify_markers(markers).severity.value,
        "markers": {
            "prominent_frequency_cph": markers.prominent_frequency_cph,
            "prominent_amplitude_ms": markers.prominent_amplitude_ms,
            "daily_amplitude_ms": markers.daily_amplitude_ms,
        },
    }


def anomaly_report(variant: int) -> Dict:
    """The ``anomaly`` workload's report for one input variant: a real
    ``detect_anomalies`` payload (about 70 links and 110-130 routes,
    no events: the campaign is fault-free)."""
    platform, probes = anomaly_world(variant)
    dataset = platform.run_period(ANOMALY_PERIOD, probes)
    return detect_anomalies(
        dataset.results, TimeGrid(ANOMALY_PERIOD, 1800),
        period_name=PERIOD.name, quality=dataset.quality,
    ).payload


def build_serve_archive(root: Path, seed: int) -> SurveyArchive:
    """A compacted archive of ``SERVE_ASES`` ASes over every survey
    period, each period with the ``anomaly`` workload's report of the
    seed's variant attached, built through the public store API."""
    rng = np.random.default_rng(3000 + seed % VARIANTS)
    report = anomaly_report(seed % VARIANTS)
    archive = SurveyArchive(_fresh_dir(root))
    asns = [4_200_000_000 + i for i in range(SERVE_ASES)]
    for period in ALL_SURVEY_PERIODS:
        archive.ingest({
            "period": {"name": period.name,
                       "start": period.start.isoformat(),
                       "days": period.days},
            "reports": {str(asn): _severity_payload(rng) for asn in asns},
            "failures": {},
            "quality": {},
        })
        archive.ingest_anomalies(period.name,
                                 dict(report, period=period.name))
    archive.compact()
    return SurveyArchive(root)
