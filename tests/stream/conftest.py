"""Shared fixtures for the streaming-engine differential harness.

The worlds replayed here are the *same* seeded worlds the kernel
differential suite (``tests/kernels``) pins: the
10-AS generated survey world, the synthetic sinusoid dataset, and
the degenerate-corner dataset — plus their fault-injected variants.
Every helper funnels through :func:`repro.stream.dataset_to_records`
so a batch dataset and its record-stream replay are comparable
byte-for-byte.
"""

import datetime as dt
import json

import numpy as np
import pytest

from repro.core import classify_dataset
from repro.faults import BinLoss, NaNBursts, PoisonAS, inject_dataset
from repro.io import survey_to_dict
from repro.parallel import WORKERS_ENV
from repro.quality import DataQualityReport
from repro.scenarios import build_survey_world, generate_specs
from repro.stream import StreamingSurvey, dataset_to_records, micro_batches
from repro.timebase import MeasurementPeriod, TimeGrid
from tests.kernels.oracle import run_on

PERIOD = MeasurementPeriod("2019-09", dt.datetime(2019, 9, 2), 4)
GRID = TimeGrid(PERIOD)
WORLD_SEED = 5
SURVEY_SEED = 7
FAULT_SEED = 3


def canonical_bytes(result):
    """The serialized survey as bytes — the equality the suite asserts."""
    return json.dumps(
        survey_to_dict(result), sort_keys=True
    ).encode("ascii")


def quality_counts(report):
    """Counts-only view of a quality ledger (quarantine samples are
    capped and order-sensitive; counts are the exact contract)."""
    return {
        name: {
            "ingested": entry.ingested,
            "dropped": {
                reason.value: count
                for reason, count in entry.dropped.items() if count
            },
            "degraded": {
                reason.value: count
                for reason, count in entry.degraded.items() if count
            },
        }
        for name, entry in report.stages.items()
    }


def make_faults():
    """The fault cocktail the kernel suite uses, one extra poison."""
    return [
        BinLoss(rate=0.05),
        NaNBursts(probe_rate=0.2),
        PoisonAS(count=2),
    ]


def seeded_dataset(specs, period=PERIOD):
    """The 10-AS survey world of ``tests/kernels``, binned."""
    world, platform = build_survey_world(
        specs, lockdown=False, seed=SURVEY_SEED,
        period_name=period.name,
    )
    dataset = platform.run_period_binned(period)
    return dataset, world.table


def faulted_dataset(specs, period=PERIOD):
    """A fresh seeded dataset run through the fault injectors."""
    dataset, table = seeded_dataset(specs, period)
    dataset, log = inject_dataset(
        dataset, make_faults(), seed=FAULT_SEED
    )
    return dataset, table, log


def batch_survey(dataset, table=None, kernels="vector", **kwargs):
    """The batch pipeline's verdict plus its quality ledger, computed
    by the production kernels or the reference loops (``kernels``,
    see :func:`tests.kernels.oracle.run_on`)."""
    quality = DataQualityReport()
    result = run_on(
        kernels, classify_dataset, dataset, PERIOD, table=table,
        quality=quality, **kwargs,
    )
    return result, quality


def stream_replay(
    dataset,
    table=None,
    kernels="vector",
    shuffle_seed=None,
    batch_size=None,
    emit_every=0,
    approximate=False,
    **kwargs,
):
    """Replay a batch dataset through the streaming engine.

    ``shuffle_seed`` permutes observations within each bin;
    ``batch_size`` feeds the stream in micro-batches; ``emit_every``
    snapshots a partial survey every N batches (exercising the
    incremental-reclassification cache mid-stream); ``kernels`` as
    :func:`batch_survey`.  Returns ``(engine, finalized_result)``.
    """
    rng = (
        np.random.default_rng(shuffle_seed)
        if shuffle_seed is not None else None
    )
    records = dataset_to_records(dataset, rng=rng)
    engine = StreamingSurvey(
        PERIOD, table=table, approximate=approximate, **kwargs,
    )

    def replay():
        if batch_size is None:
            engine.ingest_many(records)
        else:
            for index, batch in enumerate(
                micro_batches(records, batch_size), start=1
            ):
                engine.ingest_many(batch)
                if emit_every and index % emit_every == 0:
                    engine.emit_partial()
        return engine.finalize()

    return engine, run_on(kernels, replay)


@pytest.fixture(autouse=True)
def _pin_environment(monkeypatch):
    """Neutralize the CI matrix knob: every run in this package
    selects its execution mode explicitly."""
    monkeypatch.delenv(WORKERS_ENV, raising=False)


@pytest.fixture(scope="session")
def specs():
    return generate_specs(num_ases=10, num_countries=6, seed=WORLD_SEED)
