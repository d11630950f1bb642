"""Golden regression: the frozen campaign's anomaly report.

``anomaly_golden.json`` pins the full report payload of the
hand-built traceroute campaign in :mod:`tests.golden.regenerate` — a
day-2 delay surge, a day-3 next-hop flip, and a periodically silent
hop so link spanning is part of the frozen output.  The production
kernels, the reference loops (:mod:`tests.kernels.oracle`) and a
sharded run are checked byte-for-byte (the payload is
already JSON-safe, so canonical bytes are the equality that the
serving layer's ETags rest on).  If a change is intentional,
regenerate with::

    PYTHONPATH=src:. python -m tests.golden.regenerate
"""

import json

import pytest

from repro.parallel.cache import canonical_json
from tests.kernels.oracle import run_on

from .regenerate import ANOMALY_FIXTURE, build_anomaly_report


@pytest.fixture(scope="module")
def golden_bytes():
    return canonical_json(json.loads(ANOMALY_FIXTURE.read_text()))


def test_reference_matches_golden(golden_bytes):
    assert canonical_json(
        run_on("reference", build_anomaly_report)
    ) == golden_bytes


def test_vector_matches_golden(golden_bytes):
    assert canonical_json(build_anomaly_report()) == golden_bytes


def test_sharded_matches_golden(golden_bytes):
    assert canonical_json(
        build_anomaly_report(shards=2)
    ) == golden_bytes


def test_golden_carries_both_event_kinds():
    """The fixture must stay a *non-trivial* regression anchor: one
    surged link, one flipped route, nothing else."""
    payload = json.loads(ANOMALY_FIXTURE.read_text())
    delay = [e for e in payload["events"] if e["kind"] == "delay"]
    forwarding = [
        e for e in payload["events"] if e["kind"] == "forwarding"
    ]
    assert {e["link"] for e in delay} == {"20.0.0.2--20.0.0.3"}
    assert {
        (e["near"], e["expected"], e["observed"]) for e in forwarding
    } == {("20.0.0.3", "20.0.0.4", "20.0.0.7")}
    assert payload["links_total"] == 5  # 3 path links + span + flip
