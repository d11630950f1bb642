"""The benchmark's own fast tests.

Run from the root of a checkout::

    python3 -m pytest e2ebench -q

Each workload runs once at a tiny size and must pass its checks; each
check must fail on a deliberately wrong output; the probe normalisation,
the percentile and the span self times are checked on fixed numbers;
and ``BENCHMARK.json`` must name exactly the metrics ``run.py`` prints.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import probe  # noqa: E402
import run  # noqa: E402
import serveload  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(workloads, "SURVEY_ASES", 4)
    monkeypatch.setattr(workloads, "SURVEY_PROBES", 12)
    monkeypatch.setattr(workloads, "ANOMALY_DAYS", 2)
    monkeypatch.setattr(workloads, "STREAM_ASES", 3)
    monkeypatch.setattr(workloads, "STREAM_PROBES", 9)
    monkeypatch.setattr(workloads, "SERVE_ASES", 12)


def test_probe_normalisation_on_fixed_numbers():
    reference = probe.REFERENCE_PROBE_S
    power = probe.PROBE_ELASTICITY
    assert probe.normalise(2.0, reference) == 2.0
    assert probe.normalise(2.0, 2 * reference) == pytest.approx(
        2.0 * 0.5 ** power)
    assert probe.normalise(3.0, reference / 4) == pytest.approx(
        3.0 * 4 ** power)
    # A slower host (longer probe) never reads as faster than raw.
    assert probe.normalise(5.0, 1.5 * reference) < 5.0
    with pytest.raises(ValueError):
        probe.normalise(1.0, 0.0)


def test_percentile_on_fixed_numbers():
    assert run.percentile([5.0], 99) == 5.0
    assert run.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 50) == 3.0
    assert run.percentile([0.0, 10.0], 99) == pytest.approx(9.9)


def test_self_time_subtracts_covered_children():
    tracer = Tracer()
    tracer.op_id = 1
    tracer.spans = [
        ["parent", 0.0, 10.0, -1, 1],
        ["child", 1.0, 4.0, 0, 1],
        ["child", 5.0, 6.0, 0, 1],
        ["other-op", 0.0, 100.0, -1, 2],
    ]
    assert tracer.self_times(1) == {"parent": 6.0, "child": 4.0}
    assert tracer.covered(1) == 10.0


def test_benchmark_json_names_what_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert set(run.SPAN_METRICS[s][0] for s in run.SPAN_METRICS) | set(
        run.COUNT_METRICS) <= {name for name, _unit in run.PER_LAYER}


@pytest.mark.parametrize("name", ["survey", "anomaly", "stream"])
def test_batch_workload_tiny_run_is_correct(name, tiny, tmp_path,
                                            monkeypatch):
    # The committed pins hold full-size digests: start with none.
    pins = tmp_path / "pinned.json"
    monkeypatch.setattr(workloads, "PINNED", pins)
    workload = workloads.BATCH_WORKLOADS[name](7, tmp_path)
    tracer = Tracer()
    tracer.op_id = 1
    workload.install(tracer)
    try:
        first = workload.run_op(tracer)
    finally:
        tracer.unpatch()
    if name == "stream":
        assert first["problems"] == []
        assert len(first["checkpoints_s"]) == workloads.STREAM_CHECKPOINTS
    else:
        assert first["problems"] == [
            f"{name}: no pinned digest for this variant"]
        # Pin the first run's digest; a fresh run of the same seed
        # must reproduce it.
        pins.write_text(json.dumps({name: {"7": workload.last_digest}}))
        again = workloads.BATCH_WORKLOADS[name](7, tmp_path)
        assert again.run_op()["problems"] == []
        # The next operation moves on to the next variant.
        assert again.variant == 8
    spans = tracer.self_times(1)
    assert spans and all(value >= 0 for value in spans.values())
    assert tracer.covered(1) <= first["raw_s"]


def test_serve_tiny_run_is_correct(tiny, tmp_path):
    import worker
    from repro.obs import observed

    with observed():  # as in the worker: /v1/metrics needs a registry
        root, mix, bodies = worker.serve_fixture(3, tmp_path)
    assert len(mix) == len(bodies) > 2 * workloads.SERVE_ASES
    env = run.program_env(ROOT)
    server = serveload.start_server(root, env, ROOT, tmp_path / "log")
    try:
        client = serveload.Client(server.host, server.port)
        for target in sorted(bodies):
            status, body = client.get(target, "check")
            assert serveload.check_body(
                target, status, body, bodies[target]) is None
        sequence = run.request_sequence(mix, 3, 200)
        samples = serveload.open_loop(client, sequence, 400.0, "t")
        assert all(s.status in serveload.OK_STATUSES for s in samples)
        client.close()
    finally:
        server.stop()
    assert server.process.returncode == 0


def test_serve_check_fails_on_a_flipped_byte():
    body = b'{"asn": 64500, "severity": "none"}\n'
    expected = {"status": 200,
                "sha256": __import__("hashlib").sha256(body).hexdigest()}
    assert serveload.check_body("/v1/as/64500", 200, body, expected) is None
    flipped = bytes([body[0] ^ 1]) + body[1:]
    assert "differs" in serveload.check_body(
        "/v1/as/64500", 200, flipped, expected)
    assert "answered 503" in serveload.check_body(
        "/v1/as/64500", 503, body, expected)
    assert "answered 0" in serveload.check_body(
        "/v1/as/64500", 0, b"", expected)


def _survey_payload():
    return {
        "period": {"name": "2019-09", "start": "2019-09-02T00:00:00",
                   "days": 15},
        "reports": {"1": {"probe_count": 3, "severity": "none",
                          "markers": None},
                    "2": {"probe_count": 4, "severity": "low",
                          "markers": None}},
        "failures": {},
        "quality": {},
    }


def test_stream_check_fails_on_a_result_missing_one_as():
    payload = _survey_payload()
    expected = workloads.canonical(payload)
    assert workloads.check_stream(payload, payload, expected) == []
    missing = json.loads(json.dumps(payload))
    del missing["reports"]["2"]
    problems = workloads.check_stream(missing, missing, expected)
    assert problems == ["stream: finalized result differs from "
                        "classify_dataset on the same dataset"]
    assert len(workloads.check_stream(payload, missing, expected)) == 1


def test_survey_check_fails_on_wrong_outputs():
    payload = _survey_payload()
    pinned = workloads.digest(payload)
    assert workloads.check_survey(payload, payload, pinned) == []
    changed = json.loads(json.dumps(payload))
    changed["reports"]["1"]["severity"] = "severe"
    assert len(workloads.check_survey(changed, changed, pinned)) == 1
    assert len(workloads.check_survey(payload, changed, pinned)) == 1
    failed = json.loads(json.dumps(payload))
    failed["failures"]["3"] = {"error": "X", "message": "", "attempts": 2}
    assert any("failed" in p for p in workloads.check_survey(
        failed, failed, workloads.digest(failed)))


def test_anomaly_check_fails_on_wrong_outputs():
    payload = {"kind": "anomaly-report", "links_total": 1, "events": []}
    pinned = workloads.digest(payload)
    assert workloads.check_anomaly(payload, payload, pinned) == []
    other = dict(payload, links_total=2)
    assert len(workloads.check_anomaly(other, other, pinned)) == 1
    assert len(workloads.check_anomaly(payload, other, pinned)) == 1


def test_fixed_size_specs_hold_the_probe_total():
    for seed in range(5):
        specs = workloads.fixed_size_specs(seed, 10, 47)
        assert sum(s.probe_count for s in specs) == 47
        assert min(s.probe_count for s in specs) >= 3


def test_refuses_to_run_outside_a_checkout(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "survey", "--seed", "0",
                     "--seconds", "1"]) == 2
    assert not os.listdir(tmp_path)
