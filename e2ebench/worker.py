"""The program-side process of a benchmark run.

``run.py`` starts it with the checkout's ``src`` on ``PYTHONPATH`` and
drives it over stdin/stdout, one JSON object per line.  It first
imports the workload's entry modules and says so (the moment that ends
a ``setup_s`` cold start; ``--import-only`` exits there), then builds
the workload's inputs and answers one command per line:

* ``{"cmd": "op", "traced": bool}`` -- run, time and check one batch
  operation (``traced`` records spans and returns self times);
* ``{"cmd": "api", "targets": [...]}`` -- ``serve``'s in-process
  passes: ``SurveyAPI.handle`` with and without a span per request,
  and the store reads behind the distinct targets;
* ``{"cmd": "end"}`` -- report peak RSS, write the spans, exit.

Everything the program prints goes to stderr; stdout carries only the
protocol.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import statistics
import sys
import time
from pathlib import Path

from tracer import NULL, Tracer


def _peak_rss_mb() -> float:
    """This process's own peak RSS.  ``ru_maxrss`` would not do: it
    carries over the spawning process's peak across exec."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def serve_fixture(seed: int, scratch: Path):
    """Build the served archive; return it with the route mix and the
    in-process body digest of every distinct target."""
    from repro.loadgen import DEFAULT_MIX_SPEC, build_mix
    from repro.serve import SurveyAPI
    from repro.store import SurveyArchive

    from workloads import build_serve_archive

    root = scratch / "archive"
    build_serve_archive(root, seed).close()
    archive = SurveyArchive(root)
    try:
        mix = build_mix(archive, DEFAULT_MIX_SPEC)
        api = SurveyAPI(archive)
        bodies = {}
        for target, _weight in mix:
            response = api.handle(target)
            bodies[target] = {
                "status": response.status,
                "sha256": hashlib.sha256(response.body).hexdigest(),
            }
    finally:
        archive.close()
    return root, [list(entry) for entry in mix], bodies


def api_passes(root: Path, targets, tracer: Tracer) -> dict:
    """Per-request ``SurveyAPI.handle`` time on a cold API, untraced
    then traced, and per-target store read time."""
    from repro.serve import SurveyAPI
    from repro.store import SurveyArchive

    passes = {}
    for traced in (False, True):
        archive = SurveyArchive(root)
        api = SurveyAPI(archive)
        span = tracer.span if traced else NULL.span
        per_request = []
        gc.collect()
        started = time.perf_counter()
        for target in targets:
            begun = time.perf_counter()
            with span("serve.api"):
                api.handle(target)
            per_request.append(time.perf_counter() - begun)
        passes[traced] = (time.perf_counter() - started, per_request)
        archive.close()

    archive = SurveyArchive(root)
    reads = []
    try:
        for target in sorted(set(targets)):
            parts = target.strip("/").split("/")
            if parts[1] == "as" and len(parts) == 3:
                call = (archive.get, int(parts[2]))
            elif parts[1] == "as" and parts[3:] == ["history"]:
                call = (archive.history, int(parts[2]))
            elif parts[1] == "period" and len(parts) == 3:
                call = (archive.get_period, parts[2])
            else:
                continue
            begun = time.perf_counter()
            call[0](call[1])
            reads.append(time.perf_counter() - begun)
    finally:
        archive.close()
    return {
        "serve.api_us": statistics.median(passes[False][1]) * 1e6,
        "trace.overhead_frac": passes[True][0] / passes[False][0],
        "store.read_us": statistics.median(reads) * 1e6,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--entry", required=True,
                        help="comma-separated entry modules")
    parser.add_argument("--import-only", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scratch", default=None)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    protocol = os.fdopen(os.dup(1), "w", buffering=1)
    sys.stdout = sys.stderr

    def send(message) -> None:
        protocol.write(json.dumps(message) + "\n")

    for module in args.entry.split(","):
        importlib.import_module(module)
    send({"imported": True})
    if args.import_only:
        return 0

    scratch = Path(args.scratch)
    tracer = Tracer() if args.trace else NULL
    if args.workload == "serve":
        from repro.obs import Observability, set_observer

        # Observed like ``repro serve``: /v1/metrics needs a live registry.
        set_observer(Observability())
        root, mix, bodies = serve_fixture(args.seed, scratch)
        send({"ready": True, "archive": str(root), "mix": mix,
              "bodies": bodies})
    else:
        from workloads import BATCH_WORKLOADS

        workload = BATCH_WORKLOADS[args.workload](args.seed, scratch)
        send({"ready": True})

    for line in sys.stdin:
        command = json.loads(line)
        if command["cmd"] == "op":
            traced = bool(command.get("traced"))
            op_tracer = tracer if traced else NULL
            if traced:
                tracer.op_id += 1
                workload.install(tracer)
            try:
                outcome = workload.run_op(op_tracer)
            finally:
                if traced:
                    tracer.unpatch()
            if traced:
                outcome["self_s"] = tracer.self_times(tracer.op_id)
                outcome["covered_s"] = tracer.covered(tracer.op_id)
                outcome["counts"] = tracer.counts.get(tracer.op_id, {})
            send(outcome)
        elif command["cmd"] == "api":
            send(api_passes(root, command["targets"], tracer))
        elif command["cmd"] == "end":
            if args.trace:
                tracer.dump(scratch / "spans.json")
            send({"peak_rss_mb": _peak_rss_mb()})
            break
    return 0


if __name__ == "__main__":
    sys.exit(main())
