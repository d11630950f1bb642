"""The repository's end-to-end benchmark: one workload per invocation.

Run from the root of a checkout::

    python3 e2ebench/run.py --workload survey --seed 0 --seconds 15 --trace 0

Workloads (``NOTES.md`` says why each exists):

* ``survey``  -- one ``repro survey`` period into a fresh archive;
* ``anomaly`` -- ``repro anomaly --archive`` on a simulated campaign;
* ``stream``  -- a binned survey's records replayed through
  ``StreamingSurvey`` with checkpoint commits into a live period;
* ``serve``   -- ``repro serve`` in its own process under an open loop.

``--trace 0`` prints the end-to-end metrics, measured with tracing off;
``--trace 1`` prints the per-layer metrics from a traced run.  Sizes are
the constants at the top of ``workloads.py``.  Times are scaled to the
reference host by the run's host-probe median (``probe.py``); the raw
values are printed beside them.  Every metric is printed as
``name value unit``; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only
when every output check passed.  Scratch files live under
``.e2ebench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent))

from probe import normalise, run_probe  # noqa: E402

HERE = Path(__file__).resolve().parent

#: ``(name, unit)`` in BENCHMARK.json order: the gated metrics, which
#: every workload reports.  A batch workload's request is one operation;
#: ``setup_s`` and ``cpu_us_per_req`` are probe-normalised.
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cpu_us_per_req", "us"),
)

#: Span name -> (per-layer metric, scale from seconds).
SPAN_METRICS = {
    "scenarios.world": ("scenarios.world_s", 1.0),
    "atlas.simulate_binned": ("atlas.simulate_binned_s", 1.0),
    "atlas.traceroute": ("atlas.traceroute_s", 1.0),
    "core.classify": ("core.classify_s", 1.0),
    "anomaly.scan": ("anomaly.scan_s", 1.0),
    "anomaly.link_medians": ("anomaly.link_medians_s", 1.0),
    "anomaly.bands_events": ("anomaly.bands_events_s", 1.0),
    "stream.ingest": ("stream.ingest_s", 1.0),
    "stream.partial": ("stream.partial_s", 1.0),
    "stream.finalize": ("stream.finalize_s", 1.0),
    "store.period_commit": ("store.period_commit_ms", 1e3),
    "store.anomaly_commit": ("store.anomaly_commit_ms", 1e3),
    "store.partial_commit": ("store.partial_commit_ms", 1e3),
    "store.live_finalize": ("store.live_finalize_ms", 1e3),
}

COUNT_METRICS = (
    "atlas.probe_bins", "atlas.traceroutes", "core.ases",
    "core.ases_reported", "anomaly.links", "anomaly.cells",
    "anomaly.events", "stream.records", "stream.reclassified",
    "stream.sparse_bins", "stream.stale_records",
)

#: ``(name, unit)`` in BENCHMARK.json order.  A workload that does not
#: cross a layer, or have a latency, reports 0 for it.  The first four
#: are latencies the user sees, too unsteady on a shared host to gate
#: (NOTES.md): ``op_s`` (batch, probe-normalised), ``p50_ms`` and
#: ``p99_ms`` (serve) and ``checkpoint_ms`` (stream).
PER_LAYER = (
    ("op_s", "s"), ("p50_ms", "ms"), ("p99_ms", "ms"), ("checkpoint_ms", "ms"),
    ("import.total_s", "s"), ("import.scipy_s", "s"),
    ("scenarios.world_s", "s"),
    ("atlas.simulate_binned_s", "s"), ("atlas.probe_bins", "count"),
    ("atlas.traceroute_s", "s"), ("atlas.traceroutes", "count"),
    ("core.classify_s", "s"), ("core.ases", "count"),
    ("core.ases_reported", "count"),
    ("anomaly.scan_s", "s"), ("anomaly.link_medians_s", "s"),
    ("anomaly.bands_events_s", "s"), ("anomaly.links", "count"),
    ("anomaly.cells", "count"), ("anomaly.events", "count"),
    ("stream.ingest_s", "s"), ("stream.partial_s", "s"),
    ("stream.finalize_s", "s"), ("stream.records", "count"),
    ("stream.reclassified", "count"), ("stream.sparse_bins", "count"),
    ("stream.stale_records", "count"),
    ("store.period_commit_ms", "ms"), ("store.anomaly_commit_ms", "ms"),
    ("store.partial_commit_ms", "ms"), ("store.live_finalize_ms", "ms"),
    ("store.bytes_written", "bytes"), ("store.read_us", "us"),
    ("serve.api_us", "us"), ("serve.handle_us", "us"),
    ("serve.http_overhead_us", "us"), ("serve.lru_hit_ratio", "ratio"),
    ("loadgen.late_p99_ms", "ms"), ("loadgen.capacity_rps", "1/s"),
    ("trace.overhead_frac", "ratio"), ("trace.coverage_frac", "ratio"),
)

#: Modules a user of each path imports: the ``setup_s`` cold start.
ENTRY_MODULES = {
    "survey": ("repro.scenarios", "repro.core", "repro.store"),
    "anomaly": ("repro.atlas", "repro.anomaly", "repro.topology",
                "repro.store"),
    "stream": ("repro.scenarios", "repro.stream", "repro.store"),
    "serve": ("repro.cli", "repro.serve", "repro.store"),
}
WORKLOADS = tuple(ENTRY_MODULES)

#: Units of what a run prints besides the JSON metrics.
PRINTED_ONLY = {"operations": "count", "requests": "count",
                "p99_beyond": "count", "raw_setup_s": "s",
                "raw_cpu_us_per_req": "us", "raw_op_s": "s"}

#: ``setup_s`` is the median of ``2 * COLD_STARTS_EACH_SIDE + 1`` cold
#: starts, spread over the run so that one slow stretch of the host
#: does not hold most of them: some before the timed work, the measured
#: process's own, and as many after.
COLD_STARTS_EACH_SIDE = 1
#: Host-probe samples before and after ``serve``'s timed phase.  One
#: follows every batch operation and every cold start too.
SERVE_PROBES = 8
#: Timed operations per batch run, at least (after the warm-up one).
MIN_REPS = 3
#: ``serve``'s fixed open-loop rate, well below one connection's
#: closed-loop capacity (NOTES.md, "Steadiness").
SERVE_RATE = 500.0
SERVE_WARMUP_S = 2.0
#: Requests of the sequence replayed in-process in the traced run.
API_PASS_REQUESTS = 3000
CAPACITY_S = 2.0


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to a failed check)."""


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def program_env(root: Path) -> Dict[str, str]:
    """The environment for the program's processes: the checkout's
    ``src`` on the path and no ``REPRO_*`` overrides, so the program
    runs with its own defaults."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(root / "src")
    return env


def worker_command(ctx: "Context", *extra: str) -> List[str]:
    return [sys.executable, str(HERE / "worker.py"),
            "--workload", ctx.workload,
            "--entry", ",".join(ENTRY_MODULES[ctx.workload]), *extra]


def cold_start(ctx: "Context") -> float:
    """Seconds from spawning a fresh interpreter to the workload's entry
    modules imported."""
    started = time.perf_counter()
    process = subprocess.Popen(
        worker_command(ctx, "--import-only"), stdout=subprocess.PIPE,
        env=ctx.env, cwd=ctx.root, text=True,
    )
    with process:
        line = process.stdout.readline()
        elapsed = time.perf_counter() - started
        process.wait()
    if not line or not json.loads(line).get("imported"):
        raise BenchError(f"importing {ENTRY_MODULES[ctx.workload]} failed")
    return elapsed


def sample_probe(ctx: "Context", count: int = 1) -> None:
    for _ in range(count):
        ctx.probes.append(run_probe())


def cold_starts(ctx: "Context", start) -> List[float]:
    """``COLD_STARTS_EACH_SIDE`` timed ``start()`` calls, each followed
    by a host-probe sample."""
    times = []
    for _ in range(COLD_STARTS_EACH_SIDE):
        times.append(start())
        sample_probe(ctx)
    return times


def import_profile(modules, env, cwd) -> Dict[str, float]:
    """``import.total_s`` and ``import.scipy_s`` from ``-X importtime``."""
    completed = subprocess.run(
        [sys.executable, "-X", "importtime", "-c",
         f"import {', '.join(modules)}"],
        env=env, cwd=cwd, capture_output=True, text=True, check=True,
    )
    total = scipy = 0
    for line in completed.stderr.splitlines():
        match = re.match(r"import time:\s+(\d+) \|\s+\d+ \|\s*(\S+)", line)
        if match:
            own = int(match.group(1))
            total += own
            if match.group(2).split(".")[0] == "scipy":
                scipy += own
    return {"import.total_s": total / 1e6, "import.scipy_s": scipy / 1e6}


class Worker:
    """``worker.py`` in its own process, spoken to one line at a time."""

    def __init__(self, ctx: "Context"):
        command = worker_command(ctx, "--seed", str(ctx.seed),
                                 "--scratch", str(ctx.scratch))
        if ctx.trace:
            command.append("--trace")
        self.log = open(ctx.scratch / "worker.log", "ab")
        started = time.perf_counter()
        self.process = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self.log, env=ctx.env, cwd=ctx.root, text=True,
        )
        self.receive()
        #: This process's own cold start: spawn to entry modules imported.
        self.setup_s = time.perf_counter() - started
        self.ready = self.receive()

    def receive(self) -> Dict:
        line = self.process.stdout.readline()
        if not line:
            raise BenchError(
                "worker exited early; see " + str(self.log.name))
        return json.loads(line)

    def ask(self, command: Dict) -> Dict:
        self.process.stdin.write(json.dumps(command) + "\n")
        self.process.stdin.flush()
        return self.receive()

    def close(self) -> None:
        if self.process.poll() is None:
            try:
                self.process.stdin.close()
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self.log.close()


class Context:
    def __init__(self, args):
        self.root = Path.cwd()
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.env = program_env(self.root)
        self.scratch = self.root / ".e2ebench" / f"{args.workload}-{args.seed}"
        shutil.rmtree(self.scratch, ignore_errors=True)
        self.scratch.mkdir(parents=True)
        self.probes: List[float] = []


def machine_block() -> Dict:
    from importlib import metadata

    model = "unknown"
    with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
        for line in cpuinfo:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": sys.version.split()[0],
        **versions,
        "loadavg": os.getloadavg()[0],
    }


# -- batch workloads ---------------------------------------------------


def run_batch(ctx: Context):
    modules = ENTRY_MODULES[ctx.workload]
    metrics: Dict[str, float] = {}
    if ctx.trace:
        metrics.update(import_profile(modules, ctx.env, ctx.root))
    setups = [] if ctx.trace else cold_starts(ctx, lambda: cold_start(ctx))
    worker = Worker(ctx)
    setups.append(worker.setup_s)
    sample_probe(ctx)
    ops: List[Dict] = []
    try:
        started = time.perf_counter()
        while True:
            # Op 0 is the warm-up; a traced run alternates after it.
            traced = ctx.trace and len(ops) % 2 == 1
            cycle_started = time.perf_counter()
            outcome = worker.ask({"cmd": "op", "traced": traced})
            outcome["traced"] = traced
            sample_probe(ctx)
            ops.append(outcome)
            print(f"op {len(ops) - 1}{' (warm-up)' if len(ops) == 1 else ''}"
                  f"{' traced' if traced else ''}: raw {outcome['raw_s']:.4f}"
                  f" s, probe {ctx.probes[-1]:.4f} s", flush=True)
            timed = ops[1:]
            enough = len(timed) >= MIN_REPS and (
                not ctx.trace or any(not o["traced"] for o in timed))
            # Stop when one more operation like the last would overrun.
            now = time.perf_counter()
            if enough and 2 * now - cycle_started - started > ctx.seconds:
                break
        end = worker.ask({"cmd": "end"})
    finally:
        worker.close()
    if not ctx.trace:
        setups += cold_starts(ctx, lambda: cold_start(ctx))
    probe_s = statistics.median(ctx.probes)

    problems = [p for o in ops for p in o["problems"]]
    failed = sum(1 for o in ops if o["problems"])
    timed = ops[1:]
    plain = [o for o in timed if not o["traced"]]
    raw = {
        "setup_s": statistics.median(setups),
        "op_s": statistics.median(o["raw_s"] for o in plain),
        # A batch workload's request is one operation.
        "cpu_us_per_req": statistics.median(o["cpu_s"] for o in plain) * 1e6,
    }
    for name, value in raw.items():
        metrics[name] = normalise(value, probe_s)
        metrics["raw_" + name] = value
    metrics.update({
        "peak_rss_mb": end["peak_rss_mb"],
        "operations": len(plain),
    })
    checkpoints = [c for o in plain for c in o["checkpoints_s"]]
    if checkpoints:
        metrics["checkpoint_ms"] = statistics.median(checkpoints) * 1e3
    if ctx.trace:
        metrics.update(batch_layers(timed))
    return metrics, len(ops), failed, problems


def batch_layers(timed: List[Dict]) -> Dict[str, float]:
    traced = [o for o in timed if o["traced"]]
    plain = [o for o in timed if not o["traced"]]
    layers: Dict[str, float] = {}
    for span, (metric, scale) in SPAN_METRICS.items():
        values = [o["self_s"].get(span, 0.0) for o in traced]
        layers[metric] = statistics.median(values) * scale
    for name in COUNT_METRICS:
        layers[name] = statistics.median(
            o["counts"].get(name, 0) for o in traced)
    layers["store.bytes_written"] = statistics.median(
        o["bytes_written"] for o in timed)
    layers["trace.overhead_frac"] = (
        statistics.median(o["raw_s"] for o in traced)
        / statistics.median(o["raw_s"] for o in plain))
    layers["trace.coverage_frac"] = statistics.median(
        o["covered_s"] / o["raw_s"] for o in traced)
    return layers


# -- serve -------------------------------------------------------------


def request_sequence(mix, seed: int, count: int) -> List[str]:
    """``count`` targets drawn by the mix's weights, seeded."""
    targets = [target for target, _weight in mix]
    weights = [weight for _target, weight in mix]
    return random.Random(seed).choices(targets, weights=weights, k=count)


def run_serve(ctx: Context):
    from serveload import (
        OK_STATUSES, Client, check_body, closed_loop, open_loop, start_server,
    )

    modules = ENTRY_MODULES["serve"]
    metrics: Dict[str, float] = {}
    problems: List[str] = []
    worker = Worker(ctx)
    server = None
    try:
        fixture = worker.ready
        archive = Path(fixture["archive"])
        mix, bodies = fixture["mix"], fixture["bodies"]
        log = ctx.scratch / "server.log"
        access_log = ctx.scratch / "access.jsonl" if ctx.trace else None
        if ctx.trace:
            metrics.update(import_profile(modules, ctx.env, ctx.root))

        def cold_server() -> float:
            cold = start_server(archive, ctx.env, ctx.root, log)
            cold.stop()
            return cold.setup_s

        setups = [] if ctx.trace else cold_starts(ctx, cold_server)
        server = start_server(archive, ctx.env, ctx.root, log,
                              access_log=access_log)
        setups.append(server.setup_s)
        sample_probe(ctx, SERVE_PROBES)

        client = Client(server.host, server.port)
        attempted = failed = 0
        # Every distinct target once: the body must equal SurveyAPI's.
        for target in sorted(bodies):
            status, body = client.get(target, "check")
            attempted += 1
            problem = check_body(target, status, body, bodies[target])
            if problem is not None:
                failed += 1
                problems.append(problem)

        sequence = request_sequence(
            mix, ctx.seed, int(SERVE_RATE * (SERVE_WARMUP_S + ctx.seconds)))
        warmup = int(SERVE_RATE * SERVE_WARMUP_S)
        warm = open_loop(client, sequence[:warmup], SERVE_RATE, "w")
        cpu_before = server.cpu_s()
        samples = open_loop(client, sequence[warmup:], SERVE_RATE, "t")
        cpu_s = server.cpu_s() - cpu_before
        sample_probe(ctx, SERVE_PROBES)
        for sample in warm + samples:
            attempted += 1
            if sample.status not in OK_STATUSES:
                failed += 1
                problems.append(
                    f"serve: {sample.target} answered {sample.status}")
        latencies = [s.latency_s for s in samples]
        metrics.update({
            # Each request is timed from when it was due.
            "p50_ms": statistics.median(latencies) * 1e3,
            "p99_ms": percentile(latencies, 99) * 1e3,
            "raw_cpu_us_per_req": cpu_s / len(samples) * 1e6,
            "peak_rss_mb": server.peak_rss_mb(),
            "requests": len(samples),
            "p99_beyond": len(samples) - int(0.99 * len(samples)),
            "loadgen.late_p99_ms": percentile(
                [s.late_s for s in samples], 99) * 1e3,
        })
        if ctx.trace:
            metrics["loadgen.capacity_rps"] = closed_loop(
                client, sequence, CAPACITY_S)
        client.close()
        server.stop()
        server = None
        if not ctx.trace:
            setups += cold_starts(ctx, cold_server)
        probe_s = statistics.median(ctx.probes)
        metrics["raw_setup_s"] = statistics.median(setups)
        for name in ("setup_s", "cpu_us_per_req"):
            metrics[name] = normalise(metrics["raw_" + name], probe_s)
        if ctx.trace:
            metrics.update(serve_layers(access_log, samples))
            metrics.update(worker.ask({
                "cmd": "api",
                "targets": sequence[warmup:warmup + API_PASS_REQUESTS]}))
        worker.ask({"cmd": "end"})
    finally:
        if server is not None:
            server.stop()
        worker.close()
    return metrics, attempted, failed, problems


def serve_layers(access_log: Path, samples) -> Dict[str, float]:
    """Server-side handle time and LRU hits from the access log, joined
    to the client's timings by request id."""
    handled = {}
    with open(access_log, encoding="utf-8") as log:
        for line in log:
            entry = json.loads(line)
            if entry["request_id"].startswith("t"):
                handled[entry["request_id"]] = entry
    handle_us, overhead_us, hits = [], [], 0
    for index, sample in enumerate(samples):
        entry = handled.get(f"t{index}")
        if entry is None:
            continue
        handle_us.append(entry["duration_ms"] * 1e3)
        overhead_us.append((sample.done - sample.sent) * 1e6
                           - entry["duration_ms"] * 1e3)
        hits += entry["outcome"] == "cached"
    if not handle_us:
        raise BenchError("access log joined no timed request")
    return {
        "serve.handle_us": statistics.median(handle_us),
        "serve.http_overhead_us": statistics.median(overhead_us),
        "serve.lru_hit_ratio": hits / len(handle_us),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (Path.cwd() / "src" / "repro" / "__init__.py").is_file():
        print("error: run from the root of a checkout holding src/repro",
              file=sys.stderr)
        return 2
    ctx = Context(args)
    machine = machine_block()
    runner = run_serve if ctx.workload == "serve" else run_batch
    try:
        metrics, attempted, failed, problems = runner(ctx)
    finally:
        for bulky in ("op", "archive"):
            shutil.rmtree(ctx.scratch / bulky, ignore_errors=True)

    wanted = PER_LAYER if ctx.trace else END_TO_END
    values = {name: float(metrics.get(name, 0.0)) for name, _unit in wanted}
    machine["probe_median_s"] = statistics.median(ctx.probes)
    print("machine " + json.dumps(machine, sort_keys=True))
    for problem in problems:
        print("FAILED CHECK " + problem)
    for name, unit in wanted:
        print(f"{name} {values[name]:.6g} {unit}")
    units = dict(END_TO_END + PER_LAYER, **PRINTED_ONLY)
    for name, value in metrics.items():
        if name not in values:
            print(f"{name} {value:.6g} {units[name]} (printed only)")
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
