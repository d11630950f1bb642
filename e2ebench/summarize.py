"""Run workloads over several seeds and summarise every metric.

Run from the root of a checkout::

    python3 e2ebench/summarize.py --seeds 10
    python3 e2ebench/summarize.py --workloads serve --seeds 5 --trace 1

For each workload and metric it prints the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
quartile distance as a share of the median.  An end-to-end spread above
a third of the metric's bound in ``BENCHMARK.json`` is marked ``!``.
The machine block of every run is printed once per distinct value.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def run_once(workload: str, seed: int, seconds: int, trace: int):
    """``(result, machine)`` of one run; raises on a failed run."""
    spec = json.loads(SPEC.read_text())
    command = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace)]
    completed = subprocess.run(command, capture_output=True, text=True)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{completed.returncode}:\n{completed.stdout}"
                           f"{completed.stderr[-2000:]}")
    machine = next((line[len("machine "):] for line in lines
                    if line.startswith("machine ")), "{}")
    return json.loads(lines[-1]), json.loads(machine)


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("nan")


def main(argv=None) -> int:
    spec = json.loads(SPEC.read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    collected = {}
    machines = []
    for workload in args.workloads:
        runs = []
        for seed in range(args.seeds):
            result, machine = run_once(workload, seed, args.seconds,
                                       args.trace)
            if not result["correct"]:
                raise RuntimeError(f"{workload} seed {seed}: failed checks")
            runs.append(result["metrics"])
            machines.append(machine)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()
                if v["value"]), flush=True)
        collected[workload] = runs

    for machine in {json.dumps({k: v for k, v in m.items()
                                if k not in ("loadavg", "probe_median_s")},
                               sort_keys=True) for m in machines}:
        print("machine " + machine)
    probes = [m["probe_median_s"] for m in machines]
    loads = [m["loadavg"] for m in machines]
    print(f"probe median over runs {statistics.median(probes):.4f} s "
          f"(min {min(probes):.4f}, max {max(probes):.4f}); load average "
          f"at start {min(loads):.2f}-{max(loads):.2f}")
    print(f"{'workload':9} {'metric':26} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>8}")
    for workload, runs in collected.items():
        for name in runs[0]:
            values = [r[name]["value"] for r in runs]
            median, q1, q3, rel = spread(values)
            flag = ""
            if name in bounds and rel > bounds[name] / 3:
                flag = " !"
            print(f"{workload:9} {name:26} {median:12.6g} {q1:12.6g} "
                  f"{q3:12.6g} {rel:8.3%}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
