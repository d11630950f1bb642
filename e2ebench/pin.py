"""Rewrite ``pinned.json``: the survey and anomaly digests of every input
variant, computed by the program as it stands.

Run from the root of a checkout after a change that is meant to alter
what the program computes, and review the diff::

    PYTHONPATH=src python3 e2ebench/pin.py
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402


def main() -> int:
    pinned = {"survey": {}, "anomaly": {}}
    scratch = Path(tempfile.mkdtemp(prefix="e2ebench-pin-"))
    try:
        for variant in range(workloads.VARIANTS):
            for name in pinned:
                workload = workloads.BATCH_WORKLOADS[name](variant, scratch)
                outcome = workload.run_op()
                # Only the pin itself may be missing here.
                if any("pinned" not in p for p in outcome["problems"]):
                    raise SystemExit(f"{name} variant {variant}: "
                                     f"{outcome['problems']}")
                pinned[name][str(variant)] = workload.last_digest
            print(f"variant {variant}: {pinned['survey'][str(variant)][:12]} "
                  f"{pinned['anomaly'][str(variant)][:12]}", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    workloads.PINNED.write_text(json.dumps(pinned, indent=1, sort_keys=True)
                                + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
