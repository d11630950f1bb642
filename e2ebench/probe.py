"""Host probe: a fixed numpy + Python-object kernel that uses no repro code.

Timings on a shared host drift with whatever else the host runs.  The
benchmark runs this probe after every operation and cold start, in the
``run.py`` process -- which never imports the program -- and reports
times as
``raw * (REFERENCE_PROBE_S / run's probe median) ** PROBE_ELASTICITY``:
the time it would have taken on the host the reference was measured
on.  One probe sample is too short to track the host (it moves by tens
of percent from one second to the next); the run's median does track
its slower phases.  The kernel is RNG draws with a row-wise
``np.median`` (the binned simulator's kind of work) and a walk over a
few hundred thousand Python objects in shuffled order (per-record
ingest over a large heap).  A cache-resident interpreter loop was left
out: it swung more than anything it was meant to track (NOTES.md).
"""

from __future__ import annotations

import random
import time
from typing import List, Optional

import numpy as np

#: Median probe time on the reference host (2-vCPU Intel Xeon VM,
#: Python 3.11.7, numpy 2.4.6); normalised times read in seconds on
#: that host.
REFERENCE_PROBE_S = 0.18

#: How far the program's times move with the probe: the slope of log raw
#: time on log probe median across runs, 0.55-0.79 for the batch
#: workloads' CPU per operation and cold starts (NOTES.md).  Dividing by
#: the whole probe ratio over-corrected by about a third.
PROBE_ELASTICITY = 0.65

_HEAP_OBJECTS = 400_000
_WALK_STEPS = 200_000
_heap: Optional[List[list]] = None
_order: Optional[List[int]] = None


def _numpy_part(rng: np.random.Generator) -> float:
    total = 0.0
    for _ in range(20):
        draws = rng.normal(size=(336, 81)) + rng.exponential(size=(336, 81))
        total += float(np.median(draws, axis=1).sum())
    return total


def _heap_part() -> float:
    """Visit ``_WALK_STEPS`` of the probe's heap objects in a fixed
    shuffled order, so most visits miss the caches."""
    global _heap, _order
    if _heap is None:
        _heap = [[i, float(i), str(i)] for i in range(_HEAP_OBJECTS)]
        _order = list(range(_HEAP_OBJECTS))
        random.Random(1).shuffle(_order)
    acc = 0.0
    for index in _order[:_WALK_STEPS]:
        acc += _heap[index][1]
    return acc


def run_probe() -> float:
    """Wall seconds of one fixed probe run (the heap is built untimed
    on the first call)."""
    if _heap is None:
        _heap_part()
    rng = np.random.default_rng(20200101)
    started = time.perf_counter()
    _numpy_part(rng)
    _heap_part()
    return time.perf_counter() - started


def normalise(raw: float, probe_s: float) -> float:
    """Scale a raw timing to the reference host by the probe ratio."""
    if probe_s <= 0:
        raise ValueError(f"probe time must be positive, got {probe_s}")
    return raw * (REFERENCE_PROBE_S / probe_s) ** PROBE_ELASTICITY


if __name__ == "__main__":
    import statistics

    times = [run_probe() for _ in range(9)]
    print(f"probe median {statistics.median(times):.4f} s "
          f"(min {min(times):.4f}, max {max(times):.4f})")
