"""The analysis kernels: one vectorized path, one test oracle.

The hot path of the pipeline — per-bin sample medians (§2.1), probe
queueing-delay stacking, population aggregation and Welch
classification (§2.3) — runs on flat numpy/scipy arrays:

* :mod:`.flat` — the flat survey pass: traceroute scans straight into
  ``(bin, sample)`` arrays, whole-dataset (probe x bin) matrices, and
  every AS's aggregated medians in one grouped pass;
* :mod:`.vector` — grouped medians (one ``lexsort``), whole-dataset
  bin medians, and one :func:`scipy.signal.welch` call over an
  (AS x bins) matrix.

:mod:`.reference` keeps the original per-traceroute / per-probe
Python loops, the ones the paper's prose maps to.  No pipeline module
imports it: it is the oracle ``tests/kernels`` checks the production
functions against, bit for bit, and ``benchmarks`` times them
against.  The pipeline-level fixtures it froze
(``tests/golden/differential_golden.json``) pin the end-to-end
output.
"""

from __future__ import annotations

from ...obs import get_observer


def record_kernel_op(op: str, n: int = 1) -> None:
    """Count ``n`` kernel invocations of ``op`` on the active observer.

    ``kernel_ops_total{op}`` — a constant time no-op under the
    default NOOP observer.
    """
    obs = get_observer()
    if not obs.enabled:
        return
    obs.counter(
        "kernel_ops_total",
        "analysis kernel invocations per operation",
        ("op",),
    ).inc(n, op=op)


__all__ = ["record_kernel_op"]
