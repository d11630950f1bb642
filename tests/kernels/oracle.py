"""Run the pipeline with the reference loops doing the arithmetic.

The pipeline has one path; :mod:`repro.core.kernels.reference` is its
test oracle.  :func:`reference_arithmetic` swaps the numeric kernels
that path calls — grouped medians, per-AS population medians and
spectral markers — for the reference loops, leaving the orchestration
(filtering, retry envelopes, quality accounting, sharding, streaming)
untouched.  A test that runs the same world both ways and compares
the bytes localizes a failure: if only the production leg drifts, the
vectorized arithmetic is wrong; if both drift, the orchestration is.

Shard pools fork from the patched parent, so sharded runs inside the
context use the oracle too.
"""

import contextlib
import warnings

import numpy as np

import repro.core.kernels.flat as flat_module
import repro.core.kernels.vector as vector_module
import repro.core.survey as survey_module
from repro.core.kernels.reference import REFERENCE


def reference_grouped_median(group_ids, values, num_groups):
    """Per-group :func:`numpy.median` via the reference bin loop."""
    medians, _ = REFERENCE.bin_medians(
        [int(g) for g in group_ids], [[v] for v in values],
        np.ones(num_groups, dtype=np.int64), num_groups, 0,
    )
    return medians


def reference_population_medians(delays, group_rows):
    """One :func:`numpy.nanmedian` per population, as the per-AS
    aggregation loop computed it."""
    num_bins = delays.shape[1]
    medians = np.full((len(group_rows), num_bins), np.nan)
    contributing = np.zeros((len(group_rows), num_bins), dtype=np.int64)
    for group, rows in enumerate(group_rows):
        stacked = delays[np.asarray(rows, dtype=np.int64)]
        contributing[group] = np.sum(~np.isnan(stacked), axis=0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            medians[group] = np.nanmedian(stacked, axis=0)
    return medians, contributing


#: (module, attribute, oracle) for every kernel the path calls.
SWAPS = (
    (vector_module, "grouped_median", reference_grouped_median),
    (flat_module, "grouped_median", reference_grouped_median),
    (survey_module, "population_median_pass",
     reference_population_medians),
    (survey_module, "markers_batch", REFERENCE.markers_batch),
)


@contextlib.contextmanager
def reference_arithmetic():
    """Inside the block, the pipeline's kernels are the oracle's."""
    saved = [(module, name, getattr(module, name))
             for module, name, _ in SWAPS]
    try:
        for module, name, oracle in SWAPS:
            setattr(module, name, oracle)
        yield
    finally:
        for module, name, original in saved:
            setattr(module, name, original)


def run_on(kernels, fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` computed by the production kernels
    (``"vector"``) or by the oracle's loops (``"reference"``)."""
    if kernels == "vector":
        return fn(*args, **kwargs)
    if kernels != "reference":
        raise ValueError(f"unknown kernels {kernels!r}")
    with reference_arithmetic():
        return fn(*args, **kwargs)
