"""Kernel observability: the ``kernel_ops_total{op}`` counter."""

import datetime as dt

import numpy as np

from repro.core.kernels import record_kernel_op
from repro.obs import observed
from repro.timebase import MeasurementPeriod


class TestKernelOpCounter:
    def test_counter_emitted_per_backend_and_op(self):
        """One path, so no backend label: the counter is per op."""
        with observed() as obs:
            record_kernel_op("bin-medians")
            record_kernel_op("bin-medians", 4)
            record_kernel_op("stack-delays")
        counter = obs.metrics.get("kernel_ops_total")
        assert counter.label_names == ("op",)
        assert counter.value(op="bin-medians") == 5
        assert counter.value(op="stack-delays") == 1

    def test_noop_without_observer(self):
        # Must be a silent no-op under the default NOOP observer.
        record_kernel_op("bin-medians")

    def test_pipeline_emits_kernel_ops(self):
        from repro.core import aggregate_population, LastMileDataset
        from repro.core.series import ProbeBinSeries
        from repro.timebase import TimeGrid

        period = MeasurementPeriod("t", dt.datetime(2019, 9, 2), 2)
        grid = TimeGrid(period)
        dataset = LastMileDataset(grid=grid)
        dataset.add(ProbeBinSeries(
            prb_id=1,
            median_rtt_ms=np.full(grid.num_bins, 2.0),
            traceroute_counts=np.full(grid.num_bins, 24),
        ))
        with observed() as obs:
            aggregate_population(dataset, [1])
        counter = obs.metrics.get("kernel_ops_total")
        assert counter.value(op="stack-delays") == 1
