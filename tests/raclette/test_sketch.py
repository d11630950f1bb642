"""Unit cases for the online median estimators.

The monitor's open per-probe bins and the streaming survey engine
share :mod:`repro.stream.median`; these are small worked examples
beside the property suite in ``tests/stream/test_median_properties.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stream import ExactMedian, P2Median


class TestExactMedian:
    def test_empty(self):
        assert np.isnan(ExactMedian().value())

    def test_odd_even(self):
        sketch = ExactMedian()
        sketch.extend([3.0, 1.0, 2.0])
        assert sketch.value() == 2.0
        sketch.add(10.0)
        assert sketch.value() == 2.5
        assert sketch.n == 4

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6),
                    min_size=1, max_size=50))
    def test_matches_numpy(self, values):
        sketch = ExactMedian()
        sketch.extend(values)
        assert sketch.value() == pytest.approx(float(np.median(values)))


class TestP2Quantile:
    """The P² estimator at p = 0.5 (:class:`P2Median`)."""

    def test_exact_below_five_samples(self):
        sketch = P2Median()
        assert np.isnan(sketch.value())
        sketch.extend([5.0, 1.0, 3.0])
        assert sketch.value() == 3.0

    @settings(deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_median_accuracy_normal(self, seed):
        rng = np.random.default_rng(seed)
        data = rng.normal(10.0, 2.0, size=3000)
        sketch = P2Median()
        sketch.extend(data)
        assert sketch.value() == pytest.approx(
            float(np.median(data)), abs=0.3
        )

    def test_count(self):
        sketch = P2Median()
        sketch.extend(range(10))
        assert sketch.n == 10

    def test_constant_stream(self):
        sketch = P2Median()
        sketch.extend([4.2] * 100)
        assert sketch.value() == pytest.approx(4.2)
