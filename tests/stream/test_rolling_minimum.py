"""The monitor's rolling propagation-delay baseline."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.stream import RollingMinimum


class TestRollingMinimum:
    def test_validation(self):
        with pytest.raises(ValueError):
            RollingMinimum(0)

    def test_window_behaviour(self):
        rolling = RollingMinimum(3)
        assert rolling.minimum() is None
        assert rolling.push(5.0) == 5.0
        assert rolling.push(3.0) == 3.0
        assert rolling.push(4.0) == 3.0
        assert rolling.push(6.0) == 3.0   # window [3,4,6]
        assert rolling.push(7.0) == 4.0   # 3 expired
        assert rolling.push(2.0) == 2.0

    @given(st.lists(st.floats(min_value=-1e3, max_value=1e3),
                    min_size=1, max_size=200),
           st.integers(min_value=1, max_value=20))
    def test_matches_naive(self, values, window):
        rolling = RollingMinimum(window)
        for index, value in enumerate(values):
            result = rolling.push(value)
            naive = min(values[max(0, index - window + 1): index + 1])
            assert result == naive
