"""Online median estimators for open streaming bins.

An open bin accumulates last-mile RTT samples until its wall-clock
window closes.  Two estimators back it:

* :class:`ExactMedian` — a bounded buffer holding every sample of the
  *open* bin (bounded because a bin only lives for ``bin_seconds``;
  memory is proportional to open bins, never the whole period).  Its
  value is exactly ``numpy.median`` over the samples seen so far.
  The engine finalizes a closed bin from the buffer with the batch
  pipeline's grouped-median pass
  (:func:`repro.core.kernels.vector.dataset_bin_medians`), which is
  bit-equal to ``numpy.median`` over the same pooled samples, so the
  estimate is bit-identical to the batch pipeline's.
* :class:`P2Median` — the P² (P-squared) algorithm of Jain & Chlamtac
  (CACM 1985): five markers, constant memory, no buffer.  Opt-in
  approximate mode for deployments where per-bin buffers are too
  expensive; accuracy is within a few percent of the exact median on
  unimodal data (the differential harness documents the tolerance it
  holds the seeded worlds to).

Both share the same interface — ``add``/``extend``/``value``/``n`` —
and the same NaN discipline as the kernels: NaN samples *propagate*
(``numpy.median`` over a set containing NaN is NaN), they are not
silently skipped.  Upstream stages are expected to have filtered
insane replies already (:func:`repro.core.lastmile.lastmile_samples`);
an estimator that hid a NaN would mask a pipeline bug.
"""

from __future__ import annotations

import math
from typing import Iterable, List

import numpy as np


class ExactMedian:
    """Exact online median: buffer the open bin, ``numpy.median`` it."""

    __slots__ = ("_samples", "_has_nan")

    def __init__(self) -> None:
        self._samples: List[float] = []
        self._has_nan = False

    @property
    def n(self) -> int:
        """Samples seen so far."""
        return len(self._samples)

    def add(self, sample: float) -> None:
        """Accumulate one sample (NaN propagates, like the kernels)."""
        sample = float(sample)
        if math.isnan(sample):
            self._has_nan = True
        self._samples.append(sample)

    def extend(self, samples: Iterable[float]) -> None:
        """Accumulate many samples."""
        for sample in samples:
            self.add(sample)

    def value(self) -> float:
        """The median of everything seen; NaN when empty or poisoned."""
        if not self._samples or self._has_nan:
            return float("nan")
        return float(np.median(self._samples))

    def samples(self) -> List[float]:
        """The buffered samples (the finalization kernel consumes them)."""
        return self._samples


class P2Median:
    """Constant-memory approximate median (P² algorithm, p = 0.5).

    Keeps five markers whose heights approximate the 0/25/50/75/100th
    percentiles, adjusted with piecewise-parabolic interpolation as
    samples arrive.  Exact for the first five samples (they *are* the
    markers); approximate beyond.  A NaN sample poisons the estimator
    (``value()`` stays NaN), matching the kernels' NaN propagation.
    """

    __slots__ = ("_initial", "_q", "_pos", "_desired", "_n", "_poisoned")

    #: Desired-position increments for p = 0.5.
    _INCREMENTS = (0.0, 0.25, 0.5, 0.75, 1.0)

    def __init__(self) -> None:
        self._initial: List[float] = []
        self._q: List[float] = []        # marker heights
        self._pos: List[float] = []      # actual marker positions
        self._desired: List[float] = []  # desired marker positions
        self._n = 0
        self._poisoned = False

    @property
    def n(self) -> int:
        """Samples seen so far."""
        return self._n

    def add(self, sample: float) -> None:
        """Accumulate one sample."""
        sample = float(sample)
        self._n += 1
        if math.isnan(sample):
            self._poisoned = True
            return
        if self._poisoned:
            return
        if not self._q:
            self._initial.append(sample)
            if len(self._initial) == 5:
                self._initial.sort()
                self._q = list(self._initial)
                self._pos = [1.0, 2.0, 3.0, 4.0, 5.0]
                self._desired = [1.0, 2.0, 3.0, 4.0, 5.0]
            return
        # Locate the cell the sample falls into and bump positions.
        if sample < self._q[0]:
            self._q[0] = sample
            k = 0
        elif sample >= self._q[4]:
            self._q[4] = sample
            k = 3
        else:
            k = 0
            while k < 3 and sample >= self._q[k + 1]:
                k += 1
        for i in range(k + 1, 5):
            self._pos[i] += 1.0
        for i, inc in enumerate(self._INCREMENTS):
            self._desired[i] += inc
        # Adjust the three interior markers toward their desired
        # positions with the piecewise-parabolic (P²) formula, falling
        # back to linear interpolation when the parabola overshoots.
        for i in (1, 2, 3):
            delta = self._desired[i] - self._pos[i]
            if (delta >= 1.0 and self._pos[i + 1] - self._pos[i] > 1.0) or (
                delta <= -1.0 and self._pos[i - 1] - self._pos[i] < -1.0
            ):
                step = 1.0 if delta >= 1.0 else -1.0
                candidate = self._parabolic(i, step)
                if self._q[i - 1] < candidate < self._q[i + 1]:
                    self._q[i] = candidate
                else:
                    self._q[i] = self._linear(i, step)
                self._pos[i] += step
        return

    def extend(self, samples: Iterable[float]) -> None:
        """Accumulate many samples."""
        for sample in samples:
            self.add(sample)

    def _parabolic(self, i: int, step: float) -> float:
        q, pos = self._q, self._pos
        return q[i] + step / (pos[i + 1] - pos[i - 1]) * (
            (pos[i] - pos[i - 1] + step)
            * (q[i + 1] - q[i]) / (pos[i + 1] - pos[i])
            + (pos[i + 1] - pos[i] - step)
            * (q[i] - q[i - 1]) / (pos[i] - pos[i - 1])
        )

    def _linear(self, i: int, step: float) -> float:
        q, pos = self._q, self._pos
        j = i + int(step)
        return q[i] + step * (q[j] - q[i]) / (pos[j] - pos[i])

    def value(self) -> float:
        """The median estimate; exact below six samples, NaN if empty
        or poisoned by a NaN sample."""
        if self._poisoned or self._n == 0:
            return float("nan")
        if self._q:
            return float(self._q[2])
        return float(np.median(self._initial))
