"""Online and windowed statistics used by monitoring and instrumentation.

The monitoring layer observes unbounded measurement streams, so everything
here is O(1) or O(window) in memory: Welford accumulators for whole-stream
moments and fixed-capacity sliding windows for quantiles.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Iterable

import numpy as np

__all__ = ["OnlineStats", "SlidingWindow"]


class OnlineStats:
    """Numerically stable streaming mean/variance (Welford's algorithm)."""

    __slots__ = ("_n", "_mean", "_m2")

    def __init__(self) -> None:
        self._n = 0
        self._mean = 0.0
        self._m2 = 0.0

    def push(self, x: float) -> None:
        """Add one observation."""
        x = float(x)
        self._n += 1
        delta = x - self._mean
        self._mean += delta / self._n
        self._m2 += delta * (x - self._mean)

    def extend(self, xs: Iterable[float]) -> None:
        """Add many observations: exactly what one ``push`` each does, with the
        accumulator in locals for the whole run."""
        n, mean, m2 = self._n, self._mean, self._m2
        for x in xs:
            x = float(x)
            n += 1
            delta = x - mean
            mean += delta / n
            m2 += delta * (x - mean)
        self._n, self._mean, self._m2 = n, mean, m2

    @property
    def n(self) -> int:
        return self._n

    @property
    def mean(self) -> float:
        return self._mean if self._n else math.nan

    @property
    def variance(self) -> float:
        """Sample variance (ddof=1); NaN with fewer than two observations."""
        return self._m2 / (self._n - 1) if self._n > 1 else math.nan

    @property
    def std(self) -> float:
        v = self.variance
        return math.sqrt(v) if v == v else math.nan  # NaN-propagating

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"OnlineStats(n={self._n}, mean={self.mean:.6g}, std={self.std:.6g})"


class SlidingWindow:
    """Fixed-capacity window over the most recent observations.

    Used wherever the adaptation logic must react to *recent* behaviour
    (service times after a load change) rather than the whole run history.
    """

    __slots__ = ("_buf",)

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._buf: deque[float] = deque(maxlen=capacity)

    def push(self, x: float) -> None:
        self._buf.append(float(x))

    def push_out(self, x: float) -> float:
        """Push ``x``; return the observation it displaced (0.0 while there was room)."""
        buf = self._buf
        dropped = buf[0] if len(buf) == buf.maxlen else 0.0
        buf.append(float(x))
        return dropped

    def keep_last(self, n: int) -> None:
        """Forget all but the newest ``n`` observations."""
        while len(self._buf) > n:
            self._buf.popleft()

    def extend(self, xs: Iterable[float]) -> None:
        self._buf.extend(map(float, xs))

    def __len__(self) -> int:
        return len(self._buf)

    @property
    def full(self) -> bool:
        return len(self._buf) == self._buf.maxlen

    def values(self) -> list[float]:
        """Chronological copy of the window contents."""
        return list(self._buf)

    @property
    def mean(self) -> float:
        return float(np.mean(self._buf)) if self._buf else math.nan

    @property
    def median(self) -> float:
        return float(np.median(self._buf)) if self._buf else math.nan

