"""Online and windowed statistics used by monitoring and instrumentation.

The monitoring layer observes unbounded measurement streams, so everything
here is O(1) or O(window) in memory: Welford accumulators for whole-stream
moments, exponentially weighted moving averages for recency-biased estimates,
and fixed-capacity sliding windows for quantiles.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "OnlineStats",
    "EWMA",
    "SlidingWindow",
    "StatSummary",
    "summarize",
    "coefficient_of_variation",
]


class OnlineStats:
    """Numerically stable streaming mean/variance (Welford's algorithm).

    Supports :meth:`merge` so per-replica accumulators can be combined into a
    per-stage view without keeping raw samples.
    """

    __slots__ = ("_n", "_mean", "_m2", "_min", "_max")

    def __init__(self) -> None:
        self._n = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min = math.inf
        self._max = -math.inf

    def push(self, x: float) -> None:
        """Add one observation."""
        x = float(x)
        self._n += 1
        delta = x - self._mean
        self._mean += delta / self._n
        self._m2 += delta * (x - self._mean)
        if x < self._min:
            self._min = x
        if x > self._max:
            self._max = x

    def extend(self, xs: Iterable[float]) -> None:
        """Add many observations."""
        for x in xs:
            self.push(x)

    def merge(self, other: "OnlineStats") -> "OnlineStats":
        """Return a new accumulator equivalent to seeing both streams."""
        out = OnlineStats()
        if self._n == 0:
            out._n, out._mean, out._m2 = other._n, other._mean, other._m2
            out._min, out._max = other._min, other._max
            return out
        if other._n == 0:
            out._n, out._mean, out._m2 = self._n, self._mean, self._m2
            out._min, out._max = self._min, self._max
            return out
        n = self._n + other._n
        delta = other._mean - self._mean
        out._n = n
        out._mean = self._mean + delta * other._n / n
        out._m2 = self._m2 + other._m2 + delta * delta * self._n * other._n / n
        out._min = min(self._min, other._min)
        out._max = max(self._max, other._max)
        return out

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

    @property
    def min(self) -> float:
        return self._min if self._n else math.nan

    @property
    def max(self) -> float:
        return self._max if self._n else math.nan

    @property
    def cv(self) -> float:
        """Coefficient of variation (std / mean)."""
        if self._n < 2 or self._mean == 0.0:
            return math.nan
        return self.std / abs(self._mean)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"OnlineStats(n={self._n}, mean={self.mean:.6g}, std={self.std:.6g})"


class EWMA:
    """Exponentially weighted moving average with smoothing factor ``alpha``.

    ``alpha`` close to 1 tracks the latest sample; close to 0 averages over a
    long history.  ``value`` is NaN until the first observation.
    """

    __slots__ = ("alpha", "_value", "_n")

    def __init__(self, alpha: float) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = float(alpha)
        self._value = math.nan
        self._n = 0

    def push(self, x: float) -> float:
        """Fold one observation in and return the updated average."""
        x = float(x)
        if self._n == 0:
            self._value = x
        else:
            self._value += self.alpha * (x - self._value)
        self._n += 1
        return self._value

    @property
    def value(self) -> float:
        return self._value

    @property
    def n(self) -> int:
        return self._n


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
        for x in xs:
            self.push(x)

    def __len__(self) -> int:
        return len(self._buf)

    @property
    def capacity(self) -> int:
        return self._buf.maxlen or 0

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

    @property
    def std(self) -> float:
        return float(np.std(self._buf, ddof=1)) if len(self._buf) > 1 else math.nan

    @property
    def last(self) -> float:
        return self._buf[-1] if self._buf else math.nan

    def percentile(self, q: float) -> float:
        """Return the ``q``-th percentile (0..100) of the window."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"q must be in [0, 100], got {q}")
        return float(np.percentile(self._buf, q)) if self._buf else math.nan


@dataclass(frozen=True)
class StatSummary:
    """Immutable five-number-ish summary of a finished sample."""

    n: int
    mean: float
    std: float
    min: float
    p50: float
    p95: float
    max: float

    def __str__(self) -> str:
        return (
            f"n={self.n} mean={self.mean:.6g} std={self.std:.6g} "
            f"min={self.min:.6g} p50={self.p50:.6g} p95={self.p95:.6g} "
            f"max={self.max:.6g}"
        )


def summarize(xs: Sequence[float]) -> StatSummary:
    """Summarize a finite sample into a :class:`StatSummary`."""
    arr = np.asarray(list(xs), dtype=float)
    if arr.size == 0:
        nan = math.nan
        return StatSummary(0, nan, nan, nan, nan, nan, nan)
    return StatSummary(
        n=int(arr.size),
        mean=float(arr.mean()),
        std=float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
        min=float(arr.min()),
        p50=float(np.percentile(arr, 50)),
        p95=float(np.percentile(arr, 95)),
        max=float(arr.max()),
    )


def coefficient_of_variation(xs: Sequence[float]) -> float:
    """CV (std/mean) of a sample; NaN for degenerate inputs."""
    arr = np.asarray(list(xs), dtype=float)
    if arr.size < 2:
        return math.nan
    m = arr.mean()
    if m == 0.0:
        return math.nan
    return float(arr.std(ddof=1) / abs(m))
