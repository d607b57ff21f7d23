"""Timestamped measurement streams.

A :class:`MeasurementStream` is an append-only sequence of ``(time, value)``
pairs with a bounded retention window, supporting the windowed queries the
adaptation policy needs ("mean service time over the last 20 s").
"""

from __future__ import annotations

import bisect
import math
from collections import deque

import numpy as np

from repro.util.validation import check_positive

__all__ = ["MeasurementStream"]


class MeasurementStream:
    """Append-only (time, value) series with bounded retention.

    ``max_samples`` bounds memory; old samples are evicted FIFO.  Times must
    be non-decreasing (enforced), which both the simulator and wall-clock
    collection guarantee.
    """

    def __init__(self, name: str = "", max_samples: int = 4096) -> None:
        check_positive(max_samples, "max_samples")
        self.name = name
        self._times: deque[float] = deque(maxlen=int(max_samples))
        self._values: deque[float] = deque(maxlen=int(max_samples))

    def add(self, t: float, value: float) -> None:
        """Append one measurement; ``t`` must not precede the last sample."""
        if self._times and t < self._times[-1]:
            raise ValueError(
                f"non-monotonic time in stream {self.name!r}: {t} < {self._times[-1]}"
            )
        self._times.append(float(t))
        self._values.append(float(value))

    def __len__(self) -> int:
        return len(self._values)

    @property
    def last_time(self) -> float:
        return self._times[-1] if self._times else math.nan

    @property
    def last_value(self) -> float:
        return self._values[-1] if self._values else math.nan

    def values(self) -> list[float]:
        return list(self._values)

    def window(self, since: float) -> list[float]:
        """Values with timestamp >= ``since`` (chronological)."""
        times = list(self._times)
        i = bisect.bisect_left(times, since)
        return list(self._values)[i:]

    def window_mean(self, since: float) -> float:
        """Mean of the window, or NaN when empty."""
        w = self.window(since)
        return float(np.mean(w)) if w else math.nan

    def window_count(self, since: float) -> int:
        return len(self.window(since))

    def mean(self) -> float:
        return float(np.mean(self._values)) if self._values else math.nan
