"""Background-load models: the "non-dedicated" behaviour of grid nodes.

A load model maps simulated time to an **availability** fraction in
``(0, 1]``: the share of a processor's nominal speed left for the pipeline
after external users take theirs.  All models are deterministic functions of
time given their seed, so re-evaluating ``availability(t)`` for the same
``t`` always agrees — a property both the simulator (service times) and the
monitor (measurements) rely on.

Models provided:

====================  =====================================================
:class:`ConstantLoad`  fixed availability (dedicated node when 1.0)
:class:`StepLoad`      piecewise-constant schedule — perturbation scripts
:class:`RandomWalkLoad` reflected Gaussian random walk on a time grid
:class:`MarkovOnOffLoad` alternating exponential busy/idle periods
:class:`PeriodicLoad`  sinusoidal (diurnal) availability
:class:`CompositeLoad` product of sub-models (e.g. diurnal × walk)
====================  =====================================================
"""

from __future__ import annotations

import bisect
import math
from typing import Sequence

import numpy as np

from repro.util.validation import check_positive, check_probability

__all__ = [
    "LoadModel",
    "ConstantLoad",
    "StepLoad",
    "RandomWalkLoad",
    "MarkovOnOffLoad",
    "PeriodicLoad",
    "CompositeLoad",
    "MIN_AVAILABILITY",
]

# Availability is clamped away from zero: a fully saturated node still makes
# (very slow) progress, and division by zero in service times is impossible.
MIN_AVAILABILITY = 1e-3


def _clamp(a: float) -> float:
    return min(1.0, max(MIN_AVAILABILITY, a))


class LoadModel:
    """Interface: deterministic availability as a function of time."""

    def availability(self, t: float) -> float:
        """Fraction of nominal speed available at time ``t``, in (0, 1]."""
        raise NotImplementedError

    def __call__(self, t: float) -> float:
        return self.availability(t)


class ConstantLoad(LoadModel):
    """Fixed availability; ``ConstantLoad(1.0)`` is a dedicated node."""

    def __init__(self, availability: float = 1.0) -> None:
        check_probability(availability, "availability")
        self._a = _clamp(availability)

    def availability(self, t: float) -> float:
        return self._a

    def __repr__(self) -> str:
        return f"ConstantLoad({self._a})"


class StepLoad(LoadModel):
    """Piecewise-constant availability from ``[(time, value), ...]`` steps.

    Before the first breakpoint the ``initial`` value applies.  This is the
    workhorse for scripted perturbations ("at t=40 s, node 3 drops to 20 %").
    """

    def __init__(
        self, steps: Sequence[tuple[float, float]], initial: float = 1.0
    ) -> None:
        check_probability(initial, "initial")
        pairs = sorted((float(t), float(v)) for t, v in steps)
        for _, v in pairs:
            check_probability(v, "step value")
        self._times = [t for t, _ in pairs]
        self._values = [_clamp(v) for _, v in pairs]
        self._initial = _clamp(initial)

    def availability(self, t: float) -> float:
        i = bisect.bisect_right(self._times, t)
        return self._initial if i == 0 else self._values[i - 1]

    def __repr__(self) -> str:
        return f"StepLoad({list(zip(self._times, self._values))}, initial={self._initial})"


class RandomWalkLoad(LoadModel):
    """Reflected Gaussian random walk sampled on a ``dt`` grid.

    The walk is generated lazily and cached, so ``availability`` is a pure
    function of ``t`` for a fixed seed.  Values reflect off ``lo``/``hi``.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        *,
        dt: float = 1.0,
        sigma: float = 0.05,
        start: float = 1.0,
        lo: float = 0.05,
        hi: float = 1.0,
    ) -> None:
        check_positive(dt, "dt")
        check_positive(sigma, "sigma")
        if not MIN_AVAILABILITY <= lo < hi <= 1.0:
            raise ValueError(f"need {MIN_AVAILABILITY} <= lo < hi <= 1, got lo={lo} hi={hi}")
        check_probability(start, "start")
        self._rng = rng
        self._dt = float(dt)
        self._sigma = float(sigma)
        self._lo = float(lo)
        self._hi = float(hi)
        self._values = [float(min(hi, max(lo, start)))]

    def _extend_to(self, k: int) -> None:
        while len(self._values) <= k:
            nxt = self._values[-1] + float(self._rng.normal(0.0, self._sigma))
            # Reflect off the bounds until inside [lo, hi].
            while nxt < self._lo or nxt > self._hi:
                if nxt < self._lo:
                    nxt = 2 * self._lo - nxt
                if nxt > self._hi:
                    nxt = 2 * self._hi - nxt
            self._values.append(nxt)

    def availability(self, t: float) -> float:
        k = max(0, int(t / self._dt))
        self._extend_to(k)
        return _clamp(self._values[k])


class MarkovOnOffLoad(LoadModel):
    """Two-state Markov-modulated load: idle (avail=1) / busy (avail=low).

    Sojourn times are exponential with means ``mean_idle`` and ``mean_busy``.
    Segments are generated lazily from the seeded RNG, so the process is a
    deterministic function of time.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        *,
        mean_idle: float = 30.0,
        mean_busy: float = 10.0,
        busy_availability: float = 0.2,
        start_busy: bool = False,
    ) -> None:
        check_positive(mean_idle, "mean_idle")
        check_positive(mean_busy, "mean_busy")
        check_probability(busy_availability, "busy_availability")
        self._rng = rng
        self._mean_idle = float(mean_idle)
        self._mean_busy = float(mean_busy)
        self._busy_avail = _clamp(busy_availability)
        # Segment boundaries: times[i] is the END of segment i.
        self._ends: list[float] = []
        self._busy: list[bool] = []
        self._state_busy = start_busy
        self._horizon = 0.0

    def _extend_to(self, t: float) -> None:
        while self._horizon <= t:
            mean = self._mean_busy if self._state_busy else self._mean_idle
            dur = float(self._rng.exponential(mean))
            self._horizon += max(dur, 1e-9)
            self._ends.append(self._horizon)
            self._busy.append(self._state_busy)
            self._state_busy = not self._state_busy

    def availability(self, t: float) -> float:
        self._extend_to(t)
        i = bisect.bisect_right(self._ends, t)
        if i >= len(self._busy):
            i = len(self._busy) - 1
        return self._busy_avail if self._busy[i] else 1.0


class PeriodicLoad(LoadModel):
    """Sinusoidal (diurnal-style) availability.

    ``availability(t) = base + amplitude * sin(2π (t + phase) / period)``,
    clamped to (0, 1].
    """

    def __init__(
        self,
        *,
        base: float = 0.7,
        amplitude: float = 0.25,
        period: float = 120.0,
        phase: float = 0.0,
    ) -> None:
        check_probability(base, "base")
        check_positive(period, "period")
        if amplitude < 0:
            raise ValueError(f"amplitude must be >= 0, got {amplitude}")
        self._base = base
        self._amp = amplitude
        self._period = period
        self._phase = phase

    def availability(self, t: float) -> float:
        return _clamp(
            self._base + self._amp * math.sin(2.0 * math.pi * (t + self._phase) / self._period)
        )


class CompositeLoad(LoadModel):
    """Product of sub-model availabilities (clamped)."""

    def __init__(self, models: Sequence[LoadModel]) -> None:
        if not models:
            raise ValueError("CompositeLoad requires at least one model")
        self._models = list(models)

    def availability(self, t: float) -> float:
        a = 1.0
        for m in self._models:
            a *= m.availability(t)
        return _clamp(a)
