"""Cross-host clock mapping: fit a remote clock's offset and drift.

The distributed backend never compares clocks across hosts directly — the
wire protocol only ever echoes a timestamp back to the machine that
produced it.  But merging *worker-side* trace events onto the session
timeline needs exactly that comparison, so this module fits it from the
measurements the protocol already makes: every ``ping``/``pong`` between
the coordinator's monitor and a worker carries the NTP-style quadruple

* ``t0`` — coordinator clock when the ping was sent (echoed),
* ``t1`` — worker clock when the ping arrived,
* ``t2`` — worker clock when the pong was handed to the socket,
* ``t3`` — coordinator clock when the pong was received,

from which one sample gives ``offset = ((t1 - t0) + (t2 - t3)) / 2``
(remote minus local) with an error bounded by ``rtt / 2`` where
``rtt = (t3 - t0) - (t2 - t1)`` — the classic NTP bound: the true offset
lies within ±rtt/2 of the sample regardless of how the wire delay splits
between the directions.

:class:`ClockSync` keeps a sliding window of such samples and fits
``offset(t_remote) = a + b * t_remote`` — a constant offset plus a linear
drift term — by least squares weighted by ``1 / (err + eps)^2``, so
low-rtt samples (tight bounds) dominate.  The drift term only activates
once the window spans enough time to make the slope identifiable
(:data:`MIN_DRIFT_SPAN` seconds and :data:`MIN_DRIFT_SAMPLES` samples);
before that the best-bounded sample wins, which is exact for the common
same-host case where both clocks are one CLOCK_MONOTONIC.

A remote timestamp ``t`` maps onto the local clock as
``t - offset_at(t)``; :meth:`ClockSync.error_bound` reports the tightest
rtt/2 seen in the window — the honest "±" on every mapped timestamp.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from threading import Lock

__all__ = ["ClockSync", "ClockFit", "MIN_DRIFT_SAMPLES", "MIN_DRIFT_SPAN"]

#: Samples required before the drift (slope) term is fitted at all.
MIN_DRIFT_SAMPLES = 8
#: Remote-clock span (seconds) the window must cover before drift is fitted;
#: below this the slope is not identifiable against rtt noise.
MIN_DRIFT_SPAN = 1.0
#: Floor added to per-sample error bounds before weighting (a same-host
#: loopback rtt can be sub-microsecond; weights must stay finite).
_ERR_EPS = 1e-7


@dataclass(frozen=True)
class ClockFit:
    """One fitted remote-clock model: ``offset(t) = a + b * t``."""

    a: float  #: constant offset (remote minus local), seconds
    b: float  #: drift, seconds of offset per remote second
    err: float  #: tightest rtt/2 bound in the window (inf before data)
    n: int  #: samples behind the fit

    def offset_at(self, t_remote: float) -> float:
        return self.a + self.b * t_remote


_NO_FIT = ClockFit(0.0, 0.0, float("inf"), 0)


class ClockSync:
    """Sliding-window offset+drift estimator for one remote clock.

    Thread-safe: ``observe`` is called from receive threads, ``fit`` and
    ``offset`` from whoever maps timestamps.  The fit is recomputed lazily
    — at most once per new sample — and reads are lock-free on the last
    fit.
    """

    def __init__(self, window: int = 256) -> None:
        if window < 2:
            raise ValueError(f"window must be >= 2, got {window}")
        # (t_remote_mid, offset_sample, err_bound)
        self._samples: deque[tuple[float, float, float]] = deque(maxlen=window)
        self._lock = Lock()
        self._fit: ClockFit = _NO_FIT
        self._dirty = False

    # ------------------------------------------------------------- sampling
    def observe(self, t0: float, t1: float, t2: float, t3: float) -> float:
        """Fold one request/response quadruple in; returns the rtt.

        ``t0``/``t3`` are local (send/receive), ``t1``/``t2`` remote
        (receive/send).  Samples with a non-positive rtt (clock steps,
        reordered reads) are dropped rather than poisoning the fit.
        """
        rtt = (t3 - t0) - (t2 - t1)
        if rtt < 0 or t3 < t0 or t2 < t1:
            return rtt
        offset = ((t1 - t0) + (t2 - t3)) / 2.0
        with self._lock:
            self._samples.append(((t1 + t2) / 2.0, offset, rtt / 2.0))
            self._dirty = True
        return rtt

    @property
    def n_samples(self) -> int:
        return len(self._samples)

    # ---------------------------------------------------------------- fitting
    def fit(self) -> ClockFit:
        """The current offset+drift model (identity fit before any sample)."""
        with self._lock:
            if not self._dirty:
                return self._fit
            samples = list(self._samples)
            self._dirty = False
            self._fit = self._refit(samples)
            return self._fit

    @staticmethod
    def _refit(samples: list[tuple[float, float, float]]) -> ClockFit:
        if not samples:
            return _NO_FIT
        best_err = min(err for _, _, err in samples)
        t_best, off_best, _ = min(samples, key=lambda s: s[2])
        span = max(t for t, _, _ in samples) - min(t for t, _, _ in samples)
        if len(samples) < MIN_DRIFT_SAMPLES or span < MIN_DRIFT_SPAN:
            return ClockFit(off_best, 0.0, best_err, len(samples))
        # Weighted least squares of offset against remote time.  Center the
        # time axis first: raw perf-counter values are huge, and b * t must
        # not lose the offset's microseconds to float cancellation.
        t_ref = samples[0][0]
        sw = swx = swy = swxx = swxy = 0.0
        for t, off, err in samples:
            w = 1.0 / (err + _ERR_EPS) ** 2
            x = t - t_ref
            sw += w
            swx += w * x
            swy += w * off
            swxx += w * x * x
            swxy += w * x * off
        denom = sw * swxx - swx * swx
        if denom <= 0:
            return ClockFit(off_best, 0.0, best_err, len(samples))
        b = (sw * swxy - swx * swy) / denom
        a_centered = (swy - b * swx) / sw
        # Un-center: offset(t) = a_centered + b * (t - t_ref)
        return ClockFit(a_centered - b * t_ref, b, best_err, len(samples))

    # ---------------------------------------------------------------- mapping
    def offset(self, t_remote: float | None = None) -> float:
        """The fitted offset (remote minus local), at ``t_remote`` if given."""
        f = self.fit()
        if t_remote is None:
            # Evaluate at the newest sample so drift is reflected.
            t_remote = self._samples[-1][0] if self._samples else 0.0
        return f.offset_at(t_remote)

    def error_bound(self) -> float:
        """Tightest rtt/2 bound in the window (inf before any sample)."""
        return self.fit().err
