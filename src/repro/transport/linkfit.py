"""Size-stratified link estimation: fit latency + bandwidth from transfers.

The distributed coordinator measures, for every item, the pure wire time of
one task/result round trip (``rtt - service - wait``) and knows exactly how
many payload bytes crossed (task frame out plus result frame back).  Under
the affine link model the throughput predictor already prices
(:func:`repro.model.throughput._transfer_time`)::

    overhead(S) = 2 * latency + S / bandwidth

so a regression of observed ``(S, overhead)`` pairs recovers *both* link
parameters — replacing the constant-bandwidth assumption the coordinator's
``resource_view`` previously baked in (ROADMAP: "distributed bandwidth
estimation").

Samples are **stratified by size** into log2 buckets before fitting: real
streams are dominated by whatever payload size the pipeline currently
emits, and an unstratified least squares would collapse onto that cluster
and extrapolate garbage.  Each bucket keeps an EWMA of its transfer times;
the regression runs over bucket means, weighted by bucket occupancy, so a
handful of large-payload observations is enough to bend the fitted slope.

Fallbacks keep the estimator honest before it has evidence: with fewer
than two occupied buckets (no size spread at all), bandwidth stays at
a prior of 100 MB/s and latency is the mean overhead divided by the
round trips per sample — exactly the EWMA behaviour the coordinator had
before this model existed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["LinkModel", "SizeStratifiedLinkEstimator"]

#: Bandwidth (bytes/s) reported until the samples show real size spread.
_DEFAULT_BANDWIDTH = 1e8
#: One-way latencies one observed sample spans (the coordinator's task and
#: result legs); fitted intercepts are divided by it, so
#: ``LinkModel.latency_s`` is always one-way.
_ROUND_TRIPS = 2
#: EWMA weight of a new sample within its size bucket.
_ALPHA = 0.3

#: Fitted bandwidth is clamped into this range: below, a pathological fit
#: would price every transfer as infinite; above, the slope is noise and
#: the link is effectively latency-only (e.g. descriptor-only shm frames).
_MIN_BANDWIDTH = 1e3
_MAX_BANDWIDTH = 1e12


@dataclass(frozen=True)
class LinkModel:
    """One link's fitted affine cost: ``seconds(S) = latency + S / bandwidth``.

    ``fitted`` distinguishes a genuine two-parameter regression from the
    fallback (default bandwidth, measured latency only).
    """

    latency_s: float
    bandwidth_Bps: float
    n_samples: int = 0
    fitted: bool = False

    def seconds(self, nbytes: float) -> float:
        return self.latency_s + max(0.0, nbytes) / self.bandwidth_Bps


class SizeStratifiedLinkEstimator:
    """Online (size, seconds) samples -> :class:`LinkModel`."""

    def __init__(self) -> None:
        # bucket (log2 of size) -> [ewma_seconds, ewma_size, count]
        self._buckets: dict[int, list[float]] = {}
        self._n = 0

    def observe(self, nbytes: float, seconds: float) -> None:
        """Record one transfer: ``nbytes`` crossed the link in ``seconds``."""
        if seconds < 0 or math.isnan(seconds):
            return
        self._n += 1
        bucket = max(0, int(nbytes)).bit_length()
        entry = self._buckets.get(bucket)
        if entry is None:
            self._buckets[bucket] = [float(seconds), float(nbytes), 1]
        else:
            entry[0] += _ALPHA * (seconds - entry[0])
            entry[1] += _ALPHA * (nbytes - entry[1])
            entry[2] += 1

    def fit(self) -> LinkModel:
        """Current best (latency, bandwidth); falls back without size spread."""
        if not self._buckets:
            return LinkModel(0.0, _DEFAULT_BANDWIDTH)
        times = [e[0] for e in self._buckets.values()]
        sizes = [e[1] for e in self._buckets.values()]
        weights = [float(e[2]) for e in self._buckets.values()]
        wsum = sum(weights)
        mean_t = sum(w * t for w, t in zip(weights, times)) / wsum
        mean_s = sum(w * s for w, s in zip(weights, sizes)) / wsum
        fallback = LinkModel(max(0.0, mean_t / _ROUND_TRIPS), _DEFAULT_BANDWIDTH, self._n)
        if len(self._buckets) < 2:
            return fallback
        # Weighted least squares over bucket means: t = a + S * b.
        var_s = sum(w * (s - mean_s) ** 2 for w, s in zip(weights, sizes)) / wsum
        if var_s <= 0.0:
            return fallback
        cov = (
            sum(
                w * (s - mean_s) * (t - mean_t)
                for w, s, t in zip(weights, sizes, times)
            )
            / wsum
        )
        slope = cov / var_s
        if slope <= 0.0:
            # No measurable size dependence: a latency-dominated link (or a
            # descriptor-only shm path) — bandwidth is effectively unbounded.
            return LinkModel(
                max(0.0, mean_t / _ROUND_TRIPS), _MAX_BANDWIDTH, self._n, fitted=True
            )
        bandwidth = min(_MAX_BANDWIDTH, max(_MIN_BANDWIDTH, 1.0 / slope))
        intercept = mean_t - slope * mean_s
        latency = max(0.0, intercept / _ROUND_TRIPS)
        return LinkModel(latency, bandwidth, self._n, fitted=True)
