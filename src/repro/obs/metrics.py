"""Metrics registry: counters, gauges and log2 histograms over labels.

A thin, dependency-free metrics layer in the Prometheus data model:
instruments are registered by name, each name owning one labelled family
(``("stage_items_total", {"stage": "1"})``).  Histograms reuse the repo's
log2 bucketing convention (``monitor/instrument.py`` payload histograms:
bucket ``b`` covers ``[2^(b-1), 2^b)`` of the scaled value) and carry an
:class:`~repro.util.stats.OnlineStats` for exact mean/std alongside.

:class:`MetricsRecorder` subscribes a registry to an
:class:`~repro.obs.events.EventBus` and folds the schema's events into
instrument updates — the same hooks :class:`PipelineInstrumentation` sits
on, but retained for export instead of windowed for the policy.
"""

from __future__ import annotations

import math
from threading import Lock
from typing import Iterator

from repro.obs.events import Event, EventBus
from repro.util.stats import OnlineStats

__all__ = [
    "Counter",
    "Gauge",
    "Log2Histogram",
    "MetricsRegistry",
    "MetricsRecorder",
]


class Counter:
    """Monotone counter (float increments allowed, e.g. byte totals)."""

    kind = "counter"

    def __init__(self) -> None:
        self._value = 0.0
        self._lock = Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up; got {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """Point-in-time value (replica counts, backlog, last elapsed)."""

    kind = "gauge"

    def __init__(self) -> None:
        self._value = 0.0
        self._lock = Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        return self._value


class Log2Histogram:
    """Log2-bucketed histogram with exact online moments.

    ``observe(x)`` buckets ``int(x * scale)`` by bit length — the exact
    convention of the payload histograms in ``monitor/instrument.py`` —
    so service times recorded with ``scale=1e6`` land in µs-resolution
    power-of-two buckets.  Bucket upper bounds are ``2**b / scale``.
    """

    kind = "histogram"

    def __init__(self, scale: float = 1e6) -> None:
        if scale <= 0:
            raise ValueError(f"scale must be > 0, got {scale}")
        self.scale = scale
        self.buckets: dict[int, int] = {}
        self.stats = OnlineStats()
        self._lock = Lock()

    def observe(self, x: float) -> None:
        b = max(0, int(float(x) * self.scale)).bit_length()
        with self._lock:
            self.buckets[b] = self.buckets.get(b, 0) + 1
            self.stats.push(x)

    @property
    def count(self) -> int:
        return self.stats.n

    @property
    def sum(self) -> float:
        return self.stats.mean * self.stats.n if self.stats.n else 0.0

    def bounds(self) -> list[tuple[float, int]]:
        """Sorted ``(upper_bound, cumulative_count)`` pairs (Prometheus-style)."""
        out: list[tuple[float, int]] = []
        cum = 0
        with self._lock:
            for b in sorted(self.buckets):
                cum += self.buckets[b]
                out.append(((2.0**b) / self.scale, cum))
        return out

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile by interpolating within its bucket.

        Bucket ``b`` covers ``(2^(b-1), 2^b] / scale`` (``b == 0`` covers
        down to zero); the estimate walks the cumulative counts to the
        bucket holding the ``q``-th observation and interpolates linearly
        inside it, so the error is bounded by the bucket's width — at most
        a factor of 2, the price of log2 bucketing.  NaN before any
        observation.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        with self._lock:
            n = self.stats.n
            if n == 0:
                return math.nan
            target = q * n
            cum = 0
            last_b = 0
            for b in sorted(self.buckets):
                last_b = b
                count = self.buckets[b]
                if cum + count >= target:
                    lo = (2.0 ** (b - 1)) / self.scale if b > 0 else 0.0
                    hi = (2.0**b) / self.scale
                    frac = (target - cum) / count
                    return lo + frac * (hi - lo)
                cum += count
            return (2.0**last_b) / self.scale


Instrument = Counter | Gauge | Log2Histogram


class MetricsRegistry:
    """Get-or-create registry of labelled instruments.

    One family per name; requesting an existing ``(name, labels)`` pair
    returns the same instrument, so emit sites never hold references and
    exporters see everything through :meth:`collect`.
    """

    def __init__(self) -> None:
        self._families: dict[str, dict[tuple[tuple[str, str], ...], Instrument]] = {}
        self._kinds: dict[str, str] = {}
        self._lock = Lock()

    def _get(self, name: str, labels: dict[str, str] | None, factory) -> Instrument:
        key = tuple(sorted((str(k), str(v)) for k, v in (labels or {}).items()))
        with self._lock:
            family = self._families.setdefault(name, {})
            inst = family.get(key)
            if inst is None:
                inst = factory()
                if name in self._kinds and self._kinds[name] != inst.kind:
                    raise ValueError(
                        f"metric {name!r} is a {self._kinds[name]}, not {inst.kind}"
                    )
                self._kinds[name] = inst.kind
                family[key] = inst
            return inst

    def counter(self, name: str, labels: dict[str, str] | None = None) -> Counter:
        inst = self._get(name, labels, Counter)
        assert isinstance(inst, Counter), f"{name} is {inst.kind}, not counter"
        return inst

    def gauge(self, name: str, labels: dict[str, str] | None = None) -> Gauge:
        inst = self._get(name, labels, Gauge)
        assert isinstance(inst, Gauge), f"{name} is {inst.kind}, not gauge"
        return inst

    def histogram(
        self, name: str, labels: dict[str, str] | None = None, *, scale: float = 1e6
    ) -> Log2Histogram:
        inst = self._get(name, labels, lambda: Log2Histogram(scale=scale))
        assert isinstance(inst, Log2Histogram), f"{name} is {inst.kind}, not histogram"
        return inst

    def collect(self) -> Iterator[tuple[str, dict[str, str], Instrument]]:
        """Yield every ``(name, labels, instrument)`` sorted by name/labels."""
        with self._lock:
            families = {n: dict(f) for n, f in self._families.items()}
        for name in sorted(families):
            for key in sorted(families[name]):
                yield name, dict(key), families[name][key]


class MetricsRecorder:
    """Folds bus events into a :class:`MetricsRegistry`.

    Label cardinality is deliberately bounded: per-stage and per-worker
    labels only — never per-item — so a long session cannot grow the
    registry without bound.
    """

    #: The schema kinds this recorder consumes (its bus subscription filter).
    KINDS = (
        "stream.begin",
        "stream.drain",
        "session.error",
        "item.submit",
        "item.complete",
        "stage.service",
        "replica.add",
        "replica.remove",
        "adapt.decide",
        "adapt.act",
        "adapt.rollback",
        "worker.join",
        "worker.death",
        "worker.redispatch",
        "frame.encode",
        "frame.release",
        "span.phases",
        "clock.sync",
    )

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        # (stream, seq) -> submit session-time, for end-to-end latency.
        # Bounded by the admission window (completes pop their entry); a
        # hard cap guards against journals with missing completions.
        self._pending: dict[tuple[int, int], float] = {}
        self._pending_lock = Lock()

    _MAX_PENDING = 100_000

    def attach(self, bus: EventBus) -> "MetricsRecorder":
        bus.subscribe(self, kinds=self.KINDS)
        return self

    def __call__(self, ev: Event) -> None:
        f = ev.fields
        kind = ev.kind
        reg = self.registry
        if kind == "stage.service":
            labels = {"stage": str(f.get("stage", "?"))}
            reg.counter("stage_items_total", labels).inc()
            reg.histogram("stage_service_seconds", labels).observe(f.get("seconds", 0.0))
            if "queue" in f:
                reg.gauge("stage_queue_length", labels).set(f["queue"])
            worker = f.get("worker")
            if worker is not None:
                reg.counter("worker_items_total", {"worker": str(worker)}).inc()
        elif kind == "item.submit":
            reg.counter("items_submitted_total").inc()
            if "wait" in f:
                reg.histogram("admit_wait_seconds").observe(f["wait"])
            if "stream" in f and "seq" in f:
                with self._pending_lock:
                    if len(self._pending) < self._MAX_PENDING:
                        self._pending[(f["stream"], f["seq"])] = ev.time
        elif kind == "item.complete":
            reg.counter("items_completed_total").inc()
            if "stream" in f and "seq" in f:
                with self._pending_lock:
                    t0 = self._pending.pop((f["stream"], f["seq"]), None)
                if t0 is not None and ev.time >= t0:
                    reg.histogram("item_latency_seconds").observe(ev.time - t0)
        elif kind == "stream.begin":
            reg.counter("streams_opened_total").inc()
        elif kind == "stream.drain":
            reg.counter("streams_drained_total").inc()
            reg.gauge("stream_last_items").set(f.get("items", 0))
            reg.gauge("stream_last_elapsed_seconds").set(f.get("elapsed", 0.0))
        elif kind in ("replica.add", "replica.remove"):
            stage = str(f.get("stage", "?"))
            if "n" in f:
                reg.gauge("stage_replicas", {"stage": stage}).set(f["n"])
            reg.counter("replica_events_total", {"kind": kind.split(".")[1]}).inc()
        elif kind.startswith("adapt."):
            reg.counter("adapt_events_total", {"kind": kind.split(".")[1]}).inc()
        elif kind.startswith("worker."):
            reg.counter("worker_events_total", {"kind": kind.split(".")[1]}).inc()
        elif kind == "frame.encode":
            reg.counter("frames_encoded_total").inc()
            reg.counter("frame_bytes_encoded_total").inc(f.get("nbytes", 0))
        elif kind == "frame.release":
            reg.counter("frames_released_total").inc()
            reg.counter("frame_bytes_released_total").inc(f.get("nbytes", 0))
        elif kind == "span.phases":
            stage = str(f.get("stage", "?"))
            for phase in ("wire_out", "worker_queue", "service", "encode", "wire_back"):
                if phase in f:
                    reg.histogram(
                        "span_phase_seconds", {"stage": stage, "phase": phase}
                    ).observe(f[phase])
        elif kind == "clock.sync":
            worker = str(f.get("worker", "?"))
            reg.gauge("worker_clock_offset_seconds", {"worker": worker}).set(
                f.get("offset", 0.0)
            )
            reg.gauge("worker_clock_error_seconds", {"worker": worker}).set(
                f.get("err", 0.0)
            )
        elif kind == "session.error":
            reg.counter("session_errors_total").inc()
