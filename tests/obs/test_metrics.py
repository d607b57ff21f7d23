"""Tests for the metrics registry and the event-fed recorder."""

import pytest

from repro import open_pipeline
from repro.obs import Telemetry
from repro.obs.events import EventBus
from repro.obs.metrics import (
    Counter,
    Gauge,
    Log2Histogram,
    MetricsRecorder,
    MetricsRegistry,
)


class TestInstruments:
    def test_counter(self):
        c = Counter()
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge(self):
        g = Gauge()
        g.set(4)
        g.set(3)
        assert g.value == 3.0

    def test_histogram_log2_buckets(self):
        h = Log2Histogram(scale=1.0)
        for x in (1, 2, 3, 4):
            h.observe(x)
        # bucket b covers [2^(b-1), 2^b): 1 -> b1, 2,3 -> b2, 4 -> b3
        assert h.buckets == {1: 1, 2: 2, 3: 1}
        assert h.count == 4
        assert h.sum == pytest.approx(10.0)
        bounds = h.bounds()
        assert bounds[-1] == (8.0, 4)  # cumulative reaches the count

    def test_histogram_observe_n_is_n_observations(self):
        once, each = Log2Histogram(scale=1.0), Log2Histogram(scale=1.0)
        once.observe(3.0, 5)
        once.observe(1.0)
        for x in (3.0,) * 5 + (1.0,):
            each.observe(x)
        assert once.buckets == each.buckets == {2: 5, 1: 1}
        assert once.count == each.count == 6
        assert once.sum == pytest.approx(each.sum) == pytest.approx(16.0)

    def test_histogram_scale(self):
        h = Log2Histogram(scale=1e6)
        h.observe(3e-6)  # 3 us -> bucket 2
        assert h.buckets == {2: 1}

    def test_quantile_empty_is_nan(self):
        import math

        assert math.isnan(Log2Histogram().quantile(0.5))

    def test_quantile_validates_range(self):
        with pytest.raises(ValueError, match="q must be"):
            Log2Histogram().quantile(1.5)

    def test_quantile_single_bucket_interpolates(self):
        h = Log2Histogram(scale=1.0)
        for _ in range(4):
            h.observe(3.0)  # bucket 2: (2, 4]
        # All mass in one bucket: quantiles interpolate across (2, 4].
        assert h.quantile(0.0) == pytest.approx(2.0)
        assert h.quantile(0.5) == pytest.approx(3.0)
        assert h.quantile(1.0) == pytest.approx(4.0)

    def test_quantile_monotone_and_bounded_by_buckets(self):
        h = Log2Histogram(scale=1e6)
        values = [1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4, 1e-3, 1e-2]
        for v in values:
            h.observe(v)
        qs = [h.quantile(q) for q in (0.1, 0.5, 0.9, 0.99)]
        assert qs == sorted(qs)
        # p99 lands in the top bucket; log2 bucketing bounds the error to 2x.
        assert values[-1] / 2 <= qs[-1] <= values[-1] * 2


class TestRegistry:
    def test_get_or_create_same_instrument(self):
        reg = MetricsRegistry()
        a = reg.counter("items", {"stage": "0"})
        b = reg.counter("items", {"stage": "0"})
        assert a is b
        assert reg.counter("items", {"stage": "1"}) is not a

    def test_kind_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError, match="counter"):
            reg.gauge("x", {"l": "1"})

    def test_collect_sorted(self):
        reg = MetricsRegistry()
        reg.counter("b").inc()
        reg.counter("a", {"s": "1"}).inc(2)
        out = [(name, labels, inst.value) for name, labels, inst in reg.collect()]
        assert out == [("a", {"s": "1"}, 2.0), ("b", {}, 1.0)]


class TestRecorder:
    def _bus(self):
        bus = EventBus(clock=lambda: 0.0)
        rec = MetricsRecorder().attach(bus)
        return bus, rec.registry

    def test_stage_service_feeds_labelled_families(self):
        bus, reg = self._bus()
        bus.emit("stage.service", stage=1, seconds=0.01, speed=1.0,
                 worker=3, queue=2)
        bus.emit("stage.service", stage=1, seconds=0.02, speed=1.0)
        assert reg.counter("stage_items_total", {"stage": "1"}).value == 2
        assert reg.histogram("stage_service_seconds", {"stage": "1"}).count == 2
        assert reg.gauge("stage_queue_length", {"stage": "1"}).value == 2
        assert reg.counter("worker_items_total", {"worker": "3"}).value == 1

    def test_a_batched_record_counts_each_of_its_items(self):
        # A batch's stage.service carries the batch totals and items=N, its
        # phases too on a distributed hop: the stage and phase families
        # count N items at the per-item mean.
        bus, reg = self._bus()
        bus.emit("stage.service", stage=0, seconds=0.16, speed=1.0, worker=2, items=16)
        bus.emit("stage.service", stage=0, seconds=0.01, speed=1.0, worker=2)
        bus.emit("stage.service", seq=0, stage=0, seconds=0.04, speed=1.0, worker=2,
                 wire_out=0.08, worker_queue=0.0, encode=0.0, wire_back=0.0, items=4)
        assert reg.counter("stage_items_total", {"stage": "0"}).value == 21
        assert reg.counter("worker_items_total", {"worker": "2"}).value == 21
        h = reg.histogram("stage_service_seconds", {"stage": "0"})
        assert h.count == 21 and h.sum == pytest.approx(0.21)
        assert h.sum / h.count == pytest.approx(0.01)
        phase = reg.histogram("span_phase_seconds", {"stage": "0", "phase": "service"})
        assert phase.count == 4 and phase.sum == pytest.approx(0.04)
        wire = reg.histogram("span_phase_seconds", {"stage": "0", "phase": "wire_out"})
        assert wire.count == 4 and wire.sum == pytest.approx(0.08)

    def test_a_batched_threads_session_counts_items_not_batches(self, tmp_path):
        telemetry = Telemetry(prometheus=tmp_path / "m.prom")
        with open_pipeline([abs, abs], telemetry=telemetry, batching=16) as session:
            for x in range(640):
                session.submit(x)
            assert session.drain() == list(range(640))
        reg = telemetry.registry
        assert reg.counter("items_completed_total").value == 640
        for stage in ("0", "1"):
            assert reg.counter("stage_items_total", {"stage": stage}).value == 640
            assert reg.histogram("stage_service_seconds", {"stage": stage}).count == 640
        workers = [
            inst.value for name, _, inst in reg.collect() if name == "worker_items_total"
        ]
        assert sum(workers) == 2 * 640

    def test_lifecycle_counters(self):
        bus, reg = self._bus()
        bus.emit("stream.begin", stream=1)
        for seq in range(3):
            bus.emit("item.submit", stream=1, seq=seq, gseq=seq)
            bus.emit("item.complete", stream=1, seq=seq)
        bus.emit("stream.drain", stream=1, items=3, elapsed=0.5)
        assert reg.counter("items_submitted_total").value == 3
        assert reg.counter("items_completed_total").value == 3
        assert reg.counter("streams_opened_total").value == 1
        assert reg.gauge("stream_last_items").value == 3
        assert reg.gauge("stream_last_elapsed_seconds").value == 0.5

    def test_replica_adapt_worker_frame_events(self):
        bus, reg = self._bus()
        bus.emit("replica.add", stage=0, n=2)
        bus.emit("replica.remove", stage=0, n=1)
        bus.emit("adapt.decide", reason="bottleneck")
        bus.emit("adapt.act", reason="bottleneck")
        bus.emit("worker.join", worker=0)
        bus.emit("worker.death", worker=0)
        bus.emit("frame.encode", stage=0, seq=0, nbytes=100)
        bus.emit("frame.release", stage=1, seq=0, nbytes=80)
        bus.emit("session.error", error="boom")
        assert reg.gauge("stage_replicas", {"stage": "0"}).value == 1
        assert reg.counter("replica_events_total", {"kind": "add"}).value == 1
        assert reg.counter("adapt_events_total", {"kind": "decide"}).value == 1
        assert reg.counter("worker_events_total", {"kind": "death"}).value == 1
        assert reg.counter("frame_bytes_encoded_total").value == 100
        assert reg.counter("frame_bytes_released_total").value == 80
        assert reg.counter("session_errors_total").value == 1

    def test_end_to_end_item_latency_histogram(self):
        bus = EventBus(clock=lambda: 0.0)
        reg = MetricsRecorder().attach(bus).registry
        bus.emit("item.submit", at=1.0, stream=0, seq=0, gseq=0, wait=0.05)
        bus.emit("item.complete", at=1.5, stream=0, seq=0)
        h = reg.histogram("item_latency_seconds")
        assert h.count == 1
        assert h.sum == pytest.approx(0.5)
        assert reg.histogram("admit_wait_seconds").count == 1
        # A completion with no matching submit records nothing.
        bus.emit("item.complete", at=2.0, stream=0, seq=9)
        assert h.count == 1

    def test_a_decomposed_hop_feeds_per_stage_phase_histograms(self):
        bus, reg = self._bus()
        bus.emit("stage.service", stage=0, seconds=0.2, speed=1.0)  # not decomposed
        bus.emit("stage.service", seq=0, stage=1, seconds=0.1, speed=1.0, wire_out=0.001,
                 worker_queue=0.01, encode=0.002, wire_back=0.001)
        assert {dict(k)["stage"] for k in reg.family("span_phase_seconds")} == {"1"}
        labels = {"stage": "1", "phase": "service"}
        h = reg.histogram("span_phase_seconds", labels)
        assert h.count == 1
        assert h.sum == pytest.approx(0.1)
        assert reg.histogram(
            "span_phase_seconds", {"stage": "1", "phase": "wire_out"}
        ).count == 1

    def test_clock_sync_feeds_worker_gauges(self):
        bus, reg = self._bus()
        bus.emit("clock.sync", worker=2, offset=1.5e-4, drift=0.0,
                 err=2e-5, n=12)
        assert reg.gauge(
            "worker_clock_offset_seconds", {"worker": "2"}
        ).value == pytest.approx(1.5e-4)
        assert reg.gauge(
            "worker_clock_error_seconds", {"worker": "2"}
        ).value == pytest.approx(2e-5)
