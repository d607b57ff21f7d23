"""Tests for per-item span collection."""

import pytest

from repro.obs.events import EventBus
from repro.obs.spans import SpanCollector


def _bus():
    bus, col = EventBus(clock=lambda: 0.0), SpanCollector()
    bus.subscribe(col)
    return bus, col


class TestSpanCollector:
    def test_span_minted_at_submit_and_completed(self):
        bus, col = _bus()
        bus.emit("stream.begin", stream=1)
        bus.emit("item.submit", at=1.0, stream=1, seq=0, gseq=0)
        bus.emit("stage.service", at=1.2, stage=0, seconds=0.1, speed=1.0, seq=0)
        bus.emit("item.complete", at=1.5, stream=1, seq=0)
        span = col.span(1, 0)
        assert span is not None
        assert span.complete
        assert span.latency == 0.5
        assert span.service_seconds == 0.1
        assert [k for _, k in span.phases()] == [
            "item.submit", "stage.service", "item.complete",
        ]

    def test_gseq_alias_resolves_session_global_seqs(self):
        # Thread/asyncio executors emit gseq in stage.service: stream 2's
        # first item has seq 0 but gseq 5.
        bus, col = _bus()
        bus.emit("stream.begin", stream=2)
        bus.emit("item.submit", stream=2, seq=0, gseq=5)
        bus.emit("stage.service", stage=0, seconds=0.2, speed=1.0, seq=5)
        span = col.span(2, 0)
        assert span.service_seconds == 0.2

    def test_records_resolve_by_gseq_alone(self):
        # Every executor names items by gseq: a record carrying the item's
        # stream position instead belongs to no span.
        bus, col = _bus()
        bus.emit("stream.begin", stream=3)
        bus.emit("item.submit", stream=3, seq=7, gseq=100)
        bus.emit("frame.encode", stage=0, seq=7, nbytes=32)
        bus.emit("frame.encode", stage=0, seq=100, nbytes=64)
        span = col.span(3, 7)
        assert [e.fields["nbytes"] for e in span.events if e.kind == "frame.encode"] == [64]

    def test_batch_record_fans_out_to_its_member_spans(self):
        bus, col = _bus()
        for seq in range(4):
            bus.emit("item.submit", stream=1, seq=seq, gseq=10 + seq)
        bus.emit("stage.service", stage=0, seconds=0.3, speed=1.0, seq=11, items=3)
        assert [col.span(1, s).service_seconds for s in range(4)] == [
            0.0, pytest.approx(0.1), pytest.approx(0.1), pytest.approx(0.1)
        ]

    def test_spans_ordered(self):
        bus, col = _bus()
        bus.emit("stream.begin", stream=1)
        for seq in (2, 0, 1):
            bus.emit("item.submit", stream=1, seq=seq, gseq=seq)
        assert [(s.stream, s.seq) for s in col.spans()] == [(1, 0), (1, 1), (1, 2)]

    def test_incomplete_span_has_no_latency(self):
        bus, col = _bus()
        bus.emit("item.submit", stream=1, seq=0, gseq=0)
        assert col.span(1, 0).latency is None
        assert not col.span(1, 0).complete

    def test_trace_id_from_submit(self):
        bus, col = _bus()
        bus.emit("item.submit", stream=1, seq=3, gseq=3, trace="ab12:1:3")
        assert col.span(1, 3).trace_id == "ab12:1:3"
        bus.emit("item.submit", stream=1, seq=4, gseq=4)
        assert col.span(1, 4).trace_id is None


class TestRedispatch:
    def test_worker_death_span_reads_redispatched_not_dangling(self):
        # A worker dies holding the item: the span must not look merely
        # unfinished — the redispatch event joins it and flips its status.
        bus, col = _bus()
        bus.emit("stream.begin", stream=0)
        bus.emit("item.submit", at=0.0, stream=0, seq=5, gseq=5)
        bus.emit("worker.death", at=0.2, worker=1)  # not span-keyed; ignored
        bus.emit("worker.redispatch", at=0.3, stage=0, seq=5, worker=1)
        span = col.span(0, 5)
        assert span.redispatched
        assert span.status == "redispatched"

    def test_replacement_dispatch_lands_on_same_span(self):
        # The re-sent attempt's hop record joins the span the redispatch
        # marked: the span reads complete, re-sent, served by the new worker.
        bus, col = _bus()
        bus.emit("stream.begin", stream=0)
        bus.emit("item.submit", at=0.0, stream=0, seq=5, gseq=5)
        bus.emit("worker.redispatch", at=0.3, stage=0, seq=5, worker=1)
        bus.emit("stage.service", at=0.5, stage=0, seconds=0.1, speed=1.0, seq=5, worker=2)
        bus.emit("item.complete", at=0.6, stream=0, seq=5)
        span = col.span(0, 5)
        assert span.status == "complete"
        assert span.redispatched
        served = [e.fields["worker"] for e in span.events if e.kind == "stage.service"]
        assert served == [2]  # the attempt that won

    def test_status_open_without_redispatch(self):
        bus, col = _bus()
        bus.emit("item.submit", stream=0, seq=0, gseq=0)
        assert col.span(0, 0).status == "open"
