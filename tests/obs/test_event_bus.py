"""Tests for the structured event bus."""

import pytest

from repro.obs.events import NULL_BUS, SCHEMA, Event, EventBus


class TestEvent:
    def test_positional_fields(self):
        e = Event(1.5, "adapt.decide", "remap", {"stage": 3})
        assert e.time == 1.5
        assert e.kind == "adapt.decide"
        assert "stage=3" in str(e)

    def test_fields_default_empty(self):
        assert Event(0.0, "stream.begin").fields == {}


class TestEventBus:
    def test_emit_without_subscribers_is_noop(self):
        bus = EventBus()
        bus.emit("item.submit", seq=1)  # must not raise, must not build Event

    def test_subscribe_and_emit(self):
        bus = EventBus(clock=lambda: 2.5)
        seen = []
        bus.subscribe(seen.append)
        bus.emit("stream.begin", stream=1)
        assert len(seen) == 1
        assert seen[0].time == 2.5
        assert seen[0].kind == "stream.begin"
        assert seen[0].fields == {"stream": 1}

    def test_kind_filter(self):
        bus = EventBus(clock=lambda: 1.0)
        seen = []
        bus.subscribe(seen.append, kinds=("item.complete",))
        bus.emit("item.submit", seq=0)
        bus.emit("item.complete", seq=0)
        assert [e.kind for e in seen] == ["item.complete"]

    def test_unknown_kind_filter_rejected(self):
        bus = EventBus()
        with pytest.raises(ValueError, match="unknown event kinds"):
            bus.subscribe(lambda e: None, kinds=("no.such.kind",))

    def test_wants(self):
        bus = EventBus()
        assert not bus.wants("stage.service")
        bus.subscribe(lambda e: None, kinds=("stage.service",))
        assert bus.wants("stage.service")
        assert not bus.wants("item.submit")
        bus.subscribe(lambda e: None)  # unfiltered wants everything
        assert bus.wants("item.submit")

    def test_unsubscribe(self):
        bus = EventBus()
        seen = []
        fn = seen.append
        bus.subscribe(fn)
        bus.unsubscribe(fn)
        bus.emit("stream.begin", stream=0)
        assert seen == []
        assert not bus.active

    def test_at_overrides_clock(self):
        bus = EventBus(clock=lambda: 99.0)
        seen = []
        bus.subscribe(seen.append)
        bus.emit("stream.begin", at=1.25)
        assert seen[0].time == 1.25

    def test_schema_covers_all_layers(self):
        prefixes = {k.split(".")[0] for k in SCHEMA}
        assert prefixes == {
            "session", "stream", "item", "stage", "replica",
            "adapt", "worker", "frame", "wk", "clock", "span", "batch",
        }

    def test_unclocked_fallback_warns_once(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        with pytest.warns(RuntimeWarning, match="no clock"):
            bus.emit("stream.begin", stream=0)
        assert seen[0].time == 0.0
        # Second emit: same fallback, but the warning fired already.
        import warnings as _w

        with _w.catch_warnings():
            _w.simplefilter("error")
            bus.emit("stream.begin", stream=1)

    def test_explicit_at_never_warns_on_clockless_bus(self):
        bus = EventBus()
        bus.subscribe(lambda e: None)
        import warnings as _w

        with _w.catch_warnings():
            _w.simplefilter("error")
            bus.emit("stream.begin", at=1.0, stream=0)

    def test_null_bus_refuses_subscribers(self):
        with pytest.raises(RuntimeError, match="null event bus"):
            NULL_BUS.subscribe(lambda e: None)
        NULL_BUS.emit("stream.begin", stream=0)  # emits vanish silently
