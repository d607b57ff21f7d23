"""The profiler's join: one pass groups a journal's records per item."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.events import Event, EventBus
from repro.obs.profile import ProfileReport, join_records, profile_events


def _events(*emits):
    """``(kind, fields)`` pairs, or ``(kind, at, fields)`` triples, as events."""
    bus, events = EventBus(clock=lambda: 0.0), []
    bus.subscribe(events.append)
    for kind, *rest in emits:
        at, fields = rest if len(rest) == 2 else (None, rest[0])
        bus.emit(kind, at=at, **fields)
    return events


def _join(*emits):
    return join_records(_events(*emits), ProfileReport())


def _kinds(records):
    return [e.kind for e in records]


class TestTicketAndGseq:
    def test_an_item_joins_from_submit_to_complete(self):
        events = _events(
            ("stream.begin", {"stream": 1}),
            ("item.submit", 1.0, {"stream": 1, "seq": 0, "gseq": 0}),
            ("stage.service", 1.2, {"stage": 0, "seconds": 0.1, "speed": 1.0, "seq": 0}),
            ("item.complete", 1.5, {"stream": 1, "seq": 0}),
        )
        items = join_records(events, ProfileReport())
        assert list(items) == [(1, 0)]
        assert _kinds(items[1, 0]) == ["item.submit", "stage.service", "item.complete"]
        item = profile_events(events).items[0]
        assert (item.stream, item.seq) == (1, 0)
        assert item.latency == 0.5
        assert item.phases["service"] == 0.1

    def test_a_later_streams_records_join_by_gseq(self):
        # Stream 2's first item has seq 0 but gseq 5: its records name 5.
        items = _join(
            ("stream.begin", {"stream": 2}),
            ("item.submit", {"stream": 2, "seq": 0, "gseq": 5}),
            ("stage.service", {"stage": 0, "seconds": 0.2, "speed": 1.0, "seq": 5}),
        )
        assert [e.fields["seconds"] for e in items[2, 0] if e.kind == "stage.service"] == [0.2]

    def test_a_record_that_names_a_stream_seq_joins_nothing(self):
        # Every executor names items by gseq: a record carrying the item's
        # stream position instead belongs to no item.
        items = _join(
            ("stream.begin", {"stream": 3}),
            ("item.submit", {"stream": 3, "seq": 7, "gseq": 100}),
            ("frame.encode", {"stage": 0, "seq": 7, "nbytes": 32}),
            ("frame.encode", {"stage": 0, "seq": 100, "nbytes": 64}),
        )
        assert [e.fields["nbytes"] for e in items[3, 7] if e.kind == "frame.encode"] == [64]

    def test_a_batch_record_fans_out_to_its_members(self):
        emits = [("item.submit", 0.0, {"stream": 1, "seq": s, "gseq": 10 + s}) for s in range(4)]
        emits.append(("stage.service", 0.3, {"stage": 0, "seconds": 0.3, "speed": 1.0,
                                             "seq": 11, "items": 3}))
        emits += [("item.complete", 0.3, {"stream": 1, "seq": s}) for s in range(4)]
        events = _events(*emits)
        items = join_records(events, ProfileReport())
        assert ["stage.service" in _kinds(items[1, s]) for s in range(4)] == [
            False, True, True, True,
        ]
        report = profile_events(events)
        assert [i.phases.get("service", 0.0) for i in report.items] == [
            0.0, pytest.approx(0.1), pytest.approx(0.1), pytest.approx(0.1)
        ]
        assert report.stages[0].items == 3
        assert report.stages[0].service == pytest.approx(0.3)

    def test_items_are_profiled_in_ticket_order(self):
        events = _events(
            ("stream.begin", {"stream": 1}),
            *[("item.submit", {"stream": 1, "seq": s, "gseq": s}) for s in (2, 0, 1)],
            *[("item.complete", {"stream": 1, "seq": s}) for s in (1, 2, 0)],
        )
        assert [(i.stream, i.seq) for i in profile_events(events).items] == [
            (1, 0), (1, 1), (1, 2)
        ]

    def test_an_incomplete_item_is_joined_but_not_profiled(self):
        events = _events(
            ("item.submit", {"stream": 1, "seq": 0, "gseq": 0}),
            ("stage.service", {"stage": 0, "seconds": 0.1, "speed": 1.0, "seq": 0}),
        )
        assert _kinds(join_records(events, ProfileReport())[1, 0]) == [
            "item.submit", "stage.service",
        ]
        report = profile_events(events)
        assert report.items == [] and report.stages == {}

    def test_the_submit_record_carries_the_trace_id(self):
        items = _join(
            ("item.submit", {"stream": 1, "seq": 3, "gseq": 3, "trace": "ab12:1:3"}),
            ("item.submit", {"stream": 1, "seq": 4, "gseq": 4}),
        )
        assert items[1, 3][0].fields["trace"] == "ab12:1:3"
        assert "trace" not in items[1, 4][0].fields


class TestRedispatch:
    def test_a_worker_death_joins_the_items_it_held(self):
        # The death itself names a worker, not an item; the redispatch names
        # the item and joins it, so an unfinished item reads "re-sent".
        items = _join(
            ("stream.begin", {"stream": 0}),
            ("item.submit", 0.0, {"stream": 0, "seq": 5, "gseq": 5}),
            ("worker.death", 0.2, {"worker": 1}),
            ("worker.redispatch", 0.3, {"stage": 0, "seq": 5, "worker": 1}),
        )
        assert _kinds(items[0, 5]) == ["item.submit", "worker.redispatch"]

    def test_the_replacement_attempt_lands_on_the_same_item(self):
        events = _events(
            ("stream.begin", 0.0, {"stream": 0}),
            ("item.submit", 0.0, {"stream": 0, "seq": 5, "gseq": 5}),
            ("worker.redispatch", 0.3, {"stage": 0, "seq": 5, "worker": 1}),
            ("stage.service", 0.5, {"stage": 0, "seconds": 0.1, "speed": 1.0, "seq": 5,
                                    "worker": 2}),
            ("item.complete", 0.6, {"stream": 0, "seq": 5}),
        )
        records = join_records(events, ProfileReport())[0, 5]
        assert [e.fields["worker"] for e in records if e.kind == "stage.service"] == [2]
        (item,) = profile_events(events).items
        assert item.redispatched
        assert item.phases["service"] == pytest.approx(0.1)

    def test_an_item_nothing_re_sent_is_not_redispatched(self):
        events = _events(
            ("item.submit", {"stream": 0, "seq": 0, "gseq": 0}),
            ("item.complete", {"stream": 0, "seq": 0}),
        )
        assert not profile_events(events).items[0].redispatched


class TestSessionMetadata:
    def test_open_acts_and_clock_fits_fill_the_report(self):
        report = ProfileReport()
        join_records(_events(
            ("session.open", 0.0, {"backend": "threads", "stages": ["a", "b"]}),
            ("clock.sync", 0.5, {"worker": 0, "offset": 1e-4, "drift": 0.0,
                                 "err": 5e-5, "n": 4}),
            ("adapt.act", 1.0, {"replicas_before": [1, 1], "replicas_after": [1, 2],
                                "reason": "grow 1"}),
        ), report)
        assert (report.backend, report.stage_names) == ("threads", ["a", "b"])
        assert report.clocks == {0: {"offset": 1e-4, "drift": 0.0, "err": 5e-5, "n": 4}}
        assert report.decisions == [(1.0, [1, 1], [1, 2], "grow 1")]


_LANE = ("stage.service", "frame.encode", "frame.release", "worker.redispatch",
         "batch.assemble")


@st.composite
def _streams(draw):
    """Submits of N items over two streams (gseq = submit order), shuffled
    among lane records whose ``seq``/``items`` run names any items, some
    submitted before the record, some after, some never."""
    n = draw(st.integers(1, 12))
    split = draw(st.integers(0, n))
    records = draw(st.lists(
        st.tuples(st.sampled_from(_LANE), st.integers(0, n + 3), st.integers(1, 4)),
        max_size=20,
    ))
    events, g = [], 0
    for step in draw(st.permutations([None] * n + records)):
        if step is None:  # the next submit
            ticket = {"stream": 0, "seq": g} if g < split else {"stream": 1, "seq": g - split}
            events.append(Event(0.0, "item.submit", fields={**ticket, "gseq": g}))
            g += 1
        else:
            kind, first, items = step
            events.append(Event(0.0, kind, fields={"stage": 0, "seq": first, "items": items}))
    return events


@settings(max_examples=200)
@given(_streams())
def test_each_record_lands_on_exactly_the_items_it_names(events):
    # An item holds its submit and every later record whose run
    # [seq, seq + items) covers its gseq, in stream order, and nothing else.
    expected, ticket_of = {}, {}
    for ev in events:
        f = ev.fields
        if ev.kind == "item.submit":
            ticket_of[f["gseq"]] = (f["stream"], f["seq"])
            expected[f["stream"], f["seq"]] = [ev]
            continue
        for g in range(f["seq"], f["seq"] + f["items"]):
            if g in ticket_of:
                expected[ticket_of[g]].append(ev)
    assert join_records(events, ProfileReport()) == expected
