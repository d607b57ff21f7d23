"""``StageMetrics.record_hops`` is exactly N per-hop records.

Every lane records a burst's hops of one stage in one call; whatever the
windows, totals, ``stage.service`` events or an installed
:class:`ServiceWatch` see must be what N ``record_service`` calls would
have shown them, in the same order.
"""

import threading
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend.base import Session
from repro.monitor.instrument import PipelineInstrumentation, ServiceWatch, StageMetrics
from repro.obs.events import EventBus

phases = st.fixed_dictionaries(
    {k: st.floats(0.0, 0.01) for k in ("wire_out", "worker_queue", "encode", "wire_back")}
)
# (seq, items, stage, worker, service_s, nbytes_out, queued, at, speed, phases)
hop = st.tuples(
    st.integers(0, 10_000),
    st.integers(1, 4),
    st.just(0),
    st.one_of(st.integers(0, 3), st.just("w")),
    st.floats(1e-6, 0.05),
    st.one_of(st.none(), st.integers(0, 1 << 24)),
    st.integers(0, 300),
    st.one_of(st.none(), st.floats(0.0, 100.0)),
    st.floats(0.1, 4.0),
    st.one_of(st.none(), phases),
)
bursts = st.lists(st.lists(hop, max_size=12), min_size=1, max_size=6).filter(
    lambda bs: any(bs)
)


def per_hop(m, burst):
    for seq, items, _, worker, seconds, nbytes, queued, at, speed, phases in burst:
        m.record_service(
            seconds, speed, seq=seq, worker=worker, queue=queued, items=items, at=at,
            nbytes=nbytes, phases=phases,
        )


def state(m):
    return (
        m.snapshot(), m.total.n, m._service_win.values(),
        m._work_win.values(), m._bytes_out_win.values(),
    )


def close(a, b):
    return abs(a - b) <= 1e-9 * max(abs(a), abs(b)) + 1e-15


@given(bursts)
def test_one_bulk_call_is_n_per_hop_calls(bs):
    one, bulk = StageMetrics(0, window=8), StageMetrics(0, window=8)
    for burst in bs:
        per_hop(one, burst)
        bulk.record_hops(burst)
    assert state(bulk) == state(one)
    assert close(bulk.total.mean, one.total.mean)
    if one.total.n > 1:
        assert close(bulk.total.variance, one.total.variance)


@settings(max_examples=300)
@given(st.lists(st.lists(hop, min_size=1, max_size=3), min_size=1, max_size=8))
def test_short_bursts_are_n_per_hop_calls(bs):
    # A lone hop takes the per-hop path; two or three take the one-pass
    # gather: both must leave exactly the per-hop state.
    one, bulk = StageMetrics(0, window=4), StageMetrics(0, window=4)
    for burst in bs:
        per_hop(one, burst)
        bulk.record_hops(burst)
        assert state(bulk) == state(one)
        assert close(bulk.total.mean, one.total.mean)
        if one.total.n > 1:
            assert close(bulk.total.variance, one.total.variance)


def _heard(bs, bulk):
    """The ``stage.service`` events (stamp and fields, in order) and the state."""
    m, events = StageMetrics(0, window=8, events=EventBus(clock=lambda: 0.5)), []
    m.events.subscribe(lambda ev: events.append((ev.time, ev.fields)), kinds=["stage.service"])
    for burst in bs:
        m.record_hops(burst) if bulk else per_hop(m, burst)
    return events, state(m)


@given(bursts)
def test_the_bus_hears_every_sample_in_order(bs):
    events, _ = heard = _heard(bs, bulk=True)
    assert heard == _heard(bs, bulk=False)
    assert len(events) == sum(map(len, bs))


def _watched_run(bs, bulk):
    """Every wake as (sample count, what fired); each wake re-arms the watch
    around the window it saw, as the controller does."""
    m = StageMetrics(0, window=8)
    wakes = []

    def wake():
        wakes.append((m.total.n, watch.take()))
        watch.arm([m.snapshot().service_time])

    watch = ServiceWatch([m], wake, locks=[threading.Lock()], min_samples=3, ratio=1.2)
    for burst in bs:
        m.record_hops(burst) if bulk else per_hop(m, burst)
    return wakes, state(m)


@settings(max_examples=200)
@given(st.lists(st.lists(st.sampled_from([0.002, 0.0021, 0.008, 0.03]), max_size=16), min_size=1))
def test_an_installed_watch_fires_on_the_same_sample(levels):
    bs = [[(k, 1, 0, 0, s, 64, 0, None, 1.0, None) for k, s in enumerate(b)] for b in levels]
    assert _watched_run(bs, bulk=True) == _watched_run(bs, bulk=False)


def test_a_level_shift_inside_one_burst_fires_where_per_hop_calls_fire():
    # Evidence after 3 samples, then a 2 -> 8 ms step at sample 8, in the
    # middle of the second burst: the watch hears it three samples into the
    # step (sample 10), as per-hop calls make it, not at the burst's end (16).
    bs = [
        [(k, 1, 0, 0, 0.002, 64, 0, None, 1.0, None) for k in range(4)],
        [(k, 1, 0, 0, 0.002 if k < 7 else 0.008, 64, 0, None, 1.0, None) for k in range(4, 16)],
    ]
    wakes, _ = _watched_run(bs, bulk=True)
    assert wakes == _watched_run(bs, bulk=False)[0]
    assert wakes == [(3, ("evidence",)), (10, ("shift", 0, 0.002, 0.008, True))]


def test_the_queue_length_rides_in_the_stage_service_event():
    # The one record of a hop's backlog: the windows ignore it.
    m, queues = StageMetrics(0, events=EventBus(clock=lambda: 0.0)), []
    m.events.subscribe(lambda ev: queues.append(ev.fields["queue"]), kinds=["stage.service"])
    m.record_hops([(k, 1, 0, 0, 0.01, None, q, None, 1.0, None) for k, q in enumerate((0, 3, 7))])
    assert queues == [0, 3, 7]
    assert m.snapshot().service_time == pytest.approx(0.01)


def test_a_hops_size_and_phases_ride_in_its_stage_service_event():
    # The one record of a hop: its output size wherever the lane measured
    # one, and a distributed hop's decomposition beside its service.
    m, heard = StageMetrics(0, events=EventBus(clock=lambda: 0.0)), []
    m.events.subscribe(lambda ev: heard.append(ev.fields), kinds=["stage.service"])
    hop = {"wire_out": 1e-4, "worker_queue": 2e-4, "encode": 3e-5, "wire_back": 1e-4}
    m.record_hops([
        (0, 1, 0, 0, 0.01, 512, 0, None, 1.0, hop),
        (1, 1, 0, 0, 0.01, None, 0, None, 1.0, None),
    ])
    assert heard[0]["nbytes"] == 512 and heard[0].items() >= hop.items()
    assert not heard[1].keys() & {"nbytes", *hop}
    assert m.snapshot().bytes_out == 512.0


def test_record_trails_records_each_stage_in_item_space():
    # A thread trail carries six fields and the burst's one speed reading;
    # a batch's hop counts once per item of the batch.
    session = SimpleNamespace(
        _batch_map={100: (4, 2)},
        instrumentation=PipelineInstrumentation(2),
        _stage_locks=[threading.Lock(), threading.Lock()],
    )
    burst = [
        (0, "a", [(0, 0, 0.01, None, 0, None), (1, 0, 0.03, None, 1, None)]),
        (100, "b", [(0, 1, 0.04, None, 2, None)]),
    ]
    Session._record_trails(session, burst, speed=2.0)
    first, second = session.instrumentation.snapshots()
    assert (first.items_processed, second.items_processed) == (3, 1)
    assert first.service_time == pytest.approx(0.015)  # 0.01, then 0.02 per item
    assert first.work_estimate == pytest.approx(0.03)
    assert second.work_estimate == pytest.approx(0.06)
