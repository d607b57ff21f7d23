"""Every wait of the session port wakes on an event, never on a clock.

A parked ``submit``, ``results()``, ``drain()``, ``Ticket.wait`` and the
batch flusher wait on a :class:`repro.util.handoff.Bell` under the session's
one lock.  Two things are checked for each: an idle waiter runs no loop
iteration (it waited once and is still in that wait), and the event that
frees it — a delivery, the drain barrier, close, an error, a window retune,
the first item of an empty batch buffer — wakes it within ``WAKE_S``, far
inside any poll period the port used to have.
"""

import sys
import threading
import time

import pytest

from repro.backend import SessionClosed, ThreadBackend, base
from repro.core.pipeline import PipelineSpec
from repro.core.stage import StageSpec
from repro.monitor.instrument import StageSnapshot
from repro.util.handoff import Bell

WAKE_S = 0.02
IDLE_S = 0.5


class _CountingBell(Bell):
    """A session bell that counts the waits parked on it."""

    def __init__(self, lock):
        super().__init__(lock)
        self.waits = 0

    def wait(self, timeout=None):
        self.waits += 1
        return super().wait(timeout)


@pytest.fixture(autouse=True)
def counting_bells(monkeypatch):
    monkeypatch.setattr(base, "Bell", _CountingBell)


def _until(predicate, timeout=5.0):
    deadline = time.perf_counter() + timeout
    while not predicate() and time.perf_counter() < deadline:
        time.sleep(0.001)
    return predicate()


def _gated_backend():
    gate = threading.Event()

    def gated(x):
        gate.wait(timeout=10.0)
        return x

    pipe = PipelineSpec((StageSpec(name="gated", work=0.001, fn=gated),))
    return gate, ThreadBackend(pipe)


class _Caller(threading.Thread):
    """Runs ``fn`` once and stamps the moment it returned or raised."""

    def __init__(self, fn):
        super().__init__(daemon=True)
        self.fn, self.result, self.error, self.at = fn, None, None, None
        self.start()

    def run(self):
        try:
            self.result = self.fn()
        except BaseException as err:  # noqa: BLE001 - the test inspects it
            self.error = err
        self.at = time.perf_counter()

    def woke_within(self, t0, bound=WAKE_S):
        self.join(timeout=5.0)
        assert not self.is_alive(), "still parked"
        return self.at - t0 < bound


# ------------------------------------------------------------------ idle waits
def test_an_idle_results_consumer_runs_no_iteration_and_close_stops_it():
    with ThreadBackend(PipelineSpec((StageSpec(name="s", work=0.001, fn=abs),))) as b:
        session = b.open()
        consumer = _Caller(lambda: list(session.results()))
        assert _until(lambda: session._bell.parked)
        time.sleep(IDLE_S)
        assert session._bell.waits == 1 and consumer.is_alive()
        t0 = time.perf_counter()
        session.close()
        assert consumer.woke_within(t0) and consumer.result == []


def test_an_idle_flusher_runs_no_iteration_and_wakes_for_the_first_item():
    with ThreadBackend(PipelineSpec((StageSpec(name="s", work=0.001, fn=abs),))) as b:
        session = b.open(batching={"max_items": 64, "linger_s": 0.02})
        bell = session._flush_bell
        assert _until(lambda: bell.parked)
        time.sleep(IDLE_S)
        assert bell.waits == 1
        ticket = session.submit(-7)  # rings it: the linger deadline starts now
        assert ticket.wait(timeout=5.0)
        assert _until(lambda: bell.parked)
        # Woken once, parked on the linger deadline once, then idle again.
        assert bell.waits <= 3
        assert session.drain() == [7]


# ------------------------------------------------------------- a parked submit
def _park_a_submit(session):
    """Fill a window of 3 with gated items and park ``submit(3)`` behind them."""
    for i in range(3):
        session.submit(i)
    producer = _Caller(lambda: session.submit(3))
    assert _until(lambda: session._bell.parked)
    time.sleep(0.05)
    assert session._bell.waits == 1 and producer.is_alive()
    return producer


def test_a_parked_submit_wakes_on_a_delivery():
    gate, backend = _gated_backend()
    with backend as b:
        session = b.open(max_inflight=3)
        producer = _park_a_submit(session)
        t0 = time.perf_counter()
        gate.set()
        assert producer.woke_within(t0) and producer.error is None
        assert session.drain() == [0, 1, 2, 3]


def test_a_parked_submit_wakes_on_the_drain_barrier():
    gate, backend = _gated_backend()
    with backend as b:
        session = b.open(max_inflight=3)
        producer = _park_a_submit(session)
        t0 = time.perf_counter()
        drainer = _Caller(session.drain)
        assert producer.woke_within(t0)
        assert "draining" in str(producer.error)
        gate.set()
        drainer.join(timeout=5.0)
        assert drainer.result == [0, 1, 2]


def test_a_parked_submit_wakes_on_close():
    gate, backend = _gated_backend()
    with backend as b:
        session = b.open(max_inflight=3)
        producer = _park_a_submit(session)
        t0 = time.perf_counter()
        closer = _Caller(session.close)
        assert producer.woke_within(t0)
        assert isinstance(producer.error, SessionClosed)
        gate.set()
        closer.join(timeout=5.0)


def test_a_parked_submit_wakes_on_an_error():
    gate, backend = _gated_backend()
    with backend as b:
        session = b.open(max_inflight=3)
        producer = _park_a_submit(session)
        t0 = time.perf_counter()
        session._fail(0, ValueError("boom"))
        assert producer.woke_within(t0)
        assert "boom" in str(producer.error)
        gate.set()


def test_a_parked_submit_wakes_on_a_window_retune():
    gate, backend = _gated_backend()
    with backend as b:
        session = b.open(max_inflight=3)
        producer = _park_a_submit(session)
        # Measured: a 1 ms bottleneck, so Little's law wants a wider window.
        snap = StageSnapshot(0, 100, 0.001, 0.0, 0.0, 0.001, 0.0)
        session.snapshots = lambda: [snap]
        t0 = time.perf_counter()
        session._retune_window()
        assert session.max_inflight > 3
        assert producer.woke_within(t0) and producer.error is None
        gate.set()
        assert session.drain() == [0, 1, 2, 3]


# ------------------------------------------------------- drain and the Ticket
def test_a_ticket_wait_and_a_drain_park_once_and_wake_on_the_delivery():
    gate, backend = _gated_backend()
    with backend as b:
        session = b.open()
        ticket = session.submit(1)
        drainer = _Caller(session.drain)  # first: its barrier rings the bell
        assert _until(lambda: len(session._bell.parked) == 1)
        waiter = _Caller(lambda: ticket.wait(timeout=10.0))  # a long deadline is no poll
        assert _until(lambda: len(session._bell.parked) == 2)
        time.sleep(IDLE_S)
        assert session._bell.waits == 2
        t0 = time.perf_counter()
        gate.set()
        assert waiter.woke_within(t0) and waiter.result is True
        assert drainer.woke_within(t0) and drainer.result == [1]


# ------------------------------------------------------------------ under load
def test_racing_producers_behind_a_small_window_lose_no_wake_up():
    # Six producers park and wake on a window of 2 while a consumer parks
    # and wakes on every delivery, with thread switches 500x as frequent as
    # usual: a lost wake-up leaves a thread parked past its join deadline.
    producers, per, before = 6, 150, sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadBackend(PipelineSpec((StageSpec(name="s", work=0.001, fn=abs),))) as b:
            session = b.open(max_inflight=2)
            consumer = _Caller(lambda: list(session.results()))
            assert _until(lambda: session._bell.parked)
            feeders = [
                _Caller(lambda p=p: [session.submit(p * per + i) for i in range(per)])
                for p in range(producers)
            ]
            deadline = time.perf_counter() + 20.0
            for t in feeders:
                t.join(timeout=max(0.0, deadline - time.perf_counter()))
            assert not any(t.is_alive() for t in feeders), "a producer never woke"
            leftovers = session.drain()
            consumer.join(timeout=5.0)
            assert not consumer.is_alive(), "the consumer never woke"
    finally:
        sys.setswitchinterval(before)
    assert all(t.error is None for t in (*feeders, consumer))
    seqs = sorted(ticket.seq for t in feeders for ticket in t.result)
    assert seqs == list(range(producers * per))  # one admission each
    assert sorted(consumer.result + leftovers) == list(range(producers * per))


# ------------------------------------------------------------------- the bell
def test_a_ring_releases_every_parked_caller_and_a_timeout_leaves_the_list():
    lock = threading.Lock()
    bell = Bell(lock)
    with lock:
        assert bell.wait(0.01) is False and bell.parked == []
        bell.ring()  # nobody parked: nothing to do

    def park():
        with lock:
            return bell.wait()

    callers = [_Caller(park) for _ in range(3)]
    assert _until(lambda: len(bell.parked) == 3)
    t0 = time.perf_counter()
    with lock:
        bell.ring()
    assert all(c.woke_within(t0) and c.result is True for c in callers)
    assert bell.parked == []
