"""Contract of the routed-stage core, driven against an in-memory fake lane.

No processes, no sockets: the fake "workers" run each stage callable inline
inside ``_forward`` and hand results back through plain queues, in bursts
released in *reverse* order (and optionally duplicated), so everything the
core promises — ordered delivery, stage-named failures, abort without
hanging, consumed messages, one numbering across streams — is checked against the
four-hook seam alone.
"""

import queue
import random
import threading
import time

import pytest

from repro import transport
from repro.backend.base import Backend
from repro.backend.routed import RoutedSession
from repro.core.pipeline import PipelineSpec
from repro.core.stage import StageSpec
from repro.runtime.threads import StageError


class FakeLaneSession(RoutedSession):
    """Inline workers; results come back ``burst`` at a time, reversed.

    The one lane where every stage reports: no worker forwards to the next
    stage, so each stage is a boundary with a router of its own.  A list
    ``burst`` cycles through its sizes; with an ``rng`` each burst is
    shuffled and carries stale repeats of results sent before.
    """

    def _boundaries(self):
        return range(self.backend.pipeline.n_stages)

    def _attach(self):
        n = self.backend.pipeline.n_stages
        self._resq = [queue.Queue() for _ in range(n)]
        self._outbox = [[] for _ in range(n)]
        self._seen = [set() for _ in range(n)]
        self._sent = [[] for _ in range(n)]
        self._flushes = [0] * n

    def _forward(self, stage, seq, frame):
        if self._abort.is_set():
            return False
        value = self._codec.decode(frame)
        try:
            msg = ("ok", seq, self._codec.encode(self.backend.pipeline.stage(stage).fn(value)))
        except Exception as err:
            msg = ("err", seq, err)
        box, sizes, rng = self._outbox[stage], self.backend.burst, self.backend.rng
        box.append(msg)
        flushes = self._flushes[stage]
        if len(box) >= (sizes if isinstance(sizes, int) else sizes[flushes % len(sizes)]):
            self._flushes[stage] += 1
            out = box[::-1] if self.backend.reverse else box[:]
            if rng is not None:
                sent = self._sent[stage]
                out += rng.sample(sent, min(len(sent), rng.randint(0, 2)))  # stale repeats
                rng.shuffle(out)
                sent += box
            for m in out:
                for _ in range(self.backend.copies):
                    self._resq[stage].put(m)
            box.clear()
        return True

    def _poll(self, stage):
        # No timeout: waits for the first message only; a wake-up ends the burst.
        q, burst = self._resq[stage], []
        msg = q.get()
        while msg is not None:
            burst.append(msg)
            msg = None if q.empty() else q.get()
        return burst or None

    def _wake_lane(self):
        for q in self._resq:
            q.put(None)

    def _accept(self, stage, burst):
        got = []
        for kind, seq, payload in burst:
            if seq in self._seen[stage]:
                continue  # a stale duplicate: consumed, never delivered
            self._seen[stage].add(seq)
            if kind == "err":
                return [*got, payload]
            hop = (stage, "fake", 0.001, transport.wire_nbytes(payload), 0, None, 1.0, None)
            got.append((seq, payload, [hop]))
        return got


class FakeBackend(Backend):
    name = "fake"
    session_class = FakeLaneSession

    def __init__(self, pipeline, *, burst=1, copies=1, reverse=True, rng=None):
        super().__init__(pipeline)
        self._codec = transport.get("pickle")
        self.burst = burst
        self.copies = copies
        self.reverse = reverse
        self.rng = rng


def spec(*fns, replicable=True):
    return PipelineSpec(
        tuple(
            StageSpec(name=f"s{i}", work=0.01, fn=f, replicable=replicable)
            for i, f in enumerate(fns)
        )
    )


def _boom_on_3(x):
    if x == 3:
        raise ValueError("bad item")
    return x


def test_out_of_order_results_are_delivered_in_order():
    with FakeBackend(spec(lambda x: x + 1, lambda x: x * 2), burst=4) as b:
        session = b.open()
        for x in range(8):
            session.submit(x)
        assert session.drain() == [(x + 1) * 2 for x in range(8)]
        snaps = session.snapshots()
        assert [s.items_processed for s in snaps] == [8, 8]
        # Stage 1's input is stage 0's output: only the pipeline's is measured.
        assert snaps[0].bytes_in > 0 and snaps[0].bytes_out > 0 and snaps[1].bytes_in == 0.0


def test_out_of_order_submits_reach_stage_0_in_order():
    order = []
    # Start order is promised to stateful stages only: the recorder says so.
    with FakeBackend(spec(lambda x: order.append(x) or x, replicable=False)) as b:
        session = b.open()
        session.submit("a")  # opens the stream
        for seq in (3, 1, 2):
            session._submit_one(seq, f"item{seq}")
        deadline = time.perf_counter() + 2.0
        while len(order) < 4 and time.perf_counter() < deadline:
            time.sleep(0.005)
        assert order == ["a", "item1", "item2", "item3"]


def test_error_hop_poisons_session_with_stage_error():
    with FakeBackend(spec(lambda x: x, _boom_on_3)) as b:
        session = b.open()
        with pytest.raises(StageError, match="s1") as excinfo:
            for x in range(6):
                session.submit(x)
            session.drain()
        assert isinstance(excinfo.value.original, ValueError)
        assert session.broken


def test_abort_mid_stream_lets_close_return():
    # burst > items: no result ever comes back, the stream can never drain.
    b = FakeBackend(spec(lambda x: x), burst=100)
    session = b.open()
    for x in range(5):
        session.submit(x)
    t0 = time.perf_counter()
    closer = threading.Thread(target=session.close, daemon=True)
    closer.start()
    closer.join(timeout=2.0)
    assert not closer.is_alive(), "close() hung on an undrainable stream"
    assert time.perf_counter() - t0 < 2.0
    assert not any(t.is_alive() for t in session._threads)
    b.close()


def test_consumed_accept_delivers_nothing_twice():
    with FakeBackend(spec(lambda x: x + 1, lambda x: x * 3), burst=2, copies=2) as b:
        session = b.open()
        for x in range(6):
            session.submit(x)
        assert session.drain() == [(x + 1) * 3 for x in range(6)]
        assert not session.broken
        assert session.stats().items_total == 6


def test_second_stream_numbers_on_through_every_reorderer():
    with FakeBackend(spec(lambda x: x + 1, lambda x: -x), burst=3) as b:
        session = b.open()
        for stream in range(2):
            for x in range(6):
                ticket = session.submit(10 * stream + x)
                assert (ticket.stream, ticket.seq) == (stream, x)
            assert session.drain() == [-(10 * stream + x + 1) for x in range(6)]
        # Tickets restart per stream; the lane's numbers never do.
        assert session._seen == [set(range(12))] * 2


# --------------------------------------------------------------- burst contract
def test_random_bursts_with_stale_repeats_deliver_each_item_once_in_order():
    for seed in range(6):
        rng = random.Random(seed)
        sizes = []
        while sum(sizes) < 40:
            sizes.append(min(rng.randint(1, 9), 40 - sum(sizes)))
        pipe = spec(lambda x: x + 1, lambda x: x * 3)
        with FakeBackend(pipe, burst=sizes, copies=1 + seed % 2, rng=rng) as b:
            session = b.open()
            for stream in range(2):
                for x in range(40):
                    session.submit(100 * stream + x)
                assert session.drain() == [(100 * stream + x + 1) * 3 for x in range(40)]
            assert session.stats().items_total == 80 and not session.broken


def test_a_failure_mid_burst_delivers_what_came_before_it_then_fails():
    # One in-order burst of six; item 3 fails: 0, 1 and 2 are delivered, 4
    # and 5 are not, and the session fails with the stage's error.
    with FakeBackend(spec(_boom_on_3), burst=6, reverse=False) as b:
        session = b.open()
        for x in range(6):
            session.submit(x)
        with pytest.raises(StageError, match="s0"):
            session.drain()
        assert session.stats().items_total == 3 and list(session._out) == [0, 1, 2]


def test_a_lone_result_is_delivered_without_waiting_for_a_second():
    with FakeBackend(spec(lambda x: x + 1)) as b:
        session = b.open()
        ticket = session.submit(1)
        assert ticket.wait(timeout=2.0)  # nothing else is in flight, or coming
        assert session.drain() == [2]


class _HeldLaneSession(FakeLaneSession):
    """Holds the router inside ``_accept`` on a "hold" message until ``gate``
    opens; its wake-up lands between two stale repeats."""

    def _attach(self):
        super()._attach()
        self.held, self.gate = threading.Event(), threading.Event()

    def _accept(self, stage, burst):
        if ("hold", 0, None) in burst:
            self.held.set()
            self.gate.wait()
            return []
        return super()._accept(stage, burst)

    def _wake_lane(self):
        for q in self._resq:
            for msg in (("ok", 0, None), None, ("ok", 0, None)):
                q.put(msg)


class _HeldBackend(FakeBackend):
    session_class = _HeldLaneSession


def test_a_wake_inside_a_burst_still_stops_the_router_at_close():
    b = _HeldBackend(spec(lambda x: x + 1))
    session = b.open()
    session.submit(0)
    assert session.drain() == [1]
    session._resq[0].put(("hold", 0, None))
    assert session.held.wait(2.0)
    closer = threading.Thread(target=session.close, daemon=True)
    closer.start()
    while not session._stopping.is_set() or session._resq[0].qsize() < 3:
        time.sleep(0.001)  # the wake went in behind a repeat, a repeat behind it
    t0 = time.perf_counter()
    session.gate.set()
    closer.join(timeout=2.0)
    assert not closer.is_alive() and time.perf_counter() - t0 < 1.0
    assert not any(t.is_alive() for t in session._threads)
    b.close()
