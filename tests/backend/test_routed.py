"""Contract of the routed-stage core, driven against an in-memory fake lane.

No processes, no sockets: the fake "workers" run each stage callable inline
inside ``_forward`` and hand results back through plain queues, in bursts
released in *reverse* order (and optionally duplicated), so everything the
core promises — ordered delivery, stage-named failures, abort without
hanging, consumed messages, one numbering across streams — is checked against the
four-hook seam alone.
"""

import queue
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
    stage, so each stage is a boundary with a router of its own.
    """

    def _boundaries(self):
        return range(self.backend.pipeline.n_stages)

    def _attach(self):
        n = self.backend.pipeline.n_stages
        self._resq = [queue.Queue() for _ in range(n)]
        self._outbox = [[] for _ in range(n)]
        self._seen = [set() for _ in range(n)]

    def _forward(self, stage, seq, frame):
        if self._abort.is_set():
            return False
        value = self._codec.decode(frame)
        try:
            msg = ("ok", seq, self._codec.encode(self.backend.pipeline.stage(stage).fn(value)))
        except Exception as err:
            msg = ("err", seq, err)
        box = self._outbox[stage]
        box.append(msg)
        if len(box) >= self.backend.burst:
            for m in reversed(box):
                for _ in range(self.backend.copies):
                    self._resq[stage].put(m)
            box.clear()
        return True

    def _poll(self, stage):
        return self._resq[stage].get()  # no timeout: None only when woken

    def _wake_lane(self):
        for q in self._resq:
            q.put(None)

    def _accept(self, stage, msg):
        kind, seq, payload = msg
        if seq in self._seen[stage]:
            return None  # a stale duplicate: consumed, never delivered
        self._seen[stage].add(seq)
        if kind == "err":
            raise payload
        return seq, payload, [(stage, "fake", 0.001, payload.nbytes, 0, None, 1.0, None)]


class FakeBackend(Backend):
    name = "fake"
    session_class = FakeLaneSession

    def __init__(self, pipeline, *, burst=1, copies=1):
        super().__init__(pipeline)
        self._codec = transport.get("pickle")
        self.burst = burst
        self.copies = copies


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
        assert snaps[0].bytes_in > 0 and snaps[1].bytes_in == snaps[0].bytes_out


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
