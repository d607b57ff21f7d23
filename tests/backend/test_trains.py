"""A process worker takes a train: a run of tasks per frame, per pickle and
per write.

A worker reads one frame holding a list of ``(seq, wire, trail)`` tasks,
runs each, and writes its outputs as one frame.  Worker pipe writes are
counted in a counter the forked workers share, from the first submit to
the end of the stream.  The contract around trains (back-pressure item by
item, a failure mid-train, a death mid-train, a park token behind a train,
and how replicas share a stream) is checked on ``processes`` itself.
"""

import multiprocessing as mp
import os
import pickle
import signal
import threading
import time
from multiprocessing.connection import Connection

import pytest

from repro import transport
from repro.backend import ProcessPoolBackend
from repro.backend.process_backend import _PipeQueue
from repro.core.pipeline import PipelineSpec
from repro.core.stage import StageSpec
from repro.runtime.threads import StageError
from repro.transport import wire_nbytes
from repro.util.batching import MAX_BYTES

_ITEMS = 2_000
_WINDOW = 256  # tiny_processes' window: every queue 256 deep, trains of 256 // 4


def _spec(*fns):
    return PipelineSpec(
        tuple(StageSpec(name=f"s{i}", work=0.001, fn=f) for i, f in enumerate(fns))
    )


def _inc(x):
    return x + 1


def _double(x):
    return 2 * x


def _nap(x):
    time.sleep(0.01)
    return x


def _pid_after_2ms(_):
    time.sleep(0.002)
    return os.getpid()


def _fail_at_150(x):
    if x == 151:  # after _inc: item 150
        raise ValueError("bad item 150")
    return x


@pytest.fixture
def writes(monkeypatch):
    """Worker pipe writes: ``[writes, most tasks in a train, most wire bytes
    in a train of more than one task]``, shared with the forked workers."""
    stats = mp.get_context("fork").Array("d", 3)  # workers fork after the patch
    parent, send = os.getpid(), Connection.send_bytes

    def counting(self, buf, *args):
        if os.getpid() != parent:
            msg = pickle.loads(buf)
            with stats.get_lock():
                stats[0] += 1
                if isinstance(msg, list):
                    stats[1] = max(stats[1], len(msg))
                    if len(msg) > 1:
                        stats[2] = max(stats[2], sum(wire_nbytes(w) for _, w, _ in msg))
        send(self, buf, *args)

    monkeypatch.setattr(Connection, "send_bytes", counting)
    return stats


@pytest.fixture
def held_outbox(monkeypatch):
    """Hold each outbox writer after its first pack until the returned event
    is set: whatever is sent meanwhile leaves as trains."""
    gate, pack = threading.Event(), _PipeQueue._pack

    def holding(self, msgs):
        frames = pack(self, msgs)
        assert gate.wait(10.0)
        return frames

    monkeypatch.setattr(_PipeQueue, "_pack", holding)
    return gate


def _saturate(session, items):
    for x in items:
        session.submit(x)
    return session.drain()


def test_a_saturated_tiny_stream_writes_a_train_not_an_item(writes):
    # tiny_processes' shape: two stages, replicas [1, 2] of warm pools of 4,
    # a 256-item window.  A per-item worker writes once per item per stage.
    with ProcessPoolBackend(_spec(_inc, _double), replicas=[1, 2]) as b:
        session = b.open(max_inflight=_WINDOW)
        _saturate(session, range(100))  # warm-up
        writes[0] = writes[1] = 0
        assert _saturate(session, range(_ITEMS)) == [2 * (x + 1) for x in range(_ITEMS)]
        per_item = writes[0] / (_ITEMS * 2)
        assert per_item <= 0.25, f"{per_item:.2f} worker writes per item per stage"
        caps = {pool.taskq.cap for pool in b._pools} | {b._pools[-1].seg.resq.cap}
        assert caps == {_WINDOW // 4} and 1 < writes[1] <= _WINDOW // 4


def test_a_train_of_large_items_closes_at_the_byte_cap(writes, held_outbox):
    # Stage 0 takes trains of small items and makes 300 KB inline outputs:
    # three fit under MAX_BYTES, a fourth would not.
    blob = b"x" * 300_000
    with ProcessPoolBackend(
        _spec(lambda _: blob, bytes), replicas=[1, 1], transport="pickle"
    ) as b:
        session = b.open(max_inflight=64)
        for x in range(60):
            session.submit(x)
        held_outbox.set()
        assert session.drain() == [blob] * 60
    assert 3 * len(blob) <= writes[2] <= MAX_BYTES


def test_a_failure_mid_train_delivers_what_came_before_it_once(held_outbox):
    # One worker per stage, 256-task trains: items 1-199 reach stage 1 as
    # one or a few trains, and item 150 fails inside one.
    with ProcessPoolBackend(_spec(_inc, _fail_at_150), replicas=[1, 1], max_replicas=1) as b:
        session = b.open(max_inflight=_WINDOW)
        delivered = []
        session.events.subscribe(lambda e: delivered.append(e.fields["seq"]),
                                 kinds=["item.complete"])
        for x in range(200):
            session.submit(x)
        held_outbox.set()
        with pytest.raises(StageError, match="bad item 150") as failed:
            session.drain()
        assert failed.value.stage_name == "s1"
    # The outputs before the failure were written ahead of it: each of them
    # delivered, once, and nothing after it.
    assert delivered == list(range(150))


def test_a_worker_killed_holding_a_train_fails_the_session_within_a_second(held_outbox):
    with ProcessPoolBackend(
        _spec(_nap, _inc), replicas=[1, 1], max_replicas=1, transport="shm"
    ) as b:
        session = b.open(max_inflight=64)
        for x in range(40):
            session.submit(x)
        held_outbox.set()
        taskq, worker = b._pools[0].taskq, b._pools[0].procs[0]
        deadline = time.perf_counter() + 5.0
        while taskq._reader.poll(0) and time.perf_counter() < deadline:
            time.sleep(0.002)
        # Nothing left in the pipe, but tasks still queued: the worker holds them.
        assert not taskq._reader.poll(0) and taskq.qsize() > 1
        t0 = time.perf_counter()
        os.kill(worker.pid, signal.SIGKILL)
        with pytest.raises(StageError, match="'s0'.*died mid-run"):
            session.drain()
        assert time.perf_counter() - t0 < 1.0
        namespace = b._codec.session
    assert transport.session_segments(namespace) == []


def test_a_park_token_behind_a_train_parks_exactly_one_worker(held_outbox):
    # Stage 1's token enters at stage 0's queue behind a train of the
    # stream; stage 0's worker passes it on after that train's outputs.
    with ProcessPoolBackend(_spec(_inc, _pid_after_2ms), replicas=[1, 2], max_replicas=3) as b:
        session = b.open(max_inflight=64)
        for x in range(40):
            session.submit(x)
        b.reconfigure(1, 1)
        held_outbox.set()
        assert len(session.drain()) == 40
        assert b.replica_counts() == [1, 1]
        pids = set(_saturate(session, range(100)))
        assert len(pids) == 1, f"{len(pids)} workers served after a shrink to one"


def test_two_replicas_share_a_windowed_stream_of_sleeps():
    # Trains of a 256-deep window must not hand one replica the stream:
    # both serve, and the wall is within 25 % of the service split in two.
    # The service is what a 2 ms sleep takes on this host (it overshoots).
    n, t0 = 400, time.perf_counter()
    for _ in range(50):
        _pid_after_2ms(None)
    service = (time.perf_counter() - t0) / 50
    with ProcessPoolBackend(_spec(_pid_after_2ms), replicas=[2]) as b:
        session = b.open(max_inflight=_WINDOW)
        _saturate(session, range(20))  # warm-up
        t0 = time.perf_counter()
        pids = _saturate(session, range(n))
        wall = time.perf_counter() - t0
    shares = sorted(pids.count(pid) / n for pid in set(pids))
    assert len(shares) == 2 and shares[0] >= 0.25, shares
    assert wall <= 1.25 * (n * service / 2), f"{wall * 1e3:.0f} ms, service {service * 1e3:.2f} ms"
