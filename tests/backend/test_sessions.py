"""Session lifecycle edges across the streaming Backend port.

Covers the contract every executor's native session must honour: bounded
admission, ordered early results, drain barriers between back-to-back
streams on one warm session, submit-after-close rejection, live
reconfiguration mid-stream, error poisoning, and (for the distributed
backend) exactly-once re-dispatch when a worker dies mid-stream.

Distributed stage functions live at module level: they are pickled by
reference and resolved inside forked worker processes.
"""

import os
import threading
import time

import pytest

from repro.backend import (
    DistributedBackend,
    ProcessPoolBackend,
    SessionClosed,
    ThreadBackend,
    Ticket,
)
from repro.core.pipeline import PipelineSpec
from repro.core.stage import StageSpec
from repro.runtime.threads import StageError
from repro.skel.api import open_pipeline


def spec(fns, replicable=None):
    replicable = replicable or [True] * len(fns)
    return PipelineSpec(
        tuple(
            StageSpec(name=f"s{i}", work=0.01, fn=f, replicable=r)
            for i, (f, r) in enumerate(zip(fns, replicable))
        )
    )


def _inc(x):
    return x + 1


async def _ainc(x):
    return x + 1


def _tag_pid(x):
    return (x, os.getpid())


def _jitter_square(x):
    time.sleep((x % 3) * 0.002)
    return x * x


def _slow_double(x):
    time.sleep(0.01)
    return x * 2


class TestSessionLifecycle:
    def test_submit_after_close_raises_everywhere(self):
        backends = [
            ThreadBackend(spec([_inc])),
            ThreadBackend(spec([_inc])),
        ]
        for b in backends:
            session = b.open()
            assert session.drain() == []  # no stream open yet
            session.submit(1)
            assert session.drain() == [2]
            session.close()
            with pytest.raises(SessionClosed):
                session.submit(2)
            with pytest.raises(SessionClosed):
                session.drain()
            b.close()

    def test_tickets_carry_stream_scoped_sequences(self):
        with ThreadBackend(spec([_inc])) as b:
            session = b.open()
            assert session.submit(10) == Ticket(stream=0, seq=0)
            assert session.submit(11) == Ticket(stream=0, seq=1)
            session.drain()
            # The next stream restarts its sequence space.
            ticket = session.submit(12)
            assert ticket == Ticket(stream=1, seq=0)
            session.drain()
        # Immutable, equal and hashed by (stream, seq) alone: the bound
        # session is neither compared nor shown.
        for field in ("stream", "seq", "other"):
            with pytest.raises(AttributeError):
                setattr(ticket, field, 5)
        assert (ticket.stream, ticket.seq) == (1, 0)
        assert ticket != Ticket(stream=1, seq=1) and ticket != (1, 0)
        assert hash(ticket) == hash(Ticket(1, 0))
        assert {Ticket(1, 0): "x"}[ticket] == "x"
        assert len({ticket, Ticket(1, 0), Ticket(0, 1)}) == 2
        assert repr(ticket) == "Ticket(stream=1, seq=0)"
        assert ticket.done()
        with pytest.raises(RuntimeError, match="not bound"):
            Ticket(1, 0).done()

    def test_results_yield_before_drain(self):
        # The whole point of streaming: the first output is consumable long
        # before the stream is bounded, from a separate consumer thread.
        with ThreadBackend(spec([_inc])) as b:
            session = b.open()
            got: list[int] = []
            first_seen = threading.Event()

            def consume():
                for value in session.results():
                    got.append(value)
                    first_seen.set()

            consumer = threading.Thread(target=consume, daemon=True)
            consumer.start()
            session.submit(0)
            assert first_seen.wait(timeout=5.0), "no result before drain"
            for i in range(1, 10):
                session.submit(i)
            leftovers = session.drain()
            consumer.join(timeout=5.0)
            assert not consumer.is_alive()
            assert got + leftovers == [x + 1 for x in range(10)]

    def test_bounded_admission_backpressure(self):
        release = threading.Event()

        def gated(x):
            release.wait(timeout=10.0)
            return x

        with ThreadBackend(spec([gated]), capacity=1) as b:
            session = b.open(max_inflight=2)
            session.submit(0)
            session.submit(1)
            blocked_past = threading.Event()

            def overfill():
                session.submit(2)  # must block: window is full
                blocked_past.set()

            t = threading.Thread(target=overfill, daemon=True)
            t.start()
            assert not blocked_past.wait(timeout=0.3), "admission window ignored"
            release.set()
            assert blocked_past.wait(timeout=5.0)
            assert session.drain() == [0, 1, 2]

    def test_back_to_back_streams_reuse_warm_thread_workers(self):
        with ThreadBackend(spec([lambda x: threading.get_ident()])) as b:
            session = b.open()
            for i in range(5):
                session.submit(i)
            first = set(session.drain())
            for i in range(5):
                session.submit(i)
            second = set(session.drain())
            stats = session.stats()
        # Same resident worker thread(s) served both streams.
        assert first == second
        assert stats.streams_completed == 2
        assert stats.items_total == 10

    def test_back_to_back_streams_reuse_warm_processes(self):
        with ProcessPoolBackend(spec([_tag_pid]), replicas=[2], max_replicas=2) as b:
            session = b.open()
            for i in range(8):
                session.submit(i)
            pids1 = {pid for _, pid in session.drain()}
            warm = {proc.pid for proc in b._pools[0].procs}
            for i in range(8):
                session.submit(i)
            pids2 = {pid for _, pid in session.drain()}
        # Either replica may take any item off the shared queue: what must
        # hold is that stream 2 was served by the already-warm pool.
        assert pids1 <= warm and pids2 <= warm
        assert os.getpid() not in warm

    def test_submit_while_draining_rejected(self):
        with ThreadBackend(spec([_slow_double])) as b:
            session = b.open()
            for i in range(10):
                session.submit(i)
            state = {}

            def drain():
                state["out"] = session.drain()

            t = threading.Thread(target=drain, daemon=True)
            t.start()
            time.sleep(0.02)  # let drain() mark end-of-stream
            with pytest.raises(RuntimeError, match="draining"):
                session.submit(99)
            t.join(timeout=5.0)
            assert state["out"] == [x * 2 for x in range(10)]

    def test_run_is_a_session_wrapper(self):
        # run() must go through the session path: the session opened by the
        # first run is the one reused (warm) by the second.
        with ThreadBackend(spec([_inc])) as b:
            b.run(range(5))
            first = b._session
            assert first is not None and not first.closed
            b.run(range(5))
            assert b._session is first
            assert first.stats().streams_completed == 2

    def test_error_poisons_session_and_backend_reopens(self):
        def boom(x):
            if x == 3:
                raise ValueError("bad")
            return x

        with ThreadBackend(spec([boom])) as b:
            session = b.open()
            with pytest.raises(StageError, match="s0"):
                for i in range(10):
                    session.submit(i)
                session.drain()
            assert session.broken
            with pytest.raises(StageError):
                session.submit(0)
            # The backend recovers by opening a fresh session.
            assert b.run([100]).outputs == [100]
            assert b._session is not session


@pytest.mark.parametrize(
    "make",
    [
        lambda pipe: ThreadBackend(pipe, replicas=[2], max_replicas=2),
        lambda pipe: ThreadBackend(pipe, replicas=[2], max_replicas=2),
        lambda pipe: ProcessPoolBackend(pipe, replicas=[2], max_replicas=2),
        lambda pipe: DistributedBackend(pipe, spawn_workers=2, replicas=[2], max_replicas=2),
    ],
    ids=["threads", "asyncio", "processes", "distributed"],
)
def test_completion_times_are_appended_in_order(make):
    # recent_throughput() bisects the completion times and subtracts running
    # counts: the one egress thread must append one record per delivered
    # run, its time never before the last and its count past the last.
    with make(spec([_jitter_square])) as b:
        for batching in (None, 4):
            session = b.open(batching=batching)
            for i in range(30):
                session.submit(i)
            assert session.drain() == [x * x for x in range(30)]
            pi = session.instrumentation
            times, counts = list(pi._times), list(pi._counts)
            assert len(times) == len(counts) >= 1
            assert times == sorted(times)
            assert all(a < b for a, b in zip(counts, counts[1:]))
            assert counts[-1] == pi.items_completed == 30
            session.close()


class TestMidStreamReconfigure:
    def test_thread_session_grow_preserves_stream_order(self):
        with ThreadBackend(spec([_jitter_square]), max_replicas=4) as b:
            session = b.open()
            for i in range(15):
                session.submit(i)
            b.reconfigure(0, 4)  # grows the live session's pool mid-stream
            for i in range(15, 40):
                session.submit(i)
            assert session.drain() == [x * x for x in range(40)]
            assert b.replica_counts() == [4]
            # The adapted shape carries into the next stream.
            for i in range(10):
                session.submit(i)
            assert session.drain() == [x * x for x in range(10)]

    def test_asyncio_session_reconfigure_mid_stream(self):
        with ThreadBackend(spec([_slow_double]), max_replicas=4) as b:
            session = b.open()
            for i in range(10):
                session.submit(i)
            b.reconfigure(0, 4)
            for i in range(10, 30):
                session.submit(i)
            assert session.drain() == [x * 2 for x in range(30)]

    @pytest.mark.parametrize(
        "make, fns",
        [
            (ThreadBackend, [_inc]),
            (ThreadBackend, [_ainc, _inc, _ainc]),  # coroutine -> plain -> coroutine
            (ProcessPoolBackend, [_inc]),
        ],
        ids=["threads", "asyncio", "processes"],
    )
    def test_each_replica_added_or_removed_is_one_event(self, make, fns):
        # A coroutine stage and a thread stage of one fabric emit alike.
        with make(spec(fns), max_replicas=3) as b:
            session, seen = b.open(), []
            session.events.subscribe(
                lambda e: seen.append((e.kind, e.fields["stage"], e.fields["n"])),
                kinds=("replica.add", "replica.remove"),
            )
            for stage in range(len(fns)):
                b.reconfigure(stage, 3)
                b.reconfigure(stage, 1)
            session.submit(1)
            assert session.drain() == [1 + len(fns)]
            assert seen == [
                event
                for stage in range(len(fns))
                for event in (
                    ("replica.add", stage, 2),
                    ("replica.add", stage, 3),
                    ("replica.remove", stage, 2),
                    ("replica.remove", stage, 1),
                )
            ]

    def test_process_session_reconfigures_without_new_descriptors(self):
        # Parking and releasing warm workers reuses the stage's one queue and
        # one semaphore: a descriptor (or a queue) per reconfigure would show
        # here, and as EMFILE in CI's `ulimit -n 128` run of this module.
        def open_fds():
            return len(os.listdir("/proc/self/fd"))

        pipe = spec([_inc, _jitter_square, _inc])
        with ProcessPoolBackend(pipe, replicas=[1, 4, 1], max_replicas=4) as b:
            session = b.open()
            session.submit(0)
            assert session.drain() == [2]
            before = open_fds()
            for x in range(300):
                b.reconfigure(1, 1 + x % 4)  # shrink, grow, shrink ... mid-stream
                session.submit(x)
            assert session.drain() == [(x + 1) ** 2 + 1 for x in range(300)]
            assert b.replica_counts() == [1, 1 + 299 % 4, 1]
            assert open_fds() == before


class TestOpenPipelineApi:
    def test_producer_consumer_round_trip(self):
        session = open_pipeline([lambda x: x + 1, lambda x: x * 2])
        try:
            got = []
            consumer = threading.Thread(
                target=lambda: got.extend(session.results()), daemon=True
            )
            consumer.start()
            for i in range(20):
                session.submit(i)
            leftovers = session.drain()
            consumer.join(timeout=5.0)
            assert got + leftovers == [(x + 1) * 2 for x in range(20)]
        finally:
            session.close()

    def test_close_releases_owned_backend(self):
        session = open_pipeline([_inc])
        backend = session.backend
        session.submit(1)
        assert session.drain() == [2]
        session.close()
        with pytest.raises(RuntimeError):
            backend.open()  # a name-built backend is closed with its session

    def test_adaptive_attaches_and_detaches(self):
        from repro.backend import local_config

        session = open_pipeline(
            [_slow_double],
            adaptive=local_config(interval=0.05, cooldown=0.1, settle_time=0.05),
            max_replicas=3,
        )
        try:
            for i in range(60):
                session.submit(i)
            assert session.drain() == [x * 2 for x in range(60)]
        finally:
            session.close()

    def test_instance_with_shape_kwargs_rejected(self):
        b = ThreadBackend(spec([_inc]))
        with pytest.raises(ValueError, match="already configured"):
            open_pipeline([_inc], backend=b, replicas=[2])
        b.close()


def _slow_square(x):
    time.sleep(0.01)
    return x * x


class TestDistributedSessionStreams:
    def test_killed_worker_mid_stream_redispatches_exactly_once(self):
        pipe = PipelineSpec(
            (StageSpec(name="square", work=0.01, fn=_slow_square, replicable=True),)
        )
        n = 80
        b = DistributedBackend(
            pipe, spawn_workers=3, replicas=[3], max_replicas=3
        )
        try:
            session = b.open()
            for i in range(n // 2):
                session.submit(i)
            # Kill one worker while its in-flight items are outstanding.
            b.worker_processes[0].kill()
            for i in range(n // 2, n):
                session.submit(i)
            outputs = session.drain()
            # Exactly-once: every item delivered once, in order — nothing
            # lost with the dead worker, nothing duplicated by re-dispatch.
            assert outputs == [x * x for x in range(n)]
            assert len(b.alive_workers()) == 2
            # The survivor pool keeps serving the next stream warm.
            for i in range(10):
                session.submit(i)
            assert session.drain() == [x * x for x in range(10)]
        finally:
            b.close()

    def test_a_result_of_an_earlier_session_is_dropped(self):
        # gseq restarts with each session, so the next session's first task
        # has the worker, slot and seq of the last one's: only the epoch
        # tells their results apart.  A fake worker answers the live task
        # twice, first under the earlier session's epoch.
        import socket

        from repro.backend.distributed.protocol import PREAMBLE, recv_frame, send_frame
        from repro.transport import PickleCodec, wire_nbytes

        def result(task, value):
            _, epoch, stage, slot, seq, _payload, t_sent, _route, trail = task
            out = PickleCodec().encode(value)
            boundary = (stage, 0, slot, 0.0, 0.0, 0.0, 0.0, wire_nbytes(out))
            return ("result", epoch, stage, slot, seq, True, out, t_sent, None,
                    (*trail, boundary))

        def next_frame(sock):  # what the coordinator sends, past its pings
            frame = recv_frame(sock)
            return next_frame(sock) if frame[0] == "ping" else frame

        pipe = PipelineSpec((StageSpec(name="square", work=0.001, fn=_slow_square),))
        with DistributedBackend(pipe, spawn_workers=0, heartbeat_interval=5.0) as b:
            b.warm()
            with socket.create_connection(b.listen_address, timeout=10.0) as sock:
                sock.sendall(PREAMBLE)
                send_frame(sock, ("hello", "fake", 1, 0.0, ("127.0.0.1", 1)))
                assert recv_frame(sock)[0] == "welcome"
                send_frame(sock, ("shm_ok", False))
                for _ in range(4):  # registration fills the clock fit first
                    kind, t0 = recv_frame(sock)
                    assert kind == "ping"
                    send_frame(sock, ("pong", t0, t0, t0, 0.0))
                b.wait_for_workers(1, timeout=10.0)
                first = b.open()
                _, stage, slot, *_ = place = next_frame(sock)
                assert place[0] == "place"
                send_frame(sock, ("placed", stage, slot, None))
                first.submit(3)
                old = next_frame(sock)
                send_frame(sock, result(old, 9))
                assert first.drain() == [9]
                first.close()
                second = b.open()
                second.submit(4)
                live = next_frame(sock)
                assert live[1] == old[1] + 1 and live[2:5] == old[2:5]
                send_frame(sock, result(old, -1))  # the stale twin arrives first
                send_frame(sock, result(live, 16))
                assert second.drain() == [16]
                second.close()


class TestSubmitDrainRace:
    """A producer parked in the admission window while another thread drains.

    Exactly two outcomes are legal, and each is forced here instead of raced
    for: the stream's barrier rejects the parked submit, or the window opens
    first and the item joins the stream it was submitted to.  Either way
    nothing of stream 0 leaks into stream 1 and nothing of stream 1 is lost.
    """

    @staticmethod
    def _gated():
        gate = threading.Event()

        def gated(x):
            gate.wait(timeout=10.0)
            return x

        return gate, ThreadBackend(spec([gated]))

    @staticmethod
    def _park_a_submit(session):
        """Fill the window, then park ``submit(3)``; returns once it waits."""
        for i in range(3):
            session.submit(i)
        state = {}

        def late_submit():
            try:
                state["ticket"] = session.submit(3)
            except RuntimeError as err:
                state["err"] = str(err)

        producer = threading.Thread(target=late_submit, daemon=True)
        producer.start()
        # The producer is the only caller that can park here: once it is on
        # the bell it sits in submit()'s window-full wait.
        deadline = time.perf_counter() + 5.0
        while not session._bell.parked and time.perf_counter() < deadline:
            time.sleep(0.001)
        assert session._bell.parked
        return producer, state

    @staticmethod
    def _next_stream_is_clean(session):
        for i in (100, 101, 102):
            session.submit(i)
        assert session.drain() == [100, 101, 102]

    def test_parked_submit_cannot_slip_past_drain_barrier(self):
        gate, backend = self._gated()
        with backend as b:
            session = b.open(max_inflight=3)
            producer, state = self._park_a_submit(session)
            first = {}
            drainer = threading.Thread(
                target=lambda: first.update(out=session.drain()), daemon=True
            )
            drainer.start()  # raises the barrier; nothing completes yet
            producer.join(timeout=5.0)
            assert "draining" in state["err"] and "ticket" not in state
            gate.set()
            drainer.join(timeout=5.0)
            assert first["out"] == [0, 1, 2]
            self._next_stream_is_clean(session)

    def test_parked_submit_admitted_before_drain_joins_its_stream(self):
        gate, backend = self._gated()
        with backend as b:
            session = b.open(max_inflight=3)
            producer, state = self._park_a_submit(session)
            gate.set()  # the window reopens before anyone drains
            producer.join(timeout=5.0)
            assert (state["ticket"].stream, state["ticket"].seq) == (0, 3)
            assert session.drain() == [0, 1, 2, 3]
            self._next_stream_is_clean(session)
