"""Tests for the distributed socket backend (protocol, coordinator, worker).

Stage functions live at module level: they are pickled by reference and
resolved inside worker processes (forked from this one, so the test module
is importable there without an installed package).
"""

import itertools
import os
import pickle
import socket
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import pytest

from repro.backend import DistributedBackend, available_backends, make_backend
from repro.backend.distributed.coordinator import (
    _DistributedSession,
    _Replica,
    _Route,
    _WorkerConn,
)
from repro.backend.distributed.protocol import PREAMBLE, recv_frame, send_frame
from repro.core.pipeline import PipelineSpec
from repro.core.stage import StageSpec
from repro.obs.events import NULL_BUS
from repro.runtime.threads import StageError
from repro.skel.api import pipeline_1for1
from repro.transport import PickleCodec, wire_nbytes
from repro.transport.lane import MAX_FRAME, ProtocolError, encode_frame


def _inc(x):
    return x + 1


def _slow_triple(x):
    time.sleep(0.01)
    return x * 3


def _boom(x):
    raise ValueError(f"boom on {x}")


def _refuse_to_load():
    raise ImportError("this stage does not resolve on the worker")


class _Unloadable:
    """Pickles on the coordinator; unpickling it on a worker raises."""

    def __call__(self, x):
        return x

    def __reduce__(self):
        return _refuse_to_load, ()


def _slow_double(x):
    time.sleep(0.05)
    return x * 2


def _pipe():
    return PipelineSpec(
        (
            StageSpec(name="inc", work=0.001, fn=_inc),
            StageSpec(name="triple", work=0.01, fn=_slow_triple),
        )
    )


def _slot_of(msg):
    """(stage, slot) of a task or retire; () for any other message."""
    if msg[0] == "task":
        return msg[2], msg[3]
    return msg[1:3] if msg[0] == "retire" else ()


def _expected(inputs):
    return [(x + 1) * 3 for x in inputs]


@pytest.fixture
def backend():
    b = DistributedBackend(_pipe(), spawn_workers=3, max_replicas=3)
    try:
        yield b
    finally:
        b.close()


@pytest.fixture
def producer():
    """A thread to call ``backend.run`` from while the test acts mid-flight."""
    with ThreadPoolExecutor(1) as pool:
        yield pool


class TestProtocol:
    def test_frame_roundtrip(self):
        a, b = socket.socketpair()
        try:
            msgs = [("hello", "w0", 4, 0.5), ("task", 1, 0, 2, 3, b"x" * 1000, 0.0)]
            for msg in msgs:
                send_frame(a, msg)
            assert [recv_frame(b) for _ in msgs] == msgs
        finally:
            a.close()
            b.close()

    def test_clean_eof_returns_none(self):
        a, b = socket.socketpair()
        a.close()
        try:
            assert recv_frame(b) is None
        finally:
            b.close()

    def test_mid_frame_eof_raises(self):
        a, b = socket.socketpair()
        try:
            a.sendall(b"\x00\x00\x00\x10abc")  # announces 16 bytes, sends 3
            a.close()
            with pytest.raises(ProtocolError, match="mid-frame"):
                recv_frame(b)
        finally:
            b.close()

    def test_oversized_frame_rejected_both_ways(self):
        a, b = socket.socketpair()
        try:
            with pytest.raises(ProtocolError, match="exceeds MAX_FRAME"):
                send_frame(a, b"x" * (MAX_FRAME + 1))
            a.sendall((MAX_FRAME + 1).to_bytes(4, "big"))
            with pytest.raises(ProtocolError, match="announced"):
                recv_frame(b)
        finally:
            a.close()
            b.close()


class TestRegistration:
    def test_registered_in_registry(self):
        assert "distributed" in available_backends()
        b = make_backend("distributed", _pipe(), spawn_workers=0)
        assert isinstance(b, DistributedBackend)
        b.close()

    def test_workers_register_and_advertise(self, backend):
        backend.warm()
        workers = backend.alive_workers()
        assert len(workers) == 3
        for w in workers:
            assert w["cores"] == 1
            assert 0.0 < w["speed"] <= 1.0

    def test_unpicklable_stage_fn_rejected_at_construction(self):
        bad = PipelineSpec(
            (StageSpec(name="lam", work=0.01, fn=lambda x: x + 1),)
        )
        with pytest.raises(ValueError, match="not picklable"):
            DistributedBackend(bad, spawn_workers=0)

    def test_external_worker_cli_registers(self):
        # A worker started the CLI way (``--connect host:port``) registers
        # and serves; spawn_workers=0 models the external-deployment path.
        # Fresh subprocesses cannot import this test module, so the stages
        # are builtins — picklable by reference on any worker.
        import subprocess
        import sys

        pipe = PipelineSpec(
            (
                StageSpec(name="abs", work=0.001, fn=abs),
                StageSpec(name="float", work=0.001, fn=float),
            )
        )
        b = DistributedBackend(pipe, spawn_workers=0)
        try:
            b.warm()
            host, port = b.listen_address
            procs = [
                subprocess.Popen(
                    [
                        sys.executable,
                        "-m",
                        "repro.backend.distributed.worker",
                        "--connect",
                        f"{host}:{port}",
                        "--name",
                        f"cli-{k}",
                    ]
                )
                for k in range(2)
            ]
            try:
                b.wait_for_workers(2, timeout=30.0)
                res = b.run(range(-20, 0))
                assert res.outputs == [float(abs(x)) for x in range(-20, 0)]
                names = {w["name"] for w in b.alive_workers()}
                assert names == {"cli-0", "cli-1"}
            finally:
                b.close()
                for p in procs:
                    p.wait(timeout=10)
        finally:
            b.close()


class TestEndToEnd:
    def test_ordered_outputs_on_three_workers(self, backend):
        res = backend.run(range(50))
        assert res.outputs == _expected(range(50))
        assert res.items == 50
        assert len(backend.alive_workers()) == 3

    def test_through_skel_api(self):
        inputs = list(range(25))
        out = pipeline_1for1(
            [_inc, _slow_triple], inputs, backend="distributed", spawn_workers=3
        )
        assert out == _expected(inputs)

    def test_reusable_across_runs(self, backend):
        first = backend.run(range(15))
        second = backend.run(range(30))
        assert first.outputs == _expected(range(15))
        assert second.outputs == _expected(range(30))

    def test_close_hands_back_the_worker_handles_descriptors(self):
        # Each spawned worker's handle holds two sentinel pipes.  close()
        # releases them itself: left to the collector they would outlive it
        # (the backend and its session reference each other) and close at
        # some later point — e.g. under another test's descriptor count.
        def open_fds():
            return len(os.listdir("/proc/self/fd"))

        with DistributedBackend(_pipe(), spawn_workers=1) as first:
            first.warm()  # the interpreter's one-time helpers (resource tracker) are up
        before = open_fds()
        b = DistributedBackend(_pipe(), spawn_workers=3)
        assert b.run(range(6)).outputs == _expected(range(6))
        b.close()
        assert open_fds() == before  # with ``b`` and its session still referenced

    def test_stage_error_aborts_and_names_stage(self):
        pipe = PipelineSpec((StageSpec(name="boom", work=0.01, fn=_boom),))
        b = DistributedBackend(pipe, spawn_workers=1)
        try:
            with pytest.raises(RuntimeError, match="boom"):
                b.run(range(5))
        finally:
            b.close()

    def test_service_and_transfer_measured(self, backend):
        backend.run(range(40))
        snaps = backend.snapshots()
        # The sleeping stage's measured service must reflect the sleep, and
        # every worker must have a measured (non-default) link estimate.
        assert snaps[1].service_time >= 0.009
        assert snaps[1].work_estimate > 0
        assert backend.items_completed() == 40


class TestFailureHandling:
    def test_worker_crash_mid_run_redispatches(self, producer):
        pipe = PipelineSpec((StageSpec(name="triple", work=0.02, fn=_slow_triple),))
        b = DistributedBackend(pipe, spawn_workers=3, replicas=[3], max_replicas=3)
        try:
            n = 90
            run = producer.submit(b.run, range(n))
            time.sleep(0.3)  # let items spread over all three workers
            assert not run.done()
            b.worker_processes[0].kill()
            res = run.result(timeout=30)
            # No lost items, no reordering, and the local view shrank.
            assert res.items == n
            assert res.outputs == [x * 3 for x in range(n)]
            assert len(b.alive_workers()) == 2
            assert all(
                wid in {w["id"] for w in b.alive_workers()}
                for placement in b.replica_placement()
                for wid in placement
            )
        finally:
            b.close()

    def test_all_stage_replicas_lost_replaced_on_survivor(self, producer):
        pipe = PipelineSpec((StageSpec(name="triple", work=0.02, fn=_slow_triple),))
        b = DistributedBackend(pipe, spawn_workers=2, replicas=[1])
        try:
            run = producer.submit(b.run, range(60))
            time.sleep(0.2)
            # Kill the worker hosting the only replica of the only stage.
            (hosting_wid,) = b.replica_placement()[0]
            victim = next(
                w for w in b._workers.values() if w.id == hosting_wid
            )
            assert victim.proc is not None
            victim.proc.kill()
            res = run.result(timeout=30)
            assert res.outputs == [x * 3 for x in range(60)]
            assert b.replica_placement()[0]  # re-homed on the survivor
        finally:
            b.close()

    def test_a_stage_no_worker_can_host_fails_the_session(self, producer):
        # The worker answers the place with its error and drops every task dealt to the
        # slot it never hosted: open() or the stream raises the error naming
        # the stage, nothing waits on the dropped tasks, and close() leaves
        # no segment busy.
        from repro.transport import busy_segments
        from repro.workloads.payloads import make_arrays

        pipe = PipelineSpec(
            (
                StageSpec(name="scale", work=0.001, fn=_scale_array),
                StageSpec(name="unloadable", work=0.001, fn=_Unloadable()),
            )
        )
        b = DistributedBackend(pipe, spawn_workers=1, transport="shm")
        shm_session = b._codec.session
        try:
            run = producer.submit(b.run, make_arrays(20, mbytes=0.3, seed=3))
            with pytest.raises(StageError, match=r"could not host stage 1 \('unloadable'\)"):
                run.result(timeout=20)
            assert b.replica_placement()[1] == {}  # the failed replica left its set
        finally:
            b.close()
        assert busy_segments(shm_session) == []

    def test_the_last_worker_dying_mid_stream_fails_the_drain(self):
        pipe = PipelineSpec((StageSpec(name="triple", work=0.01, fn=_slow_triple),))
        b = DistributedBackend(pipe, spawn_workers=1)
        try:
            session = b.open()
            refused = []

            def feed():
                try:
                    for x in range(60):
                        session.submit(x)
                except StageError as err:
                    refused.append(err)

            feeder = threading.Thread(target=feed, daemon=True)
            feeder.start()
            time.sleep(0.2)  # the replica is full and the feeder parked
            t0 = time.perf_counter()
            b.worker_processes[0].kill()
            feeder.join(timeout=b.heartbeat_timeout)
            with pytest.raises(StageError, match="no live workers remain"):
                session.drain()
            assert time.perf_counter() - t0 < b.heartbeat_timeout
            assert not feeder.is_alive() and refused
        finally:
            b.close()

    def test_view_shrinks_after_death(self):
        b = DistributedBackend(_pipe(), spawn_workers=3)
        try:
            b.warm()
            view = b.resource_view(6)
            assert view is not None and len(view.pids()) == 6
            b.worker_processes[0].kill()
            deadline = time.monotonic() + 10
            while len(b.alive_workers()) > 2 and time.monotonic() < deadline:
                time.sleep(0.05)
            assert len(b.alive_workers()) == 2
            # Same pid universe, remapped onto survivors.
            view = b.resource_view(6)
            assert len(view.pids()) == 6
        finally:
            b.close()


def _slow_inc(x):
    time.sleep(0.002)
    return x + 1


class TestRoutes:
    """Two workers, stage 0 on one and stage 1 on the other (as
    ``tiny_distributed`` places them): items pass worker to worker and only
    stage 1, the boundary, reports to the coordinator."""

    @staticmethod
    def _backend(**kw):
        pipe = PipelineSpec(
            (
                StageSpec(name="inc", work=0.002, fn=_slow_inc),
                StageSpec(name="triple", work=0.01, fn=_slow_triple),
            )
        )
        b = DistributedBackend(pipe, spawn_workers=2, **kw)
        b.warm()
        first, boundary = b.replica_placement()
        assert len(first) == len(boundary) == 1 and first.keys() != boundary.keys()
        return b

    @pytest.mark.parametrize("batching", [None, 8], ids=["per-item", "batch8"])
    @pytest.mark.parametrize("victim", [0, 1], ids=["first-hop", "boundary"])
    def test_a_killed_worker_on_a_route_redispatches_its_segment_once(
        self, victim, batching, producer
    ):
        from repro.transport import busy_segments

        n = 120
        b = self._backend()
        shm_session = b._codec.session
        try:
            session = b.open(batching=batching)
            events = []
            session.events.subscribe(
                events.append, kinds=("worker.death", "worker.redispatch")
            )

            def stream():
                for x in range(n):
                    session.submit(x)
                return session.drain()

            run = producer.submit(stream)
            time.sleep(0.3)  # routes in flight on both workers
            assert not run.done()
            (wid,) = b.replica_placement()[victim]
            b._workers[wid].proc.kill()
            assert run.result(timeout=30) == _expected(range(n))
            (death,) = [e for e in events if e.kind == "worker.death"]
            redispatched = [e for e in events if e.kind == "worker.redispatch"]
            assert death.fields["lost_items"] == len(redispatched) > 0
            assert all(e.fields["stage"] == 0 for e in redispatched)  # from the segment's head
            assert len(b.alive_workers()) == 1
        finally:
            b.close()
        assert busy_segments(shm_session) == []

    def test_a_lost_peer_link_is_taken_as_that_peers_death(self, producer):
        # Two in-process agents: once the first hop's link to the boundary
        # is gone, a forward over it reports peer_lost, and the coordinator
        # takes that as the boundary's death — each route through it is
        # re-dispatched once.
        from repro.backend.distributed.worker import WorkerAgent
        from repro.transport import busy_segments

        n = 120
        pipe = PipelineSpec(
            (
                StageSpec(name="inc", work=0.002, fn=_slow_inc),
                StageSpec(name="triple", work=0.01, fn=_slow_triple),
            )
        )
        b = DistributedBackend(pipe, spawn_workers=0)
        shm_session, agents, threads = b._codec.session, {}, []
        try:
            b.warm()
            for name in ("a", "b"):
                agent = WorkerAgent(*b.listen_address, name=name)
                threads.append(threading.Thread(target=agent.run, daemon=True))
                threads[-1].start()
                b.wait_for_workers(len(threads), timeout=10.0)
                agents[agent.name] = agent
            session = b.open()
            (head,), (tail,) = b.replica_placement()
            assert head != tail
            events = []
            session.events.subscribe(
                events.append, kinds=("worker.death", "worker.redispatch")
            )

            def stream():
                for x in range(n):
                    session.submit(x)
                return session.drain()

            run = producer.submit(stream)
            time.sleep(0.3)  # routes in flight on both agents
            assert not run.done()
            (first,) = [a for a in agents.values() if a.worker_id == head]
            first._peers[tail][0].close()
            assert run.result(timeout=30) == _expected(range(n))
            (death,) = [e for e in events if e.kind == "worker.death"]
            redispatched = [e for e in events if e.kind == "worker.redispatch"]
            assert death.fields["worker"] == tail
            assert death.fields["lost_items"] == len(redispatched) > 0
            assert [w["id"] for w in b.alive_workers()] == [head]
        finally:
            b.close()
        for t in threads:
            t.join(timeout=5.0)
            assert not t.is_alive()
        assert busy_segments(shm_session) == []

    def test_intermediate_frames_are_released_where_they_are_read(self):
        from repro.transport import busy_segments
        from repro.workloads.payloads import make_arrays

        pipe = PipelineSpec(
            (
                StageSpec(name="scale", work=0.001, fn=_scale_array),
                StageSpec(name="sum", work=0.001, fn=_sum_array),
            )
        )
        with DistributedBackend(pipe, spawn_workers=2, transport="shm") as b:
            session = b.open()
            assert all(w["shm_ok"] for w in b.alive_workers())
            first, boundary = b.replica_placement()
            assert first.keys() != boundary.keys()
            for stream in range(2):
                arrays = make_arrays(12, mbytes=1.0, seed=stream)
                for a in arrays:
                    session.submit(a)
                assert session.drain() == [float((a * 2.0).sum()) for a in arrays]
                # Stage 0's outputs went worker to worker as descriptors: the
                # reader released each, so nothing but the probe stays busy.
                busy = busy_segments(b._codec.session)
                assert busy == [b._probe[0].stream.name], stream


class TestReconfigure:
    def test_grow_spreads_across_workers(self, backend):
        backend.warm()
        backend.reconfigure(1, 3)
        placement = backend.replica_placement()[1]
        assert sum(placement.values()) == 3
        assert len(placement) >= 2  # replicas on at least two workers
        res = backend.run(range(40))
        assert res.outputs == _expected(range(40))
        assert backend.replica_counts()[1] == 3

    def test_shrink_without_drain_mid_run(self, backend, producer):
        backend.warm()
        backend.reconfigure(1, 3)
        run = producer.submit(backend.run, range(60))
        time.sleep(0.15)
        backend.reconfigure(1, 1)
        res = run.result(timeout=30)
        assert res.outputs == _expected(range(60))
        assert backend.replica_counts()[1] == 1

    @pytest.mark.parametrize("routed", [False, True], ids=["one-stage", "route"])
    def test_a_retire_follows_its_slots_last_result(self, producer, routed):
        # Every send on each connection and every accepted route, in one
        # log: a shrunk stage-0 replica's retire comes after the last route
        # through its slot completed — on a route, at stage 1's boundary —
        # and no task for that slot follows it.
        stages = [StageSpec(name="triple", work=0.01, fn=_slow_triple)]
        stages += [StageSpec(name="inc", work=0.001, fn=_inc)] if routed else []
        replicas = [2, 1] if routed else [2]
        with DistributedBackend(
            PipelineSpec(tuple(stages)), spawn_workers=2, replicas=replicas, max_replicas=2
        ) as b:
            b.open()
            log, lock = [], threading.Lock()
            for w in b._workers.values():
                def send(msg, w=w, send=w.outbox.send):
                    with lock:
                        log.append((msg[0], w.id, *_slot_of(msg)))
                    return send(msg)

                w.outbox.send = send
            settle = b._settle

            def spy(seq, route):  # a route accepted at its boundary
                with lock:
                    log.extend(("accepted", r.worker.id, r.stage, r.slot) for r in route.replicas)
                settle(seq, route)

            b._settle = spy
            run = producer.submit(b.run, range(60))
            time.sleep(0.15)  # both replicas hold a full allowance
            b.reconfigure(0, 1)
            res = run.result(timeout=30)
            retires = [(i, e[1:]) for i, e in enumerate(log) if e[0] == "retire"]
            assert len(retires) == 1
            (at, slot), = retires
            assert slot[1] == 0  # stage 0's
            after = [e[0] for e in log[at + 1:] if e[1:] == slot]
            before = [e[0] for e in log[:at] if e[1:] == slot]
            assert "accepted" in before and after == []
            assert before.count("task") == before.count("accepted")
            assert res.outputs == [x * 3 + routed for x in range(60)]
            assert b.replica_counts() == [1] * len(stages)

    def test_a_retired_replica_whose_worker_dies_is_redispatched_once(self, producer):
        pipe = PipelineSpec((StageSpec(name="double", work=0.05, fn=_slow_double),))
        with DistributedBackend(pipe, spawn_workers=2, replicas=[2], max_replicas=2) as b:
            session = b.open()
            events = []
            session.events.subscribe(
                events.append, kinds=("worker.death", "worker.redispatch")
            )
            sent = []
            for w in b._workers.values():
                w.outbox.send = lambda msg, w=w, send=w.outbox.send: (
                    sent.append((w.id, msg[0])) or send(msg)
                )
            run = producer.submit(b.run, range(40))
            time.sleep(0.2)  # both replicas hold a full allowance
            b.reconfigure(0, 1)
            (retired,) = [r for r in b._replicas[0] if not r.active]
            victim = retired.worker
            time.sleep(0.05)  # a dispatch that reserved before the retire has sent
            assert retired.tasks, "the retired replica drained before its worker died"
            mark = len(sent)
            victim.proc.kill()
            res = run.result(timeout=30)
            assert res.outputs == [x * 2 for x in range(40)]
            assert [kind for wid, kind in sent[mark:] if wid == victim.id] == []
            (death,) = [e for e in events if e.kind == "worker.death"]
            seqs = [e.fields["seq"] for e in events if e.kind == "worker.redispatch"]
            assert death.fields["lost_items"] == len(seqs) == len(set(seqs)) > 0

    def test_clamps_to_limit_and_rejects_zero(self, backend):
        backend.warm()
        with pytest.raises(ValueError, match=">= 1"):
            backend.reconfigure(1, 0)
        backend.reconfigure(1, 99)
        assert backend.replica_counts()[1] == backend.max_replicas
        # Stage 0 is replicable too, but a stateful stage would clamp to 1.
        assert backend.replica_limit(1) == backend.max_replicas


class TestResourceView:
    def test_no_workers_means_no_view(self):
        b = DistributedBackend(_pipe(), spawn_workers=0)
        try:
            assert b.resource_view(4) is None
        finally:
            b.close()

    def test_links_cheap_within_worker_costly_across(self):
        b = DistributedBackend(_pipe(), spawn_workers=2)
        try:
            b.run(range(20))  # populate link measurements
            view = b.resource_view(4)
            # pids 0,2 share worker 0; pids 1,3 share worker 1 (round-robin).
            same_lat, _ = view.link(0, 2)
            cross_lat, _ = view.link(0, 1)
            assert same_lat < cross_lat
            for pid in view.pids():
                assert 0 < view.eff_speed(pid) <= 1.0
        finally:
            b.close()


def test_worker_drops_a_task_for_an_unknown_slot_and_serves_on():
    # A retire follows its slot's last task, so a task for a slot the
    # worker does not host can only follow a failed place (which failed the
    # session): the worker drops it, answers nothing, and serves the next
    # place and task as usual.
    from repro.backend.distributed.worker import WorkerAgent

    server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    server.bind(("127.0.0.1", 0))
    server.listen(1)
    host, port = server.getsockname()
    agent = WorkerAgent(host, port, name="drop-test")
    t = threading.Thread(target=agent.run, daemon=True)
    t.start()
    sock, _ = server.accept()
    try:
        sock.settimeout(10.0)
        assert sock.recv(len(PREAMBLE), socket.MSG_WAITALL) == PREAMBLE
        hello = recv_frame(sock)
        assert hello[0] == "hello" and hello[1] == "drop-test"
        send_frame(
            sock, ("welcome", 0, 8, {"name": "pickle", "session": "t", "probe": None}, b"t", [])
        )
        shm_ok = recv_frame(sock)
        assert shm_ok == ("shm_ok", False)  # no probe offered -> inline only
        payload = PickleCodec().encode("payload")
        send_frame(sock, ("task", 1, 0, 7, 3, payload, 0.0, (), ()))
        send_frame(sock, ("place", 0, 1, pickle.dumps(_inc), "inc"))
        send_frame(sock, ("task", 1, 0, 1, 4, PickleCodec().encode(41), 0.0, (), ()))
        assert recv_frame(sock) == ("placed", 0, 1, None)
        result = recv_frame(sock)  # the worker sends nothing unasked: no heartbeat
        assert result[:6] == ("result", 1, 0, 1, 4, True)
        assert PickleCodec().decode(result[6]) == 42
        send_frame(sock, ("shutdown",))
        t.join(timeout=5.0)
        assert not t.is_alive()
    finally:
        sock.close()
        server.close()


def test_a_worker_reports_one_set_of_stamps_per_result():
    # A worker traces nothing: its result carries one trail entry per hop,
    # its own last, with the four timing stamps and nothing else, and its
    # pong carries the ping's stamps and the load average.
    from repro.backend.distributed.worker import WorkerAgent

    server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    server.bind(("127.0.0.1", 0))
    server.listen(1)
    agent = WorkerAgent(*server.getsockname(), name="stamps-test")
    t = threading.Thread(target=agent.run, daemon=True)
    t.start()
    sock, _ = server.accept()
    try:
        sock.settimeout(10.0)
        assert sock.recv(len(PREAMBLE), socket.MSG_WAITALL) == PREAMBLE
        assert recv_frame(sock)[0] == "hello"
        send_frame(
            sock, ("welcome", 0, 8, {"name": "pickle", "session": "t", "probe": None}, b"t", [])
        )
        assert recv_frame(sock) == ("shm_ok", False)
        send_frame(sock, ("place", 0, 1, pickle.dumps(_inc), "inc"))
        send_frame(sock, ("task", 1, 0, 1, 3, PickleCodec().encode(41), 12.5, (), ()))
        send_frame(sock, ("ping", 7.5))
        frames = {}
        while len(frames) < 3:
            frame = recv_frame(sock)
            frames.setdefault(frame[0], frame)
        result, pong = frames["result"], frames["pong"]
        assert frames["placed"] == ("placed", 0, 1, None)
        (_, t0, t1, t2, load1) = pong
        assert t0 == 7.5 and t1 <= t2 and isinstance(load1, float)
        (_, epoch, stage, slot, seq, ok, payload, t_sent, err_repr, trail) = result
        assert (epoch, stage, slot, seq, ok, t_sent, err_repr) == (1, 0, 1, 3, True, 12.5, None)
        ((hop_stage, worker, hop_slot, t_recv_w, wait_s, service_s, t_send_w, nbytes),) = trail
        assert (hop_stage, worker, hop_slot) == (0, 0, 1)  # a route of one hop: the boundary
        assert PickleCodec().decode(payload) == 42
        assert nbytes == wire_nbytes(payload) == len(payload)
        assert service_s >= 0 and wait_s >= 0
        assert t_recv_w + wait_s + service_s <= t_send_w
        send_frame(sock, ("shutdown",))
        t.join(timeout=5.0)
        assert not t.is_alive()
    finally:
        sock.close()
        server.close()


@pytest.mark.parametrize("capacity, inbox", [(None, 1024), (2, 2)])
def test_the_welcome_sizes_the_inbox_for_the_deepest_allowance(capacity, inbox):
    # A worker bounds each replica's task queue by the welcome's inbox: it
    # must hold the deepest allowance a session may grant (the window
    # ceiling, or a given capacity), or a put would block its receive loop.
    with DistributedBackend(_pipe(), spawn_workers=0, capacity=capacity) as b:
        b.warm()
        with socket.create_connection(b.listen_address, timeout=10.0) as sock:
            sock.sendall(PREAMBLE)
            send_frame(sock, ("hello", "inbox-test", 1, 0.0, ("127.0.0.1", 1)))
            welcome = recv_frame(sock)
    assert welcome[0] == "welcome" and welcome[2] == inbox


def _closed_by_peer(sock) -> bool:
    try:
        return sock.recv(1) == b""
    except ConnectionResetError:  # closed with our unread bytes still queued
        return True


@pytest.mark.parametrize(
    "opening",
    [
        b"GET / HTTP/1.1\r\nHost: x\r\n\r\n",
        encode_frame(("hello", "bare", 1, 0.0)),
        PREAMBLE[:4]
        + (int.from_bytes(PREAMBLE[4:], "big") + 1).to_bytes(2, "big")
        + encode_frame(("hello", "next-version", 1, 0.0)),
        b"RPRO" + (1).to_bytes(2, "big") + encode_frame(("hello", "version-1", 1, 0.0)),
        b"RPRO" + (2).to_bytes(2, "big") + encode_frame(("hello", "version-2", 1, 0.0)),
        b"RPRO" + (3).to_bytes(2, "big") + encode_frame(("hello", "version-3", 1, 0.0)),
        b"RPRO" + (4).to_bytes(2, "big")
        + encode_frame(("hello", "version-4", 1, 0.0, ("127.0.0.1", 1))),
    ],
    ids=[
        "junk", "bare-pickled-hello", "wrong-version", "version-1", "version-2", "version-3",
        "version-4",
    ],
)
def test_a_connection_without_the_preamble_is_closed_and_nothing_unpickled(
    opening, monkeypatch
):
    unpickled = []
    loads = pickle.loads
    monkeypatch.setattr(pickle, "loads", lambda data: unpickled.append(data) or loads(data))
    with DistributedBackend(_pipe(), spawn_workers=0) as b:
        b.warm()
        with socket.create_connection(b.listen_address, timeout=10.0) as sock:
            sock.sendall(opening)
            assert _closed_by_peer(sock)
        assert not b._workers and not b._pending
    assert unpickled == []


def _welcomed_agent(token):
    """A WorkerAgent registered with a bare coordinator socket that welcomes
    it as worker 0 with ``token`` and no peers: (the agent, its thread, the
    coordinator socket, its peer listener's address)."""
    from repro.backend.distributed.worker import WorkerAgent

    with socket.create_server(("127.0.0.1", 0)) as server:
        worker = WorkerAgent(*server.getsockname()[:2], name="peer-test")
        agent = threading.Thread(target=worker.run, daemon=True)
        agent.start()
        sock, _ = server.accept()
    sock.settimeout(10.0)
    assert sock.recv(len(PREAMBLE), socket.MSG_WAITALL) == PREAMBLE
    hello = recv_frame(sock)
    send_frame(sock, ("welcome", 0, 8, {"name": "pickle", "session": "t", "probe": None}, token, []))
    assert recv_frame(sock) == ("shm_ok", False)
    return worker, agent, sock, tuple(hello[4])


def _stop_agent(agent, sock):
    send_frame(sock, ("shutdown",))
    agent.join(timeout=5.0)
    sock.close()
    assert not agent.is_alive()


_TOKEN = b"t" * 16
_PEER = encode_frame(("peer", 5, False))


@pytest.mark.parametrize(
    "opening",
    [
        b"GET / HTTP/1.1\r\nHost: x\r\n\r\n",
        _PEER + _PEER,
        PREAMBLE + b"x" * len(_TOKEN) + _PEER,
        b"RPRO" + (3).to_bytes(2, "big") + _TOKEN + _PEER,
        b"RPRO" + (4).to_bytes(2, "big") + _TOKEN + _PEER,
    ],
    ids=["junk", "bare-pickled-frame", "wrong-token", "version-3", "version-4"],
)
def test_a_peer_link_without_preamble_and_token_is_closed_and_nothing_unpickled(
    opening, monkeypatch
):
    _, agent, sock, address = _welcomed_agent(_TOKEN)
    try:
        unpickled = []
        loads = pickle.loads
        monkeypatch.setattr(pickle, "loads", lambda data: unpickled.append(data) or loads(data))
        with socket.create_connection(address, timeout=10.0) as stranger:
            stranger.sendall(opening)
            assert _closed_by_peer(stranger)
        monkeypatch.undo()
        assert unpickled == []
    finally:
        _stop_agent(agent, sock)


def test_a_silent_stranger_holds_up_no_peer_link():
    # The peer handshake runs on each connection's own thread: a worker
    # dialing behind a connection that says nothing is linked at once.
    _, agent, sock, address = _welcomed_agent(_TOKEN)
    stranger = socket.create_connection(address, timeout=10.0)
    try:
        time.sleep(0.05)  # accepted, and parked in its handshake
        t0 = time.perf_counter()
        with socket.create_connection(address, timeout=10.0) as peer:
            peer.sendall(PREAMBLE + _TOKEN + _PEER)
            assert recv_frame(peer) == ("peer_ok", 0, False)
        assert time.perf_counter() - t0 < 1.0
    finally:
        stranger.close()
        _stop_agent(agent, sock)


class _ReleaseSpy(PickleCodec):
    """Records every frame released through it."""

    def __init__(self):
        super().__init__()
        self.released = []

    def release(self, frame):
        self.released.append(frame)
        super().release(frame)


def test_a_frame_no_replica_takes_is_released_where_it_was_dropped():
    # A stale route can name a slot its worker no longer hosts.  The frame a
    # hop before made then reaches no replica that would release it: the
    # worker releases it where it drops it — an output bound for an unknown
    # local slot, and a peer's task for an unknown slot.
    worker, agent, sock, address = _welcomed_agent(_TOKEN)
    spy = worker.codec = _ReleaseSpy()
    try:
        send_frame(sock, ("place", 0, 1, pickle.dumps(_inc), "inc"))
        assert recv_frame(sock) == ("placed", 0, 1, None)
        task = PickleCodec().encode(41)
        # Stage 0's output goes on to stage 1's slot 9 on this worker (id 0).
        send_frame(sock, ("task", 1, 0, 1, 3, task, 0.0, ((1, 9, 0),), ()))
        with socket.create_connection(address, timeout=10.0) as peer:
            peer.sendall(PREAMBLE + _TOKEN + _PEER)
            assert recv_frame(peer) == ("peer_ok", 0, False)
            upstream = ((0, 5, 1, 0.0, 0.0, 0.0, 0.0, 10),)  # worker 5's stage-0 hop
            send_frame(
                peer, ("task", 1, 1, 9, 4, PickleCodec().encode(7), 0.0, (), upstream)
            )
            deadline = time.monotonic() + 5.0
            while len(spy.released) < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
        assert sorted(PickleCodec().decode(f) for f in spy.released) == [7, 42]
    finally:
        _stop_agent(agent, sock)


def test_a_silent_stranger_holds_up_no_registration():
    # A connection that opens and says nothing (a port scan, a health check)
    # waits on its own thread: a real worker behind it registers at once.
    from repro.backend.distributed.worker import WorkerAgent

    with DistributedBackend(_pipe(), spawn_workers=0) as b:
        b.warm()
        stranger = socket.create_connection(b.listen_address, timeout=10.0)
        deadline = time.perf_counter() + 5.0
        while not b._pending and time.perf_counter() < deadline:
            time.sleep(0.005)
        assert b._pending, "the stranger was not accepted"
        agent = threading.Thread(target=WorkerAgent(*b.listen_address, name="behind").run)
        t0 = time.perf_counter()
        agent.start()
        b.wait_for_workers(1, timeout=5.0)
        assert time.perf_counter() - t0 < 1.0
        assert b.run(range(5)).outputs == _expected(range(5))
    agent.join(timeout=5.0)
    assert not agent.is_alive() and _closed_by_peer(stranger)  # close() woke its handshake
    stranger.close()
    assert not [t.name for t in threading.enumerate() if t.name.startswith("dist-")]


def test_a_newcomer_that_cannot_reach_a_peer_leaves_the_running_pool_alone():
    # A worker joining a warm pool that reports a failed peer dial is not
    # registered: it is dropped, wait_for_workers raises an error naming
    # both ends, and the pool's next stream runs as before.
    with DistributedBackend(_pipe(), spawn_workers=2) as b:
        assert b.run(range(10)).outputs == _expected(range(10))
        with socket.create_connection(b.listen_address, timeout=10.0) as sock:
            sock.sendall(PREAMBLE)
            send_frame(sock, ("hello", "stranded", 1, 0.0, ("127.0.0.1", 1)))
            welcome = recv_frame(sock)
            (wid, _address), *_ = welcome[5]
            send_frame(sock, ("link_failed", wid, "ConnectionRefusedError(111)"))
            assert _closed_by_peer(sock)
        with pytest.raises(RuntimeError, match=r"'stranded' cannot reach worker 'local-\d'"):
            b.wait_for_workers(3, timeout=10.0)
        assert b.run(range(20)).outputs == _expected(range(20))
        assert len(b.alive_workers()) == 2


def test_a_peer_dial_slower_than_the_heartbeat_timeout_names_both_ends():
    # A dial into an address that answers nothing lasts until it times out
    # or the far end hangs up — here well past the heartbeat timeout.  The
    # newcomer dials beside its serve loop, which answers the monitor's
    # pings meanwhile, so it is not declared dead: its ``link_failed``
    # arrives and wait_for_workers names both ends.
    from repro.backend.distributed.worker import WorkerAgent

    with (
        DistributedBackend(_pipe(), spawn_workers=0, heartbeat_interval=0.05) as b,
        socket.create_server(("127.0.0.1", 0)) as silent,
    ):
        b.warm()
        held = []

        def hold():  # accept the dial, answer nothing, hang up after a while
            conn, _ = silent.accept()
            held.append(conn)
            time.sleep(6 * b.heartbeat_timeout)
            conn.close()

        holder = threading.Thread(target=hold, daemon=True)
        holder.start()
        with socket.create_connection(b.listen_address, timeout=10.0) as sock:
            sock.sendall(PREAMBLE)
            send_frame(sock, ("hello", "silent", 1, 0.0, silent.getsockname()[:2]))
            assert recv_frame(sock)[0] == "welcome"
            agent = threading.Thread(target=WorkerAgent(*b.listen_address, name="late").run)
            agent.start()
            with pytest.raises(RuntimeError, match=r"'late' cannot reach worker 'silent' at"):
                b.wait_for_workers(1, timeout=10.0)
            agent.join(timeout=5.0)
        holder.join(timeout=5.0)
    assert not agent.is_alive() and held


def test_a_placed_ack_that_outruns_its_placer_is_not_lost(monkeypatch):
    # A worker may answer ``placed`` before the thread that sent the place
    # runs again: the replica must already be in its set when the ack is
    # handled, or the ack finds nothing, no route ever passes the replica
    # and warm-up waits for it forever.
    from repro.transport.lane import Outbox

    send = Outbox.send

    def slow_place(self, message):
        ok = send(self, message)
        if message[0] == "place":
            time.sleep(0.2)  # the worker's ack arrives and is handled meanwhile
        return ok

    monkeypatch.setattr(Outbox, "send", slow_place)
    b = DistributedBackend(_pipe(), spawn_workers=1)
    try:
        warm = threading.Thread(target=b.warm, daemon=True)
        warm.start()
        warm.join(timeout=10.0)
        assert not warm.is_alive(), "warm-up waits for an ack it lost"
        assert all(r.placed for replicas in b._replicas for r in replicas)
        assert b.run(range(5)).outputs == _expected(range(5))
    finally:
        b.close()


def test_a_newcomer_silent_before_it_registers_is_timed_out():
    # Pings go to every worker, registered or still linking: one that
    # answers nothing (a frozen process) is declared dead like any other,
    # so no later newcomer dials it, or fails on it, for ever.
    with DistributedBackend(_pipe(), spawn_workers=0, heartbeat_interval=0.05) as b:
        b.warm()
        with socket.create_connection(b.listen_address, timeout=10.0) as sock:
            sock.sendall(PREAMBLE)
            send_frame(sock, ("hello", "frozen", 1, 0.0, ("127.0.0.1", 1)))
            assert recv_frame(sock)[0] == "welcome"
            (frozen,) = b._workers.values()
            deadline = time.monotonic() + 10.0
            while frozen.alive and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not frozen.alive


def test_close_lets_spawned_workers_exit_by_themselves():
    # close() flushes ``shutdown`` before any socket goes: every worker leaves
    # its serve loop and exits 0 on its own, and no writer thread is left.
    b = DistributedBackend(_pipe(), spawn_workers=2)
    assert b.run(range(20)).outputs == _expected(range(20))
    terminated, codes = [], []
    for proc in b.worker_processes:
        proc.terminate = lambda proc=proc: terminated.append(proc.name)
        proc.close = lambda proc=proc, close=proc.close: (codes.append(proc.exitcode), close())
    b.close()
    assert terminated == [] and codes == [0, 0]
    assert not [t.name for t in threading.enumerate() if t.name.startswith("dist-send")]


def test_worker_task_payloads_forwarded_pickled():
    # Items cross stages as pickled bytes: a payload type with costly or
    # odd pickling still round-trips exactly once per hop.
    data = [{"k": [1, 2, 3], "v": ("x", 4.5)}, {"k": [], "v": (None, 0.0)}]
    roundtripped = pickle.loads(pickle.dumps(data))
    assert roundtripped == data


def test_concurrent_close_is_safe():
    b = DistributedBackend(_pipe(), spawn_workers=2)
    b.warm()
    threads = [threading.Thread(target=b.close) for _ in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def test_close_of_a_warm_idle_backend_waits_on_no_poll():
    # The monitor waits on the closing event (not a heartbeat_interval
    # sleep), the listener is shut down under the blocked accept() and the
    # routers are woken: close() is prompt and every dist-* thread is gone.
    b = DistributedBackend(_pipe(), spawn_workers=2)
    assert b.run(range(10)).outputs == _expected(range(10))
    time.sleep(0.1)  # idle: every thread is parked in its wait
    t0 = time.perf_counter()
    b.close()
    elapsed = time.perf_counter() - t0
    assert elapsed < 0.2, f"close() took {elapsed:.3f} s"
    assert not [t.name for t in threading.enumerate() if t.name.startswith("dist-")]


def test_idle_routers_run_no_iteration(record_polls):
    # _poll blocks on the boundary's result queue until a result or a
    # wake-up: an open session with nothing in flight costs the coordinator
    # nothing.  Stage 0 forwards to stage 1 on the worker, so only the last
    # stage, the one boundary, has a router.
    polled = record_polls(DistributedBackend.session_class)
    with DistributedBackend(_pipe(), spawn_workers=1) as b:
        session = b.open()
        assert [t.name for t in session._threads] == ["distributed-router[1]"]
        for x in range(5):
            session.submit(x)
        assert session.drain() == _expected(range(5))
        # 5 results x 1 router, across the polled bursts
        assert None not in polled and sum(map(len, polled)) == 5
        polls = len(polled)
        time.sleep(0.5)
        assert len(polled) == polls
        t0 = time.perf_counter()
        session.close()  # woken, not timed out
        assert polled[polls:] == [None] and time.perf_counter() - t0 < 0.1


class _CountingCondition(threading.Condition):
    """A condition (a stage's dispatch, or the registry's) that counts its waits."""

    def __init__(self, lock=None):
        super().__init__(lock)
        self.waits = 0

    def wait(self, timeout=None):
        self.waits += 1
        return super().wait(timeout)


def test_a_dispatcher_parked_on_a_full_replica_wakes_on_the_freed_slot():
    # _reserve_slot waits untimed: parked on a full replica, a dispatcher
    # runs no loop iteration, and the site that frees the slot wakes it.
    with DistributedBackend(_pipe(), spawn_workers=1, capacity=1) as b:
        cond = b._cond = _CountingCondition(b._lane_lock)
        session = b.open()
        assert session.submit(1).wait(timeout=10.0)
        (replica,) = b._replicas[0]
        with cond:  # a route an aborted stream stranded holds the one slot
            replica.tasks[99] = _Route(b._codec.encode(0), [replica])
        before = cond.waits  # the first dispatch waited for the placements' acks
        admitted = threading.Event()
        producer = threading.Thread(
            target=lambda: (session.submit(2), admitted.set()), daemon=True
        )
        producer.start()
        deadline = time.perf_counter() + 5.0
        while cond.waits == before and time.perf_counter() < deadline:
            time.sleep(0.005)
        time.sleep(0.5)
        idle_waits, was_parked = cond.waits - before, not admitted.is_set()
        t0 = time.perf_counter()
        b._reclaim()
        woke = admitted.wait(timeout=5.0)  # else close() aborts the parked submit
        woke_after = time.perf_counter() - t0
        assert idle_waits == 1 and was_parked
        assert woke and woke_after < 0.05
        assert session.drain() == _expected([1, 2])


def test_waiting_for_workers_is_one_wait_to_the_deadline():
    # Registration, the shm_ok reply and a death each notify the registry,
    # so the wait takes no slices: with nobody registering it parks once.
    with DistributedBackend(_pipe(), spawn_workers=0) as b:
        b.warm()
        b._registry_changed = changed = _CountingCondition(b._registry)
        t0 = time.perf_counter()
        with pytest.raises(RuntimeError, match=r"for 1 workers \(0 registered\)"):
            b.wait_for_workers(1, timeout=0.6)
        assert changed.waits == 1 and time.perf_counter() - t0 > 0.5


class TestPlacementByFinishTime:
    """``_reserve_slot``'s score and allowance over fake replicas, no sockets.

    A backend with ``spawn_workers=0`` that is never warmed opens nothing;
    its stage 0 gets hand-made replicas whose cached terms (drain interval,
    link latency, last completion) stand in for measured ones.
    """

    @pytest.fixture
    def b(self):
        pipe = PipelineSpec((StageSpec(name="inc", work=1e-6, fn=_inc),))
        with DistributedBackend(pipe, spawn_workers=0) as backend:
            yield backend

    @pytest.fixture
    def session(self):
        """What ``_reserve_slot`` reads of a session with window 256."""
        return SimpleNamespace(_abort=threading.Event(), _depth=256, seqs=itertools.count())

    @staticmethod
    def _replicas(b, *terms):
        """One replica per ``(drain, link_s)``; ``drain=None`` is unmeasured."""
        replicas = []
        for k, (drain, link_s) in enumerate(terms):
            w = _WorkerConn(k, None, f"w{k}", 1)
            w.link_s = link_s
            r = _Replica(w, k)
            r.placed = True
            r.drain = drain
            r.done_t = 0.0 if drain is None else time.perf_counter()
            replicas.append(r)
        b._replicas[0] = replicas
        return replicas

    @staticmethod
    def _deal(b, session, n):
        for _ in range(n):
            b._reserve_slot(session, 0, next(session.seqs))

    def test_an_item_goes_where_it_finishes_first(self, b, session):
        fast_a, fast_b, slow = self._replicas(b, (60e-6, 50e-6), (60e-6, 50e-6), (3e-3, 1.5e-3))
        # The slow replica's next item finishes in 3 + 1.5 ms: a fast one
        # beats that until (n + 1) x 60 us + 50 us passes it, at n = 74.
        self._deal(b, session, 148)
        assert (len(fast_a.tasks), len(fast_b.tasks), len(slow.tasks)) == (74, 74, 0)
        self._deal(b, session, 1)
        assert len(slow.tasks) == 1
        self._deal(b, session, 50)  # its second item would finish at 7.5 ms
        assert len(slow.tasks) == 1 and len(fast_a.tasks) + len(fast_b.tasks) == 198

    def test_an_unmeasured_replica_of_several_stays_at_capacity(self, b, session):
        measured, cold = self._replicas(b, (1e-3, 0.0), (None, 1e-4))
        # Priced at the default hop, the cold replica looks cheaper than
        # 1 ms, but it holds at most capacity until its first result.
        self._deal(b, session, 40)
        assert (len(cold.tasks), len(measured.tasks)) == (b.capacity, 32)
        cold.drain = 1e-4  # its first result is in: the window sizes it now
        self._deal(b, session, 10)
        assert len(cold.tasks) > b.capacity

    def test_a_lone_replica_is_window_deep_from_the_start(self, b, session):
        (lone,) = self._replicas(b, (None, 1e-4))
        session._depth = 64
        self._deal(b, session, 64)
        assert len(lone.tasks) == 64
        parked = threading.Thread(target=b._reserve_slot, args=(session, 0, -1), daemon=True)
        parked.start()
        parked.join(timeout=0.2)
        assert parked.is_alive(), "the 65th item was not held back"
        session._abort.set()
        with b._cond:
            b._cond.notify_all()
        parked.join(timeout=5.0)
        assert not parked.is_alive() and len(lone.tasks) == 64

    def test_a_starved_replica_is_reprobed_once_its_estimate_is_stale(self, b, session):
        fast_a, fast_b, slow = self._replicas(b, (60e-6, 50e-6), (60e-6, 50e-6), (3e-3, 1.5e-3))
        self._deal(b, session, 20)
        assert len(slow.tasks) == 0  # priced out, so no result refreshes its estimate
        slow.done_t -= 2 * b.heartbeat_interval
        self._deal(b, session, 1)
        assert len(slow.tasks) == 1  # one item re-measures the link
        self._deal(b, session, 20)
        assert len(slow.tasks) == 1 and len(fast_a.tasks) + len(fast_b.tasks) == 40

    def test_the_drain_is_the_gap_between_busy_completions(self, b, session):
        # Results fed straight to _accept, on made-up clocks: three items
        # sent together at t=0 finish at 1.0, 1.1 and 1.2 (busy: gaps of
        # 0.1, not round trips of 1.1 and 1.2); a fourth, sent at 5.0 to the
        # idle replica, finishes at 5.3 (its gap counts from its own send).
        (r,) = self._replicas(b, (None, 1e-4))
        # _accept reads .backend and .events, and maps clock stamps.
        router = SimpleNamespace(
            backend=b, events=NULL_BUS, _clock_event=lambda *args: None, perf_to_session=float
        )
        timeline = [(0.0, 1.0, 1.0), (0.0, 1.1, 0.1), (0.0, 1.2, 0.1), (5.0, 5.3, 0.3)]
        results = []
        for seq, (t_sent, recv_t, _gap) in enumerate(timeline):
            route = r.tasks[seq] = _Route(b._codec.encode(seq), [r])
            route.t_sent = t_sent
            out = b._codec.encode(seq)
            boundary = (0, r.worker.id, r.slot, 0.0, 0.0, 0.0, 0.0, wire_nbytes(out))
            result = ("result", 0, 0, r.slot, seq, True, out, t_sent, None, (boundary,))
            results.append((r.worker, recv_t, result))
        # Each boundary's wire sample (the round trip, as neither stamp
        # waited nor served) goes to the worker's link fit.
        wire, observe = [], r.worker.link_est.observe
        r.worker.link_est.observe = lambda nbytes, s: (wire.append(s), observe(nbytes, s))
        # The three busy items come back as one burst, the idle one alone.
        expected, link_s = None, r.worker.link_s
        for first, burst in ((0, results[:3]), (3, results[3:])):
            got = _DistributedSession._accept(router, 0, burst)
            assert [seq for seq, _frame, _hops in got] == list(range(first, first + len(burst)))
            for seq, _frame, hops in got:
                t_sent, recv_t, gap = timeline[seq]
                assert wire[seq] == pytest.approx(recv_t - t_sent)
                assert len(hops[-1]) == 8
                assert hops[-1][4] == len(timeline) - seq - 1  # routes still in flight
                expected = gap if expected is None else expected + 0.1 * (gap - expected)
                link_s += 0.1 * ((recv_t - t_sent) / 2 - link_s)  # the cached one-way wire time
            assert r.drain == pytest.approx(expected) and r.done_t == recv_t
            assert r.worker.link_s == pytest.approx(link_s)
        assert len(r.tasks) == 0


def test_a_slow_link_stays_shallow_while_fast_replicas_go_deep():
    # E16's shape: one tiny stage, a replica on each of three workers, the
    # third behind a 3 ms link.  The cold stream holds the unmeasured slow
    # replica at capacity; on the warm one its measured drain keeps it near
    # empty while a fast replica goes past capacity.  Balanced finish times
    # give the slow replica about W / (2r + 1) items, r being how many times
    # faster a fast replica drains: window 64 keeps that far below capacity
    # even when a busy neighbour slows the fast replicas to r ≈ 15, where
    # window 256 would put it right at 8.
    pipe = PipelineSpec((StageSpec(name="inc", work=1e-6, fn=_inc),))
    n = 3000
    with DistributedBackend(
        pipe, spawn_workers=3, replicas=[3], max_replicas=3,
        worker_link_delays=[0.0, 0.0, 0.003],
    ) as b:
        session = b.open(max_inflight=64)
        peaks: list[dict] = []
        reserve = b._reserve_slot

        def spy(session, stage, seq):
            replica = reserve(session, stage, seq)
            if replica is not None:
                name = replica.worker.name
                peaks[-1][name] = max(peaks[-1].get(name, 0), len(replica.tasks))
            return replica

        b._reserve_slot = spy
        for _ in range(2):
            peaks.append({})
            for x in range(n):
                session.submit(x)
            assert session.drain() == [x + 1 for x in range(n)]
        cold, warm = peaks
        assert cold.get("local-2", 0) <= b.capacity, cold
        assert warm.get("local-2", 0) <= b.capacity, warm
        assert max(warm.get("local-0", 0), warm.get("local-1", 0)) > b.capacity, warm


def _mk_array(x):
    import numpy as np

    return np.full(150_000, float(x))


def _scale_array(a):
    return a * 2.0


def _sum_array(a):
    return float(a.sum())


class TestNegotiatedTransport:
    def test_local_workers_negotiate_shm_and_match_pickle(self):
        pipe = PipelineSpec(
            (
                StageSpec(name="mk", work=0.001, fn=_mk_array),
                StageSpec(name="sum", work=0.001, fn=_sum_array),
            )
        )
        results = {}
        for transport in ("pickle", "shm"):
            with DistributedBackend(
                pipe, spawn_workers=2, transport=transport
            ) as b:
                results[transport] = b.run(range(8)).outputs
                workers = b.alive_workers()
            if transport == "shm":
                # Forked local workers share /dev/shm with the coordinator.
                assert all(w["shm_ok"] for w in workers)
            else:
                assert not any(w["shm_ok"] for w in workers)
        assert results["shm"] == results["pickle"] == [150_000.0 * x for x in range(8)]

    def test_first_dispatch_of_a_fresh_session_waits_for_negotiation(self):
        # Registration includes the shm_ok reply: the very first item of a
        # fresh session already travels by descriptor to a same-host worker
        # (it used to race the reply and go inline-pickle).
        import numpy as np

        from repro.skel.api import open_pipeline

        for _ in range(5):
            session = open_pipeline(
                [_scale_array], backend="distributed", spawn_workers=1, transport="shm"
            )
            inline = []
            session.events.subscribe(
                lambda ev: inline.append(ev.fields["inline"]), kinds=("frame.encode",)
            )
            try:
                session.submit(np.ones(40_000))
                (out,) = session.drain()
            finally:
                session.close()
            assert out[0] == 2.0 and inline == [False]

    def test_resource_view_links_carry_fitted_latency_bandwidth(self):
        from repro.workloads.payloads import make_arrays

        pipe = PipelineSpec(
            (
                StageSpec(name="scale", work=0.001, fn=_scale_array),
                StageSpec(name="sum", work=0.001, fn=_sum_array),
            )
        )
        # A mixed-size stream: the size-stratified estimator needs spread
        # across buckets before it commits to a bandwidth (uniform sizes
        # keep the honest latency-only fallback).
        items = make_arrays(24, mix=[0.02, 1.0], seed=9)
        with DistributedBackend(pipe, spawn_workers=2, transport="auto") as b:
            b.run(items)
            fits = b.alive_workers()
            view = b.resource_view(2)
        assert len(fits) == 2 and any(f["link_fitted"] for f in fits)
        lat, bw = view.link(0, 1)
        assert lat == pytest.approx(fits[0]["link_s"] + fits[1]["link_s"])
        assert bw == pytest.approx(min(f["bandwidth_Bps"] for f in fits))

    def test_bandwidth_starved_worker_gets_low_fitted_bandwidth(self):
        from repro.workloads.payloads import make_arrays

        pipe = PipelineSpec(
            (
                StageSpec(name="scale", work=0.001, fn=_scale_array),
                StageSpec(name="sum", work=0.001, fn=_sum_array),
            )
        )
        with DistributedBackend(
            pipe,
            spawn_workers=2,
            capacity=2,
            transport="auto",
            worker_link_bandwidths=[0.0, 3e7],
        ) as b:
            # Mixed sizes: the estimator only commits to a bandwidth once
            # its buckets show size spread (uniform streams keep the
            # latency-only fallback by design).
            b.run(make_arrays(24, mix=[0.02, 1.0], seed=11))
            rows = {w["name"]: w for w in b.alive_workers()}
        healthy, starved = rows["local-0"], rows["local-1"]

        def cost_1mb(w):
            return w["link_s"] + 1e6 / w["bandwidth_Bps"]

        # The injected 30 MB/s link must make 1 MB transfers visibly more
        # expensive on the starved worker in the fitted model.
        assert cost_1mb(starved) > 3 * cost_1mb(healthy), rows
