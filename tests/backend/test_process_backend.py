"""Tests for the warm process-pool backend."""

import gc
import multiprocessing as mp
import os
import signal
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import transport
from repro.backend import ProcessPoolBackend, SessionClosed, ThreadBackend
from repro.core.pipeline import PipelineSpec
from repro.core.stage import StageSpec
from repro.runtime.threads import StageError
from repro.transport import lane


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


def _double(x):
    return x * 2


def _tag_pid(x):
    return (x, os.getpid())


def _jitter_square(x):
    time.sleep((x % 3) * 0.002)
    return x * x


def _pad(x):
    return x + [0] * 7


def _boom(x):
    if x == 7:
        raise ValueError("bad item")
    return x


def _kill_self_on_3(x):
    if x == 3:
        os.kill(os.getpid(), signal.SIGKILL)
    return x


class TestProcessPoolBackend:
    def test_results_equal_sequential_composition(self):
        with ProcessPoolBackend(spec([_inc, _double])) as b:
            res = b.run(range(20))
        assert res.outputs == [(x + 1) * 2 for x in range(20)]
        assert res.items == 20
        assert res.elapsed > 0

    def test_matches_thread_backend(self):
        pipe = spec([_inc, _jitter_square, _double])
        with ThreadBackend(pipe) as threads:
            expected = threads.run(range(25)).outputs
        with ProcessPoolBackend(pipe) as b:
            assert b.run(range(25)).outputs == expected

    def test_order_preserved_with_replicas(self):
        with ProcessPoolBackend(spec([_jitter_square]), replicas=[3]) as b:
            res = b.run(range(30))
        assert res.outputs == [x * x for x in range(30)]

    def test_empty_input(self):
        with ProcessPoolBackend(spec([_inc])) as b:
            assert b.run([]).outputs == []

    def test_warm_workers_reused_across_runs(self):
        with ProcessPoolBackend(spec([_tag_pid]), replicas=[2], max_replicas=2) as b:
            pids1 = {pid for _, pid in b.run(range(10)).outputs}
            warm = {proc.pid for proc in b._pools[0].procs}
            pids2 = {pid for _, pid in b.run(range(10)).outputs}
        # Replicas share one queue, so either may take any item: the contract
        # is that no new process (and never the parent) served the second run.
        assert pids1 <= warm and pids2 <= warm
        assert os.getpid() not in warm

    def test_stage_exception_propagates_with_name(self):
        b = ProcessPoolBackend(spec([_inc, _boom]))
        try:
            with pytest.raises(StageError, match="s1") as excinfo:
                b.run(range(20))
            assert isinstance(excinfo.value.original, ValueError)
        finally:
            b.close()

    def test_reconfigure_mid_run_preserves_order(self):
        pipe = spec([_jitter_square])
        with ProcessPoolBackend(pipe, max_replicas=3) as b, ThreadPoolExecutor(1) as producer:
            run = producer.submit(b.run, range(60))
            while b.items_completed() < 3:
                time.sleep(0.002)
            b.reconfigure(0, 3)
            res = run.result(timeout=30)
        assert res.items == 60
        assert res.outputs == [x * x for x in range(60)]
        assert res.replica_counts == [3]

    def test_reconfigure_clamps_to_warm_pool(self):
        with ProcessPoolBackend(spec([_inc]), max_replicas=2) as b:
            b.warm()
            b.reconfigure(0, 99)
            assert b.replica_counts() == [2]
            b.reconfigure(0, 1)
            assert b.replica_counts() == [1]

    def test_initial_replicas_expand_pool(self):
        with ProcessPoolBackend(spec([_inc]), replicas=[6], max_replicas=2) as b:
            assert b.replica_limit(0) == 6
            assert b.run(range(8)).outputs == [x + 1 for x in range(8)]

    def test_stateful_stage_cannot_be_replicated(self):
        pipe = spec([_inc], replicable=[False])
        with pytest.raises(ValueError, match="stateful"):
            ProcessPoolBackend(pipe, replicas=[2])
        # The port contract clamps reconfigure to replica_limit (1 for a
        # stateful stage) on every live adapter, rather than raising.
        with ProcessPoolBackend(pipe) as b:
            b.reconfigure(0, 2)
            assert b.replica_counts() == [1]

    def test_missing_fn_rejected(self):
        pipe = PipelineSpec((StageSpec(name="nofn", work=0.1),))
        with pytest.raises(ValueError, match="no fn"):
            ProcessPoolBackend(pipe)

    def test_snapshots_and_progress(self):
        with ProcessPoolBackend(spec([_inc, _double])) as b:
            res = b.run(range(15))
            snaps = b.snapshots()
        assert b.items_completed() == 15
        assert len(snaps) == 2
        assert all(s.items_processed == 15 for s in snaps)
        assert all(s.service_time >= 0 for s in snaps)
        assert res.service_means[0] >= 0

    def test_dead_worker_aborts_instead_of_hanging(self):
        b = ProcessPoolBackend(spec([_kill_self_on_3]))
        try:
            with pytest.raises(StageError, match="died mid-run"):
                b.run(range(10))
        finally:
            b.close()

    def test_unpicklable_input_aborts_instead_of_hanging(self):
        b = ProcessPoolBackend(spec([_inc]))
        try:
            with pytest.raises(StageError, match="s0"):
                b.run([1, threading.Lock(), 3])  # locks cannot be pickled
        finally:
            b.close()

    def test_close_idempotent_and_cold_restart_rejected(self):
        b = ProcessPoolBackend(spec([_inc]))
        b.run([1, 2])
        b.close()
        b.close()
        with pytest.raises(RuntimeError, match="closed"):
            b.run([1])


def _big_array(x):
    import numpy as np

    return np.full(200_000, float(x))


def _array_total(a):
    return float(a.sum())


@pytest.mark.parametrize("failing_start", [0, 1, 3])
def test_a_warm_that_fails_half_way_leaves_nothing_behind(monkeypatch, failing_start):
    b = ProcessPoolBackend(spec([_inc, _double]), max_replicas=2)  # four starts
    start, started = b._ctx.Process.start, []

    def flaky_start(proc):
        if len(started) == failing_start:
            raise OSError("fork failed")
        started.append(proc.name)  # not the process: it would pin its pipes
        start(proc)

    gc.collect()
    fds = _open_fds()
    segments = set(os.listdir("/dev/shm"))
    monkeypatch.setattr(b._ctx.Process, "start", flaky_start)
    with pytest.raises(OSError, match="fork failed"):
        b.warm()
    assert len(started) == failing_start
    assert mp.active_children() == []
    gc.collect()
    assert _open_fds() == fds
    assert not {s for s in set(os.listdir("/dev/shm")) - segments if s.startswith("repro-shm-")}
    b.close()


class TestProcessTransports:
    @pytest.mark.parametrize("transport", ["pickle", "shm", "auto"])
    def test_identical_outputs_across_transports(self, transport):
        pipe = spec([_big_array, _array_total])
        with ProcessPoolBackend(pipe, transport=transport) as b:
            res = b.run(range(6))
        assert res.outputs == [200_000.0 * x for x in range(6)]

    def test_payload_bytes_recorded_per_stage(self):
        pipe = spec([_big_array, _array_total])
        with ProcessPoolBackend(pipe, transport="auto") as b:
            b.run(range(6))
            snaps = b.snapshots()
        # Stage 0 takes tiny ints in and emits ~1.6 MB arrays; stage 1 the
        # reverse — the measured sizes feed link pricing and reports.  Only
        # the pipeline's input is measured going in: stage 1's input is
        # stage 0's output.
        assert snaps[0].bytes_in < 1000 < snaps[0].bytes_out
        assert snaps[1].bytes_in == 0.0
        assert snaps[1].bytes_out < 1000
        assert snaps[0].bytes_out == pytest.approx(1_600_000, rel=0.05)

    def test_unknown_transport_rejected(self):
        with pytest.raises(ValueError, match="unknown codec"):
            ProcessPoolBackend(spec([_inc]), transport="nope")


_calls = 0


def _record(x):
    """Pairs ``x`` with this process's call count (the ordered stage has one)."""
    global _calls
    n = _calls
    _calls += 1
    return (x, n)


def _bump_first(pair):
    return (pair[0] + 1, pair[1])


def _nap(seconds):
    time.sleep(seconds)
    return seconds


def _session_threads():
    """The session's routers (the outbox writers belong to the warm pools)."""
    return sorted(
        t.name for t in threading.enumerate() if t.name.startswith("processes-router")
    )


class TestForwardedSegment:
    """Workers hand results straight to the next stage's queue; only the last
    stage and a stage feeding an ordered one report to a router in the parent.
    What the per-stage routers used to guarantee must hold without them."""

    def test_order_kept_around_an_ordered_stage(self):
        global _calls
        _calls = 0  # the forked recorder inherits it
        pipe = spec(
            [_jitter_square, _inc, _record, _bump_first], [True, True, False, True]
        )
        with ProcessPoolBackend(pipe, replicas=[3, 2, 1, 2]) as b:
            session = b.open()
            # One router per boundary: stage 1 (it feeds the ordered stage)
            # and stage 3 (egress); stages 0 and 2 forward worker to worker.
            assert _session_threads() == ["processes-router[1]", "processes-router[3]"]
            for x in range(60):
                session.submit(x)
            out = session.drain()
            snaps = session.snapshots()
        # Output order, and start order at the ordered stage: the recorder's
        # own call counter is each item's position.
        assert out == [(x * x + 2, x) for x in range(60)]
        assert [s.items_processed for s in snaps] == [60] * 4

    def test_all_replicable_pipeline_runs_one_router(self):
        with ProcessPoolBackend(spec([_inc, _double, _inc])) as b:
            assert b.run(range(4)).outputs == [(x + 1) * 2 + 1 for x in range(4)]
            # Routers only: submit() dispatched on this thread, run() drove it.
            assert _session_threads() == ["processes-router[2]"]
        assert _session_threads() == []

    def test_non_boundary_stage_error_names_that_stage(self):
        b = ProcessPoolBackend(spec([_inc, _boom, _double]))
        try:
            with pytest.raises(StageError, match="s1") as excinfo:
                b.run(range(20))
            assert isinstance(excinfo.value.original, ValueError)
        finally:
            b.close()

    def test_killed_non_boundary_worker_fails_the_session(self):
        b = ProcessPoolBackend(spec([_kill_self_on_3, _inc]))
        try:
            session = b.open()
            for x in range(10):
                session.submit(x)
            t0 = time.perf_counter()
            with pytest.raises(StageError, match="'s0'.*died mid-run"):
                session.drain()
            # Noticed by the worker's sentinel in the boundary router's poll.
            assert time.perf_counter() - t0 < 2.0
        finally:
            b.close()

    def test_shrink_grow_shrink_mid_stream_is_exactly_once(self):
        pipe = spec([_jitter_square, _inc])
        with ProcessPoolBackend(pipe, replicas=[4, 1], max_replicas=4) as b:
            session = b.open()
            for plan in ({30: 1, 60: 4, 90: 2}, {5: 4, 6: 1, 7: 3}):
                for x in range(150):
                    if x in plan:  # park tokens race the releases
                        b.reconfigure(0, plan[x])
                        assert b.replica_counts() == [plan[x], 1]
                    session.submit(x)
                assert session.drain() == [x * x + 1 for x in range(150)]

    def test_spawn_start_method_shares_the_queues(self, monkeypatch):
        # A platform without fork: the pools start with its first method.
        monkeypatch.setattr(mp, "get_all_start_methods", lambda: ["spawn"])
        pipe = spec([_inc, _double, _inc])
        with ProcessPoolBackend(pipe, replicas=[1, 2, 1]) as b:
            assert b._ctx.get_start_method() == "spawn"
            assert b.run(range(12)).outputs == [(x + 1) * 2 + 1 for x in range(12)]
            b.reconfigure(1, 1)
            assert b.run(range(12)).outputs == [(x + 1) * 2 + 1 for x in range(12)]

    def test_full_queue_cannot_wedge_reconfigure(self):
        pipe = spec([_nap])
        with ProcessPoolBackend(pipe, replicas=[2], max_replicas=2, capacity=1) as b:
            session = b.open()
            tried = []

            def produce():
                with pytest.raises(SessionClosed):
                    for k in range(6):
                        tried.append(k)
                        session.submit(5.0)

            producer = threading.Thread(target=produce, daemon=True)
            producer.start()
            # Two items being served, two filling the queue (capacity x pool
            # size), the producer parked on the fifth: no room for 5 s.
            deadline = time.perf_counter() + 5.0
            while len(tried) < 5 and time.perf_counter() < deadline:
                time.sleep(0.01)
            shrink = threading.Thread(target=b.reconfigure, args=(0, 1), daemon=True)
            shrink.start()
            shrink.join(timeout=0.3)
            assert shrink.is_alive()  # waiting for room behind the queued work
            session.close()  # the unfinished stream aborts: the wait must end
            shrink.join(timeout=2.0)
            assert not shrink.is_alive(), "park-token put outlived the session"
            producer.join(timeout=2.0)
            assert not producer.is_alive(), "parked submit outlived the session"
            # No token was placed; the aborted session took the pools cold and
            # the request stands for the re-fork.
            assert b._pools is None and b.replica_counts() == [1]

    def test_submit_feels_the_bounded_stage_queue(self):
        # No admission window: the lane's own queues are the only bound, and
        # submit() meets them directly — no unbounded inbox in between.
        gate = mp.Event()

        def gated(x):
            gate.wait(timeout=10.0)
            return x

        n, capacity, pool = 30, 2, 2
        admitted = []
        with ProcessPoolBackend(
            spec([gated]), replicas=[pool], max_replicas=pool, capacity=capacity
        ) as b:
            session = b.open()

            def produce():
                for x in range(n):
                    session.submit(x)
                    admitted.append(x)

            producer = threading.Thread(target=produce, daemon=True)
            producer.start()
            # capacity x pool size queued, plus one in service per worker.
            bound = capacity * pool + pool
            deadline = time.perf_counter() + 5.0
            while len(admitted) < bound and time.perf_counter() < deadline:
                time.sleep(0.01)
            time.sleep(0.3)  # a producer that was going to run ahead would have
            assert len(admitted) == bound and producer.is_alive()
            gate.set()
            producer.join(timeout=10.0)
            assert not producer.is_alive()
            assert session.drain() == list(range(n))

    def test_failed_stream_takes_the_pools_cold_promptly(self):
        # Eight warm workers, all blocked on a queue or a gate once the
        # stream aborted: terminated together, not 0.1 s one after another.
        b = ProcessPoolBackend(spec([_inc, _boom]), max_replicas=4)
        try:
            session = b.open()
            with pytest.raises(StageError, match="s1"):
                for x in range(20):
                    session.submit(x)
                session.drain()
            workers = [proc for pool in b._pools for proc in pool.procs]
            assert len(workers) == 8 and all(p.is_alive() for p in workers)
            t0 = time.perf_counter()
            b.close()
            assert time.perf_counter() - t0 < 0.5
            assert not [p for p in workers if p.is_alive()]
            assert transport.busy_segments(b._codec.session) == []
        finally:
            b.close()

    def test_close_releases_parked_workers_before_stopping_them(self):
        b = ProcessPoolBackend(spec([_inc]), max_replicas=4)
        b.run(range(4))
        procs = list(b._pools[0].procs)
        b.close()
        # Three were parked at the gate: each still took its own stop pill
        # and left by itself (a terminated one would show -SIGTERM).
        assert [p.exitcode for p in procs] == [0] * 4


class TestForwardedTelemetry:
    """What the removed routers recorded now rides on the frame's trail."""

    def test_both_stages_report_items_service_and_bytes(self):
        codec = transport.get("pickle")

        def size(values):
            # The window mean over the newest 32 (each stage has one worker,
            # so sizes are recorded in item order).
            return sum(transport.wire_nbytes(codec.encode(v)) for v in values[-32:]) / 32

        inputs = [list(range(k)) for k in range(40)]
        mids = [x + [0] * 7 for x in inputs]
        with ProcessPoolBackend(spec([_pad, len]), transport="pickle") as b:
            session = b.open()
            for x in inputs:
                session.submit(x)
            assert session.drain() == [len(m) for m in mids]
            snaps = session.snapshots()
        assert [s.items_processed for s in snaps] == [40, 40]
        assert all(s.service_time > 0 for s in snaps)
        assert (snaps[0].bytes_in, snaps[0].bytes_out) == (size(inputs), size(mids))
        assert snaps[1].bytes_in == 0.0
        assert snaps[1].bytes_out == size([len(m) for m in mids])

    def test_replayed_service_events_keep_the_workers_timeline(self):
        seen = []
        with ProcessPoolBackend(spec([_nap, _nap])) as b:
            session = b.open()
            session.events.subscribe(seen.append, kinds=["stage.service"])
            for _ in range(5):
                session.submit(0.01)
            session.drain()
        by_hop = {(e.fields["stage"], e.fields["seq"]): e for e in seen}
        for seq in range(5):
            first, second = by_hop[0, seq], by_hop[1, seq]
            # Both records are made at egress, yet each carries the time its
            # service ended: stage 1 started after stage 0 finished.
            assert first.time <= second.time - second.fields["seconds"]
            assert first.time - first.fields["seconds"] >= 0.0

    def test_forwarded_stage_events_are_in_item_space_under_batching(self):
        seen = []
        with ProcessPoolBackend(spec([_inc, _double])) as b:
            session = b.open(batching=8)
            session.events.subscribe(seen.append, kinds=["stage.service"])
            for x in range(40):
                session.submit(x)
            assert session.drain() == [(x + 1) * 2 for x in range(40)]
        for stage in (0, 1):  # 0 is the forwarded one
            fields = sorted(
                (e.fields["seq"], e.fields.get("items", 1))
                for e in seen
                if e.fields["stage"] == stage
            )
            # Batches tile the item seqs 0..39 exactly: seq = first item.
            assert sum(n for _, n in fields) == 40
            assert [seq for seq, _ in fields] == [
                sum(n for _, n in fields[:k]) for k in range(len(fields))
            ]
            assert all(e.fields["seconds"] > 0 for e in seen)


_MIB = 1 << 20


def _mib_of(x):
    return bytes([x % 251]) * _MIB


def _linger(b):
    time.sleep(0.01)
    return b


def _head_and_len(b):
    return (b[0], len(b))


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


class TestWorkerWrittenPipes:
    """Interior task queues and result queues are pipes their workers write
    themselves: a frame larger than the pipe's buffer blocks its worker in
    ``write()`` mid-stream, and the parent's few writes there stay bounded."""

    PIPE = [_mib_of, _linger, _head_and_len]

    def test_only_parent_fed_queues_keep_a_feeder_thread(self):
        # One queue kind and no mp.Queue feeder anywhere in the lane: the
        # parent writes through one outbox writer per queue it feeds.
        pipe = spec([_inc, _inc, _record, _inc], [True, True, False, True])
        with ProcessPoolBackend(pipe) as b:
            b.warm()
            queues = [pool.taskq for pool in b._pools] + [pool.seg.resq for pool in b._pools]
            assert {type(q).__name__ for q in queues} == {"_PipeQueue"}
            names = [t.name for t in threading.enumerate()]
            assert "QueueFeederThread" not in names
            # Stage 0 (submit) and stage 2 (behind the boundary router[1]).
            assert sorted(n for n in names if "-outbox[" in n) == [
                "processes-outbox[0]", "processes-outbox[2]",
            ]
            fed = [pool.taskq._outbox is not None for pool in b._pools]
            assert fed == [True, False, True, False]
        assert not [t for t in threading.enumerate() if "-outbox[" in t.name]

    def test_more_writers_and_readers_than_cores_lose_and_duplicate_nothing(self):
        # The queue on its own: 4 writers and 3 readers over a bound of 3
        # items, trains of 1-3 messages on both sides of the pipe buffer
        # (64 KiB), 20 s at most.  A reader frees a permit per item it starts.
        from repro.backend.process_backend import _PipeQueue

        ctx = mp.get_context("fork")
        q, out = _PipeQueue(ctx, 3, 3), ctx.Queue()
        sizes = [10, 5_000, 70_000, 300_000]

        def write(w):
            k = 0
            while k < 60:
                n = min(1 + k % 3, 60 - k)
                q.put([(w, j, bytes([w]) * sizes[j % 4]) for j in range(k, k + n)])
                k += n

        def read():
            while (train := q.get()) is not None:
                for w, k, blob in train:
                    q._space.release()
                    out.put((w, k, blob == bytes([w]) * sizes[k % 4], q.qsize()))

        procs = [ctx.Process(target=write, args=(w,), daemon=True) for w in range(4)]
        readers = [ctx.Process(target=read, daemon=True) for _ in range(3)]
        try:
            for proc in procs + readers:
                proc.start()
            seen = [out.get(timeout=20.0) for _ in range(240)]
            for _ in readers:
                q.post(None)
            for proc in procs + readers:
                proc.join(timeout=5.0)
                assert proc.exitcode == 0
        finally:
            for proc in procs + readers:
                proc.kill()
            q.close()
        expected = [(w, k) for w in range(4) for k in range(60)]
        assert sorted((w, k) for w, k, _, _ in seen) == expected
        assert all(intact and 0 <= depth <= 3 for _, _, intact, depth in seen)

    def test_frames_larger_than_the_pipe_buffer_complete_in_order(self):
        with ProcessPoolBackend(spec(self.PIPE), replicas=[1, 2, 1], transport="pickle") as b:
            assert b.run(range(24)).outputs == [(x % 251, _MIB) for x in range(24)]

    def test_killing_every_reader_leaves_reconfigure_and_close_bounded(self):
        b = ProcessPoolBackend(spec(self.PIPE), replicas=[1, 2, 1], transport="pickle")
        try:
            session = b.open()
            with ThreadPoolExecutor(1) as producer:
                stream = producer.submit(b.run, range(200))
                while b.items_completed() < 2:
                    time.sleep(0.002)
                workers = [proc for pool in b._pools for proc in pool.procs]
                for proc in b._pools[1].procs:  # stage 0 is now blocked in write()
                    os.kill(proc.pid, signal.SIGKILL)
                with pytest.raises(StageError, match="'s1'.*died mid-run"):
                    stream.result(timeout=5.0)
            assert session.broken
            t0 = time.perf_counter()
            b.reconfigure(1, 1)  # nobody is left to take a park token
            b.close()
            assert time.perf_counter() - t0 < 2.0
            assert b._pools is None and not [p for p in workers if p.is_alive()]
            assert transport.session_segments(b._codec.session) == []
        finally:
            b.close()


class TestOneEventDrivenWait:
    """The boundary router blocks on results, its wake pipe and the workers'
    sentinels — no timeout, no scan."""

    def test_a_killed_worker_fails_the_session_within_milliseconds(self):
        noticed = []
        for _ in range(5):
            b = ProcessPoolBackend(spec([_nap, _inc]))
            try:
                session = b.open()
                deaths = []
                session.events.subscribe(deaths.append, kinds=["worker.death"])
                for _ in range(4):
                    session.submit(0.05)
                assert _session_threads() == ["processes-router[1]"]  # nobody else watches
                t0 = time.perf_counter()
                os.kill(b._pools[0].procs[0].pid, signal.SIGKILL)
                with pytest.raises(StageError, match="'s0'.*died mid-run"):
                    session.drain()
                noticed.append(time.perf_counter() - t0)
                assert [e.fields["stage"] for e in deaths] == [0]
            finally:
                b.close()
        assert sorted(noticed)[2] < 0.05  # was: the next 0.1 s poll, then a scan

    def test_a_death_in_an_idle_session_is_fatal_too(self):
        # No census of items in flight exempts an idle pool any more: the
        # sentinel fires whether or not the segment holds anything.
        b = ProcessPoolBackend(spec([_inc, _double]), replicas=[2, 1], max_replicas=2)
        try:
            session = b.open()
            assert b.run(range(4)).outputs == [(x + 1) * 2 for x in range(4)]
            os.kill(b._pools[0].procs[1].pid, signal.SIGKILL)
            deadline = time.perf_counter() + 2.0
            while not session.broken and time.perf_counter() < deadline:
                time.sleep(0.005)
            assert session.broken  # unasked: nobody submitted, drained or polled
            with pytest.raises(StageError, match="'s0'.*died mid-run"):
                session.submit(1)
            # run() replaces the broken session: cold pools, re-forked.
            assert b.run(range(4)).outputs == [(x + 1) * 2 for x in range(4)]
        finally:
            b.close()

    def test_an_idle_session_runs_no_router_iteration(self, record_polls):
        polled = record_polls(ProcessPoolBackend.session_class)
        with ProcessPoolBackend(spec([_inc, _double])) as b:
            session = b.open()
            for x in range(5):
                session.submit(x)
            assert session.drain() == [(x + 1) * 2 for x in range(5)]
            assert None not in polled and sum(map(len, polled)) == 5  # across the bursts
            polls = len(polled)
            time.sleep(0.5)
            assert len(polled) == polls  # still inside the next wait
            t0 = time.perf_counter()
            session.close()  # woken, not timed out
            assert polled[polls:] == [None] and time.perf_counter() - t0 < 0.1

    def test_open_close_cycles_on_a_warm_backend_leak_no_descriptor(self):
        pipe = spec([_inc, _record, _bump_first], [True, False, True])  # two routers
        with ProcessPoolBackend(pipe) as b:
            b.open().close()
            gc.collect()  # earlier tests' pipes must not be collected mid-count
            before = _open_fds()
            for _ in range(200):
                b.open().close()
            assert _open_fds() == before
            assert [x for x, _ in b.run(range(6)).outputs] == list(range(2, 8))


def _half_a_frame_then_die(x):
    """At item 3: the head of a 300 KB result frame (its header and 1,000
    bytes) straight into this worker's result pipe, then a SIGKILL."""
    if x == 3:
        out = sys._getframe(2).f_locals["out"]  # the worker loop's result queue, past run_stage
        os.write(out._writer.fileno(), (300_000).to_bytes(4, "big") + b"x" * 1000)
        os.kill(os.getpid(), signal.SIGKILL)
    return x


def _echo_once(q, back):
    back.put(q.get())


def _file_gated(item):
    path, x = item
    while not os.path.exists(path):
        time.sleep(0.002)
    return x


class _CountingSemaphore:
    """Forwards to a semaphore and records the arguments of every acquire."""

    def __init__(self, sem):
        self._sem, self.acquires = sem, []

    def acquire(self, *args, **kwargs):
        self.acquires.append((args, kwargs))
        return self._sem.acquire(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._sem, name)


class TestFramedLane:
    """The parent writes through outboxes and reads whole frames, untimed."""

    def test_a_worker_killed_mid_frame_fails_the_session_and_the_router_never_hangs(self):
        b = ProcessPoolBackend(spec([_inc, _half_a_frame_then_die]))
        try:
            session = b.open()
            t0 = time.perf_counter()
            with pytest.raises(StageError, match="'s1'.*died mid-run"):
                for x in range(40):  # a burst: results queue up around the cut frame
                    session.submit(x)
                session.drain()
            assert time.perf_counter() - t0 < 1.0
            # The router kept the cut frame's bytes and went back to its poll.
            assert len(b._pools[1].seg.reader._buf) >= 4
        finally:
            b.close()

    def test_items_past_max_frame_cross_the_pipes(self, monkeypatch):
        # MAX_FRAME bounds a network peer; the pipes to forked workers carry
        # any length a Connection can.
        monkeypatch.setattr(lane, "MAX_FRAME", 256)
        with ProcessPoolBackend(spec([_double, _double]), transport="pickle") as b:
            res = b.run([b"x" * 400, b"y" * 300])
        assert res.outputs == [b"x" * 1600, b"y" * 1200]

    def test_a_parent_fed_queue_pickles_for_spawn_without_its_writer(self):
        from repro.backend.process_backend import _PipeQueue

        ctx = mp.get_context("spawn")
        q, back = _PipeQueue(ctx, 2, 2), _PipeQueue(ctx, 2, 2)
        child = ctx.Process(target=_echo_once, args=(q, back), daemon=True)
        try:
            child.start()  # pickles q before its writer starts, as warm() does
            q.feed("test-outbox")
            assert q.send((1, b"hello", ()), None)
            assert back._reader.poll(60.0), "the spawned reader never answered"
            assert back.get() == [(1, b"hello", ())]  # a train of one
            child.join(timeout=10.0)
            assert child.exitcode == 0
        finally:
            if child.is_alive():
                child.kill()
                child.join(timeout=5.0)
            q.close()
            back.close()
        assert not q._outbox.thread.is_alive()

    def test_a_submit_parked_on_a_full_stage_0_queue_raises_within_100_ms_of_an_abort(
        self, tmp_path
    ):
        gate = str(tmp_path / "gate")  # never created: the one worker holds its item
        with ProcessPoolBackend(
            spec([_file_gated]), replicas=[1], max_replicas=1, capacity=1
        ) as b:
            session = b.open()
            queue = b._pools[0].taskq
            space = queue._space = _CountingSemaphore(queue._space)
            raised = []

            def produce():
                with pytest.raises(SessionClosed):
                    for x in range(5):
                        session.submit((gate, x))
                raised.append(time.perf_counter())

            producer = threading.Thread(target=produce, daemon=True)
            producer.start()
            # One item in service, one queued (capacity x pool size), the third parked.
            deadline = time.perf_counter() + 5.0
            while len(space.acquires) < 3 and time.perf_counter() < deadline:
                time.sleep(0.005)
            time.sleep(0.1)
            assert len(space.acquires) == 3 and producer.is_alive()
            t0 = time.perf_counter()
            session.close()  # the unfinished stream aborts
            producer.join(timeout=2.0)
        assert raised and raised[0] - t0 < 0.1
        # Every wait for space was untimed: the abort, not a clock, ended it.
        assert [call for call in space.acquires if call != ((True,), {})] == []
