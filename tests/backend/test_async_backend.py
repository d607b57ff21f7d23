"""Coroutine stages on the thread fabric: the ``"asyncio"`` name of the port."""

import asyncio
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.backend import SessionClosed, ThreadBackend, local_config
from repro.core.pipeline import PipelineSpec
from repro.core.stage import StageSpec
from repro.runtime.threads import StageError
from repro.workloads.apps import fetch_pipeline, make_requests


def spec(fns, **kwargs):
    return PipelineSpec(
        tuple(
            StageSpec(name=f"s{i}", work=0.01, fn=f, **kwargs)
            for i, f in enumerate(fns)
        )
    )


async def _ainc(x):
    return x + 1


async def _adouble_slow(x):
    await asyncio.sleep(0.002)
    return x * 2


class TestAsyncioBackend:
    def test_run_ordered_sync_stages(self):
        with ThreadBackend(spec([lambda x: x + 1, lambda x: x * 2])) as b:
            res = b.run(range(20))
        assert res.outputs == [(x + 1) * 2 for x in range(20)]
        assert res.backend == "threads"  # "asyncio" names the thread fabric
        assert res.replica_counts == [1, 1]
        assert res.items == 20

    def test_run_ordered_async_stages(self):
        with ThreadBackend(spec([_ainc, _adouble_slow]), replicas=[1, 4]) as b:
            res = b.run(range(30))
        assert res.outputs == [(x + 1) * 2 for x in range(30)]
        assert res.replica_counts == [1, 4]

    def test_mixed_sync_and_async_stages(self):
        with ThreadBackend(spec([_ainc, lambda x: x * 3, _adouble_slow])) as b:
            res = b.run(range(15))
        assert res.outputs == [(x + 1) * 3 * 2 for x in range(15)]

    def test_output_parity_with_threads(self):
        # The shared contract: same workload, same ordered outputs.
        n = 40
        with ThreadBackend(
            fetch_pipeline(latency=0.002, asynchronous=True), replicas=[4, 1, 4]
        ) as b:
            async_res = b.run(make_requests(n))
        with ThreadBackend(
            fetch_pipeline(latency=0.002), replicas=[4, 1, 4], max_replicas=4
        ) as b:
            thread_res = b.run(make_requests(n))
        assert async_res.outputs == thread_res.outputs
        assert [o["id"] for o in async_res.outputs] == list(range(n))

    def test_replicas_carry_over_between_runs(self):
        with ThreadBackend(spec([_ainc]), max_replicas=4) as b:
            b.run(range(5))
            b.reconfigure(0, 3)
            res = b.run(range(5))
        assert res.replica_counts == [3]
        assert res.outputs == [x + 1 for x in range(5)]

    def test_live_grow_preserves_order(self):
        backend = ThreadBackend(spec([_adouble_slow]), max_replicas=4)
        with backend as b, ThreadPoolExecutor(1) as producer:
            run = producer.submit(b.run, range(40))
            while b.items_completed() < 5:
                time.sleep(0.002)
            b.reconfigure(0, 4)
            res = run.result(timeout=30)
        assert res.outputs == [x * 2 for x in range(40)]
        assert res.replica_counts == [4]

    def test_live_shrink_is_lazy_and_safe(self):
        backend = ThreadBackend(spec([_adouble_slow]), replicas=[4], max_replicas=4)
        with backend as b, ThreadPoolExecutor(1) as producer:
            run = producer.submit(b.run, range(40))
            while b.items_completed() < 5:
                time.sleep(0.002)
            b.reconfigure(0, 1)
            res = run.result(timeout=30)
        assert res.outputs == [x * 2 for x in range(40)]
        assert res.replica_counts == [1]

    def test_reconfigure_clamped_to_max(self):
        with ThreadBackend(spec([_ainc]), max_replicas=2) as b:
            b.reconfigure(0, 50)
            assert b.replica_counts() == [2]
            with pytest.raises(ValueError, match=">= 1"):
                b.reconfigure(0, 0)

    def test_stateful_stage_clamps_to_one(self):
        with ThreadBackend(spec([_ainc], replicable=False)) as b:
            assert b.replica_limit(0) == 1
            b.reconfigure(0, 5)
            assert b.replica_counts() == [1]

    def test_observation_surfaces(self, monkeypatch):
        with ThreadBackend(spec([_adouble_slow])) as b:
            # Hops are recorded at the host's sampled speed: pin it to 1.0.
            monkeypatch.setattr(b._load, "effective_speed", lambda: 1.0)
            b.run(range(12))
            snaps = b.snapshots()
            assert len(snaps) == 1
            assert snaps[0].items_processed == 12
            assert snaps[0].service_time >= 0.002
            assert snaps[0].work_estimate >= 0.002  # eff speed 1.0
            assert b.items_completed() == 12
            assert b.recent_throughput(horizon=60.0) > 0

    def test_stage_error_aborts_and_names_stage(self):
        async def boom(x):
            if x == 7:
                raise RuntimeError("kaput")
            return x

        with ThreadBackend(spec([_ainc, boom])) as b:
            with pytest.raises(StageError, match="s1"):
                b.run(range(20))
            # The backend must be reusable after a failed run.
            res = b.run([100])
            assert res.outputs == [101]

    def test_sync_stage_error_aborts(self):
        def boom(x):
            raise ValueError("no")

        with ThreadBackend(spec([boom])) as b:
            with pytest.raises(StageError, match="s0"):
                b.run(range(4))

    def test_close_mid_run_does_not_hang(self):
        b = ThreadBackend(spec([_adouble_slow]), replicas=[2], max_replicas=2)
        with ThreadPoolExecutor(1) as producer:
            run = producer.submit(b.run, range(500))
            while b.items_completed() < 3:
                time.sleep(0.002)
            t0 = time.perf_counter()
            b.close()
            assert time.perf_counter() - t0 < 5.0
            # The producer parked in submit() is released, not left hanging.
            with pytest.raises(SessionClosed):
                run.result(timeout=5)
        with pytest.raises(RuntimeError, match="closed"):
            b.run([1])

    def test_run_while_running_raises(self):
        backend = ThreadBackend(spec([_adouble_slow]))
        with backend as b, ThreadPoolExecutor(1) as producer:
            run = producer.submit(b.run, range(20))
            while b.items_completed() < 1:
                time.sleep(0.002)
            with pytest.raises(RuntimeError, match="already running"):
                b.run(range(5))
            assert run.result(timeout=30).outputs == [x * 2 for x in range(20)]

    def test_validation_mirrors_thread_backend(self):
        with pytest.raises(ValueError, match="replica count"):
            ThreadBackend(spec([_ainc]), replicas=[0])
        with pytest.raises(ValueError, match="stateful"):
            ThreadBackend(spec([_ainc], replicable=False), replicas=[2])
        with pytest.raises(ValueError, match="no fn"):
            ThreadBackend(PipelineSpec((StageSpec(name="bare", work=0.1),)))
        with pytest.raises(ValueError, match="must list"):
            ThreadBackend(spec([_ainc]), replicas=[1, 1])


class TestAsyncioAdaptation:
    def test_adapts_under_injected_io_bottleneck(self):
        # An injected high-latency fetch stage bottlenecks the pipeline; the
        # runner must observe it on wall-clock measurements and widen the
        # coroutine pool at least once, preserving the 1-for-1 contract.
        def cheap(x):
            return x

        async def slow_fetch(x):
            await asyncio.sleep(0.02)
            return x * 2

        from repro.skel.api import open_pipeline

        pipe = spec([cheap, slow_fetch, cheap])
        grows = []
        with ThreadBackend(pipe, max_replicas=3) as b:
            session = open_pipeline(
                pipe.stages, backend=b,
                adaptive=local_config(
                    interval=0.1, cooldown=0.2, settle_time=0.1, rollback_tolerance=0.0
                ),
            )
            session.events.subscribe(grows.append, kinds=("adapt.act",))
            res = b.run(range(80))
        assert res.outputs == [x * 2 for x in range(80)]
        assert res.items == 80
        assert len(grows) >= 1
        assert res.replica_counts[1] > 1
        assert grows[0].fields["replicas_before"] == [1, 1, 1]

    def test_skel_api_runs_asyncio_adaptive(self):
        from repro.skel.api import pipeline_1for1

        async def slow(x):
            await asyncio.sleep(0.01)
            return x + 1

        out = pipeline_1for1(
            [slow, lambda x: x * 2],
            range(40),
            backend="asyncio",
            adaptive=local_config(interval=0.1, cooldown=0.2, settle_time=0.1),
            max_replicas=3,
        )
        assert out == [(x + 1) * 2 for x in range(40)]


class TestWorkerPoolConcurrency:
    def test_workers_bound_in_flight_and_resize_live(self):
        peak = 0
        in_flight = 0
        lock = threading.Lock()

        async def tracked(x):
            nonlocal peak, in_flight
            with lock:
                in_flight += 1
                peak = max(peak, in_flight)
            await asyncio.sleep(0.005)
            with lock:
                in_flight -= 1
            return x

        with ThreadBackend(spec([tracked]), replicas=[2], max_replicas=8) as b:
            b.run(range(30))
            assert peak <= 2
            peak = 0
            b.reconfigure(0, 6)
            b.run(range(60))
        assert peak > 2  # the wider limit was actually used
        assert peak <= 6


async def _other_tasks():
    return asyncio.all_tasks() - {asyncio.current_task()}


def _tasks_on_loop(backend):
    """Every task alive on the backend's warm loop (this probe excluded)."""
    return asyncio.run_coroutine_threadsafe(_other_tasks(), backend._loop).result(5)


class TestShutdownLeavesNoTask:
    """Close cancels and gathers every task the session started.

    The loop runs worker coroutines only: plain stages, the collector and
    the ingress are threads.
    """

    def test_graceful_close(self):
        with ThreadBackend(spec([_ainc, lambda x: x * 2]), replicas=[3, 2]) as b:
            session = b.open()
            for x in range(20):
                session.submit(x)
            assert session.drain() == [(x + 1) * 2 for x in range(20)]
            assert len(_tasks_on_loop(b)) == 3  # stage 0's workers
            session.close()
            assert _tasks_on_loop(b) == set()

    def test_mid_stream_close(self):
        backend = ThreadBackend(spec([_adouble_slow]), replicas=[2])
        with backend as b, ThreadPoolExecutor(1) as producer:
            session = b.open()
            run = producer.submit(lambda: [session.submit(x) for x in range(500)])
            while b.items_completed() < 3:
                time.sleep(0.002)
            session.close()
            with pytest.raises(SessionClosed):
                run.result(timeout=5)
            assert _tasks_on_loop(b) == set()

    def test_live_grow_and_shrink(self):
        with ThreadBackend(spec([_adouble_slow]), max_replicas=4) as b:
            session = b.open()
            for x in range(60):
                session.submit(x)
                if x in (10, 30):
                    b.reconfigure(0, 4 if x == 10 else 1)  # spawn 3, then retire 3
            assert session.drain() == [x * 2 for x in range(60)]
            # Each of the three pills was queued ahead of the last items: one worker is left.
            assert len(_tasks_on_loop(b)) == 1  # a worker
            session.close()
            assert _tasks_on_loop(b) == set()


class TestOneLane:
    """Plain stages keep thread workers; coroutine stages ride the same queues."""

    def test_plain_stages_start_no_event_loop(self):
        with ThreadBackend(spec([lambda x: x + 1, lambda x: x * 2]), replicas=[1, 2]) as b:
            assert b.run(range(50)).outputs == [(x + 1) * 2 for x in range(50)]
            assert b._loop is None
            assert not [t.name for t in threading.enumerate() if t.name.startswith("asyncio-")]

    @pytest.mark.parametrize("batching", [None, 4], ids=["per-item", "batch4"])
    def test_an_ordered_coroutine_stage_starts_items_in_input_order(self, batching):
        started = []

        async def jitter(x):
            await asyncio.sleep((x % 3) * 0.002)
            return x

        async def record(x):
            started.append(x)
            return x * 2

        pipe = PipelineSpec((
            StageSpec(name="jitter", work=0.01, fn=jitter),
            StageSpec(name="record", work=0.01, fn=record, replicable=False),
        ))
        with ThreadBackend(pipe, replicas=[4, 1]) as b:
            session = b.open(batching=batching)
            for x in range(60):
                session.submit(x)
            assert session.drain() == [x * 2 for x in range(60)]
        assert started == list(range(60))

    def test_a_full_queue_suspends_the_worker_not_the_loop(self):
        gate, n = threading.Event(), 40

        def stalled(x):
            gate.wait(10.0)
            return x * 2

        admitted = []
        with ThreadBackend(spec([_ainc, stalled]), replicas=[4, 1], capacity=1) as b:
            session = b.open()
            producer = threading.Thread(
                target=lambda: [admitted.append(session.submit(x)) for x in range(n)],
                daemon=True,
            )
            producer.start()
            time.sleep(0.2)  # stage 1's queue is full and every worker of stage 0 waits on it
            probe = asyncio.run_coroutine_threadsafe(asyncio.sleep(0), b._loop)
            probe.result(timeout=1.0)  # the loop still runs
            assert producer.is_alive() and len(admitted) < n  # and submit() feels the bound
            gate.set()
            producer.join(timeout=10.0)
            assert session.drain() == [(x + 1) * 2 for x in range(n)]
