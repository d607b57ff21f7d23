"""Tests for the thread adapter of the backend port."""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest
from conftest import stream

from repro.backend import SessionClosed, ThreadBackend, make_backend
from repro.core.pipeline import PipelineSpec
from repro.core.stage import StageSpec


def spec(fns):
    return PipelineSpec(
        tuple(StageSpec(name=f"s{i}", work=0.01, fn=f) for i, f in enumerate(fns))
    )


class TestThreadBackend:
    def test_run_ordered(self):
        with ThreadBackend(spec([lambda x: x + 1, lambda x: x * 2])) as b, b.open() as s:
            assert stream(s, range(20)) == [(x + 1) * 2 for x in range(20)]
            assert b.name == "threads"
            assert b.replica_counts() == [1, 1]

    def test_replicas_carry_over_between_runs(self):
        with ThreadBackend(spec([lambda x: x]), max_replicas=4) as b, b.open() as s:
            stream(s, range(5))
            b.reconfigure(0, 3)
            assert stream(s, range(5)) == list(range(5))
            assert b.replica_counts() == [3]

    def test_live_grow_preserves_order(self):
        def slowish(x):
            time.sleep(0.003)
            return x * x

        with ThreadBackend(spec([slowish]), max_replicas=4) as b, b.open() as s:
            with ThreadPoolExecutor(1) as producer:
                run = producer.submit(stream, s, range(40))
                while s.instrumentation.items_completed < 5:
                    time.sleep(0.002)
                b.reconfigure(0, 3)
                assert run.result(timeout=30) == [x * x for x in range(40)]
            assert b.replica_counts() == [3]

    def test_observation_surfaces(self):
        def work(x):
            time.sleep(0.002)
            return x

        with ThreadBackend(spec([work])) as b, b.open() as s:
            stream(s, range(12))
            snaps = s.snapshots()
            assert len(snaps) == 1
            assert snaps[0].items_processed == 12
            assert snaps[0].service_time >= 0.002
            # Work is service x the load-derived effective speed (<= 1.0), so
            # the estimate is positive and never exceeds the measured service.
            assert 0 < snaps[0].work_estimate <= snaps[0].service_time
            assert s.instrumentation.items_completed == 12
            # Completions just happened, so a generous window must see them.
            assert s.instrumentation.recent_throughput(s.now(), horizon=60.0) > 0

    def test_reconfigure_clamped_to_max(self):
        b = ThreadBackend(spec([lambda x: x]), max_replicas=2)
        b.reconfigure(0, 50)
        assert b.replica_counts() == [2]

    def test_saturated_replicated_stage_reports_its_queue(self):
        # The workers themselves record the backlog they dequeue from: a
        # stage fed faster than it serves must not report a queue of 0 in
        # its stage.service events (obs.top's queue column and the
        # stage_queue_length gauge).
        def slow(x):
            time.sleep(0.002)
            return x

        with ThreadBackend(spec([lambda x: x, slow]), replicas=[1, 2], capacity=8) as b:
            with b.open() as session:
                seen = []
                session.events.subscribe(seen.append, kinds=["stage.service"])
                for x in range(60):
                    session.submit(x)
                assert session.drain() == list(range(60))
            queues = [e.fields["queue"] for e in seen if e.fields["stage"] == 1]
            assert len(queues) == 60 and max(queues) > 0

    def test_submit_feels_the_bounded_stage_queue(self):
        # The thread twin of the process executor's test.  No admission
        # window: stage 0's hand-off is the only bound and submit() meets it
        # directly — ``capacity`` queued plus one in service per worker,
        # not one more.
        gate = threading.Event()

        def gated(x):
            gate.wait(timeout=10.0)
            return x

        n, capacity, pool = 30, 2, 2
        admitted = []
        with ThreadBackend(
            spec([gated, lambda x: x]), replicas=[pool, 1], capacity=capacity
        ) as b:
            session = b.open()

            def produce():
                for x in range(n):
                    session.submit(x)
                    admitted.append(x)

            producer = threading.Thread(target=produce, daemon=True)
            producer.start()
            bound = capacity + pool
            deadline = time.perf_counter() + 5.0
            while len(admitted) < bound and time.perf_counter() < deadline:
                time.sleep(0.01)
            time.sleep(0.3)  # a producer that was going to run ahead would have
            assert len(admitted) == bound and producer.is_alive()
            gate.set()
            producer.join(timeout=10.0)
            assert not producer.is_alive()
            assert session.drain() == list(range(n))


# -------------------------------------------- records made by the collector
def _inc(x):
    return x + 1


@pytest.mark.parametrize("batching", [None, 8], ids=["items", "batched"])
@pytest.mark.parametrize("shape", ["replicated", "ordered"])
@pytest.mark.parametrize("executor", ["threads", "asyncio"])
def test_every_hop_is_recorded_before_drain_returns(executor, shape, batching):
    # Workers only append their hop; the collector records a burst's trails
    # before it delivers the run they free, so drain() finds every sample.
    # The asyncio lane has the same shape and the same egress step.
    ordered = shape == "ordered"
    stages = [
        StageSpec(name="a", work=1e-6, fn=_inc),
        StageSpec(name="b", work=1e-6, fn=_inc),
        StageSpec(name="c", work=1e-6, fn=_inc, replicable=not ordered),
    ]
    replicas = [2, 2, 1] if ordered else [1, 2, 2]
    n = 0
    with make_backend(executor, PipelineSpec(tuple(stages)), replicas=replicas) as b:
        with b.open(batching=batching, max_inflight=16) as session:
            for _ in range(2):
                for x in range(37):
                    session.submit(x)
                n += 37
                assert session.drain() == [x + 3 for x in range(37)]
                assert [s.items_processed for s in session.snapshots()] == [n, n, n]


def test_an_abort_releases_a_submit_parked_behind_a_stalled_stage():
    # close() raises the abort flag and the fabric's _wake_lane gives each
    # queue one credit: the parked submit leaves at once, not when the
    # stalled stage next takes an item.
    release, out = threading.Event(), {}

    def stall(x):
        release.wait(5.0)
        return x

    def produce():
        try:
            for x in range(10):
                session.submit(x)
        except SessionClosed:
            out["left"] = time.perf_counter()

    with ThreadBackend(PipelineSpec((StageSpec(name="stall", work=0.01, fn=stall),)), capacity=1) as b:
        session = b.open()
        producer = threading.Thread(target=produce, daemon=True)
        producer.start()
        time.sleep(0.2)  # one item in service, one queued: the third submit is parked
        assert producer.is_alive()
        closer = threading.Thread(target=session.close, daemon=True)
        closed_at = time.perf_counter()
        closer.start()
        producer.join(2.0)
        release.set()
        closer.join(5.0)
        assert out["left"] - closed_at < 0.5
