"""One in-flight bound: the admission window sizes every lane.

The thread, asyncio and process lanes pull work from bounded queues; the
distributed lane pushes each item to a chosen replica, which may hold as
many in flight.  With ``max_inflight=W`` and no ``capacity``, every one of
them is ``ceil(W / batch items)`` units deep (``Session._lane_depth``), so
a producer facing a gated stage 0 gets exactly ``W`` submits in: the
window is the bound it feels.  A given ``capacity``, or no window, keeps
the lane's own bound.  Distributed runs here with one replica; the rule
that holds an unmeasured replica of a multi-replica stage at ``capacity``
is tested in ``test_distributed.py``.  (These cases replace the old
``test_distributed_stays_at_capacity_per_replica``.)

Stage 0 waits for a file to appear, so one module-level callable gates a
thread, a coroutine pool's offload thread, a forked worker and a socket
worker alike.
"""

import gc
import math
import os
import threading
import time

import pytest

from repro.backend import make_backend
from repro.core.pipeline import PipelineSpec
from repro.core.stage import StageSpec

W = 64  # deeper than the default lane on every executor
POOL = 2  # workers (replicas) of the gated stage

#: Items a gated stage 0 holds when its lane, not the window, is the bound:
#: what ``submit()`` met before the window sized the lanes.
LANE_BOUND = {
    # the stage queue, plus one in service per worker
    "threads": lambda capacity: capacity + POOL,
    # the ingress credits (the pump holds one of their items), the stage
    # queue, the item the dispatcher holds for a free slot, one in service
    # per replica
    "asyncio": lambda capacity: 2 * capacity + 1 + POOL,
    # the shared task queue (capacity x pool size), plus one in service per worker
    "processes": lambda capacity: capacity * POOL + POOL,
    # the one replica's allowance (the item in service is still in flight)
    "distributed": lambda capacity: capacity,
}
LANES = sorted(LANE_BOUND)


def _gated(item):
    path, x = item
    while not os.path.exists(path):
        time.sleep(0.002)
    return x


def _pipe():
    return PipelineSpec((StageSpec(name="gated", work=0.01, fn=_gated),))


def _backend(executor, **kwargs):
    extra = {"spawn_workers": 1} if executor == "distributed" else {"replicas": [POOL]}
    if executor == "processes":
        extra["max_replicas"] = POOL  # the pool is the gated stage's workers
    return make_backend(executor, _pipe(), **extra, **kwargs)


def _admitted_while_gated(session, gate, n=W + 16):
    """Submit ``n`` items from a producer thread against a closed gate.

    Returns how many submits returned before the producer stayed parked
    for 0.3 s, then opens the gate and checks the stream completes.
    """
    admitted = []

    def produce():
        for x in range(n):
            session.submit((str(gate), x))
            admitted.append(x)

    producer = threading.Thread(target=produce, daemon=True)
    producer.start()
    seen, still_since = -1, time.perf_counter()
    deadline = still_since + 10.0
    while time.perf_counter() < deadline:
        time.sleep(0.02)
        if len(admitted) != seen:
            seen, still_since = len(admitted), time.perf_counter()
        elif time.perf_counter() - still_since > 0.3:
            break
    assert producer.is_alive(), "the producer was never parked"
    gate.touch()
    producer.join(timeout=10.0)
    assert not producer.is_alive()
    assert session.drain() == list(range(n))
    return seen


@pytest.mark.parametrize("executor", LANES)
class TestTheWindowSizesTheLane:
    def test_a_window_deeper_than_the_lane_is_the_bound(self, executor, tmp_path):
        with _backend(executor) as b:
            session = b.open(max_inflight=W)
            assert session._lane_depth() == W
            assert _admitted_while_gated(session, tmp_path / "gate") == W

    @pytest.mark.parametrize("window", [None, W])
    def test_a_given_capacity_keeps_the_lane_bound(self, executor, window, tmp_path):
        with _backend(executor, capacity=2) as b:
            session = b.open(max_inflight=window)
            assert session._lane_depth() == 2
            assert _admitted_while_gated(session, tmp_path / "gate") == LANE_BOUND[executor](2)

    def test_without_a_window_the_lane_is_the_bound(self, executor, tmp_path):
        with _backend(executor) as b:
            session = b.open()
            assert session._lane_depth() == 8
            assert _admitted_while_gated(session, tmp_path / "gate") == LANE_BOUND[executor](8)

    def test_the_depth_counts_batches(self, executor, tmp_path):
        with _backend(executor) as b:
            session = b.open(max_inflight=W, batching=2)
            assert session._lane_depth() == math.ceil(W / 2)
            assert _admitted_while_gated(session, tmp_path / "gate") == W


@pytest.mark.parametrize(
    "config, depth",
    [
        ({}, 8),
        ({"max_inflight": 3}, 8),  # never shallower than the default
        ({"max_inflight": 100}, 100),
        ({"max_inflight": 100, "batching": 8}, 13),  # ceil(100 / 8) batches
        ({"max_inflight": 5000}, 1024),  # never deeper than the lane ceiling
    ],
)
def test_the_depth_rule(config, depth):
    with _backend("threads") as b, b.open(**config) as session:
        assert session._lane_depth() == depth
        # The fabric's queues are built that deep: exactly ``depth`` credits
        # (with the flag up a take gives up instead of blocking).
        given_up = threading.Event()
        given_up.set()
        q = session._queues[-1]
        taken = 0
        while q.take(abort=given_up):
            taken += 1
        for _ in range(taken):
            q.give()
        assert taken == depth


@pytest.mark.parametrize("window", ["auto", 0, -4, 2.5])
def test_the_window_is_none_or_a_positive_int(window):
    with _backend("threads") as b:
        with pytest.raises(ValueError, match="None or a positive int"):
            b.open(max_inflight=window)


def test_processes_rewarm_for_a_new_depth_and_back(tmp_path):
    # The pools are sized when they warm: a session whose depth changes a
    # queue's bound re-forks them, one that does not keeps them warm, and
    # max_inflight=None gets capacity x pool size again.
    expected = {None: LANE_BOUND["processes"](8), W: W}
    with _backend("processes") as b:
        pids = []
        for k, window in enumerate([None, W, W, None]):
            session = b.open(max_inflight=window)
            pids.append([p.pid for pool in b._pools for p in pool.procs])
            assert _admitted_while_gated(session, tmp_path / f"gate{k}") == expected[window]
            session.close()
        assert pids[0] != pids[1] == pids[2] != pids[3]


def test_processes_rewarm_cycles_leak_no_descriptor():
    def open_fds():
        return len(os.listdir("/proc/self/fd"))

    with _backend("processes") as b:
        b.open(max_inflight=W).close()
        b.open().close()
        gc.collect()  # earlier tests' pipes must not be collected mid-count
        before = open_fds()
        for _ in range(6):
            b.open(max_inflight=W).close()  # re-forks deeper pools
            b.open().close()  # and back
        gc.collect()
        assert open_fds() == before
