"""Order is restored only where it is needed — on every real executor.

The executors forward results between stateless stages as they arrive and
reorder in two places only: in front of an ordered (``replicable=False``)
stage, and once at egress.  What a caller may rely on, checked here on
threads / processes / asyncio / distributed, per item and micro-batched:

(a) outputs are the reference, in input order, exactly once — behind a
    4-replica stage with seeded heavy-tail service times, across two
    back-to-back streams with a ``reconfigure`` in the middle of each;
(b) a ``replicable=False`` stage behind that one *starts* items 0..n-1 in
    input order;
(c) with ``max_inflight=W`` no reorderer ever holds more than ``W`` items;
(d) threads: the fabric is Σ replicas workers + the collector, and nothing
    named ``session-dispatch*``;
(e) threads: (a)–(c) also hold while one stream grows and shrinks a stage
    four times through a 2-slot hand-off, and the retired workers leave.

Stage functions live at module level: distributed workers resolve them by
reference, and a forked worker counts on its own copy of ``_calls``.
"""

import random
import threading
import time

import pytest

from repro.backend import routed, thread_backend
from repro.core.stage import StageSpec
from repro.runtime import threads as thread_runtime
from repro.skel.api import open_pipeline
from repro.util.ordering import SequenceReorderer

EXECUTORS = {
    "threads": {},
    "processes": {},
    "asyncio": {},
    "distributed": {"spawn_workers": 2},
}
N = 100  # items per stream: one shuffled 90/9/1 block of service times
W = 16  # admission window, far below N so it binds

_calls = 0


def _jitter(item):
    x, seconds = item
    time.sleep(seconds)
    return x


def _double(x):
    return 2 * x


def _record(x):
    global _calls
    n = _calls
    _calls += 1
    return (x, n)


def _items(seed, base):
    sleeps = [0.0005] * 90 + [0.003] * 9 + [0.02]
    random.Random(seed).shuffle(sleeps)
    return [(base + k, s) for k, s in enumerate(sleeps)]


def _open(executor, batching, stages, replicas):
    return open_pipeline(
        stages,
        backend=executor,
        replicas=replicas,
        max_inflight=W,
        batching=batching,
        **EXECUTORS[executor],
    )


def _two_streams(session):
    """Two streams of N items; stage 0 shrinks mid-stream 0, regrows mid-stream 1."""
    outputs = []
    for stream, width in enumerate((2, 4)):
        items = _items(seed=stream, base=1000 * stream)
        for k, item in enumerate(items):
            if k == N // 2:
                session.backend.reconfigure(0, width)
            session.submit(item)
        outputs.append(session.drain())
    return outputs


@pytest.fixture
def reorderers(monkeypatch):
    """Every reorderer the executors build, each recording its peak fill."""
    made = []

    class Peak(SequenceReorderer):
        def __init__(self, start=0):
            super().__init__(start)
            self.peak = 0
            made.append(self)

        def push(self, seq, value):
            ready = super().push(seq, value)  # buffers eagerly
            self.peak = max(self.peak, len(self))
            return ready

    for module in (thread_runtime, thread_backend, routed):
        monkeypatch.setattr(module, "SequenceReorderer", Peak)
    return made


@pytest.mark.parametrize("batching", [None, 8], ids=["per-item", "batch8"])
@pytest.mark.parametrize("executor", EXECUTORS)
def test_output_in_order_exactly_once_with_bounded_egress_hold(
    executor, batching, reorderers
):
    stages = [
        StageSpec(name="jitter", work=0.001, fn=_jitter),
        StageSpec(name="double", work=1e-6, fn=_double),
    ]
    with _open(executor, batching, stages, [4, 2]) as session:
        first, second = _two_streams(session)
    # (a) equal lists: same length, same order, nothing twice or missing.
    assert first == [2 * k for k in range(N)]
    assert second == [2 * (1000 + k) for k in range(N)]
    # (c) one reorderer per session — egress — and the window caps it.
    assert len(reorderers) == 1
    assert reorderers[0].peak <= W
    if batching is None:
        # The 20 ms item was overtaken: the bound is not vacuous.
        assert reorderers[0].peak > 1


@pytest.mark.parametrize("batching", [None, 8], ids=["per-item", "batch8"])
@pytest.mark.parametrize("executor", EXECUTORS)
def test_ordered_stage_starts_items_in_input_order(executor, batching, reorderers):
    global _calls
    _calls = 0  # forked workers inherit it; in-process executors share it
    stages = [
        StageSpec(name="jitter", work=0.001, fn=_jitter),
        StageSpec(name="record", work=1e-6, fn=_record, replicable=False),
    ]
    with _open(executor, batching, stages, [4, 1]) as session:
        first, second = _two_streams(session)
    # (b) the recorder's own call counter equals each item's position.
    assert first == [(k, k) for k in range(N)]
    assert second == [(1000 + k, N + k) for k in range(N)]
    # In front of the ordered stage and at egress, nowhere else.
    assert len(reorderers) == 2
    assert max(r.peak for r in reorderers) <= W


@pytest.mark.parametrize("batching", [None, 8], ids=["per-item", "batch8"])
def test_thread_resize_mid_stream_through_a_two_slot_hand_off(batching, reorderers):
    # Grow 1 -> 4, shrink to 1, regrow, shrink again, all inside one stream
    # and with capacity 2: every retire pill queues for a slot among the
    # items, and each is eaten by one worker.
    global _calls
    _calls = 0
    stages = [
        StageSpec(name="jitter", work=0.001, fn=_jitter),
        StageSpec(name="record", work=1e-6, fn=_record, replicable=False),
    ]
    widths = {10: 4, 40: 1, 60: 3, 85: 2}
    before = set(threading.enumerate())
    with open_pipeline(
        stages, backend="threads", replicas=[1, 1], capacity=2,
        max_inflight=W, batching=batching,
    ) as session:
        for k, item in enumerate(_items(seed=7, base=0)):
            if k in widths:
                session.backend.reconfigure(0, widths[k])
            session.submit(item)
        # (a) + (b): in order, exactly once, started in order.
        assert session.drain() == [(k, k) for k in range(N)]
        new = [t for t in threading.enumerate() if t not in before]

        def stage0():
            return [t for t in new if t.name.startswith("session-stage[0]") and t.is_alive()]

        deadline = time.perf_counter() + 2.0
        while len(stage0()) != 2 and time.perf_counter() < deadline:
            time.sleep(0.01)
        assert len(stage0()) == 2 and session.replicas == [2, 1]
    assert not [t for t in new if t.is_alive()]
    # (c) in front of the ordered stage and at egress, inside the window.
    assert len(reorderers) == 2
    assert max(r.peak for r in reorderers) <= W


def test_thread_fabric_has_no_dispatcher_threads():
    before = set(threading.enumerate())
    replicas = [1, 3, 2]
    with open_pipeline(
        [_double, _double, _double], backend="threads", replicas=replicas
    ) as session:
        session.submit(1)
        assert session.drain() == [8]
        new = [t for t in threading.enumerate() if t not in before]
        names = sorted(t.name for t in new)
        # (d) Σ replicas workers + the collector: a failure reaches the
        # session through _fail, not through a watcher thread.
        assert not [n for n in names if n.startswith("session-dispatch")], names
        assert len(new) == sum(replicas) + 1, names
    assert not [t for t in new if t.is_alive()]
