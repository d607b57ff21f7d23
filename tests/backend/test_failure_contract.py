"""A stage failure means the same thing on every real executor.

One body, four executors (threads / processes / asyncio / distributed), per
item and micro-batched, with the failing stage last and first — and once
more on a coroutine -> plain -> coroutine pipeline, whose plain middle
stage fails.  First, it is
inside a segment on ``processes`` and a hop before the boundary on
``distributed``: its error comes straight back from that hop.  A stage
raising ``ValueError`` on item ``K``:

(a) ``drain()`` raises a ``StageError`` naming the stage, its ``.original``
    a ``ValueError`` — the worker's own exception, not a stand-in;
(b) the session is ``broken`` and the next ``submit`` re-raises that error;
(c) ``close()`` returns within 2 s and leaves no session thread, no busy
    ``repro-shm-*`` slot, (where the session owns them) no child alive and
    (where stages are coroutines) no task on the event loop;
(d) ``backend.run([x])`` afterwards works, on a fresh session.

On the two executors whose workers encode results, a result the codec
cannot encode is the same failure: the stage's ``StageError``, its
``.original`` the codec's ``TransportError``.

Stage functions live at module level: distributed workers resolve them by
reference.
"""

import asyncio
import multiprocessing as mp
import threading
import time

import pytest

from repro.backend import make_backend
from repro.core.pipeline import PipelineSpec
from repro.core.stage import StageSpec
from repro.runtime.threads import StageError
from repro.transport import TransportError, busy_segments

EXECUTORS = {
    "threads": {},
    "processes": {},
    "asyncio": {},
    "distributed": {"spawn_workers": 2},
}
N, K = 40, 21


def _inc(x):
    return x + 1


def _boom_on_k(x):
    if x == K + 1:  # behind _inc
        raise ValueError(f"bad item {x}")
    return 2 * x


def _boom_first(x):
    if x == K:
        raise ValueError(f"bad item {x}")
    return x + 1


def _double(x):
    return 2 * x


def _lock_on_k(x):
    return threading.Lock() if x == K + 1 else 2 * x  # behind _inc; no codec encodes it


async def _ainc(x):
    return x + 1


async def _astore(x):
    await asyncio.sleep(0)
    return x


# Either way ``run([1])`` gives [4]: (1 + 1) * 2.
PIPELINES = {
    "last": (("inc", _inc), ("boom", _boom_on_k)),
    "first": (("boom", _boom_first), ("double", _double)),
}
#: Coroutine -> plain -> coroutine on one fabric; ``run([1])`` gives [4] too.
MIXED = (("fetch", _ainc), ("boom", _boom_on_k), ("store", _astore))


def _session_threads():
    """Live threads a session owns: fabric workers, collector, flusher, routers."""
    return sorted(
        t.name
        for t in threading.enumerate()
        if t.name.startswith("session-") or "-router[" in t.name
    )


@pytest.mark.parametrize("failing", PIPELINES)
@pytest.mark.parametrize("batching", [None, 8], ids=["per-item", "batch8"])
@pytest.mark.parametrize("executor", EXECUTORS)
def test_stage_failure_is_one_contract(executor, batching, failing):
    _check_contract(executor, batching, PIPELINES[failing], ValueError)


@pytest.mark.parametrize("batching", [None, 8], ids=["per-item", "batch8"])
def test_a_mixed_pipeline_is_the_same_contract(batching):
    # The plain middle stage fails between two coroutine pools: its error,
    # and no worker coroutine is left on the loop (checked in _check_contract).
    _check_contract("asyncio", batching, MIXED, ValueError, replicas=[2, 2, 2])


@pytest.mark.parametrize("batching", [None, 8], ids=["per-item", "batch8"])
@pytest.mark.parametrize("executor", ["processes", "distributed"])
def test_an_unencodable_result_is_the_same_contract(executor, batching):
    _check_contract(executor, batching, (("inc", _inc), ("boom", _lock_on_k)), TransportError)


async def _other_tasks():
    return asyncio.all_tasks() - {asyncio.current_task()}


def _check_contract(executor, batching, stages, original, **options):
    pipe = PipelineSpec(tuple(StageSpec(name=name, work=1e-4, fn=fn) for name, fn in stages))
    children_before = set(mp.active_children())
    with make_backend(executor, pipe, **EXECUTORS[executor], **options) as backend:
        session = backend.open(batching=batching)
        # (a) the failure surfaces at drain (or at a submit that found the
        # session already poisoned), named and with the original class.
        with pytest.raises(StageError, match="'boom'") as excinfo:
            for x in range(N):
                session.submit(x)
            session.drain()
        error = excinfo.value
        assert error.stage_name == "boom"
        assert isinstance(error.original, original)
        # (b) sticky: the same error object, again.
        assert session.broken
        with pytest.raises(StageError) as again:
            session.submit(0)
        assert again.value is error
        # (c) close is prompt and leaves nothing of the session behind.
        t0 = time.perf_counter()
        session.close()
        assert time.perf_counter() - t0 < 2.0
        deadline = time.perf_counter() + 1.0  # the flusher leaves on its next wake
        while _session_threads() and time.perf_counter() < deadline:
            time.sleep(0.01)
        assert _session_threads() == []
        if getattr(backend, "_loop", None) is not None:  # coroutine stages: no task left
            assert asyncio.run_coroutine_threadsafe(_other_tasks(), backend._loop).result(5) == set()
        codec = getattr(backend, "_codec", None)
        if codec is not None:  # a warm coordinator holds only its negotiation probe
            probe = getattr(backend, "_probe", None)
            probe_slot = probe[0].stream.name if probe else None
            assert not [s for s in busy_segments(codec.session) if s != probe_slot]
        if executor == "processes":  # its broken session takes the pools cold
            assert set(mp.active_children()) == children_before
        # (d) the warm backend recovers on a fresh session.
        assert backend.run([1]).outputs == [4]
        assert backend._session is not session
    assert set(mp.active_children()) == children_before
