"""``results()`` takes a run per lock round and never loses or repeats one.

A consumer takes every output ready at its lock round and yields them
outside the lock.  What it took and has not yielded stays the stream's:
an early stop (``break``) puts it back in front of the stream, a suspended
iterator leaves it for ``drain()``, and an executor error is raised before
the next output.  Checked on threads, asyncio and processes.

Stage functions live at module level: forked workers resolve them by
reference.
"""

import threading
import time

import pytest

from repro.runtime.threads import StageError
from repro.skel.api import open_pipeline

EXECUTORS = {"threads": {}, "asyncio": {}, "processes": {"max_replicas": 1}}
N, K = 40, 7  # outputs in one run; how many the consumer takes before it stops
POISON = -1


def _inc(x):
    if x == POISON:
        raise ValueError("poisoned item")
    return x + 1


def _open(executor):
    return open_pipeline([_inc, _inc], backend=executor, **EXECUTORS[executor])


def _delivered(session, n, timeout=10.0):
    """Wait until the stream has delivered ``n`` outputs: the next lock round takes them all."""
    deadline = time.perf_counter() + timeout
    while session.stats().stream_delivered < n:
        assert time.perf_counter() < deadline, "outputs never arrived"
        time.sleep(0.002)


def _take(it, k, timeout=10.0):
    """``k`` outputs of ``it``, pulled on a helper thread: a lost output fails, not hangs."""
    got = []
    puller = threading.Thread(target=lambda: got.extend(next(it) for _ in range(k)), daemon=True)
    puller.start()
    puller.join(timeout)
    assert not puller.is_alive(), f"only {len(got)} of {k} outputs came"
    return got


def _stream(session):
    for x in range(N):
        session.submit(x)
    _delivered(session, N)
    return [x + 2 for x in range(N)]


@pytest.mark.parametrize("executor", sorted(EXECUTORS))
def test_a_consumer_that_breaks_leaves_the_rest_to_drain_in_order_once(executor):
    with _open(executor) as session:
        for _ in range(2):  # the second stream starts from a clean hand-back
            want, got = _stream(session), []
            for out in session.results():  # its first round takes all N outputs
                got.append(out)
                if len(got) == K:
                    break
            assert got == want[:K]
            assert session.drain() == want[K:]


@pytest.mark.parametrize("executor", sorted(EXECUTORS))
def test_an_early_stop_hands_the_run_back_to_the_next_consumer(executor):
    with _open(executor) as session:
        want, first = _stream(session), session.results()
        got = [next(first) for _ in range(K)]
        first.close()
        second = session.results()
        got += _take(second, K)
        assert got == want[: 2 * K]
        assert session.drain() == want[2 * K :]
        assert list(second) == [] and list(first) == []


@pytest.mark.parametrize("executor", sorted(EXECUTORS))
def test_drain_takes_what_a_suspended_consumer_has_not_yielded(executor):
    with _open(executor) as session:
        want, it = _stream(session), session.results()
        got = [next(it) for _ in range(K)]
        assert session.drain() == want[K:]  # the iterator still holds its run
        assert got + list(it) == want[:K]  # and yields nothing drain() took


@pytest.mark.parametrize("executor", sorted(EXECUTORS))
def test_an_error_delivered_mid_run_is_raised_before_the_next_output(executor):
    with _open(executor) as session:
        want, it = _stream(session), session.results()
        assert next(it) == want[0]  # the run of N is taken; one output yielded
        session.submit(POISON)
        deadline = time.perf_counter() + 10.0
        while not session.broken:
            assert time.perf_counter() < deadline, "the stage error never arrived"
            time.sleep(0.002)
        with pytest.raises(StageError, match="poisoned item"):
            next(it)
