"""The bounded hand-off: what ``queue.Queue(maxsize)`` gave, kept.

``repro.util.handoff.Handoff`` (two C ``SimpleQueue``s: items and credits)
is the only queue on an item path between two threads, and the thread
fabric's ``_CountedQueue`` counts sentinels on top of it.  ``submit()``
feeling a full pipeline rests on its bound, so the properties here hold for
any number of producers and consumers racing on two cores: capacity, FIFO,
exactly-once, a sentinel takes a slot, a slot frees at ``get``.

Every wait is bounded.  A hand-off that loses credits (drop the
``give`` in ``get``) parks its producers; the test joins them with a
deadline and *fails* — it does not hang.
"""

import contextlib
import queue
import sys
import threading
import time
from collections import Counter

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.runtime.threads import _RETIRE, _SENTINEL, _CountedQueue, _Worker
from repro.util.handoff import Credits, Handoff

CAPACITIES = [1, 2, 8]
_STOP = object()
DEADLINE_S = 3.0  # per racing example; a healthy one takes milliseconds


def _raised() -> threading.Event:
    """An abort flag already up: ``put`` refuses at once when full."""
    flag = threading.Event()
    flag.set()
    return flag


def _put_by(q, item, deadline) -> bool:
    """``put`` that retries a full queue until ``deadline`` instead of parking."""
    full = _raised()
    while not q.put(item, abort=full):
        if time.perf_counter() > deadline:
            return False
    return True


def _all_credits_home(q, k) -> bool:
    """An empty ``q`` takes exactly ``k`` more items: no credit leaked or minted."""
    full = _raised()
    return all(q.put(i, abort=full) for i in range(k)) and not q.put(k, abort=full)


def _join_all(threads, deadline_s=DEADLINE_S) -> bool:
    deadline = time.perf_counter() + deadline_s
    for t in threads:
        t.join(timeout=max(0.0, deadline - time.perf_counter()))
    return not any(t.is_alive() for t in threads)


@contextlib.contextmanager
def fast_switching():
    """More thread switches per second: races show up in fewer items."""
    before = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(before)


# ------------------------------------------------------------------ the bound
@pytest.mark.parametrize("k", CAPACITIES)
def test_put_refuses_at_exactly_capacity_and_a_slot_frees_at_get(k):
    q, full = Handoff(k), _raised()
    for i in range(k):
        assert q.put(i, abort=full)
    assert q.qsize() == k
    assert not q.put("over", abort=full)  # the bound, not k + 1
    assert q.qsize() == k
    # The consumer only *took* item 0 — it has not finished anything.
    assert q.get() == 0
    assert q.put(k, abort=full)
    assert not q.put("over", abort=full)
    assert [q.get() for _ in range(k)] == list(range(1, k + 1))  # FIFO
    assert q.qsize() == 0


@given(
    k=st.sampled_from(CAPACITIES),
    ops=st.lists(st.sampled_from(["put", "put", "get"]), max_size=60),
)
@settings(max_examples=60, deadline=None)
def test_one_thread_sees_what_queue_queue_showed(k, ops):
    """Same accept/refuse and the same items as ``queue.Queue(k)``, op by op."""
    q, model, full = Handoff(k), queue.Queue(maxsize=k), _raised()
    refusals = 0
    for n, op in enumerate(ops):
        if op == "get":
            if model.empty():
                assert q.qsize() == 0  # a get here would park: skip it
            else:
                assert q.get() == model.get_nowait()
        elif model.full():
            assert q.qsize() == k
            if refusals < 1:  # each refusal costs one 50 ms timed wait
                refusals += 1
                assert not q.put(n, abort=full)
        else:
            model.put_nowait(n)
            assert q.put(n, abort=full)
        assert q.qsize() == model.qsize()


@given(
    k=st.sampled_from(CAPACITIES),
    producers=st.integers(1, 4),
    consumers=st.integers(1, 4),
    per_producer=st.integers(0, 300),
)
# No shrinking: a race does not replay, and each failing example costs
# its whole deadline.
@settings(max_examples=25, deadline=None, phases=[Phase.reuse, Phase.generate])
def test_racing_threads_every_item_once_fifo_and_never_over_capacity(
    k, producers, consumers, per_producer
):
    q, give_up = Handoff(k), threading.Event()
    seen = [[] for _ in range(consumers)]
    peaks = [0] * (producers + consumers)

    def produce(p):
        for i in range(per_producer):
            if not q.put((p, i), abort=give_up):
                return
            peaks[p] = max(peaks[p], q.qsize())

    def consume(c):
        while (item := q.get()) is not _STOP:
            seen[c].append(item)
            peaks[producers + c] = max(peaks[producers + c], q.qsize())

    feeders = [threading.Thread(target=produce, args=(p,), daemon=True) for p in range(producers)]
    drains = [threading.Thread(target=consume, args=(c,), daemon=True) for c in range(consumers)]
    with fast_switching():
        for t in (*feeders, *drains):
            t.start()
        try:
            fed = _join_all(feeders)
            give_up.set()  # from here a put that finds the hand-off full gives up
            assert fed and _join_all(feeders, 1.0), "producers parked: credits were lost"
            deadline = time.perf_counter() + DEADLINE_S
            for _ in drains:
                assert _put_by(q, _STOP, deadline), "no room for a stop pill"
            assert _join_all(drains), "consumers never saw their stop pill"
        finally:
            for t in drains:  # failure path only: wake them whatever the credits say
                if t.is_alive():
                    q._items.put(_STOP)

    assert max(peaks, default=0) <= k  # qsize() never observed above the bound
    got = Counter(item for items in seen for item in items)
    assert got == Counter((p, i) for p in range(producers) for i in range(per_producer))
    for items in seen:  # FIFO per producer, as each consumer saw it
        for p in range(producers):
            mine = [i for who, i in items if who == p]
            assert mine == sorted(mine)
    assert q.qsize() == 0 and _all_credits_home(q, k)  # nothing left behind


class _SpyQueue:
    """A ``SimpleQueue`` that records the arguments of every ``get``."""

    def __init__(self, inner):
        self.inner, self.gets = inner, []

    def get(self, *args, **kwargs):
        self.gets.append((args, kwargs))
        return self.inner.get(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self.inner, name)


@pytest.mark.parametrize("k", CAPACITIES)
def test_parked_puts_all_leave_on_one_abort_wake_and_never_poll(k):
    q, abort, outs = Handoff(k), threading.Event(), []
    for i in range(k):
        q.put(i)
    q._free = spy = _SpyQueue(q._free)
    parked = [
        threading.Thread(target=lambda: outs.append(q.put("late", abort=abort)), daemon=True)
        for _ in range(3)
    ]
    for t in parked:
        t.start()
    deadline = time.perf_counter() + 2.0
    while len(spy.gets) < 3 and time.perf_counter() < deadline:
        time.sleep(0.005)
    time.sleep(0.1)  # no clock wakes a parked put: all three stay
    assert all(t.is_alive() for t in parked) and q.qsize() == k
    abort.set()
    q.give()  # the owner's one wake (a session's _wake_lane)
    assert _join_all(parked, 2.0) and outs == [False] * 3
    assert not [call for call in spy.gets if call != ((), {})]  # untimed, every one
    # No item slipped in; the wake's permit, passed on, stays in the pool.
    assert [q.get() for _ in range(k)] == list(range(k))
    assert _all_credits_home(q, k + 1)


def test_blocking_put_waits_for_a_get():
    q, done = Handoff(1), threading.Event()
    q.put("a")
    t = threading.Thread(target=lambda: (q.put("b"), done.set()), daemon=True)
    t.start()
    assert not done.wait(0.1)  # no abort flag: parked on the credit
    assert q.get() == "a"
    assert done.wait(2.0) and q.get() == "b"


def test_get_all_takes_every_queued_item_and_frees_their_slots():
    q, got = Handoff(3), []
    taker = threading.Thread(target=lambda: got.extend(q.get_all()), daemon=True)
    taker.start()
    time.sleep(0.05)
    assert taker.is_alive()  # parked: get_all blocks only while there is none
    q.put("a")
    taker.join(timeout=2.0)
    assert not taker.is_alive() and got == ["a"]
    deadline = time.perf_counter() + DEADLINE_S
    assert all(_put_by(q, x, deadline) for x in "bcd")  # "a"'s slot came back
    assert q.get_all() == ["b", "c", "d"]  # everything queued, in order
    assert q.qsize() == 0 and _all_credits_home(q, 3)  # one credit back per item


def test_credits_alone_bound_what_they_guard():
    credits, full = Credits(2), _raised()
    assert credits.take(full) and credits.take(full) and not credits.take(full)
    credits.give()
    assert credits.take() and not credits.take(full)


# ------------------------------------------------------------ sentinel counting
def _drain(q, n):
    assert q.qsize() == n
    return [q.get() for _ in range(n)]


def test_last_producer_done_delivers_one_sentinel_per_consumer():
    q = _CountedQueue(8, producers=2, consumers=3)
    q.put("x")
    q.producer_done()
    assert q.qsize() == 1  # one producer still open
    q.producer_done()
    assert _drain(q, 4) == ["x", _SENTINEL, _SENTINEL, _SENTINEL]  # behind the items


def test_sentinels_take_a_slot_like_any_item():
    q = _CountedQueue(1, producers=1, consumers=2)
    closer = threading.Thread(target=q.producer_done, daemon=True)
    closer.start()
    closer.join(timeout=0.15)
    assert closer.is_alive() and q.qsize() == 1  # second sentinel waits for room
    assert q.get() is _SENTINEL
    closer.join(timeout=2.0)
    assert not closer.is_alive() and q.get() is _SENTINEL


def test_add_consumer_before_the_drain_is_counted_after_it_gets_its_own():
    q = _CountedQueue(8, producers=1, consumers=1)
    q.add_consumer()
    q.producer_done()
    assert _drain(q, 2) == [_SENTINEL, _SENTINEL]
    q.add_consumer()  # producers are gone: the newcomer's sentinel is put now
    assert _drain(q, 1) == [_SENTINEL]
    with pytest.raises(RuntimeError, match="drained"):
        q.add_producer()


def test_a_retired_consumer_is_not_sent_a_sentinel():
    q = _CountedQueue(8, producers=1, consumers=3)
    q.remove_consumer()
    q.producer_done()
    assert _drain(q, 2) == [_SENTINEL, _SENTINEL]


def test_retire_is_eaten_by_exactly_one_worker():
    n = 3
    # Room for everything this test puts: no put here waits on a credit.
    work_q = _CountedQueue(64, producers=1, consumers=n)
    out_q = _CountedQueue(64, producers=n, consumers=1)
    abort, failures = threading.Event(), []
    workers = [
        _Worker(
            0, lambda x: x + 1, work_q, out_q, lambda stage, err: failures.append(err), abort,
            0.0, name=f"test-worker.{r}", ordered=False,
        )
        for r in range(n)
    ]
    for w in workers:
        w.start()
    try:
        work_q.put(_RETIRE)
        deadline = time.perf_counter() + 5.0
        while all(w.is_alive() for w in workers) and time.perf_counter() < deadline:
            time.sleep(0.005)
        time.sleep(0.1)  # a pill eaten twice would have taken a second worker
        assert sum(w.is_alive() for w in workers) == n - 1
        assert work_q.qsize() == 0 and out_q.qsize() == 0  # and it was not forwarded
        for x in range(20):
            work_q.put((x, x, []))
    finally:
        work_q.producer_done()  # one sentinel per *remaining* consumer
    assert _join_all(workers, 5.0) and not failures
    got = _drain(out_q, 21)
    assert sorted((seq, value) for seq, value, _ in got[:-1]) == [(x, x + 1) for x in range(20)]
    for _, _, trail in got[:-1]:  # one hop each: (stage, worker, service_s, None, queued, at)
        [(stage, worker, service_s, nbytes, queued, at)] = trail
        assert stage == 0 and worker.startswith("test-worker.") and nbytes is None
        assert service_s >= 0 and at > 0
    assert got[-1] is _SENTINEL  # the last of the three producers closed it
    assert work_q.qsize() == 0  # no spare sentinel for the retired one
