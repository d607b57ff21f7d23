"""Building blocks of the thread fabric.

Architecture (one bounded queue per stage, shared by its workers)::

    submit --> work_q[0] --> worker x R0 --> work_q[1] --> ... --> collector

* Every queue is a :class:`~repro.util.handoff.Handoff` — items and
  ``capacity`` credits on two C ``SimpleQueue``s, no Python-level lock on
  the item path — and its bound is what ``submit()`` feels.  A thread
  parked in ``get()`` wakes only on an item or a sentinel.
* **Workers** apply the stage callable, append their hop to the item's
  trail and put it straight into the next stage's queue — no lock, no
  record: stateless stages commute, so nothing between two replicable
  stages restores order and a slow item never holds its successors back.
  Replication is only allowed for stages marked ``replicable``.
* Order is restored only where it is needed: the single worker of an
  **ordered** stage (``StageSpec.ordered``, i.e. ``replicable=False``)
  keeps a private :class:`~repro.util.ordering.SequenceReorderer` and
  *starts* items in input order whatever upstream replicas did, and the
  session's collector reorders once at egress, so pipeline output is in
  input order — the 1-for-1 contract.
* Shutdown cascades with sentinels: each queue knows its producer count;
  when the last producer finishes, consumers receive one sentinel each.

This module only *defines* the blocks (:class:`_CountedQueue`,
:class:`_Worker`; a coroutine stage's are in :mod:`repro.runtime.coroutines`);
the one place that wires and runs them is the session in
:mod:`repro.backend.thread_backend`, which also owns the collector (it
records the trails a burst at a time), and live ``reconfigure``.

An exception raised by a stage function goes to the session's ``_fail``
(the port's one failure path: a :class:`StageError` naming the stage, the
abort flag up; :func:`dump_error`/:func:`load_error` carry the original
across a process boundary for the executors whose stages run in one, where
:func:`run_stage` is the one step a worker takes per task frame); on
abort every thread keeps draining its queue (without
applying stage functions) so shutdown never deadlocks on a full buffer.
"""

from __future__ import annotations

import pickle
import threading
import time
from typing import Any, Callable

from repro.util.batching import Batch, map_batch
from repro.util.handoff import Handoff
from repro.util.ordering import SequenceReorderer

__all__ = ["StageError", "dump_error", "load_error", "run_stage"]

_SENTINEL = object()
_RETIRE = object()  # consumed by exactly one worker, which then exits


class StageError(RuntimeError):
    """A stage function raised; carries the stage name and original error."""

    def __init__(self, stage_name: str, original: BaseException) -> None:
        super().__init__(f"stage {stage_name!r} failed: {original!r}")
        self.stage_name = stage_name
        self.original = original


def dump_error(err: BaseException) -> "bytes | None":
    """A worker-side stage failure for the trip home (None: it will not pickle)."""
    try:
        return pickle.dumps(err)
    except Exception:  # noqa: BLE001 - the repr travels beside it
        return None


def load_error(payload: "bytes | None", text: str) -> BaseException:
    """The failure a worker shipped — the same class on every executor —
    or a ``RuntimeError`` carrying its repr when it could not travel."""
    if payload is not None:
        try:
            return pickle.loads(payload)
        except Exception:  # noqa: BLE001 - keep the repr-only stand-in
            pass
    return RuntimeError(text)


def run_stage(fn: Callable[[Any], Any], frame, decoder, encoder, owned: bool) -> tuple:
    """One worker's step on one task frame: decode it with ``decoder``
    (releasing it, decoded or not, when the worker ``owned`` it), apply
    ``fn`` — element-wise over a :class:`Batch`, so the whole run pays one
    hop and one frame per stage — and encode the output with ``encoder``.
    ``(frame, service start, service end, None, output)`` on
    ``time.perf_counter`` (one monotonic clock for every process of a
    host), or ``(None, 0.0, 0.0, (pickled error | None, text), None)`` with
    the worker's own exception when any of those steps raised.

    A worker holds the ``output`` value until its next step: freed together
    with the decoded input, a large payload's heap pages can go back to the
    OS only for the next item to fault them in again (x0.63 items/s on
    ``payload_processes``, 1 MiB arrays on a 2-vCPU Linux host).
    """
    try:
        try:
            value = decoder.decode(frame)
        finally:
            if owned:
                decoder.release(frame)
        t0 = time.perf_counter()
        result = map_batch(fn, value) if isinstance(value, Batch) else fn(value)
        t1 = time.perf_counter()
        return encoder.encode(result), t0, t1, None, result
    except BaseException as err:  # noqa: BLE001 - the caller ships it home
        return None, 0.0, 0.0, (dump_error(err), repr(err)), None


class _CountedQueue(Handoff):
    """Bounded hand-off that delivers sentinels when all producers finish."""

    def __init__(self, capacity: int, producers: int, consumers: int) -> None:
        super().__init__(capacity)
        self._lock = threading.Lock()
        self._producers = producers
        self._consumers = consumers

    def add_consumer(self) -> None:
        with self._lock:
            if self._producers == 0:
                # Producers already finished: their sentinels are out, so the
                # newcomer needs its own to terminate.
                self.put(_SENTINEL)
            else:
                self._consumers += 1

    def remove_consumer(self) -> None:
        with self._lock:
            self._consumers -= 1

    def add_producer(self) -> None:
        with self._lock:
            if self._producers == 0:
                raise RuntimeError("queue already drained; cannot add a producer")
            self._producers += 1

    def producer_done(self) -> None:
        with self._lock:
            self._producers -= 1
            if self._producers == 0:
                for _ in range(self._consumers):
                    self.put(_SENTINEL)


class _Worker(threading.Thread):
    """Applies one stage function to the items of its stage's queue.

    An item is ``(seq, value, trail)``; the worker's hop on the trail is
    ``(stage, worker, service_s, None, queued, at)`` — no bytes measured,
    ``queued`` the backlog it left, ``at`` the service's end in seconds
    since ``origin`` (the session clock's zero on ``perf_counter``).
    ``ordered`` marks the single worker of a stateful stage: upstream
    replicas put into its queue as they finish, so it holds early arrivals
    in a private reorderer and serves each ready run in sequence order.
    """

    def __init__(
        self,
        stage_index: int,
        fn,
        work_q: _CountedQueue,
        out_q: _CountedQueue,
        fail: Callable[[int, BaseException], None],
        abort: threading.Event,
        origin: float,
        name: str,
        ordered: bool,
    ) -> None:
        super().__init__(name=name, daemon=True)
        self.stage_index = stage_index
        self.fn = fn
        self.work_q = work_q
        self.out_q = out_q
        self.fail = fail
        self.abort = abort
        self.origin = origin
        self.ordered = ordered

    def run(self) -> None:
        stage, fn, name, origin = self.stage_index, self.fn, self.name, self.origin
        work_q, put, abort = self.work_q, self.out_q.put, self.abort
        reorder = SequenceReorderer() if self.ordered else None
        try:
            while True:
                got = work_q.get()
                if got is _SENTINEL:
                    break
                if got is _RETIRE:
                    work_q.remove_consumer()
                    break
                if abort.is_set():
                    continue  # drain without processing
                ready = (got,) if reorder is None else [it for _, it in reorder.push(got[0], got)]
                for seq, value, trail in ready:
                    t0 = time.perf_counter()
                    try:
                        # A micro-batch maps element-wise in one dequeue: the
                        # whole run of items pays one queue hop and one trail entry.
                        result = map_batch(fn, value) if isinstance(value, Batch) else fn(value)
                    except BaseException as err:  # noqa: BLE001 - reported upward
                        self.fail(stage, err)
                        break
                    t1 = time.perf_counter()
                    # Backlog = the shared queue plus early arrivals held
                    # in this worker's reorderer.
                    queued = work_q.qsize() + (len(reorder) if reorder else 0)
                    trail.append((stage, name, t1 - t0, None, queued, t1 - origin))
                    put((seq, result, trail), abort=abort)
        finally:
            self.out_q.producer_done()
