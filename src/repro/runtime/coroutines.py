"""Coroutine stages of the thread fabric (:mod:`repro.backend.thread_backend`).

A stage whose ``fn`` is a coroutine function is served by ``replicas[i]``
worker coroutines on the backend's event-loop thread, on the fabric's own
stage queues; to a queue's census the stage is one consumer and one producer.

* **In.** Its input queue is a :class:`LoopQueue`: a put wakes the loop with
  one ``call_soon_threadsafe`` unless a wake is pending, and the wake moves
  every queued item into the stage's ``asyncio.Queue``.  A worker gives an
  item's credit back when it takes it, so the bound is the thread fabric's.
* **Out.** A worker puts on while the next queue has a free credit; on a full
  one it waits on a future while the stage's outlet thread makes the blocking
  put, so back-pressure suspends the worker, never the loop.
* **End.** The sentinel ends the stage: the items it still holds are
  dropped, its workers cancelled and gathered, and then the outlet calls the
  next queue's ``producer_done``.
"""

from __future__ import annotations

import asyncio
import threading
import time
from queue import SimpleQueue

from repro.runtime.threads import _RETIRE, _SENTINEL, _CountedQueue
from repro.util.batching import Batch
from repro.util.ordering import SequenceReorderer

_NOWAIT = threading.Event()  # always up: a put with it as ``abort`` never parks
_NOWAIT.set()


class LoopQueue(_CountedQueue):
    """The input queue of a coroutine stage: a put wakes its ``drain``."""

    def __init__(self, capacity: int, producers: int, loop) -> None:
        super().__init__(capacity, producers=producers, consumers=1)
        self.call, self.drain, self.pending = loop.call_soon_threadsafe, None, False

    def put(self, item, abort=None) -> bool:
        if not super().put(item, abort):
            return False
        if not self.pending:  # cleared by the drain before it reads the queue
            self.pending = True
            self.call(self.drain)
        return True


class CoroutineStage:
    """Stage ``index`` of ``session`` as worker coroutines, applying the stage,
    appending their hop and re-sequencing as a thread ``_Worker`` does."""

    def __init__(self, session, index: int) -> None:
        spec, self.session, self.index = session.backend.pipeline.stage(index), session, index
        self.fn, self.ordered, self.loop = spec.fn, spec.ordered, session._loop
        self.in_q, self.out_q = session._queues[index], session._queues[index + 1]
        self.in_q.drain = self._drain
        self.intake, self.tasks, self.ended = asyncio.Queue(), set(), False
        self.jobs: SimpleQueue = SimpleQueue()  # (item, future) of a put on a full queue
        self.outlet = threading.Thread(
            target=self._outlet, name=f"session-stage[{index}].outlet", daemon=True
        )

    def spawn(self, replica: int) -> None:
        """Start a worker coroutine (on the loop: ``call_soon_threadsafe`` it)."""
        if not self.ended:
            task = self.loop.create_task(self._work(replica))
            self.tasks.add(task)
            task.add_done_callback(self.tasks.discard)

    def _drain(self) -> None:
        """The wake: every item the input queue holds goes to the intake."""
        q, put = self.in_q, self.intake.put_nowait
        q.pending = False
        for _ in range(q.qsize()):  # the loop is this queue's only reader
            item = q._items.get_nowait()
            if item is _SENTINEL:
                self._end()
                return
            put(item)

    def _end(self) -> None:
        self.ended = True
        for task in self.tasks:
            task.cancel()
        done = asyncio.gather(*self.tasks, return_exceptions=True)
        done.add_done_callback(lambda _: self.jobs.put(None))

    def _outlet(self) -> None:
        """Blocking puts for workers that found the next queue full, then the end."""
        out_q, abort, call = self.out_q, self.session._abort, self.loop.call_soon_threadsafe
        while (job := self.jobs.get()) is not None:
            item, future = job
            out_q.put(item, abort)  # gives up on an abort: the item is dropped
            call(lambda f=future: f.cancelled() or f.set_result(None))  # cancelled: stage ended
        out_q.producer_done()

    async def _work(self, replica: int) -> None:
        session, stage, fn, intake = self.session, self.index, self.fn, self.intake
        give, put, jobs, loop = self.in_q.give, self.out_q.put, self.jobs, self.loop
        abort, origin, name = session._abort, session._opened_t0, f"asyncio-stage[{stage}].{replica}"
        reorder = SequenceReorderer() if self.ordered else None
        while True:
            got = await intake.get()
            give()
            if got is _RETIRE:
                return
            if abort.is_set():
                continue  # drain without processing
            ready = (got,) if reorder is None else [it for _, it in reorder.push(got[0], got)]
            for seq, value, trail in ready:
                t0 = time.perf_counter()
                try:
                    if isinstance(value, Batch):  # each item may suspend; one hop per batch
                        outs = [await fn(v) for v in value.items]
                        result = Batch(outs, value.base_seq, value.gbase, value.bseq)
                    else:
                        result = await fn(value)
                except asyncio.CancelledError:
                    raise  # the stage ended: not a stage failure
                except BaseException as err:  # noqa: BLE001 - reported upward
                    session._fail(stage, err)
                    break
                t1 = time.perf_counter()
                queued = intake.qsize() + (len(reorder) if reorder else 0)
                trail.append((stage, name, t1 - t0, None, queued, t1 - origin))
                if not put((seq, result, trail), _NOWAIT):
                    future = loop.create_future()
                    jobs.put(((seq, result, trail), future))
                    await future

