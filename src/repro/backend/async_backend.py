"""Asyncio adapter: I/O-bound stages as coroutine pools on one event loop.

Threads and processes buy parallelism with OS-level concurrency; for
I/O-bound stages (network fetches, storage calls) the waiting itself is the
work, and an event loop multiplexes thousands of in-flight waits on a
single thread.  This adapter runs the full :class:`~repro.backend.base.Backend`
port — sessions included — on ``asyncio``, in the thread fabric's shape
(:mod:`repro.backend.thread_backend`) with coroutines for threads:

* The **event loop lives in a dedicated thread**, started lazily and kept
  warm across sessions, so the port's synchronous
  ``submit``/``drain``/``snapshots``/``reconfigure`` contract is preserved
  and :class:`~repro.backend.runner.RuntimeAdaptiveRunner` drives the
  observe→decide→act loop from its own thread, unchanged.
* Items enter through a **credit-bounded ingress**: ``submit`` takes one
  of the lane depth's :class:`~repro.util.handoff.Credits`, and a pump on
  the loop gives it back once the item is in stage 0's bounded queue.
  Back-to-back streams flow through the same warm coroutines,
  session-global sequence numbers keeping one ordering space.
* Each stage is ``replicas[i]`` **worker coroutines** on one bounded
  ``asyncio.Queue``.  A worker takes ``(seq, value, trail)``, applies the
  stage, appends its hop ``(stage, worker, service_s, None, queued, at)``
  to the trail and puts the item on — no lock, no record.  The single
  worker of an ordered (``replicable=False``) stage re-sequences with a
  private :class:`~repro.util.ordering.SequenceReorderer`, so it *starts*
  items in input order.  ``reconfigure(stage, n)`` spawns a worker per
  added replica and puts one ``_RETIRE`` pill per removed one, which the
  next free worker takes: nothing is drained or restarted.
* Stages may be declared as ``async def`` coroutines (awaited on the loop)
  or **plain callables**, which are offloaded via ``loop.run_in_executor``
  to a backend-owned thread pool so they cannot stall the loop.
* The **collector** takes a burst per wake — one ``get``, then everything
  the last queue holds — and hands it to the port's ``_collect_burst``,
  the thread collector's egress step too: egress reorder, trails recorded,
  the in-order run delivered.
* A failing stage goes to the port's ``_fail`` (a
  :class:`~repro.runtime.threads.StageError` naming it poisons the session
  and raises the abort flag), after which the workers drop what they take.
  ``close()`` sets the session's stop event, then cancels and gathers every
  task the session started — pump, workers, collector and retire puts — so
  no coroutine is left parked on a full queue.
"""

from __future__ import annotations

import asyncio
import inspect
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Any

from repro.backend.base import Backend, Session, SessionClosed, register_backend
from repro.core.pipeline import PipelineSpec
from repro.runtime.threads import _RETIRE
from repro.util.batching import Batch, map_batch
from repro.util.handoff import Credits
from repro.util.ordering import SequenceReorderer

__all__ = ["AsyncioBackend"]


class _AsyncioSession(Session):
    """Worker coroutines on the backend's warm loop (see module docstring)."""

    supports_batching = True

    def __init__(self, backend: "AsyncioBackend", **config) -> None:
        super().__init__(backend, **config)
        self.replicas = list(backend._target)
        self._instrument()
        self._mutate_lock = threading.Lock()
        self._loop = backend._ensure_loop()
        # queues[i] feeds stage i's workers, queues[n] the collector; each is
        # as deep as the window needs.  Queues and events bind to the loop
        # on first use, so they are built here.
        depth = self._lane_depth()
        self._queues = [asyncio.Queue(depth) for _ in range(backend.pipeline.n_stages + 1)]
        # Submit-side ingress: a plain deque pumped onto the loop.  A
        # run_coroutine_threadsafe round trip per item would serialise a
        # blocking Future behind every submit — at E15-scale fan-out that
        # dwarfs the event loop's own per-item cost.  Instead submits take
        # one of the lane depth's credits (the fabric's C-level permit pool;
        # given back when the pump lands the item in stage 0's bounded
        # queue — that is the backpressure), append, and fire a cheap
        # one-way wake-up.
        self._ingress: deque = deque()
        self._credits = Credits(depth)
        self._pump_wake = asyncio.Event()
        self._stop = asyncio.Event()
        self._tasks: set[asyncio.Task] = set()  # every live task of this session
        self._main_future = asyncio.run_coroutine_threadsafe(
            self._main(list(self.replicas)), self._loop
        )

    # ---------------------------------------------------------- loop side
    async def _main(self, replicas: list[int]) -> None:
        """Start pump, workers and collector; at the stop, cancel and gather all."""
        self._spawn(self._pump())
        for i, count in enumerate(replicas):
            for r in range(count):
                self._spawn(self._work(i, r))
        self._spawn(self._collect())
        await self._stop.wait()
        tasks = list(self._tasks)
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)

    def _spawn(self, coro) -> None:
        """Run ``coro`` as one of the session's tasks, unless it is stopping."""
        if self._stop.is_set():
            coro.close()
            return
        task = self._loop.create_task(coro)
        self._tasks.add(task)
        task.add_done_callback(self._reap)

    def _reap(self, task: asyncio.Task) -> None:
        """Forget a finished task; one that raised poisons the session."""
        self._tasks.discard(task)
        if not task.cancelled() and task.exception() is not None:
            self._deliver_error(task.exception())

    async def _pump(self) -> None:
        """Move submitted items from the ingress deque into stage 0."""
        ingress, wake, credits = self._ingress, self._pump_wake, self._credits
        put = self._queues[0].put
        while True:
            while not ingress:
                wake.clear()
                await wake.wait()
            await put(ingress.popleft())  # bounded: the backpressure
            credits.give()

    async def _work(self, stage: int, replica: int) -> None:
        """One worker of ``stage``: take an item, apply, append the hop, put it on."""
        backend: AsyncioBackend = self.backend  # type: ignore[assignment]
        spec, is_async = backend.pipeline.stage(stage), backend._is_async[stage]
        fn, loop, pool = spec.fn, asyncio.get_running_loop(), backend._executor
        in_q, put = self._queues[stage], self._queues[stage + 1].put
        abort, origin = self._abort, self._opened_t0
        reorder = SequenceReorderer() if spec.ordered else None
        name = f"asyncio-stage[{stage}].{replica}"
        while True:
            got = await in_q.get()
            if got is _RETIRE:
                return
            if abort.is_set():
                continue  # drain without processing
            ready = (got,) if reorder is None else [it for _, it in reorder.push(got[0], got)]
            for seq, value, trail in ready:
                t0 = time.perf_counter()
                try:
                    if is_async and isinstance(value, Batch):
                        # Each item may suspend, but the batch still pays
                        # one queue hop and one trail entry per stage.
                        outs = [await fn(v) for v in value.items]
                        result = Batch(outs, value.base_seq, value.gbase, value.bseq)
                    elif is_async:
                        result = await fn(value)
                    elif isinstance(value, Batch):
                        # One executor offload for the whole batch: the
                        # event-loop handoff is paid once per N items.
                        result = await loop.run_in_executor(pool, map_batch, fn, value)
                    else:
                        result = await loop.run_in_executor(pool, fn, value)
                except asyncio.CancelledError:
                    raise  # close cancelled us: not a stage failure
                except BaseException as err:  # noqa: BLE001 - reported upward
                    self._fail(stage, err)
                    break
                t1 = time.perf_counter()
                # Backlog = the shared queue plus early arrivals held in
                # this worker's reorderer.
                queued = in_q.qsize() + (len(reorder) if reorder else 0)
                trail.append((stage, name, t1 - t0, None, queued, t1 - origin))
                await put((seq, result, trail))

    async def _collect(self) -> None:
        """Egress: a burst per wake, one ``get`` then all the queue holds."""
        out_q, reorder, abort = self._queues[-1], SequenceReorderer(), self._abort
        while True:
            burst = [await out_q.get()]
            burst += [out_q.get_nowait() for _ in range(out_q.qsize())]
            if not abort.is_set():
                self._collect_burst(burst, reorder, 1.0)

    # ----------------------------------------------------------- port hooks
    def _submit_one(self, seq: int, item: Any) -> None:
        if not self._credits.take(self._abort):
            raise self._aborted()
        self._ingress.append((seq, item, []))
        try:
            self._loop.call_soon_threadsafe(self._pump_wake.set)
        except RuntimeError as err:  # loop torn down under us
            raise SessionClosed("backend event loop is closed") from err
        if self.broken:
            raise self._error

    def _shutdown(self) -> None:
        try:
            with self._mutate_lock:  # a resize lands before the stop or sees closed
                self._loop.call_soon_threadsafe(self._stop.set)
            self._main_future.result(timeout=5.0)
        except BaseException:  # noqa: BLE001 - closing, not reporting
            pass

    # -------------------------------------------------------------- reshaping
    def resize(self, stage: int, n_replicas: int) -> None:
        """Spawn or retire ``stage``'s worker coroutines, live, one per replica."""
        with self._mutate_lock:
            if self.closed:
                return
            call = self._loop.call_soon_threadsafe
            while self.replicas[stage] < n_replicas:
                call(self._spawn, self._work(stage, self.replicas[stage]))
                self.replicas[stage] += 1
                self.events.emit("replica.add", stage=stage, n=self.replicas[stage])
            while self.replicas[stage] > n_replicas:
                call(self._spawn, self._queues[stage].put(_RETIRE))
                self.replicas[stage] -= 1
                self.events.emit("replica.remove", stage=stage, n=self.replicas[stage])


class AsyncioBackend(Backend):
    """Executes pipelines as bounded coroutine pools on a warm event loop.

    Parameters
    ----------
    pipeline:
        Stage specs; every stage must define ``fn`` (``async def`` or a
        plain callable — plain callables run on an offload thread pool).
    replicas:
        Initial worker coroutines per stage (default 1 each);
        ``replicas[i] > 1`` requires ``pipeline.stage(i).replicable``.
    capacity:
        Bounded inter-stage queue capacity (back-pressure), default 8; if
        not given, a session's admission window deepens it (and the credits).
    max_replicas:
        Ceiling ``reconfigure`` can raise a replicable stage's workers to.

    One instance is reusable: the loop thread stays warm between sessions
    and adapted replica counts carry over to the next stream.
    """

    name = "asyncio"
    supports_live_reconfigure = True
    session_class = _AsyncioSession

    def __init__(
        self,
        pipeline: PipelineSpec,
        *,
        replicas: list[int] | None = None,
        capacity: int | None = None,
        max_replicas: int = 8,
    ) -> None:
        super().__init__(
            pipeline, replicas=replicas, capacity=capacity, max_replicas=max_replicas
        )
        self._is_async = [
            inspect.iscoroutinefunction(spec.fn) for spec in pipeline.stages
        ]
        # Warm resources (created lazily, persist across sessions).
        self._loop: asyncio.AbstractEventLoop | None = None
        self._loop_thread: threading.Thread | None = None
        self._executor: ThreadPoolExecutor | None = None

    # --------------------------------------------------------------- warm-up
    def _ensure_loop(self) -> asyncio.AbstractEventLoop:
        """Start the dedicated loop thread (idempotent, warm across runs)."""
        if self._loop is None:
            self._loop = asyncio.new_event_loop()
            self._loop_thread = threading.Thread(
                target=self._loop.run_forever, name="asyncio-backend", daemon=True
            )
            self._loop_thread.start()
        if self._executor is None and not all(self._is_async):
            # Sized so every sync stage can run at its ceiling concurrently;
            # ThreadPoolExecutor spawns threads on demand, so an unused
            # ceiling costs nothing.
            workers = sum(
                self.replica_limit(i)
                for i, is_async in enumerate(self._is_async)
                if not is_async
            )
            self._executor = ThreadPoolExecutor(
                max_workers=max(workers, 1), thread_name_prefix="asyncio-offload"
            )
        return self._loop

    # ------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Abort any in-flight session and stop the loop thread (idempotent)."""
        if self._closed:
            return
        self._closed = True
        super().close()  # session shutdown needs the loop: close it first
        loop = self._loop
        if loop is not None:
            loop.call_soon_threadsafe(loop.stop)
            assert self._loop_thread is not None
            self._loop_thread.join(timeout=5.0)
            if not self._loop_thread.is_alive():
                loop.close()
            self._loop = None
            self._loop_thread = None
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    # ----------------------------------------------------------------- shape
    def _resize(self, stage: int, n_replicas: int) -> None:
        if self._session is not None:
            self._session.resize(stage, n_replicas)  # a closed one declines


register_backend("asyncio", AsyncioBackend)
