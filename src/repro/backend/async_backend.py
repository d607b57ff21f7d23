"""Asyncio adapter: I/O-bound stages as coroutine pools on one event loop.

Threads and processes buy parallelism with OS-level concurrency; for
I/O-bound stages (network fetches, storage calls) the waiting itself is the
work, and an event loop multiplexes thousands of in-flight waits on a
single thread.  This adapter runs the full :class:`~repro.backend.base.Backend`
port — sessions included — on ``asyncio``:

* The **event loop lives in a dedicated thread**, started lazily and kept
  warm across sessions, so the port's synchronous
  ``submit``/``drain``/``snapshots``/``reconfigure`` contract is preserved
  and :class:`~repro.backend.runner.RuntimeAdaptiveRunner` drives the
  observe→decide→act loop from its own thread, unchanged.
* A **session is a resident coroutine graph** on that loop: per-stage
  dispatchers and the collector run for the session's lifetime, items
  enter through a credit-bounded ingress (``submit`` takes one of the
  lane depth's :class:`~repro.util.handoff.Credits`, a pump on the loop
  gives it back), and back-to-back streams flow through the same warm
  graph, session-global sequence numbers keeping one ordering space.
* Each stage is a **coroutine pool bounded by a resizable semaphore**: the
  stage's dispatcher admits items only while fewer than
  ``limit`` are in flight, so the semaphore limit *is* the stage's replica
  count.  ``reconfigure(stage, n)`` rewrites that limit in O(1) — growth
  admits more items immediately, shrink takes effect as in-flight items
  complete; nothing is drained or restarted.
* Stages may be declared as ``async def`` coroutines (awaited on the loop)
  or **plain callables**, which are offloaded via ``loop.run_in_executor``
  to a backend-owned thread pool so they cannot stall the loop.
* **Order restoration** is shared with the other executors through
  :class:`~repro.util.ordering.SequenceReorderer` and happens only where
  it is needed: the dispatcher of an ordered (``replicable=False``) stage
  starts items in input order, every other dispatcher admits them as they
  arrive, and the collector emits in input order — the ``Pipeline1for1``
  contract, replica races notwithstanding.
* **Abort-safe shutdown** mirrors the thread runtime: a failing stage
  goes to the port's ``_fail`` (a :class:`~repro.runtime.threads.StageError`
  naming it poisons the session and raises the abort flag), in-flight
  tasks are cancelled, queues drain via sentinels, and ``drain()``
  re-raises — no coroutine is left parked on a full queue.
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
from repro.util.batching import Batch, map_batch
from repro.util.handoff import Credits
from repro.util.ordering import SequenceReorderer

__all__ = ["AsyncioBackend"]

_SENTINEL = object()


class _ResizableSemaphore:
    """Concurrency limiter whose limit can change while waiters are parked.

    Unlike ``asyncio.Semaphore`` this tracks a mutable *limit* against an
    in-use count, so ``set_limit`` is O(1) and never needs to inject or
    swallow permits to resize.  Exactly one coroutine (the stage's
    dispatcher) ever awaits ``acquire``, which keeps the wake-up protocol a
    single event.  All methods must run on the owning event loop; ``limit``
    alone may be written from any thread when a loop-side ``set_limit``
    follows to wake the dispatcher.
    """

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.in_use = 0
        self._wake = asyncio.Event()

    async def acquire(self) -> None:
        while self.in_use >= self.limit:
            self._wake.clear()
            await self._wake.wait()
        self.in_use += 1

    def release(self) -> None:
        self.in_use -= 1
        self._wake.set()

    def set_limit(self, limit: int) -> None:
        self.limit = limit
        self._wake.set()


class _AsyncioSession(Session):
    """A resident coroutine graph on the backend's warm loop."""

    supports_batching = True

    def __init__(self, backend: "AsyncioBackend", **config) -> None:
        super().__init__(backend, **config)
        self._instrument()
        self._loop = backend._ensure_loop()
        self._sems: list[_ResizableSemaphore] | None = None
        self._queues: list[asyncio.Queue] | None = None
        # Submit-side ingress: a plain deque pumped onto the loop.  A
        # run_coroutine_threadsafe round trip per item would serialise a
        # blocking Future behind every submit — at E15-scale fan-out that
        # dwarfs the event loop's own per-item cost.  Instead submits take
        # one of the lane depth's credits (the fabric's C-level permit pool;
        # given back when the pump lands the item in stage 0's bounded
        # queue — that is the backpressure), append, and fire a cheap
        # one-way wake-up.
        self._ingress: deque = deque()
        self._credits = Credits(self._lane_depth())
        self._pump_wake: asyncio.Event | None = None
        self._ready = threading.Event()
        self._main_future = asyncio.run_coroutine_threadsafe(self._main(), self._loop)
        if not self._ready.wait(timeout=10.0):
            raise RuntimeError("asyncio session failed to start on the loop")

    # ---------------------------------------------------------- loop side
    async def _main(self) -> None:
        backend: AsyncioBackend = self.backend  # type: ignore[assignment]
        n = backend.pipeline.n_stages
        loop = asyncio.get_running_loop()
        abort = self._abort  # only ever polled here, never awaited
        self._sems = [_ResizableSemaphore(c) for c in backend._target]
        self._pump_wake = asyncio.Event()
        # queues[i] feeds stage i's dispatcher; queues[n] feeds the
        # collector.  Each has exactly one consumer and receives one
        # sentinel, put by its single upstream owner at session close.
        depth = self._lane_depth()
        queues = self._queues = [asyncio.Queue(maxsize=depth) for _ in range(n + 1)]
        self._ready.set()
        instrumentation = self.instrumentation

        async def pump() -> None:
            """Move submitted items from the ingress deque into stage 0."""
            wake = self._pump_wake
            try:
                while True:
                    while not self._ingress:
                        wake.clear()
                        await wake.wait()
                    msg = self._ingress.popleft()
                    if msg is _SENTINEL:
                        return
                    await queues[0].put(msg)  # bounded: the backpressure
                    self._credits.give()
            finally:
                await queues[0].put(_SENTINEL)

        async def run_one(
            i: int, seq: int, value: Any, out_q: asyncio.Queue, sem: _ResizableSemaphore
        ) -> None:
            spec = backend.pipeline.stage(i)
            batched = isinstance(value, Batch)
            try:
                t0 = time.perf_counter()
                try:
                    if backend._is_async[i]:
                        if batched:
                            # Async stages await per item (each may suspend),
                            # but the batch still pays one queue hop and one
                            # reorderer transaction per stage.
                            outs = [await spec.fn(v) for v in value.items]
                            result = Batch(
                                outs, value.base_seq, value.gbase, value.bseq
                            )
                        else:
                            result = await spec.fn(value)
                    elif batched:
                        # One executor offload for the whole batch — the
                        # event-loop handoff (the asyncio per-item tax E18
                        # exposed) is paid once per N items.
                        result = await loop.run_in_executor(
                            backend._executor, map_batch, spec.fn, value
                        )
                    else:
                        result = await loop.run_in_executor(
                            backend._executor, spec.fn, value
                        )
                except asyncio.CancelledError:
                    raise  # abort/close cancelled us: not a stage failure
                except BaseException as err:  # noqa: BLE001 - reported upward
                    self._fail(i, err)
                    return
                dt = time.perf_counter() - t0
                with self._stage_locks[i]:
                    # Records name items by gseq: a batch reports seq =
                    # its first item's, items = its length.
                    instrumentation.stages[i].record_service(
                        dt, 1.0,
                        seq=value.gbase if batched else seq,
                        items=len(value) if batched else 1,
                    )
                if not abort.is_set():
                    await out_q.put((seq, result))
            finally:
                sem.release()

        async def dispatch(i: int) -> None:
            """Admit stage ``i``'s items ``sems[i].limit`` at a time.

            In input order when the stage is ordered, as they arrive
            otherwise.
            """
            in_q, out_q, sem = queues[i], queues[i + 1], self._sems[i]
            metrics = instrumentation.stages[i]
            reorder = (
                SequenceReorderer() if backend.pipeline.stage(i).ordered else None
            )
            pending: set[asyncio.Task] = set()
            try:
                while True:
                    got = await in_q.get()
                    if got is _SENTINEL:
                        break
                    if abort.is_set():
                        continue  # drain without dispatching
                    with self._stage_locks[i]:
                        metrics.record_queue_length(
                            in_q.qsize() + (len(reorder) if reorder else 0)
                        )
                    for ready_seq, ready in (got,) if reorder is None else reorder.push(*got):
                        await sem.acquire()
                        if abort.is_set():
                            sem.release()
                            break
                        task = loop.create_task(
                            run_one(i, ready_seq, ready, out_q, sem)
                        )
                        pending.add(task)
                        task.add_done_callback(pending.discard)
                if abort.is_set():
                    for task in pending:
                        task.cancel()
                if pending:
                    await asyncio.gather(*list(pending), return_exceptions=True)
            finally:
                await out_q.put(_SENTINEL)

        async def collect() -> None:
            reorder = SequenceReorderer()
            while True:
                got = await queues[n].get()
                if got is _SENTINEL:
                    break
                if abort.is_set():
                    continue
                for _seq, ready in reorder.push(*got):
                    self._complete(ready)

        tasks = [loop.create_task(pump())]
        tasks += [loop.create_task(dispatch(i)) for i in range(n)]
        tasks.append(loop.create_task(collect()))
        # return_exceptions keeps the sentinel cascade intact: a failing
        # task's peers still run to completion (draining their queues),
        # so nothing is left parked; the failure surfaces via the session.
        results = await asyncio.gather(*tasks, return_exceptions=True)
        for r in results:
            if isinstance(r, BaseException) and not isinstance(
                r, asyncio.CancelledError
            ):
                self._deliver_error(r)

    # ----------------------------------------------------------- port hooks
    def _wake_pump(self) -> None:
        if self._pump_wake is not None:
            self._pump_wake.set()

    def _submit_one(self, seq: int, item: Any) -> None:
        if not self._credits.take(self._abort):
            raise self._aborted()
        self._ingress.append((seq, item))
        try:
            self._loop.call_soon_threadsafe(self._wake_pump)
        except RuntimeError as err:  # loop torn down under us
            raise SessionClosed("backend event loop is closed") from err
        if self.broken:
            raise self._error

    def _shutdown(self) -> None:
        loop = self._loop
        if loop.is_closed():  # backend already tore the loop down
            return
        self._ingress.append(_SENTINEL)
        try:
            loop.call_soon_threadsafe(self._wake_pump)
        except RuntimeError:
            return
        try:
            self._main_future.result(timeout=5.0)
        except BaseException:  # noqa: BLE001 - closing, not reporting
            pass

    # -------------------------------------------------------------- reshaping
    def resize(self, stage: int, n_replicas: int) -> None:
        """Rewrite ``stage``'s concurrency limit, live, in O(1)."""
        if self.closed or self._sems is None or self._loop.is_closed():
            return
        sem = self._sems[stage]
        before, sem.limit = sem.limit, n_replicas
        self._loop.call_soon_threadsafe(sem.set_limit, n_replicas)
        if n_replicas != before:
            kind = "replica.add" if n_replicas > before else "replica.remove"
            self.events.emit(kind, stage=stage, n=n_replicas)


class AsyncioBackend(Backend):
    """Executes pipelines as bounded coroutine pools on a warm event loop.

    Parameters
    ----------
    pipeline:
        Stage specs; every stage must define ``fn`` (``async def`` or a
        plain callable — plain callables run on an offload thread pool).
    replicas:
        Initial concurrency limit per stage (default 1 each);
        ``replicas[i] > 1`` requires ``pipeline.stage(i).replicable``.
    capacity:
        Bounded inter-stage queue capacity (back-pressure), default 8; if
        not given, a session's admission window deepens it (and the credits).
    max_replicas:
        Ceiling ``reconfigure`` can raise a replicable stage's limit to.

    One instance is reusable: the loop thread stays warm between sessions
    and adapted concurrency limits carry over to the next stream.
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
        """Growth admits more items the moment the dispatcher next checks the
        semaphore; shrink lowers the limit without cancelling in-flight
        items — the pool contracts as they complete."""
        if self._session is not None:
            self._session.resize(stage, n_replicas)


register_backend("asyncio", AsyncioBackend)
