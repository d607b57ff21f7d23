"""Thread adapter: a native streaming session on the thread runtime.

Threads share the interpreter, so this backend suits I/O-bound stages and
GIL-releasing (numpy) kernels; pure-Python CPU-bound stages should use the
process backend instead.  A stage whose ``fn`` is a coroutine function is
served by worker coroutines on one warm event-loop thread, on the same
queues (:mod:`repro.runtime.coroutines`): ``"asyncio"`` names this fabric.

The session owns the whole thread fabric for its lifetime — one shared
queue and worker pool per stage, the output collector — and is the one
place the :mod:`repro.runtime.threads` building blocks (counted queues,
worker) are wired together.  A stage's workers put straight into the next
stage's queue; order is restored only in front of an ordered
(``replicable=False``) stage, by its single worker, and once at egress, by
the collector — so output order is guaranteed, *start* order only where a
stage declared it needs it.  The fabric is **open-ended**: the submit side
is the first queue's only producer and finishes only at ``close()``, so
the sentinel shutdown cascade never fires between streams and back-to-back
streams reuse the same warm worker threads.  Items travel under the
port's session-wide ``gseq``, as on every executor, so each
:class:`~repro.util.ordering.SequenceReorderer` runs on across stream
boundaries.

Live reconfiguration: growth spawns a worker into the running stage
(always possible — a session's stage never drains before close), shrink
retires one lazily via the ``_RETIRE`` pill.

Workers take no lock: each appends its hop to the item's trail.  The
collector takes a burst per wake — every item the last queue holds —
pushes it through the egress reorderer, records its trails with one
load-speed reading (one ``_record_trails``: one stage-lock round per
stage), then delivers the run it frees (one ``_complete_run``).
The fabric is not a lane of :mod:`repro.backend.routed`: as one,
``tiny_threads`` lost 27 % of its items/s ("Why two loops" in
``docs/backends.md``).
"""

from __future__ import annotations

import inspect
import threading
from typing import Any

from repro.backend.base import Backend, Session
from repro.core.pipeline import PipelineSpec
from repro.model.throughput import ResourceView, fn_view
from repro.monitor.resource_monitor import HostLoadSampler
from repro.runtime.threads import _RETIRE, _SENTINEL, _CountedQueue, _Worker
from repro.util.ordering import SequenceReorderer

__all__ = ["ThreadBackend"]


class _ThreadSession(Session):
    """Session-owned thread fabric (see module docstring)."""

    def __init__(self, backend: "ThreadBackend", **config) -> None:
        super().__init__(backend, **config)
        self.replicas = list(backend._target)
        self._mutate_lock = threading.Lock()
        self._threads: list[threading.Thread] = []

        # Wiring: queues[i] -> workers[i] -> queues[i+1]; queues[n] feeds the
        # collector.  The session's submit side is queues[0]'s single
        # producer, finishing only at close — the cascade stays armed
        # across streams.  Each is as deep as the window needs.  A
        # coroutine stage is one consumer and one producer of its queues.
        coro = backend._coroutine
        if any(coro):
            from repro.runtime import coroutines

            self._loop = backend._warm_loop()
        self._queues: list[_CountedQueue] = []
        depth, producers = self._lane_depth(), 1
        for i, consumers in enumerate((*self.replicas, 1)):
            if i < len(coro) and coro[i]:
                self._queues.append(coroutines.LoopQueue(depth, producers, self._loop))
                producers = 1
            else:
                self._queues.append(_CountedQueue(depth, producers=producers, consumers=consumers))
                producers = consumers
        self._coroutines = {i: coroutines.CoroutineStage(self, i) for i, c in enumerate(coro) if c}
        for stage in self._coroutines.values():
            self._start(stage.outlet)
        for i, count in enumerate(self.replicas):
            for r in range(count):
                self._add_worker(i, r)
        self._collector = threading.Thread(
            target=self._collect, name="session-collector", daemon=True
        )
        self._collector.start()

    # ---------------------------------------------------------------- fabric
    def _start(self, thread: threading.Thread) -> None:
        self._threads.append(thread)
        thread.start()

    def _add_worker(self, stage: int, replica: int) -> None:
        if stage in self._coroutines:
            self._loop.call_soon_threadsafe(self._coroutines[stage].spawn, replica)
            return
        spec = self.backend.pipeline.stage(stage)
        self._start(_Worker(
            stage, spec.fn, self._queues[stage], self._queues[stage + 1], self._fail, self._abort,
            self._opened_t0, name=f"session-stage[{stage}].{replica}", ordered=spec.ordered,
        ))

    def _collect(self) -> None:
        # The one egress reorderer: the last stage's workers finish out of
        # order, delivery is in input order.  It holds at most the admitted
        # items, so ``max_inflight`` bounds it.  A burst's trails are
        # recorded before the in-order run it frees is delivered.
        reorder, load, abort = SequenceReorderer(), self.backend._load, self._abort
        while True:
            burst = self._queues[-1].get_all()
            done = burst[-1] is _SENTINEL
            if done:
                burst.pop()
            if burst and not abort.is_set():
                ready = []
                for seq, value, _ in burst:
                    ready += reorder.push(seq, value)
                self._record_trails(burst, speed=load.effective_speed())
                if ready:
                    self._complete_run([value for _, value in ready])
            if done:
                return

    # ----------------------------------------------------------- port hooks
    def _submit_one(self, seq: int, item: Any) -> None:
        if not self._queues[0].put((seq, item, []), abort=self._abort):
            raise self._aborted()

    def _wake_lane(self) -> None:
        # One credit wakes the puts parked on a full queue: each finds the
        # abort and passes it on.  One more per consumer makes room for the
        # shutdown cascade's sentinels, so none of them takes that wake.
        for q in self._queues:
            for _ in range(q._consumers + 1):
                q.give()

    def _shutdown(self) -> None:
        self._queues[0].producer_done()
        while True:
            with self._mutate_lock:
                alive = [t for t in self._threads if t.is_alive()]
            if not alive:
                break
            for t in alive:
                t.join(timeout=0.5)
        self._collector.join(timeout=5.0)

    # -------------------------------------------------------------- reshaping
    def resize(self, stage: int, n_replicas: int) -> None:
        """Grow or shrink ``stage``'s warm worker pool, live."""
        with self._mutate_lock:
            if self.closed:
                return
            while self.replicas[stage] < n_replicas:
                if stage not in self._coroutines:
                    # Never drained before close: adding a producer is always legal.
                    self._queues[stage + 1].add_producer()
                    self._queues[stage].add_consumer()
                self._add_worker(stage, self.replicas[stage])
                self.replicas[stage] += 1
                self.events.emit("replica.add", stage=stage, n=self.replicas[stage])
            while self.replicas[stage] > n_replicas:
                self.replicas[stage] -= 1
                self._queues[stage].put(_RETIRE, abort=self._abort)
                self.events.emit(
                    "replica.remove", stage=stage, n=self.replicas[stage]
                )


class ThreadBackend(Backend):
    """Runs pipelines on a session-owned thread fabric.

    One instance is reusable: a session's warm workers serve back-to-back
    runs, and replica counts adapted during one stream carry over to the
    next (and to the next session, via the backend's target shape).
    ``capacity`` (default 8) bounds each stage queue unless a session's
    admission window is deeper and ``capacity`` was not given.
    """

    name = "threads"
    session_class = _ThreadSession

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
        # Hops are recorded at the sampled effective speed, so
        # work_estimate stays load-normalised — consistent with the
        # load-degraded speeds resource_view reports to the planner.
        self._load = HostLoadSampler()
        self._coroutine = [inspect.iscoroutinefunction(s.fn) for s in pipeline.stages]
        self._loop = self._loop_thread = None  # started by the first session that needs it

    def _warm_loop(self):
        """The event loop of the coroutine stages, warm across sessions."""
        if self._loop is None:
            import asyncio

            self._loop = asyncio.new_event_loop()
            self._loop_thread = threading.Thread(
                target=self._loop.run_forever, name="asyncio-loop", daemon=True
            )
            self._loop_thread.start()
        return self._loop

    def close(self) -> None:
        """Close the session, then stop the event loop if one was started."""
        super().close()  # session shutdown needs the loop
        loop, self._loop = self._loop, None
        if loop is not None:
            loop.call_soon_threadsafe(loop.stop)
            self._loop_thread.join(timeout=5.0)
            if not self._loop_thread.is_alive():
                loop.close()

    # ----------------------------------------------------------- observation
    def resource_view(self, n_procs: int) -> ResourceView:
        """Availability-aware local view: every slot shares this host.

        The host's load average degrades every virtual processor's
        effective speed alike, so the planner sees contended cores rather
        than assuming a dedicated machine; links are in-process queues
        (effectively free).
        """
        speed = self._load.effective_speed()
        return fn_view(
            eff=lambda pid: speed,
            link=lambda a, b: (1e-7, 1e9),
            pids=list(range(n_procs)),
        )

    # ----------------------------------------------------------------- shape
    def _resize(self, stage: int, n_replicas: int) -> None:
        if self._session is not None:
            self._session.resize(stage, n_replicas)  # a closed one declines
