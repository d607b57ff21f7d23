"""Thread adapter: a native streaming session on the thread runtime.

Threads share the interpreter, so this backend suits I/O-bound stages and
GIL-releasing (numpy) kernels; pure-Python CPU-bound stages should use the
process backend instead.

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
streams reuse the same warm worker threads.  Sequence numbers are
session-global (``gseq``), which lets every
:class:`~repro.util.ordering.SequenceReorderer` keep one ordering space
across stream boundaries.

Live reconfiguration: growth spawns a worker into the running stage
(always possible — a session's stage never drains before close), shrink
retires one lazily via the ``_RETIRE`` pill.

This fabric deliberately does not ride the routed-stage core the process
and distributed executors share (:mod:`repro.backend.routed`): workers
here share one queue per stage and stop by sentinel cascade, which that
core would have to special-case.
"""

from __future__ import annotations

import threading
from typing import Any

from repro.backend.base import (
    Backend,
    Session,
    register_backend,
    validate_pipeline_shape,
)
from repro.core.pipeline import PipelineSpec
from repro.model.throughput import ResourceView, fn_view
from repro.monitor.instrument import PipelineInstrumentation
from repro.monitor.resource_monitor import HostLoadSampler
from repro.runtime.threads import (
    _RETIRE,
    _SENTINEL,
    _CountedQueue,
    _Worker,
)
from repro.util.batching import Batch
from repro.util.ordering import SequenceReorderer
from repro.util.validation import check_positive

__all__ = ["ThreadBackend"]


class _ThreadSession(Session):
    """Session-owned thread fabric (see module docstring)."""

    supports_batching = True

    def __init__(
        self,
        backend: "ThreadBackend",
        *,
        max_inflight: "int | str | None" = None,
        telemetry=None,
        batching=None,
    ) -> None:
        super().__init__(
            backend,
            max_inflight=max_inflight,
            telemetry=telemetry,
            batching=batching,
        )
        pipeline = backend.pipeline
        n = pipeline.n_stages
        self.replicas = list(backend._target)
        self.capacity = backend.capacity
        self.instrumentation = PipelineInstrumentation(n, events=self.events)
        self._locks = [threading.Lock() for _ in range(n)]
        self._snapshot_locks = self._locks
        self._abort = threading.Event()
        self._errors: list[BaseException] = []
        self._mutate_lock = threading.Lock()
        self._threads: list[threading.Thread] = []

        # Wiring: queues[i] -> workers[i] -> queues[i+1]; queues[n] feeds the
        # collector.  The session's submit side is queues[0]'s single
        # producer, finishing only at close — the cascade stays armed
        # across streams.
        self._queues: list[_CountedQueue] = []
        producers = 1
        for consumers in (*self.replicas, 1):
            self._queues.append(
                _CountedQueue(self.capacity, producers=producers, consumers=consumers)
            )
            producers = consumers
        for i in range(n):
            for r in range(self.replicas[i]):
                self._threads.append(self._make_worker(i, r))
        self._collector = threading.Thread(
            target=self._collect, name="session-collector", daemon=True
        )
        self._watcher = threading.Thread(
            target=self._watch_abort, name="session-abort-watch", daemon=True
        )
        for t in self._threads:
            t.start()
        self._collector.start()
        self._watcher.start()

    # ---------------------------------------------------------------- fabric
    def _make_worker(self, stage: int, replica_idx: int) -> _Worker:
        spec = self.backend.pipeline.stage(stage)
        return _Worker(
            stage,
            spec.name,
            spec.fn,
            self._queues[stage],
            self._queues[stage + 1],
            self.instrumentation.stages[stage],
            self._locks[stage],
            self._errors,
            self._abort,
            name=f"session-stage[{stage}].{replica_idx}",
            speed_fn=self.backend._load.effective_speed,
            ordered=spec.ordered,
        )

    def _collect(self) -> None:
        # The one egress reorderer: the last stage's workers finish out of
        # order, delivery is in input order.  It holds at most the admitted
        # items, so ``max_inflight`` bounds it.
        reorder = SequenceReorderer()
        while True:
            got = self._queues[-1].get()
            if got is _SENTINEL:
                break
            if self._abort.is_set():
                continue  # drain without delivering
            for _seq, value in reorder.push(*got):
                self.instrumentation.record_completion(
                    self.now(), items=len(value) if isinstance(value, Batch) else 1
                )
                self._deliver(value)

    def _watch_abort(self) -> None:
        # Workers record a StageError and set the abort flag; the session
        # must learn of it so submit/results/drain raise instead of hanging
        # on items the draining threads dropped.
        self._abort.wait()
        if self._errors:
            self._deliver_error(self._errors[0])

    # ----------------------------------------------------------- port hooks
    def _submit_one(self, stream: int, seq: int, gseq: int, item: Any) -> None:
        if not self._queues[0].put((gseq, item), abort=self._abort):
            raise (
                self._errors[0]
                if self._errors
                else RuntimeError("session aborted while submitting")
            )

    def _shutdown(self) -> None:
        if self.broken or self._submitted > self._delivered:
            self._abort.set()  # drop in-flight items instead of finishing them
        self._queues[0].producer_done()
        while True:
            with self._mutate_lock:
                alive = [t for t in self._threads if t.is_alive()]
            if not alive:
                break
            for t in alive:
                t.join(timeout=0.5)
        self._collector.join(timeout=5.0)
        self._abort.set()  # release the watcher on a clean close
        self._watcher.join(timeout=1.0)

    # -------------------------------------------------------------- reshaping
    def reconfigure(self, stage: int, n_replicas: int) -> None:
        """Grow or shrink ``stage``'s warm worker pool, live."""
        with self._mutate_lock:
            if self.closed:
                return
            while self.replicas[stage] < n_replicas:
                # Never drained before close: adding a producer is always legal.
                self._queues[stage + 1].add_producer()
                self._queues[stage].add_consumer()
                worker = self._make_worker(stage, self.replicas[stage])
                self.replicas[stage] += 1
                self._threads.append(worker)
                worker.start()
                self.events.emit("replica.add", stage=stage, n=self.replicas[stage])
            while self.replicas[stage] > max(n_replicas, 1):
                self.replicas[stage] -= 1
                self._queues[stage].put(_RETIRE, abort=self._abort)
                self.events.emit(
                    "replica.remove", stage=stage, n=self.replicas[stage]
                )


class ThreadBackend(Backend):
    """Runs pipelines on a session-owned thread fabric.

    One instance is reusable: a session's warm worker threads serve
    back-to-back runs, and replica counts adapted during one stream carry
    over to the next (and to the next session, via the backend's target
    shape).
    """

    name = "threads"
    supports_live_reconfigure = True

    def __init__(
        self,
        pipeline: PipelineSpec,
        *,
        replicas: list[int] | None = None,
        capacity: int | None = None,
        max_replicas: int = 8,
    ) -> None:
        super().__init__(pipeline)
        check_positive(max_replicas, "max_replicas")
        self._target = validate_pipeline_shape(pipeline, replicas, "thread runtime")
        self.capacity = 8 if capacity is None else capacity
        check_positive(self.capacity, "capacity")
        # Workers record service at the sampled effective speed, so
        # work_estimate stays load-normalised — consistent with the
        # load-degraded speeds resource_view reports to the planner.
        self._load = HostLoadSampler()
        self.max_replicas = max(max_replicas, *self._target)

    # ------------------------------------------------------------- sessions
    def _open_session(
        self,
        *,
        max_inflight: "int | str | None" = None,
        telemetry=None,
        batching=None,
    ) -> Session:
        return _ThreadSession(
            self,
            max_inflight=max_inflight,
            telemetry=telemetry,
            batching=batching,
        )

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
    def replica_counts(self) -> list[int]:
        session = self._session
        if isinstance(session, _ThreadSession) and not session.closed:
            return list(session.replicas)
        return list(self._target)

    def reconfigure(self, stage: int, n_replicas: int) -> None:
        if n_replicas < 1:
            raise ValueError(f"n_replicas must be >= 1, got {n_replicas}")
        n_replicas = min(n_replicas, self.replica_limit(stage))
        self._target[stage] = n_replicas
        session = self._session
        if isinstance(session, _ThreadSession) and not session.closed:
            session.reconfigure(stage, n_replicas)


register_backend("threads", ThreadBackend)
