"""Warm process-pool backend: true multi-core execution of pipelines.

Each stage owns a pool of **pre-forked worker processes** (the ModelOps
warm-pool idea: pay process start-up once, before the first item, and keep
workers resident between streams).  Only ``replicas[i]`` of a stage's pool
are *active*; ``reconfigure(stage, n)`` activates or deactivates warm
workers instantly — no fork on the adaptation path.

Topology (per stage ``i``)::

                      taskq (per worker, bounded)
    feeder ───────┬──> worker i.0 ──┐
    (session)     ├──> worker i.1 ──┼──> resq[i] ──> router[i] ──> ...
                  └──> worker i.R ──┘   (shared)     (session)

* The **pools belong to the backend** and survive across sessions and
  streams; the **feeder and router threads belong to the session** — they
  are the routed-stage core shared with the distributed backend
  (:mod:`repro.backend.routed`), which also owns the reorderers, their
  per-stream rebase, abort handling, metrics and the egress branch.  This
  module supplies only the lane: put a frame on a worker's task queue,
  get a result (or notice a dead worker), account it.
* Workers are OS processes running :func:`_worker_main`; items and results
  cross process boundaries as :class:`~repro.transport.Frame` objects
  produced by the backend's **transport codec** (``transport=``): inline
  pickle streams by default, shared-memory descriptors for large payloads
  under ``"auto"``/``"shm"``.  ``"auto"``'s placement threshold is
  **calibrated at warm-up** from a quick encode/decode probe
  (:func:`repro.transport.calibrated_auto_threshold`) instead of trusting
  the static default — E17 showed the crossover varies by host.  Frames
  hand their slots back per item (task frames in the worker that consumed
  them, result frames in the router); ``close()`` unlinks every pool.
* **Routers** collect a stage's results and dispatch them to the
  *least-loaded active* worker of the next stage — as they arrive when
  that stage is stateless, in sequence order when it is ordered
  (``replicable=False``; the feeder does the same for stage 0) — and the
  final router delivers in input order: the ``Pipeline1for1`` contract
  holds across processes exactly as it does in the thread runtime.
* Bounded per-worker task queues, a bounded result queue and the session's
  bounded admission window give end-to-end back-pressure.

The default start method is ``fork`` where available (warm semantics, and
closures/lambdas need no pickling); pass ``start_method="spawn"`` with
importable module-level stage functions on platforms without fork.
"""

from __future__ import annotations

import multiprocessing as mp
import pickle
import queue as thread_queue
import threading
import time

from repro import transport as _transport
from repro.backend.base import (
    Backend,
    Session,
    register_backend,
    validate_pipeline_shape,
)
from repro.backend.routed import Hop, RoutedSession
from repro.core.pipeline import PipelineSpec
from repro.transport import Codec, Frame
from repro.util.batching import Batch, map_batch
from repro.util.validation import check_positive

__all__ = ["ProcessPoolBackend"]

_STOP = None  # poison pill: worker exits (sent only by close())


def _worker_main(stage_index: int, worker_id: int, fn, taskq, resq, codec_spec) -> None:
    """Worker process body: apply ``fn`` to (seq, frame) tasks forever."""
    codec = _transport.from_spec(codec_spec)
    while True:
        msg = taskq.get()
        if msg is _STOP:
            break
        seq, frame = msg
        try:
            value = codec.decode(frame)
        except Exception as err:
            codec.release(frame)  # the parent aborts; nothing retries this frame
            resq.put(("err", seq, worker_id, None, f"undecodable item: {err!r}"))
            continue
        # Sole consumer, and the process backend never re-dispatches (a
        # worker death aborts the stream): the task frame's slots go back to
        # the parent's pool once the value is copied out — per item.
        codec.release(frame)
        t0 = time.perf_counter()
        try:
            # A micro-batch decoded from one frame maps element-wise here
            # and re-encodes as one frame: the whole run of items pays a
            # single queue round trip and a single pickle stream each way.
            result = map_batch(fn, value) if isinstance(value, Batch) else fn(value)
        except BaseException as err:  # noqa: BLE001 - shipped to the parent
            try:
                err_payload = pickle.dumps(err)
            except Exception:
                err_payload = None
            resq.put(("err", seq, worker_id, err_payload, repr(err)))
            continue  # stay warm; the parent aborts the stream
        dt = time.perf_counter() - t0
        try:
            out_frame = codec.encode(result)
        except Exception as err:
            resq.put(("err", seq, worker_id, None, f"unencodable result: {err!r}"))
            continue
        resq.put(("ok", seq, worker_id, out_frame, dt))


class _WorkerHandle:
    """Parent-side view of one worker process."""

    def __init__(self, proc, taskq, active: bool) -> None:
        self.proc = proc
        self.taskq = taskq
        self.active = active
        self.inflight = 0  # dispatched, result not yet seen


class _StagePool:
    """One stage's warm worker pool plus its shared result queue."""

    def __init__(self, resq, lock: threading.Lock) -> None:
        self.resq = resq
        self.lock = lock
        self.workers: list[_WorkerHandle] = []

    def active_count(self) -> int:
        with self.lock:
            return sum(1 for w in self.workers if w.active)

    def queued(self) -> int:
        with self.lock:
            return sum(w.inflight for w in self.workers)

    def pick(self) -> _WorkerHandle:
        """Least-loaded active worker (claims one in-flight slot)."""
        with self.lock:
            active = [w for w in self.workers if w.active]
            best = min(active, key=lambda w: w.inflight)
            best.inflight += 1
            return best

    def note_done(self, worker_id: int) -> None:
        with self.lock:
            self.workers[worker_id].inflight -= 1

    def dead_workers(self) -> list[tuple[int, int | None]]:
        """(worker_id, exitcode) of workers that died (none should, mid-run)."""
        with self.lock:
            return [
                (wid, w.proc.exitcode)
                for wid, w in enumerate(self.workers)
                if not w.proc.is_alive()
            ]


class _ProcessSession(RoutedSession):
    """The ``mp.Queue`` lane of the routed-stage core over the warm pools."""

    def _attach(self) -> None:
        self.backend.warm()

    def _shutdown(self) -> None:
        super()._shutdown()
        if self._abort.is_set():
            # An aborted stream leaves worker queues in an unknown state: go
            # cold so the next session re-forks clean pools.
            self.backend._shutdown_pools(graceful=False)

    # ------------------------------------------------------------ lane hooks
    def _forward(self, stage: int, seq: int, frame: Frame) -> bool:
        """Send one encoded item to the least-loaded active worker of ``stage``."""
        pool = self.backend._pools[stage]
        handle = pool.pick()
        while True:
            try:
                handle.taskq.put((seq, frame), timeout=0.05)
                return True
            except thread_queue.Full:
                if self._abort.is_set():
                    with pool.lock:
                        handle.inflight -= 1
                    return False

    def _poll(self, stage: int) -> "tuple | None":
        pool = self.backend._pools[stage]
        try:
            return pool.resq.get(timeout=0.1)
        except thread_queue.Empty:
            pass
        # No worker should die mid-stream (close() is the only sender of
        # stop pills); a dead one with items in flight means those items are
        # lost and the drain barrier would never clear — fail, don't hang.
        # Idle pools are left in peace between streams.
        dead = pool.dead_workers() if pool.queued() else []
        if dead and not self._stopping.is_set():
            wid, code = dead[0]
            self.events.emit(
                "worker.death",
                f"stage {stage} worker {wid} exited",
                worker=wid,
                stage=stage,
                exitcode=code,
            )
            raise RuntimeError(
                f"worker {wid} died mid-run (exitcode {code}); "
                "its in-flight items are lost"
            )
        return None

    def _accept(self, stage: int, msg: tuple) -> Hop:
        kind, seq, worker_id, payload, extra = msg
        pool = self.backend._pools[stage]
        pool.note_done(worker_id)
        if kind == "err":
            original: BaseException = RuntimeError(extra)
            if payload is not None:
                try:
                    original = pickle.loads(payload)
                except Exception:  # noqa: BLE001 - keep the repr-only stand-in
                    pass
            raise original
        return Hop(seq, payload, extra, 1.0, worker_id, pool.queued())


class ProcessPoolBackend(Backend):
    """Executes pipelines on warm, pre-forked per-stage process pools.

    Parameters
    ----------
    pipeline:
        Stage specs; every stage must define ``fn``.
    replicas:
        Initially *active* workers per stage (default 1 each).
    max_replicas:
        Warm-pool size per replicable stage — the ceiling ``reconfigure``
        can activate without forking mid-run.
    capacity:
        Per-worker task-queue bound (back-pressure granularity).
    start_method:
        ``multiprocessing`` start method; default ``fork`` when available.
    transport:
        Payload codec moving items between processes: a registered name
        (``"auto"``/``"pickle"``/``"shm"``, see :mod:`repro.transport`) or
        a configured :class:`~repro.transport.Codec` instance.  The
        default ``"auto"`` keeps small items inline and routes large
        numpy/bytes payloads through shared-memory segments, with the
        placement threshold calibrated at warm-up.
    calibrate_transport:
        Probe the host's inline-vs-segment crossover at warm-up and use it
        as ``"auto"``'s threshold (default True; only affects ``"auto"``).
    """

    name = "processes"
    supports_live_reconfigure = True

    def __init__(
        self,
        pipeline: PipelineSpec,
        *,
        replicas: list[int] | None = None,
        max_replicas: int = 4,
        capacity: int | None = None,
        start_method: str | None = None,
        transport: str | Codec = "auto",
        calibrate_transport: bool = True,
    ) -> None:
        super().__init__(pipeline)
        capacity = 8 if capacity is None else capacity
        check_positive(capacity, "capacity")
        check_positive(max_replicas, "max_replicas")
        replica_list = validate_pipeline_shape(pipeline, replicas, "process runtime")
        if start_method is None:
            methods = mp.get_all_start_methods()
            start_method = "fork" if "fork" in methods else methods[0]
        self._ctx = mp.get_context(start_method)
        self._codec = _transport.get(transport)
        self._calibrate_transport = calibrate_transport
        self.capacity = capacity
        # A warm pool must at least cover the requested starting shape.
        self.max_replicas = max(max_replicas, *replica_list)
        self._target = [
            min(r, self.replica_limit(i)) for i, r in enumerate(replica_list)
        ]
        self._pools: list[_StagePool] | None = None
        self._warm = False
        self._closed = False

    # --------------------------------------------------------------- warm-up
    def replica_limit(self, stage: int) -> int:
        return self.max_replicas if self.pipeline.stage(stage).replicable else 1

    def warm(self) -> None:
        """Pre-fork every stage's worker pool (idempotent)."""
        if self._closed:
            raise RuntimeError("backend is closed")
        if self._warm:
            return
        if self._calibrate_transport and self._codec.name == "auto":
            fitted = _transport.calibrated_auto_threshold()
            if fitted is not None:
                self._codec.threshold = fitted
        pools = []
        for i in range(self.pipeline.n_stages):
            pool_size = self.replica_limit(i)
            resq = self._ctx.Queue(maxsize=self.capacity * pool_size)
            pool = _StagePool(resq, threading.Lock())
            fn = self.pipeline.stage(i).fn
            codec_spec = _transport.spec_of(self._codec)
            for wid in range(pool_size):
                taskq = self._ctx.Queue(maxsize=self.capacity)
                proc = self._ctx.Process(
                    target=_worker_main,
                    args=(i, wid, fn, taskq, resq, codec_spec),
                    name=f"{self.pipeline.stage(i).name}.{wid}",
                    daemon=True,
                )
                proc.start()
                pool.workers.append(_WorkerHandle(proc, taskq, active=wid < self._target[i]))
            pools.append(pool)
        self._pools = pools
        self._warm = True

    # ------------------------------------------------------------- sessions
    def _open_session(
        self,
        *,
        max_inflight: "int | str | None" = None,
        telemetry=None,
        batching=None,
    ) -> Session:
        return _ProcessSession(
            self,
            max_inflight=max_inflight,
            telemetry=telemetry,
            batching=batching,
        )

    def _shutdown_pools(self, *, graceful: bool) -> None:
        if self._pools is None:
            return
        for pool in self._pools:
            for w in pool.workers:
                if graceful:
                    try:
                        w.taskq.put(_STOP, timeout=0.5)
                    except thread_queue.Full:
                        pass
                w.taskq.close()
        for pool in self._pools:
            for w in pool.workers:
                w.proc.join(timeout=1.0 if graceful else 0.1)
                if w.proc.is_alive():
                    w.proc.terminate()
                    w.proc.join(timeout=1.0)
            pool.resq.close()
        self._pools = None
        self._warm = False
        # Every producer and consumer of the session is stopped: unlink the
        # pools' slots — free ones, and frames an abort stranded in queues.
        self._codec.sweep()

    def close(self) -> None:
        """Stop every warm worker and release the pools (idempotent)."""
        if self._closed:
            return
        self._closed = True
        super().close()  # closes the session (a broken one goes cold itself)
        self._shutdown_pools(graceful=True)

    # ----------------------------------------------------------------- shape
    def replica_counts(self) -> list[int]:
        if self._pools is None:
            return list(self._target)
        return [p.active_count() for p in self._pools]

    def reconfigure(self, stage: int, n_replicas: int) -> None:
        """Activate/deactivate warm workers of ``stage`` to ``n_replicas``.

        Counts are clamped to ``[1, replica_limit(stage)]`` (so a stateful
        stage clamps to 1, matching the port contract and the thread
        adapter) — growth never forks mid-run; deactivated workers finish
        what they were dealt and then idle, warm, until reactivated or
        closed.
        """
        if n_replicas < 1:
            raise ValueError(f"n_replicas must be >= 1, got {n_replicas}")
        n_replicas = min(n_replicas, self.replica_limit(stage))
        self._target[stage] = n_replicas
        if self._pools is None:
            return
        pool = self._pools[stage]
        with pool.lock:
            active = sum(1 for w in pool.workers if w.active)
            if active < n_replicas:
                for w in pool.workers:
                    if not w.active:
                        w.active = True
                        active += 1
                        self.events.emit("replica.add", stage=stage, n=active)
                        if active == n_replicas:
                            break
            elif active > n_replicas:
                # Drop the least-loaded workers first; busy ones finish what
                # they were dealt either way.
                idle_first = sorted(
                    (w for w in pool.workers if w.active), key=lambda w: w.inflight
                )
                for w in idle_first:
                    if active == n_replicas:
                        break
                    w.active = False
                    active -= 1
                    self.events.emit("replica.remove", stage=stage, n=active)


register_backend("processes", ProcessPoolBackend)
