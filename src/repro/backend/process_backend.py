"""Warm process-pool backend: true multi-core execution of pipelines.

Each stage owns a pool of **pre-forked worker processes** (pay process
start-up once, keep workers resident between streams) that all ``get`` from
**one shared, bounded task queue**.  Only ``replicas[i]`` of a pool serve;
``reconfigure`` parks or releases warm workers — no fork on the adaptation
path.  A worker puts its result **straight onto the next stage's queue**;
only at a *boundary* — the last stage, or one feeding an ordered stage —
does it report to the parent, where a router restores order::

    submit ─> taskq[0] ─> workers 0 ─> taskq[1] ─> workers 1 ─> resq ─> router
    (caller)   (shared)               (shared)   (boundary)        (session)

* The **pools belong to the backend** and survive sessions and streams; the
  **boundary routers belong to the session** — the routed-stage core shared
  with the distributed backend (:mod:`repro.backend.routed`), which owns
  the ingress lock, the reorderers, metrics and egress.  ``submit()`` puts
  on stage 0's queue from the caller's thread.  This module supplies only
  the lane.
* What a per-stage router used to record rides on the frame: each worker
  appends ``(stage, worker, service_s, nbytes_out, ended_at)`` to the
  item's *trail* and the boundary router replays it (``Hop.trail``).  A
  stage error goes to the boundary's result queue with the stage's index.
* Items cross processes as :class:`~repro.transport.Frame` objects of the
  backend's **transport codec** (``transport=``): inline pickle streams, or
  shared-memory descriptors for large payloads under ``"auto"``/``"shm"``
  (threshold **calibrated at warm-up**,
  :func:`repro.transport.calibrated_auto_threshold`).  Slots go back per
  item: task frames in the worker that consumed them, final frames at
  egress; ``close()`` unlinks every pool.
* ``reconfigure`` never targets a worker: shrinking puts a *park token* on
  the stage's queue (whoever takes it blocks on the stage's semaphore, and
  work queued ahead of it is still served), growing releases the semaphore.
* Bounded stage queues and bounded result queues give end-to-end
  back-pressure — a full stage-0 queue blocks ``submit()`` — and the
  session's admission window is an additional, optional bound.

The default start method is ``fork`` where available (warm semantics, and
closures/lambdas need no pickling); pass ``start_method="spawn"`` with
importable module-level stage functions on platforms without fork.
"""

from __future__ import annotations

import multiprocessing as mp
import queue as thread_queue
import threading
import time

from repro import transport as _transport
from repro.backend.base import Backend, register_backend
from repro.backend.routed import Hop, RoutedSession
from repro.core.pipeline import PipelineSpec
from repro.runtime.threads import StageError, dump_error, load_error
from repro.transport import Codec, Frame
from repro.util.batching import Batch, map_batch

__all__ = ["ProcessPoolBackend"]

_STOP = None  # poison pill: the worker that takes it exits (sent only by close())
_PARK = False  # park token: the worker that takes it blocks on the stage's gate


def _put(q, msg, abort: "threading.Event | None") -> bool:
    """Put on a bounded queue; give up once ``abort`` is set (or absent)."""
    while True:
        try:
            q.put(msg, timeout=0.05)
            return True
        except thread_queue.Full:
            if abort is None or abort.is_set():
                return False


def _worker_main(stage: int, worker_id: int, fn, taskq, gate, out, resq, codec_spec) -> None:
    """Worker process body: apply ``fn`` to ``(seq, frame, trail)`` tasks forever.

    Results go to ``out`` (the next stage's task queue, or ``resq`` at a
    boundary) in the same shape, the trail one entry longer; failures go to
    ``resq`` as ``(seq, None, (stage, pickled error | None, text))``.
    """
    codec = _transport.from_spec(codec_spec)
    while True:
        msg = taskq.get()
        if msg is _STOP:
            break
        if msg is _PARK:
            gate.acquire()
            continue
        seq, frame, trail = msg
        try:
            value = codec.decode(frame)
        except Exception as err:
            codec.release(frame)  # the parent aborts; nothing retries this frame
            resq.put((seq, None, (stage, None, f"undecodable item: {err!r}")))
            continue
        # Sole consumer, and the process backend never re-dispatches (a
        # worker death aborts the stream): the task frame's slots go back to
        # their pool once the value is copied out — per item.
        codec.release(frame)
        t0 = time.perf_counter()
        try:
            # A micro-batch decoded from one frame maps element-wise here
            # and re-encodes as one frame: the whole run of items pays a
            # single queue hop and a single pickle stream per stage.
            result = map_batch(fn, value) if isinstance(value, Batch) else fn(value)
        except BaseException as err:  # noqa: BLE001 - shipped to the parent
            resq.put((seq, None, (stage, dump_error(err), repr(err))))
            continue  # stay warm; the parent aborts the stream
        t1 = time.perf_counter()  # one monotonic clock for every process of the host
        try:
            out_frame = codec.encode(result)
        except Exception as err:
            resq.put((seq, None, (stage, None, f"unencodable result: {err!r}")))
            continue
        out.put((seq, out_frame, trail + ((stage, worker_id, t1 - t0, out_frame.nbytes, t1),)))


class _Segment:
    """A run of stages whose workers forward to each other, up to a boundary."""

    def __init__(self, resq, stages: range) -> None:
        self.resq = resq  # the boundary's workers report here; so does every error
        self.stages = stages  # the range of stage indices it spans
        # Items inside the segment = entered - left; each has one writer (the
        # thread feeding the segment — for the first, whoever holds the
        # session's ingress lock — and the boundary's router).
        self.entered = 0
        self.left = 0


class _StagePool:
    """One stage's warm workers around their shared task queue."""

    def __init__(self, taskq, gate, active: int, seg: _Segment) -> None:
        self.taskq = taskq
        self.gate = gate  # parked workers block here
        self.active = active  # workers neither parked nor about to be
        self.seg = seg
        self.lock = threading.Lock()  # one reconfigure at a time
        self.procs: list = []

    def queued(self) -> int:
        try:
            return self.taskq.qsize()
        except NotImplementedError:  # no sem_getvalue() on macOS
            return 0


class _ProcessSession(RoutedSession):
    """The ``mp.Queue`` lane of the routed-stage core over the warm pools."""

    def _attach(self) -> None:
        self.backend.warm()

    def _boundaries(self) -> list[int]:
        return self.backend._boundaries()

    def _shutdown(self) -> None:
        super()._shutdown()
        if self._abort.is_set():
            # An aborted stream leaves the queues in an unknown state: go
            # cold so the next session re-forks clean pools.
            self.backend._shutdown_pools(graceful=False)

    # ------------------------------------------------------------ lane hooks
    def _forward(self, stage: int, seq: int, frame: Frame) -> bool:
        """Put one encoded item on ``stage``'s queue (it opens a segment)."""
        pool = self.backend._pools[stage]
        pool.seg.entered += 1
        return _put(pool.taskq, (seq, frame, ()), self._abort)

    def _poll(self, stage: int) -> "tuple | None":
        pools = self.backend._pools
        seg = pools[stage].seg
        try:
            return seg.resq.get(timeout=0.1)
        except thread_queue.Empty:
            pass
        # No worker should die mid-stream (close() is the only sender of
        # stop pills); a dead one anywhere in a segment holding items means
        # those items may be lost and the drain barrier would never clear —
        # fail, don't hang.  Idle pools are left in peace between streams.
        if seg.entered > seg.left and not self._stopping.is_set():
            workers = ((i, w, p) for i in seg.stages for w, p in enumerate(pools[i].procs))
            for where, wid, proc in workers:
                if not proc.is_alive():
                    self.events.emit(
                        "worker.death",
                        f"stage {where} worker {wid} exited",
                        worker=wid,
                        stage=where,
                        exitcode=proc.exitcode,
                    )
                    raise StageError(
                        self.backend.pipeline.stage(where).name,
                        RuntimeError(
                            f"worker {wid} died mid-run (exitcode {proc.exitcode}); "
                            "its in-flight items are lost"
                        ),
                    )
        return None

    def _accept(self, stage: int, msg: tuple) -> Hop:
        seq, frame, trail = msg
        pools = self.backend._pools
        pools[stage].seg.left += 1
        if frame is None:
            failed, payload, text = trail
            raise StageError(self.backend.pipeline.stage(failed).name, load_error(payload, text))
        *upstream, (_, worker_id, service_s, _, ended) = trail
        clock = self.perf_to_session
        return Hop(
            seq, frame, service_s, 1.0, worker_id, pools[stage].queued(), at=clock(ended),
            trail=tuple((i, w, s, n, pools[i].queued(), clock(t)) for i, w, s, n, t in upstream),
        )


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
        Queue bound per warm worker: a stage's shared task queue (and a
        boundary's result queue) holds ``capacity x pool size`` items.
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
    session_class = _ProcessSession

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
        super().__init__(
            pipeline, replicas=replicas, capacity=capacity, max_replicas=max_replicas
        )
        if start_method is None:
            methods = mp.get_all_start_methods()
            start_method = "fork" if "fork" in methods else methods[0]
        self._ctx = mp.get_context(start_method)
        self._codec = _transport.get(transport)
        self._calibrate_transport = calibrate_transport
        self._pools: list[_StagePool] | None = None  # None = cold

    # --------------------------------------------------------------- warm-up
    def warm(self) -> None:
        """Pre-fork every stage's worker pool (idempotent)."""
        if self._closed:
            raise RuntimeError("backend is closed")
        if self._pools is not None:
            return
        if self._calibrate_transport and self._codec.name == "auto":
            fitted = _transport.calibrated_auto_threshold()
            if fitted is not None:
                self._codec.threshold = fitted
        codec_spec = _transport.spec_of(self._codec)
        sizes = [self.replica_limit(i) for i in range(self.pipeline.n_stages)]
        taskqs = [self._ctx.Queue(maxsize=self.capacity * size) for size in sizes]
        pools: list[_StagePool] = []
        for end in self._boundaries():
            resq = self._ctx.Queue(maxsize=self.capacity * sizes[end])
            seg = _Segment(resq, range(len(pools), end + 1))
            for i in seg.stages:
                pool = _StagePool(taskqs[i], self._ctx.Semaphore(0), self._target[i], seg)
                out = seg.resq if i == end else taskqs[i + 1]
                for wid in range(sizes[i]):
                    proc = self._ctx.Process(
                        target=_worker_main,
                        args=(
                            i, wid, self.pipeline.stage(i).fn,
                            pool.taskq, pool.gate, out, seg.resq, codec_spec,
                        ),
                        name=f"{self.pipeline.stage(i).name}.{wid}",
                        daemon=True,
                    )
                    proc.start()
                    pool.procs.append(proc)
                for _ in range(sizes[i] - pool.active):
                    pool.taskq.put(_PARK)  # the surplus waits, warm, at the gate
                pools.append(pool)
        self._pools = pools

    def _boundaries(self) -> list[int]:
        """Stages that report to the parent: the last, and any feeding an ordered one."""
        stages = self.pipeline.stages
        return [
            i for i in range(len(stages)) if i + 1 == len(stages) or stages[i + 1].ordered
        ]

    # ------------------------------------------------------------- lifecycle
    def _shutdown_pools(self, *, graceful: bool) -> None:
        if self._pools is None:
            return
        for pool in self._pools:
            if graceful:
                for _ in pool.procs:
                    pool.gate.release()  # a parked worker must reach its pill
                for _ in pool.procs:
                    _put(pool.taskq, _STOP, None)
            pool.taskq.close()
        procs = [proc for pool in self._pools for proc in pool.procs]
        if not graceful:
            # No pill was sent: every worker is blocked on a queue or a gate
            # and nothing of the aborted stream is worth waiting for.  All at
            # once, then reap — one after another costs a timeout per worker.
            for proc in procs:
                proc.terminate()
        for proc in procs:
            proc.join(timeout=1.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        for pool in self._pools:
            pool.seg.resq.close()  # shared by the segment's pools; idempotent
        self._pools = None
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
        return [p.active for p in self._pools]

    def _resize(self, stage: int, n_replicas: int) -> None:
        """Park or release warm workers of ``stage`` to reach ``n_replicas``.

        Growth never forks mid-run.  Replicas are interchangeable, so none
        is targeted: growing releases the stage's gate, shrinking queues a
        park token behind the work already there and whoever takes it
        waits, warm, at the gate.  A cold backend warms up to the target.
        """
        if self._pools is None:
            return
        pool = self._pools[stage]
        # A full queue delays the token only while the session lives.
        abort = self._session._abort if self._session is not None else None
        with pool.lock:
            while pool.active < n_replicas:
                pool.gate.release()
                pool.active += 1
                self.events.emit("replica.add", stage=stage, n=pool.active)
            while pool.active > n_replicas and _put(pool.taskq, _PARK, abort):
                pool.active -= 1
                self.events.emit("replica.remove", stage=stage, n=pool.active)


register_backend("processes", ProcessPoolBackend)
