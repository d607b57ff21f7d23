"""Warm process-pool backend: true multi-core execution of pipelines.

Each stage owns a pool of **pre-forked worker processes** (pay process
start-up once, keep workers resident between streams) that all ``get`` from
**one shared, bounded task queue**.  Only ``replicas[i]`` of a pool serve;
``reconfigure`` parks or releases warm workers — no fork on the adaptation
path.  A worker puts its result **straight onto the next stage's queue**;
only at a *boundary* — the last stage, or one feeding an ordered stage —
does it report to the parent, where a router restores order::

    submit ─> taskq[0] ─> workers 0 ─> taskq[1] ─> workers 1 ─> resq ─> router
    (caller)  (mp.Queue)              (pipe)     (boundary)  (pipe)  (session)

* A queue the **parent** feeds items into (stage 0's, and one behind a
  boundary) is an ``mp.Queue``: its feeder thread keeps ``submit()`` and
  the routers out of a blocking ``write()``.  A queue only **workers** write
  (interior task queues, every ``resq``) is a :class:`_PipeQueue`: the worker
  writes the pipe itself — no feeder thread, no GIL hand-offs per hop.
* A boundary router has **one wait and no timeout**: a ``select.poll`` over
  its segment's result pipe, a wake pipe and the ``sentinel`` of every worker
  in the segment — a result, a wake-up and a death are all events.
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
* Items cross processes as frames of the backend's **transport codec**
  (``transport=``) in their flat wire form (:func:`~repro.transport.to_wire`):
  inline pickle streams as plain ``bytes``, or :class:`~repro.transport.Frame`
  descriptors of shared-memory slots for large payloads under ``"auto"``/``"shm"``
  (threshold **calibrated at warm-up**,
  :func:`repro.transport.calibrated_auto_threshold`).  Slots go back per
  item: task frames in the worker that consumed them, final frames at
  egress; ``close()`` unlinks every pool.
* ``reconfigure`` never targets a worker: shrinking puts a *park token* on
  the stage's queue (whoever takes it blocks on the stage's semaphore, and
  work queued ahead of it is still served), growing releases the semaphore.
* Bounded stage queues and bounded result queues give end-to-end
  back-pressure — a full stage-0 queue blocks ``submit()`` — sized from a
  session's admission window when that is deeper, so the window binds.

The default start method is ``fork`` where available (warm semantics, and
closures/lambdas need no pickling); pass ``start_method="spawn"`` with
importable module-level stage functions on platforms without fork.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import queue as thread_queue
import select
import threading
import time

from repro import transport as _transport
from repro.backend.base import Backend, register_backend
from repro.backend.routed import Hop, RoutedSession
from repro.core.pipeline import PipelineSpec
from repro.runtime.threads import StageError, dump_error, load_error
from repro.transport import Codec, Frame, from_wire, to_wire
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


class _PipeQueue:
    """A bounded queue whose writers are workers: no feeder thread.

    ``put`` pickles and writes the pipe on the caller's thread, so a frame
    larger than the pipe's buffer blocks its writer in ``write()`` until a
    reader takes it — what a worker is for, and what the parent must never
    do: it passes ``timeout``, which bounds every wait of a ``put``, for its
    tokens and pills only (a writable pipe takes ``PIPE_BUF`` bytes whole).
    """

    def __init__(self, ctx, maxsize: int) -> None:
        self._reader, self._writer = ctx.Pipe(duplex=False)
        self._space = ctx.BoundedSemaphore(maxsize)
        self._rlock, self._wlock = ctx.Lock(), ctx.Lock()
        self._maxsize = maxsize

    def fileno(self) -> int:
        return self._reader.fileno()

    def put(self, obj, timeout: "float | None" = None) -> None:
        data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        if not self._space.acquire(timeout=timeout):
            raise thread_queue.Full
        if self._wlock.acquire(timeout=timeout):
            try:
                if timeout is None or select.select((), (self._writer,), (), timeout)[1]:
                    return self._writer.send_bytes(data)
            finally:
                self._wlock.release()
        self._space.release()
        raise thread_queue.Full

    def get(self):
        with self._rlock:
            data = self._reader.recv_bytes()
        self._space.release()
        return pickle.loads(data)

    def qsize(self) -> int:
        return self._maxsize - self._space.get_value()

    def close(self) -> None:
        self._reader.close()
        self._writer.close()


def _worker_main(stage: int, worker_id: int, fn, taskq, gate, out, resq, codec_spec) -> None:
    """Worker process body: apply ``fn`` to ``(seq, wire frame, trail)`` tasks forever.

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
        seq, wire, trail = msg
        frame = from_wire(wire, codec.name)
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
        hop = (stage, worker_id, t1 - t0, out_frame.nbytes, t1)
        out.put((seq, to_wire(out_frame), trail + (hop,)))


class _Segment:
    """A run of stages whose workers forward to each other, up to a boundary."""

    def __init__(self, resq: _PipeQueue) -> None:
        self.resq = resq  # the boundary's workers report here; so does every error
        # The boundary router's one wait (``_poll``): a result, a wake-up, a death.
        wake_r, wake_w = os.pipe()
        os.set_blocking(wake_r, False)
        os.set_blocking(wake_w, False)
        # File objects, not descriptors: a wake() racing close() must find a
        # closed file, never a number the process has since reused.
        self.wake_r, self._wake_w = open(wake_r, "rb", 0), open(wake_w, "wb", 0)
        self.workers: dict = {}  # sentinel -> (stage, worker id, process)
        self.poller = select.poll()
        for fd in (resq.fileno(), wake_r):
            self.poller.register(fd, select.POLLIN)

    def watch(self, stage: int, worker_id: int, proc) -> None:
        self.workers[proc.sentinel] = (stage, worker_id, proc)
        self.poller.register(proc.sentinel, select.POLLIN)

    def died(self, sentinel: int) -> tuple:
        """``(stage, worker id, exitcode)`` of the worker whose sentinel fired."""
        stage, worker_id, proc = self.workers[sentinel]
        proc.join(1.0)  # the sentinel closes a moment before the exit code is there
        return stage, worker_id, proc.exitcode

    def wake(self) -> None:
        try:
            self._wake_w.write(b"\0")  # a full pipe drops it: already woken
        except ValueError:
            pass  # closed: the pools went cold

    def close(self) -> None:
        for end in (self.resq, self.wake_r, self._wake_w):
            end.close()
        self.workers.clear()  # a router's traceback may keep us: not the sentinels too


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
    """The queue lane of the routed-stage core over the warm pools."""

    def _attach(self) -> None:
        self.backend.warm(self._lane_depth())

    def _boundaries(self) -> list[int]:
        return self.backend._boundaries()

    def _shutdown(self) -> None:
        super()._shutdown()
        if self._abort.is_set():
            # An aborted stream leaves the queues in an unknown state: go
            # cold so the next session re-forks clean pools.
            self.backend._shutdown_pools(graceful=False)

    def _wake_lane(self) -> None:
        for pool in self.backend._pools or ():
            pool.seg.wake()

    # ------------------------------------------------------------ lane hooks
    def _forward(self, stage: int, seq: int, frame: Frame) -> bool:
        """Put one encoded item on ``stage``'s queue (it opens a segment)."""
        return _put(self.backend._pools[stage].taskq, (seq, to_wire(frame), ()), self._abort)

    def _poll(self, stage: int) -> "tuple | None":
        seg = self.backend._pools[stage].seg
        ready = [fd for fd, _ in seg.poller.poll()]
        if seg.resq.fileno() in ready:  # first: what a worker reported before it died counts
            return seg.resq.get()
        if seg.wake_r.fileno() in ready:
            seg.wake_r.read(4096)
            return None
        # No worker should die while a session is open (close() is the only
        # sender of stop pills, after the routers are gone): items it held
        # are lost and the drain barrier would never clear — fail, don't hang.
        where, wid, exitcode = seg.died(ready[0])
        self.events.emit(
            "worker.death", f"stage {where} worker {wid} exited",
            worker=wid, stage=where, exitcode=exitcode,
        )
        raise StageError(
            self.backend.pipeline.stage(where).name,
            RuntimeError(
                f"worker {wid} died mid-run (exitcode {exitcode}); its in-flight items are lost"
            ),
        )

    def _accept(self, stage: int, msg: tuple) -> Hop:
        seq, wire, trail = msg
        if wire is None:
            failed, payload, text = trail
            raise StageError(self.backend.pipeline.stage(failed).name, load_error(payload, text))
        pools = self.backend._pools
        *upstream, (_, worker_id, service_s, _, ended) = trail
        clock = self.perf_to_session
        return Hop(
            seq, from_wire(wire, self._codec.name), service_s, 1.0, worker_id,
            pools[stage].queued(), at=clock(ended),
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
        boundary's result queue) holds ``capacity x pool size`` items, or
        the session's lane depth when that is deeper and this is not given.
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
    def warm(self, depth: "int | None" = None) -> None:
        """Pre-fork every stage's worker pool, each queue ``max(depth, capacity
        x pool size)`` deep (``depth``: the opening session's lane depth);
        warm pools stay unless a given ``depth`` changes a bound, then re-fork."""
        if self._closed:
            raise RuntimeError("backend is closed")
        sizes = [self.replica_limit(i) for i in range(self.pipeline.n_stages)]
        depths = [max(depth or 0, self.capacity * size) for size in sizes]
        if self._pools is not None and (depth is None or depths == self._depths):
            return
        self._shutdown_pools(graceful=True)  # warm for other bounds (no-op when cold)
        self._depths = depths
        if self._calibrate_transport and self._codec.name == "auto":
            fitted = _transport.calibrated_auto_threshold()
            if fitted is not None:
                self._codec.threshold = fitted
        codec_spec = _transport.spec_of(self._codec)
        bounds = self._boundaries()
        # mp.Queue only where the parent feeds items in (stage 0, a stage
        # behind a boundary): there the feeder thread is what keeps submit()
        # and the routers out of a blocking write().  Workers write the rest.
        taskqs = [
            self._ctx.Queue(depths[i])
            if i == 0 or i - 1 in bounds
            else _PipeQueue(self._ctx, depths[i])
            for i in range(len(sizes))
        ]
        pools: list[_StagePool] = []
        try:
            for end in bounds:
                seg = _Segment(_PipeQueue(self._ctx, depths[end]))
                for i in range(len(pools), end + 1):
                    pool = _StagePool(taskqs[i], self._ctx.Semaphore(0), self._target[i], seg)
                    pools.append(pool)
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
                        seg.watch(i, wid, proc)
                    for _ in range(sizes[i] - pool.active):
                        pool.taskq.put(_PARK)  # the surplus waits, warm, at the gate
        except BaseException:
            # Failed half-way (a fork, a pipe): reap the children already
            # started and close every queue made, then let the caller see why.
            self._pools = pools
            self._shutdown_pools(graceful=False)
            for taskq in taskqs[len(pools):]:
                taskq.close()
            raise
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
        for seg in {pool.seg for pool in self._pools}:
            seg.close()
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
