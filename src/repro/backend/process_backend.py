"""Warm process-pool backend: true multi-core execution of pipelines.

Each stage owns a pool of **pre-forked worker processes** (pay process
start-up once, keep workers resident between streams) that all take work
from **one shared, bounded task queue**.  Only ``replicas[i]`` of a pool
serve; ``reconfigure`` parks or releases warm workers — no fork on the
adaptation path.  A worker puts its outputs **straight onto the next
stage's queue**; only at a *boundary* — the last stage, or one feeding an
ordered stage — does it report to the parent, where a router restores order::

    submit ─> taskq[0] ─> workers 0 ─> taskq[1] ─> workers 1 ─> resq ─> router
    (caller)  (outbox)                (pipe)     (boundary)  (pipe)  (session)

* Every queue is a :class:`_PipeQueue`: byte-lane frames
  (:mod:`repro.transport.lane`) on one pipe, an OS semaphore counting its
  items.  Work moves in **trains** — a frame holding a list of ``(seq,
  wire, trail)`` tasks — so a worker pays one read, one unpickle, one
  pickle and one write per train.  Nobody waits to fill one
  (:class:`_Train`): the parent's outbox thread (``processes-outbox[i]``)
  packs what is queued per ``write()``, a worker the outputs of the train
  it took.  A worker frees a task's place in the queue as it starts it.
* A boundary router has **one wait and no timeout**: a ``select.poll`` over
  its segment's result pipe, a wake pipe and the ``sentinel`` of every worker
  in the segment — a result, a wake-up and a death are all events.  A
  non-blocking :class:`~repro.transport.lane.FrameReader` reads the result
  pipe a burst per ``read()``; a frame cut short by a dying worker waits
  in it, never in ``read()``.
* The **pools belong to the backend** and outlive sessions; the **boundary
  routers belong to the session**, in the routed-stage core it shares with
  the distributed backend (:mod:`repro.backend.routed`).
* Each worker appends ``(stage, worker, service_s, nbytes_out, ended_at)``
  to an item's *trail*; the boundary router replays each entry as one hop.
  A failure goes to the boundary's result queue with the stage's index.
* Items cross in the **transport codec**'s wire form (``transport=``): a
  pickle stream as ``bytes``, or a :class:`~repro.transport.Frame` of
  shared-memory slots for a large payload, released per item by its
  consumer; ``close()`` unlinks every pool.
* Shrinking feeds a *park token* in at the head of the stage's segment (a
  worker of an earlier stage passes it on; whoever of the stage takes it
  blocks on the stage's semaphore); growing releases the semaphore.
* Bounded queues give end-to-end back-pressure — a full stage-0 queue
  blocks ``submit()`` — sized from a session's admission window when that
  is deeper.  A parent's put waits for space untimed; an abort wakes it by
  releasing that space (the pools then go cold).

The pools start with ``fork`` where the platform has it (warm semantics,
and closures/lambdas need no pickling), else with its first start method
(``spawn``), which needs importable module-level stage functions.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import select
import threading

from repro import transport as _transport
from repro.backend.base import Backend
from repro.backend.routed import RoutedSession, boundaries
from repro.core.pipeline import PipelineSpec
from repro.runtime.threads import StageError, load_error, run_stage
from repro.transport import Wire, wire_nbytes
from repro.transport.lane import FrameReader, encode_frame, pipe_outbox
from repro.util.batching import LINGER_S, MAX_BYTES

__all__ = ["ProcessPoolBackend"]

_STOP = None  # stop pill: the worker that takes it exits (sent only by close())
# A park token is a stage's index: a worker of that stage parks at its gate,
# one of an earlier stage passes it on.  Tokens and pills travel alone.


class _Train:
    """Tasks bound for one queue, handed to ``flush`` as soon as they fill a
    train: ``cap`` tasks or ``MAX_BYTES`` of wire, never more past the first
    task.  ``since``: when the train's first task was ready."""

    def __init__(self, cap: int, flush) -> None:
        self.cap, self.flush, self.tasks, self.nbytes, self.since = cap, flush, [], 0, 0.0

    def add(self, task, nbytes: int, at: float = 0.0) -> None:
        if self.tasks and self.nbytes + nbytes > MAX_BYTES:
            self.close()
        self.since = self.since if self.tasks else at
        self.tasks.append(task)
        self.nbytes += nbytes
        if len(self.tasks) == self.cap or self.nbytes >= MAX_BYTES:
            self.close()

    def close(self) -> None:
        if self.tasks:
            self.flush(self.tasks)
            self.tasks, self.nbytes = [], 0


class _PipeQueue:
    """A bounded queue of the byte lane's frames on one pipe; its space
    counts tasks, and a train holds at most :attr:`cap` of them.

    A worker's :meth:`put` writes each frame whole under the writers' lock: a
    frame larger than the pipe's buffer blocks the worker in ``write()``
    until a reader takes it — what a worker is for.  The parent puts only on
    a queue it :meth:`feed`\\ s: :meth:`send` queues a task on the caller's
    thread, and the outbox's writer packs and writes.
    """

    def __init__(self, ctx, maxsize: int, workers: int) -> None:
        self._reader, self._writer = ctx.Pipe(duplex=False)
        # Not bounded: an abort releases it to wake a parked send, and
        # close()'s stop pills take no space.
        self._space = ctx.Semaphore(maxsize)
        self._rlock, self._wlock = ctx.Lock(), ctx.Lock()
        self._maxsize, self.workers = maxsize, workers
        self.cap = maxsize // workers  # a train: at most one worker's share of the queue
        self._outbox = None  # the parent's writer, once fed (after every fork)

    def fileno(self) -> int:
        return self._reader.fileno()

    def feed(self, name: str) -> None:
        """Hand the write end to an outbox writer thread called ``name``."""
        self._outbox = pipe_outbox(self._writer, name, lambda: None, self._pack)

    def _pack(self, msgs: list) -> bytes:
        """The outbox writer's bytes for ``msgs``: each run of tasks as trains,
        a park token or a stop pill alone."""
        frames: list = []
        # At most one worker's share of what is queued, too: a burst is dealt out.
        train = _Train(min(self.cap, -(-len(msgs) // self.workers)), frames.append)
        for msg in msgs:
            if type(msg) is tuple:
                train.add(msg, wire_nbytes(msg[1]))
            else:
                train.close()
                frames.append(msg)
        train.close()
        return b"".join(encode_frame(frame, False) for frame in frames)

    def send(self, msg, abort: "threading.Event | None") -> bool:
        """The parent's put of a task or a park token: wait for space (untimed;
        False once ``abort`` is set; no ``abort``: only if there is room now)."""
        if not self._space.acquire(abort is not None):
            return False
        if abort is not None and abort.is_set():
            self._space.release()  # pass the wake-up on to the next parked send
            return False
        return self._outbox.send(msg)

    def post(self, msg) -> None:
        """A stop pill, taking no space; close() posts pills only once the pools
        are idle, so a worker-written pipe has room and nobody holds its lock."""
        if self._outbox is not None:
            self._outbox.send(msg)
        else:
            self._write(msg)

    def put(self, msg) -> None:
        """A worker's put of a train, a permit per task, or of a park token it
        passes on: when the next permit is not free at once, the tasks that
        hold one go first."""
        n, start = len(msg) if type(msg) is list else 1, 0
        for i in range(n):
            if not self._space.acquire(False):
                if i > start:
                    self._write(msg[start:i])
                    start = i
                self._space.acquire()
        if n > start:
            self._write(msg[start:] if start else msg)

    def _write(self, msg) -> None:
        data = pickle.dumps(msg, protocol=pickle.HIGHEST_PROTOCOL)
        with self._wlock:
            self._writer.send_bytes(data)

    def get(self):
        """One frame: a train, a park token or a stop pill (no permit back)."""
        with self._rlock:
            data = self._reader.recv_bytes()
        return pickle.loads(data)

    def qsize(self) -> int:
        try:
            return self._maxsize - self._space.get_value()
        except NotImplementedError:  # no sem_getvalue() on macOS
            return 0

    def close(self, wait: bool = True) -> None:
        """Close both ends; an outbox's writer flushes, then closes its own.  Do
        not ``wait`` after an abort: on a full pipe it stops on ``EPIPE`` only."""
        self._reader.close()
        if self._outbox is None:
            self._writer.close()
            return
        self._outbox.close()
        if wait:
            self._outbox.thread.join()


def _worker_main(
    stage: int, worker_id: int, fn, taskq, gate, out, resq, codec_spec, parked: bool
) -> None:
    """Worker process body: run every task of every train it takes, forever.

    Outputs go to ``out`` (the next stage's task queue, or ``resq`` at a
    boundary) in trains of ``(seq, wire, trail)``, the trail one hop longer;
    a failure goes to ``resq`` as ``(seq, None, (stage, pickled error |
    None, text))``, after the outputs before it.  The worker starts at
    ``gate`` when ``parked`` (the pool's warm surplus).
    """
    codec = _transport.from_spec(codec_spec)
    started = taskq._space.release  # a task begun frees its place in the queue
    done = _Train(out.cap, out.put)  # the outputs not yet written
    if parked:
        gate.acquire()
    while True:
        msg = taskq.get()
        if msg is _STOP:
            break
        if isinstance(msg, int):  # a park token: this stage's, or one to pass on
            started()
            if msg == stage:
                gate.acquire()
            else:
                out.put(msg)
            continue
        for seq, wire, trail in msg:
            started()
            # Sole consumer, and the process backend never re-dispatches (a
            # worker death aborts the stream): the task frame's slots go back
            # to their pool once the value is copied out — per item.  _held
            # (the output value) lives until the next item.
            out_wire, t0, t1, failed, _held = run_stage(fn, wire, codec, codec, True)
            if failed is not None:
                done.close()  # what the train finished before it goes first
                resq.put([(seq, None, (stage, *failed))])
                continue  # stay warm; the parent aborts the stream
            size = wire_nbytes(out_wire)
            done.add((seq, out_wire, trail + ((stage, worker_id, t1 - t0, size, t1),)), size, t1)
            if t1 - done.since >= LINGER_S:
                done.close()
        done.close()


class _Segment:
    """A run of stages whose workers forward to each other, up to a boundary."""

    def __init__(self, feed: _PipeQueue, resq: _PipeQueue) -> None:
        self.feed = feed  # the first stage's queue: the parent's way in
        self.resq = resq  # the boundary's workers report here; so does every error
        self.reader = FrameReader(resq.fileno())  # the router's: whole frames only
        self.done: list = []  # tasks read, not yet taken by the router
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

    def read(self) -> int:
        """One read of the result pipe: its trains' tasks join ``done``, a permit each."""
        frames, n = self.reader.frames, self.reader.fill()
        for _ in range(n):
            train = frames.popleft()
            for _ in train:
                self.resq._space.release()
            self.done += train
        return n

    def watch(self, stage: int, worker_id: int, proc) -> None:
        self.workers[proc.sentinel] = (stage, worker_id, proc)
        self.poller.register(proc.sentinel, select.POLLIN)

    def died(self, sentinel: int) -> tuple:
        """``(stage, worker id, exitcode)`` of the worker whose sentinel fired."""
        stage, worker_id, proc = self.workers[sentinel]
        proc.join(1.0)  # the sentinel closes a moment before the exit code is there
        return stage, worker_id, proc.exitcode

    def wake(self, aborted: bool) -> None:
        if aborted:
            self.feed._space.release()  # a send parked on space wakes to the abort
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



class _ProcessSession(RoutedSession):
    """The queue lane of the routed-stage core over the warm pools."""

    def _attach(self) -> None:
        self.backend.warm(self._lane_depth())

    def _shutdown(self) -> None:
        super()._shutdown()
        if self._abort.is_set():
            # An aborted stream leaves the queues in an unknown state: go
            # cold so the next session re-forks clean pools.
            self.backend._shutdown_pools(graceful=False)

    def _wake_lane(self) -> None:
        aborted = self._abort.is_set()
        for seg in self.backend._segments():
            seg.wake(aborted)

    # ------------------------------------------------------------ lane hooks
    def _forward(self, stage: int, seq: int, wire: Wire) -> bool:
        """Feed one encoded item to ``stage``'s queue (it opens a segment)."""
        return self.backend._pools[stage].taskq.send((seq, wire, ()), self._abort)

    def _poll(self, stage: int) -> "list | None":
        seg = self.backend._pools[stage].seg
        while not seg.done:  # what an earlier read completed goes first
            ready = [fd for fd, _ in seg.poller.poll()]
            # First: what a worker reported before it died counts.
            if seg.resq.fileno() in ready and seg.read():
                break
            if seg.wake_r.fileno() in ready:
                seg.wake_r.read(4096)
                return None
            dead = [fd for fd in ready if fd in seg.workers]
            if not dead:
                continue  # part of a frame: the rest comes with the next read
            # No worker should die while a session is open (only close() sends
            # stop pills, after the routers are gone): items it held are lost
            # and the drain barrier would never clear — fail, don't hang.
            where, wid, exitcode = seg.died(dead[0])
            self.events.emit("worker.death", f"stage {where} worker {wid} exited",
                             worker=wid, stage=where, exitcode=exitcode)
            lost = f"worker {wid} died mid-run (exitcode {exitcode}); its in-flight items are lost"
            raise StageError(self.backend.pipeline.stage(where).name, RuntimeError(lost))
        burst, seg.done = seg.done, []
        return burst

    def _accept(self, stage: int, burst: list) -> list:
        queued, clock = [pool.taskq.qsize() for pool in self.backend._pools], self.perf_to_session
        got = []
        for seq, wire, trail in burst:
            if wire is None:  # a failure: (stage, pickled error | None, text)
                name = self.backend.pipeline.stage(trail[0]).name
                return [*got, StageError(name, load_error(*trail[1:]))]
            got.append((seq, wire, [
                (i, w, s, n, queued[i], clock(t), 1.0, None) for i, w, s, n, t in trail
            ]))
        return got


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
        the session's lane depth when that is deeper and this is not given;
        a train holds one worker's share.
    transport:
        Payload codec moving items between processes, by name:
        ``"auto"``/``"pickle"``/``"shm"`` (see :mod:`repro.transport`).
        ``"auto"`` sends payloads of :data:`~repro.transport.AUTO_THRESHOLD`
        bytes up through shared memory.
    """

    name = "processes"
    session_class = _ProcessSession

    def __init__(
        self,
        pipeline: PipelineSpec,
        *,
        replicas: list[int] | None = None,
        max_replicas: int = 4,
        capacity: int | None = None,
        transport: str = "auto",
    ) -> None:
        super().__init__(
            pipeline, replicas=replicas, capacity=capacity, max_replicas=max_replicas
        )
        methods = mp.get_all_start_methods()
        self._ctx = mp.get_context("fork" if "fork" in methods else methods[0])
        self._codec = _transport.get(transport)
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
        codec_spec = _transport.spec_of(self._codec)
        taskqs = [_PipeQueue(self._ctx, d, size) for d, size in zip(depths, sizes)]
        pools: list[_StagePool] = []
        try:
            for end in boundaries(self.pipeline.stages):
                seg = _Segment(taskqs[len(pools)], _PipeQueue(self._ctx, depths[end], sizes[end]))
                for i in range(len(pools), end + 1):
                    pool = _StagePool(taskqs[i], self._ctx.Semaphore(0), self._target[i], seg)
                    pools.append(pool)
                    out = seg.resq if i == end else taskqs[i + 1]
                    for wid in range(sizes[i]):
                        proc = self._ctx.Process(
                            target=_worker_main,
                            args=(
                                i, wid, self.pipeline.stage(i).fn, pool.taskq, pool.gate,
                                out, seg.resq, codec_spec, wid >= pool.active,
                            ),
                            name=f"{self.pipeline.stage(i).name}.{wid}",
                            daemon=True,
                        )
                        proc.start()
                        pool.procs.append(proc)
                        seg.watch(i, wid, proc)
            # The parent feeds each segment's first queue through an outbox
            # writer, started once no fork is left to copy a running thread.
            for i, pool in enumerate(pools):
                if pool.taskq is pool.seg.feed:
                    pool.taskq.feed(f"{self.name}-outbox[{i}]")
        except BaseException:
            # Failed half-way (a fork, a pipe): reap the children already
            # started and close every queue made, then let the caller see why.
            self._pools = pools
            self._shutdown_pools(graceful=False)
            for taskq in taskqs[len(pools):]:
                taskq.close()
            raise
        self._pools = pools

    def _segments(self) -> "list[_Segment]":
        return list(dict.fromkeys(pool.seg for pool in self._pools or ()))

    # ------------------------------------------------------------- lifecycle
    def _shutdown_pools(self, *, graceful: bool) -> None:
        if self._pools is None:
            return
        pools, segs = self._pools, self._segments()
        if graceful:
            for pool in pools:
                for _ in pool.procs:
                    pool.gate.release()  # a parked worker must reach its pill
                for _ in pool.procs:
                    pool.taskq.post(_STOP)
        procs = [proc for pool in pools for proc in pool.procs]
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
        for pool in pools:
            pool.taskq.close(wait=graceful)
        for seg in segs:
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
        """Park or release warm workers of ``stage`` to reach ``n_replicas``:
        never a fork, and no worker targeted (see the module docstring).  A
        cold backend warms up to the target."""
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
            while pool.active > n_replicas and pool.seg.feed.send(stage, abort):
                pool.active -= 1
                self.events.emit("replica.remove", stage=stage, n=pool.active)
