"""The execution-backend port: long-lived streaming sessions over executors.

A :class:`Backend` runs one :class:`~repro.core.pipeline.PipelineSpec` under
the eSkel ``Pipeline1for1`` contract (equal length, input order preserved).
Since the streaming refactor the primitive is no longer a one-shot batch
but a **session**: ``backend.open() -> Session`` hands out a resident
pipeline that accepts work as it arrives and emits results as a stream —
the Naiad/FastFlow view that the executor is a service and a "batch" is
just a bounded stream:

* ``session.submit(item) -> Ticket`` admits one item into the current
  stream (opening one lazily), blocking only when ``max_inflight`` items
  are already admitted but not yet completed — the one in-flight bound, which
  sizes every executor's lanes unless ``capacity`` is given (``max_inflight=None``,
  the default, leaves back-pressure to the executor's queues of ``capacity``);
* ``session.results()`` iterates the current stream's outputs **in input
  order, as items complete** — the first result is available long before
  the stream drains;
* ``session.drain()`` ends the current stream, waits for every admitted
  item, and returns whatever outputs no ``results()`` consumer took; the
  next ``submit`` then starts a fresh stream on the same warm executor;
* ``session.close()`` releases the session's executor resources.

``Backend.run(inputs)`` is that path for a finite input — open → submit\\*
→ drain on the caller's thread; a caller that wants to act mid-flight
submits from a producer thread or holds the session itself.

The port owns everything that is not the stage loop, so the executors
cannot drift apart on it: one way **in** (``submit`` hands each admitted
item to ``_submit_one`` on the caller's thread, which therefore feels the
executor's bounded queues), one way **out** (``Session._complete_run``:
count a run of completions, deliver it in order), one way to **fail**
(``Session._fail``: a ``StageError`` naming the stage poisons the session
and raises its ``_abort`` flag), one plain lock (``Session._lock``) over
all of that state whose waiters park on bells rung by events, never on a
clock, and on the backend the replica **shape** (``replicas``/``capacity``/``max_replicas``
validated once, ``reconfigure`` clamping onto a per-executor ``_resize``).

The port also keeps the three hooks the adaptation loop needs:

* **observe** — ``snapshots()``/``items_completed()``/
  ``recent_throughput()`` delegate to the live session's instrumentation
  (:class:`~repro.monitor.instrument.StageSnapshot` currency, counters
  cumulative across streams);
* **act** — ``reconfigure(stage, n_replicas)`` changes a replicable
  stage's degree of parallelism live;
* **lifecycle** — ``close`` releases warm resources (worker pools,
  sockets, event loops).

One table names every executor (``make_backend``), so the user-facing
entry point (:func:`repro.skel.api.open_pipeline`, with
:func:`~repro.skel.api.pipeline_1for1` one bounded stream on it) and
benchmarks select one by string and a process imports only the executor it
opens.
"""

from __future__ import annotations

import math
import sys
import threading
import time
import uuid
from collections import deque
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator

from repro.core.pipeline import PipelineSpec
from repro.model.throughput import ResourceView
from repro.monitor.instrument import PipelineInstrumentation, StageSnapshot
from repro.obs.events import NULL_BUS, EventBus
from repro.runtime.threads import StageError
from repro.util import batching as _batching
from repro.util.batching import Batch, approx_nbytes
from repro.util.handoff import Bell
from repro.util.validation import check_positive

__all__ = [
    "Backend",
    "BackendResult",
    "Session",
    "SessionClosed",
    "SessionStats",
    "Ticket",
    "available_backends",
    "make_backend",
    "validate_pipeline_shape",
]
_WINDOW_CEILING = 1024  # of a lane's depth


class SessionClosed(RuntimeError):
    """The session was closed; it accepts no further submits or drains."""


def _popping(run: deque) -> Iterator[Any]:
    """Pop ``run`` from the left until it is empty, also when another thread empties it."""
    try:
        while run:
            yield run.popleft()
    except IndexError:
        return


class Ticket(tuple):
    """Receipt for one submitted item: which stream, and where in it.

    Tickets minted by a live session also resolve individually:
    :meth:`done` and :meth:`wait` answer "has *my* item been delivered?"
    without consuming ``results()`` — the request/response surface
    out-of-order consumers need.  A micro-batched session delivers a
    batch's items one by one, so per-ticket completion is exact either way.

    Immutable, and equal and hashed by ``(stream, seq)`` alone; it is a
    ``(stream, seq, session)`` tuple underneath because one is minted per
    submitted item.
    """

    __slots__ = ()

    def __new__(cls, stream: int, seq: int, session: "Session | None" = None) -> "Ticket":
        return tuple.__new__(cls, (stream, seq, session))

    stream = property(itemgetter(0))
    seq = property(itemgetter(1))

    def __eq__(self, other: object) -> bool:
        return self[:2] == other[:2] if isinstance(other, Ticket) else NotImplemented

    def __ne__(self, other: object) -> bool:
        return not self == other

    def __hash__(self) -> int:
        return hash(self[:2])

    def __repr__(self) -> str:
        return f"Ticket(stream={self[0]}, seq={self[1]})"

    def done(self) -> bool:
        """True once this item was delivered (in order) by its session."""
        session = self._require_session()
        with session._lock:
            return session._ticket_done_locked(self[0], self[1])

    def wait(self, timeout: float | None = None) -> bool:
        """Block until this item is delivered; False on timeout.

        Raises the session's executor error if the session broke, and
        :class:`SessionClosed` if it was closed before delivery.
        """
        session = self._require_session()
        deadline = math.inf if timeout is None else time.perf_counter() + timeout
        with session._lock:
            while not session._ticket_done_locked(self[0], self[1]):
                if session._error is not None:
                    raise session._error
                if session._closed:
                    raise SessionClosed("session closed before this ticket completed")
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    return False
                session._bell.wait(None if timeout is None else remaining)
            return True

    def _require_session(self) -> "Session":
        if self[2] is None:
            raise RuntimeError("this Ticket is not bound to a session (constructed by hand?)")
        return self[2]


@dataclass(frozen=True)
class SessionStats:
    """Progress counters of a session (per-stream vs session-cumulative)."""

    streams_completed: int
    items_total: int
    stream_submitted: int
    stream_delivered: int

    @property
    def backlog(self) -> int:
        return self.stream_submitted - self.stream_delivered


@dataclass
class BackendResult:
    """What one backend run (a bounded stream) produced: its ordered
    ``outputs`` and its wall-clock ``elapsed`` seconds."""

    backend: str
    outputs: list[Any]
    items: int
    elapsed: float
    service_means: list[float] = field(default_factory=list)
    replica_counts: list[int] = field(default_factory=list)

    @property
    def throughput(self) -> float:
        return self.items / self.elapsed if self.elapsed > 0 else 0.0


class Session:
    """A long-lived submit/stream pipeline on one backend (see module doc).

    Subclasses wire the executor hooks (``_submit_one``, ``_shutdown``) and
    call back into ``_complete_run``/``_fail`` from their own threads; this
    base owns every piece of stream accounting — admission windows, ordered
    delivery buffering, stream ids, drain barriers, per-stage metrics, the
    abort flag and error stickiness — so the executors cannot drift apart on
    lifecycle semantics.

    Streams are strictly sequential: ``drain()`` is the boundary, and the
    executor pipeline is empty of stream *s* before stream *s+1* admits its
    first item.  An executor error poisons the session (``broken``); every
    subsequent ``submit``/``results``/``drain`` re-raises it, and the
    owning backend opens a fresh session on the next run.

    ``_lock`` (a plain lock) guards all of that state and the assembly
    buffer.  No wait polls a clock: a parked ``submit``, ``results()``,
    ``drain()`` or ``Ticket.wait`` waits on ``_bell``, rung by a delivery
    (only while someone is parked), the drain barrier and its end, an
    error and close.  The idle flusher waits on ``_flush_bell``: close, and
    the first item of an empty buffer, whose linger deadline it then waits
    out.
    """

    def __init__(
        self,
        backend: "Backend",
        *,
        max_inflight: "int | None" = None,
        telemetry=None,
        batching=None,
    ) -> None:
        for name, value in (("max_inflight", max_inflight), ("batching", batching)):
            if value is not None and not (type(value) is int and value > 0):
                raise ValueError(f"{name} must be None or a positive int, got {value!r}")
        #: Items per micro-batch, or None when batching is off.
        self._batch_items = batching
        self.backend = backend
        # The admission window: items admitted but not yet completed, and
        # the one in-flight bound — every executor's lanes take their depth
        # from it (``_lane_depth``).  None (the default) leaves admission to
        # the executor's own queues of ``capacity``.
        self.max_inflight = max_inflight
        self._lock = threading.Lock()  # guards the state below (class docstring)
        self._bell = Bell(self._lock)
        self._flush_bell = Bell(self._lock)
        # RLock: close callbacks (e.g. "close the owning backend") re-enter
        # close(), which must no-op instead of deadlocking; a concurrent
        # closer from another thread still waits for shutdown to finish.
        self._close_lock = threading.RLock()
        self._out: deque = deque()
        self._taken: dict[int, deque] = {}  # id -> run, one per live results() iterator
        self._stream = -1
        self._streaming = False
        self._eos = False
        self._submitted = 0
        self._delivered = 0
        self._gseq = 0
        self._error: BaseException | None = None
        self._closed = False
        #: Raised by ``_fail`` and by a mid-stream ``close``: the executor
        #: drops what is in flight and every put parked on a full queue gives up.
        self._abort = threading.Event()
        self._on_close: list[Callable[[], None]] = []
        # --- micro-batch assembly state (all mutated under _lock) --------
        self._buf: list[Any] = []  # admitted items awaiting a batch cut
        self._buf_bytes = 0
        self._buf_deadline = 0.0  # perf_counter deadline for a linger flush
        self._bseq = 0  # session-wide batch number: the executors' seq under batching
        #: bseq -> (first item's gseq, item count) of every undelivered
        #: batch; the routed lanes name batch-covering records by item here.
        self._batch_map: dict[int, tuple[int, int]] = {}
        self._opened_t0 = time.perf_counter()
        #: Short unique id of this session; the prefix of every item's
        #: trace id (``<session_id>:<stream>:<seq>``, minted at submit).
        self.session_id = uuid.uuid4().hex[:8]
        self._stream_t0 = 0.0
        #: Wall seconds of the last drained stream.
        self.last_stream_elapsed: float | None = None
        #: Structured event bus (schema in :data:`repro.obs.events.SCHEMA`).
        #: Created here — before any subclass executor machinery starts — and
        #: adopted by the backend, so emit sites anywhere in the executor
        #: (including distributed warm-up) publish to this session's bus.
        self.events = EventBus(clock=self.now)
        backend._events_bus = self.events
        n = backend.pipeline.n_stages
        #: Per-stage metrics, and the lock that guards each stage's.
        self.instrumentation = PipelineInstrumentation(n, events=self.events)
        self._stage_locks = [threading.Lock() for _ in range(n)]
        if telemetry is not None:
            from repro.obs.exporters import as_telemetry

            as_telemetry(telemetry).attach(self)
        self.events.emit(
            "session.open",
            backend=backend.name,
            stages=[s.name for s in backend.pipeline.stages],
            max_inflight=max_inflight,
            session_id=self.session_id,
        )
        if self._batch_items is not None:
            # The flusher guarantees the linger deadline (partial batches
            # under trickle load).
            threading.Thread(
                target=self._flusher_loop,
                name=f"session-{self.session_id}-flush",
                daemon=True,
            ).start()

    # ------------------------------------------------------------- properties
    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def broken(self) -> bool:
        """True once an executor error poisoned the session."""
        return self._error is not None

    @property
    def stream(self) -> int:
        """Id of the current (or most recent) stream; -1 before the first."""
        return self._stream

    @property
    def backlog(self) -> int:
        """Items admitted to the current stream but not yet completed."""
        with self._lock:
            return self._submitted - self._delivered

    def stats(self) -> SessionStats:
        with self._lock:
            # An earlier stream delivered all it admitted, or the session closed with it.
            sub, done, drained = self._submitted, self._delivered, not self._streaming
            return SessionStats(self._stream + drained, self._gseq - sub + done, sub, done)

    def now(self) -> float:
        """Seconds since the session opened (the instrumentation clock)."""
        return time.perf_counter() - self._opened_t0

    def perf_to_session(self, t: float) -> float:
        """Map a raw ``time.perf_counter()`` reading onto the session clock.

        Executors that stamp timestamps off the hot path (dispatch times,
        socket receipt times) convert them here when emitting events, so
        every journal record shares one time base.
        """
        return t - self._opened_t0

    # ------------------------------------------------------------- public API
    def submit(self, item: Any) -> Ticket:
        """Admit one item into the current stream (opening one lazily).

        Blocks while ``max_inflight`` items are admitted-but-incomplete
        (the bounded-admission backpressure; with the ``None`` default the
        executor's bounded queues alone apply) and raises the executor's
        error if the session broke meanwhile.  Thread-safe: concurrent
        producers interleave safely (every executor restores sequence
        order downstream).
        """
        blocked_t0: float | None = None
        cut: tuple | None = None
        with self._lock:
            while True:
                self._raise_if_unusable()
                if self._streaming and self._eos:
                    raise RuntimeError(
                        "stream is draining; wait for drain() to return before "
                        "submitting to the next stream"
                    )
                if not self._streaming:
                    self._stream += 1
                    self._streaming = True  # drain() left _eos down and no batch buffer
                    self._submitted = 0
                    self._delivered = 0
                    self._out.clear()
                    self._stream_t0 = time.perf_counter()
                    # Under the lock, so it precedes every admission of the
                    # stream (no subscriber takes this lock).
                    self.events.emit("stream.begin", stream=self._stream)
                if (
                    self.max_inflight is None
                    or self._submitted - self._delivered < self.max_inflight
                ):
                    stream = self._stream
                    seq = self._submitted
                    self._submitted += 1
                    gseq = self._gseq
                    self._gseq += 1
                    if self._batch_items is not None:
                        # Announced before it is buffered: from there any
                        # thread's cut may emit the batch.assemble naming it.
                        self._announce(stream, seq, gseq, blocked_t0)
                        cut = self._buffer_item_locked(item)
                    break
                # Window full: wait, then re-evaluate the stream state from
                # scratch — drain() may have ended (or finished) the stream
                # while we were parked, and an admission granted against the
                # old stream would slip past its end-of-stream barrier and
                # corrupt the next stream's ordering.
                if blocked_t0 is None:
                    blocked_t0 = time.perf_counter()
                if self._buf:
                    # Deadlock guard: the window cannot reopen while admitted
                    # items sit in the assembly buffer, so submit them as a
                    # partial batch (outside the lock) instead of parking.
                    window_cut = self._cut_locked("window")
                    self._lock.release()
                    try:
                        self._submit_cut(window_cut)
                    finally:
                        self._lock.acquire()
                    continue
                self._bell.wait()
        if self._batch_items is None:
            self._announce(stream, seq, gseq, blocked_t0)
            try:
                self._submit_one(gseq, item)
            except BaseException as err:
                self._deliver_error(err)
                raise
        elif cut is not None:
            self._submit_cut(cut)
        return tuple.__new__(Ticket, (stream, seq, self))  # Ticket(), without its frame

    def _announce(self, stream: int, seq: int, gseq: int, blocked_t0: float | None) -> None:
        """Emit ``item.submit``, minting the item's span: (stream, seq) is its
        Ticket, gseq the number every lane record names it by; ``wait`` only
        when bounded admission blocked (the profiler's admit-wait phase)."""
        if self.events.wants("item.submit"):
            wait = 0.0 if blocked_t0 is None else time.perf_counter() - blocked_t0
            self.events.emit(
                "item.submit", stream=stream, seq=seq, gseq=gseq,
                trace=f"{self.session_id}:{stream}:{seq}", **({"wait": wait} if wait else {}),
            )

    def results(self) -> Iterator[Any]:
        """Yield the current stream's outputs in order, as they complete.

        Binds to the stream active at the call (or the next one to open)
        and ends once that stream has drained and every output was taken —
        by this iterator or by :meth:`drain`, whichever gets there first.
        Safe to consume from one thread while another submits.  Each lock
        round takes the whole ready run; what it has not yielded yet stays
        the stream's: :meth:`drain` takes it, and an early stop (``break``,
        ``close()``) puts it back in front of the stream.  An executor error
        is raised before the next output.
        """
        mine: deque = deque()  # this iterator's run: taken, not yet yielded
        with self._lock:
            target = self._stream if self._streaming else self._stream + 1
            self._taken[id(mine)] = mine
        try:
            while True:
                if not mine:
                    with self._lock:
                        while True:
                            if self._error is not None:
                                raise self._error
                            if self._closed or self._stream > target:
                                return  # closed, or the target stream came and went entirely
                            if self._stream == target:
                                if self._out:
                                    mine.extend(self._out)
                                    self._out.clear()
                                    break
                                if not self._streaming:
                                    return  # drained; drain() took the leftovers
                                if self._eos and self._delivered >= self._submitted:
                                    return  # complete and fully consumed
                            self._bell.wait()
                if self._error is not None:
                    raise self._error  # before the next output, as each round checks
                try:
                    value = mine.popleft()
                except IndexError:  # drain() took the rest
                    continue
                yield value
        finally:
            if mine:  # stopped early
                with self._lock:
                    self._out.extendleft(reversed(mine))
                    mine.clear()
            del self._taken[id(mine)]

    def drain(self) -> list[Any]:
        """End the current stream, wait for it, return unconsumed outputs.

        The returned list is ordered and holds exactly the outputs no
        ``results()`` consumer already took (the whole stream for the
        plain open → submit\\* → drain batch pattern, usually empty when a
        consumer thread is active).  ``[]`` when no stream is open.
        """
        with self._lock:
            self._raise_if_unusable()
            if not self._streaming:
                return []
            if self._eos:
                raise RuntimeError("drain() already in progress for this stream")
            self._eos = True
            self._bell.ring()  # the barrier: a parked submit must see it
            stream, n = self._stream, self._submitted
            cut = self._cut_locked("drain") if self._buf else None
        if cut is not None:
            self._submit_cut(cut)
        with self._lock:
            while self._delivered < n:
                if self._error is not None:
                    raise self._error
                if self._closed:
                    raise SessionClosed("session closed while draining")
                self._bell.wait()
            # Runs results() iterators took and have not yielded come first.
            leftovers = [x for run in [*self._taken.values()] for x in _popping(run)]
            leftovers += self._out
            self._out.clear()
            self._streaming = False
            self._eos = False
            self.last_stream_elapsed = time.perf_counter() - self._stream_t0
            self._bell.ring()
        self.events.emit(
            "stream.drain",
            stream=stream,
            items=n,
            elapsed=self.last_stream_elapsed,
        )
        return leftovers

    def close(self) -> None:
        """Release the session's executor resources (idempotent).

        A mid-stream close aborts: admitted-but-incomplete items are
        dropped, exactly as a one-shot run's abort dropped them.
        """
        with self._close_lock:
            with self._lock:
                if self._closed:
                    return
                self._closed = True
                unfinished = self._submitted > self._delivered
                self._bell.ring()
                self._flush_bell.ring()
            stats = self.stats()  # what was delivered before the abort below
            if unfinished or self.broken:
                self._abort.set()  # drop in-flight items instead of finishing them
                self._wake_lane()
            # Before _shutdown, so executor teardown events (replica
            # removals, worker shutdowns) follow it in the journal and the
            # telemetry close callback has not yet run.
            self.events.emit("session.close", streams=stats.streams_completed,
                             items_total=stats.items_total)
            first_err: BaseException | None = None
            try:
                self._shutdown()
            except BaseException as err:  # noqa: BLE001 - still run callbacks
                first_err = err
            for cb in self._on_close:
                try:
                    cb()
                except BaseException as err:  # noqa: BLE001
                    if first_err is None:
                        first_err = err
            if first_err is not None:
                raise first_err

    def add_close_callback(self, cb: Callable[[], None]) -> None:
        """Run ``cb`` after this session's executor shutdown (in order)."""
        self._on_close.append(cb)

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ---------------------------------------------------------- observation
    def snapshots(self) -> list[StageSnapshot]:
        return self.instrumentation.snapshots(self._stage_locks)

    def service_means(self) -> list[float]:
        return [
            s.total.mean if s.total.n else math.nan
            for s in self.instrumentation.stages
        ]

    # ------------------------------------------------- executor-side callbacks
    def _record_trails(self, burst: list, speed=None) -> None:
        """Record a burst's ``(seq, value, trail)``s: each stage's hops — ``(stage,
        worker, service_s, nbytes_out, queued, at, speed, phases)``, or the
        first six given the burst's ``speed`` — with one ``record_hops`` in one
        stage-lock round, in item space."""
        hops: dict = {}
        batches, tail = self._batch_map, () if speed is None else (speed, None)
        for seq, _, trail in burst:
            where = batches.get(seq) or (seq, 1)
            for hop in trail:
                hops.setdefault(hop[0], []).append(where + hop + tail)
        stages, locks = self.instrumentation.stages, self._stage_locks
        for i, stage_hops in hops.items():
            with locks[i]:
                stages[i].record_hops(stage_hops)

    def _complete_run(self, values: list) -> None:
        """The one way out: count a run of in-order outputs with one completion
        record, deliver it in one lock round with at most one ring — a burst's
        batches, under batching, as the one run of their items — then emit
        their ``item.complete``s.

        Called by the executor's single egress thread, so the completion
        record needs no lock.
        """
        bseqs = ()
        if self._batch_items is not None:
            bseqs = [batch.bseq for batch in values]
            values = [x for batch in values for x in batch.items]
        self.instrumentation.record_completion(self.now(), items=len(values))
        with self._lock:
            stream, seq = self._stream, self._delivered
            self._out.extend(values)
            self._delivered += len(values)
            for bseq in bseqs:
                self._batch_map.pop(bseq, None)
            if self._bell.parked:
                self._bell.ring()
        # Emit outside _lock: a journal write under the session lock would
        # serialise submitters behind the exporter's I/O.  Delivery is in
        # input order, so the pre-increment count *is* the first item's seq.
        if self.events.wants("item.complete"):
            for k in range(seq, seq + len(values)):
                self.events.emit("item.complete", stream=stream, seq=k)

    def _fail(self, stage: int, err: BaseException) -> None:
        """The one way to fail: poison the session with a :class:`StageError`.

        The error is delivered before ``_abort`` rises, so whoever finds the
        flag up (a put that gave up, a parked submit) finds the error too.
        """
        if not isinstance(err, StageError):
            err = StageError(self.backend.pipeline.stage(stage).name, err)
        self._deliver_error(err)
        self._abort.set()
        self._wake_lane()

    def _aborted(self) -> BaseException:
        """What a submit raises when the executor gave up on its item."""
        if self._error is not None:
            return self._error
        return SessionClosed("session closed while submitting")

    def _deliver_error(self, err: BaseException) -> None:
        """Poison the session with the executor's (first) error."""
        with self._lock:
            first = self._error is None
            if first:
                self._error = err
            self._bell.ring()
        if first:
            self.events.emit("session.error", error=repr(err))

    def _raise_if_unusable(self) -> None:
        if self._error is not None:
            raise self._error
        if self._closed:
            raise SessionClosed(
                f"session on backend {self.backend.name!r} is closed"
            )

    def _ticket_done_locked(self, stream: int, seq: int) -> bool:
        """Whether item ``seq`` of ``stream`` has been delivered (under _lock)."""
        if stream < self._stream + (not self._streaming):  # drained
            return True
        # Streams are sequential: an undrained ticket stream is either the
        # live one (delivery is in order, so the delivered count decides)
        # or a stream abandoned by a mid-stream close (never done).
        return stream == self._stream and seq < self._delivered

    def _emit_items(self, kind: str, seq: int, **fields: Any) -> None:
        """Emit ``kind`` about executor seq ``seq``, in item space.

        The one place a batch-covering event becomes ``seq`` = first item
        plus an ``items`` count (omitted for a single item), so journal
        events name items by the ``gseq`` their ``item.submit`` carried;
        ``wants()`` gated, so hot paths call it unconditionally.  Reads of
        ``_batch_map`` are GIL-atomic dict gets, safe from lane threads.
        """
        if self.events.wants(kind):
            first, items = self._batch_map.get(seq) or (seq, 1)
            if items > 1:
                fields["items"] = items
            self.events.emit(kind, seq=first, **fields)

    # --------------------------------------------------- micro-batch assembly
    def _buffer_item_locked(self, item: Any) -> tuple | None:
        """Admit one item into the assembly buffer; cut when a bound trips.

        Called under ``_lock`` right after admission, so buffer order is
        exactly sequence order and every buffered run is consecutive.
        Returns the cut (for the admitting thread to submit outside the
        lock) when the size or byte bound tripped, else None.
        """
        if not self._buf:
            self._buf_deadline = time.perf_counter() + _batching.LINGER_S
            if self._flush_bell.parked:
                self._flush_bell.ring()  # its linger deadline starts now
        self._buf.append(item)
        self._buf_bytes += approx_nbytes(item)
        if len(self._buf) >= self._batch_items:
            return self._cut_locked("size")
        if self._buf_bytes >= _batching.MAX_BYTES:
            return self._cut_locked("bytes")
        return None

    def _cut_locked(self, reason: str) -> tuple:
        """Seal the assembly buffer (the latest n admissions) into one Batch, under ``_lock``."""
        bseq, n = self._bseq, len(self._buf)
        self._bseq += 1
        batch = Batch(self._buf, self._submitted - n, self._gseq - n, bseq)
        self._batch_map[bseq] = (batch.gbase, len(batch.items))
        self._buf = []
        self._buf_bytes = 0
        return (self._stream, batch, reason)

    def _submit_cut(self, cut: tuple) -> None:
        """Hand one sealed batch to the executor (outside ``_lock``).

        Out-of-order arrival *between* submitters is fine — every executor
        restores sequence order downstream.
        """
        stream, batch, reason = cut
        if self.events.wants("batch.assemble"):
            self.events.emit(
                "batch.assemble", stream=stream, seq=batch.gbase, base=batch.base_seq,
                items=len(batch.items), reason=reason,
            )
        try:
            self._submit_one(batch.bseq, batch)
        except BaseException as err:
            self._deliver_error(err)
            raise

    def _flusher_loop(self) -> None:
        """Background flusher: cut a partial batch once its linger deadline passes."""
        while True:
            with self._lock:
                if self._closed:
                    return
                if not self._buf:  # drain() cuts it under this lock as it ends the stream
                    self._flush_bell.wait()
                    continue
                now = time.perf_counter()
                if now < self._buf_deadline:
                    self._flush_bell.wait(self._buf_deadline - now)
                    continue
                cut = self._cut_locked("linger")
            try:
                self._submit_cut(cut)
            except BaseException:  # noqa: BLE001 - session already poisoned
                pass

    # ------------------------------------------------------ admission window
    def _lane_depth(self) -> int:
        """Units (items or batches) per lane queue or replica: ``ceil(W / batch
        items)`` for window ``W``, within [default ``capacity``, the lane
        ceiling]; ``capacity`` with no window or a given one."""
        if self.max_inflight is None or self.backend._fixed_capacity:
            return self.backend.capacity
        units = math.ceil(self.max_inflight / (self._batch_items or 1))
        return max(self.backend.capacity, min(_WINDOW_CEILING, units))

    # ------------------------------------------------------- executor hooks
    def _submit_one(self, seq: int, item: Any) -> None:
        """Hand one admitted item to the executor (may block on its queues).

        ``seq`` is the item's session-wide ``gseq`` — a batch's ``bseq``
        under batching — the one number the executor orders by and its
        records name; it never restarts at a stream boundary.
        """
        raise NotImplementedError

    def _wake_lane(self) -> None:
        """Wake whatever waits on executor capacity (``_abort`` was just set)."""

    def _shutdown(self) -> None:
        """Stop the session's executor machinery (called once, from close)."""


class Backend:
    """Port through which pipelines execute (see module docstring).

    An adapter names its ``session_class`` and implements ``_resize``; the
    replica shape itself lives here.
    """

    name: str = "abstract"
    #: The executor's native :class:`Session`; ``open()`` builds one per call.
    session_class: "type[Session]"

    def __init__(
        self,
        pipeline: PipelineSpec,
        *,
        replicas: "list[int] | None" = None,
        capacity: "int | None" = None,
        max_replicas: int = 1,
    ) -> None:
        self.pipeline = pipeline
        #: Bound of the executor's queues (per stage, worker or replica).
        self.capacity = 8 if capacity is None else capacity
        self._fixed_capacity = capacity is not None  # else a window may deepen lanes
        check_positive(self.capacity, "capacity")
        check_positive(max_replicas, "max_replicas")
        #: Requested replicas per stage: what a cold executor warms up to
        #: and what ``reconfigure`` records before the live one follows.
        self._target = validate_pipeline_shape(pipeline, replicas, f"{self.name} backend")
        #: Warm-pool size of a replicable stage; covers the starting shape.
        self.max_replicas = max(max_replicas, *self._target)
        self._closed = False
        self._session: Session | None = None
        self._run_lock = threading.Lock()  # one run() at a time
        # Replaced by each session's bus the moment it is constructed, so
        # backend-owned machinery (pools, the distributed coordinator) can
        # emit unconditionally from the day the backend is built.
        self._events_bus: EventBus = NULL_BUS

    # ------------------------------------------------------------- sessions
    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def events(self) -> EventBus:
        """The live session's event bus (an inert null bus before one)."""
        return self._events_bus

    def open(
        self,
        *,
        max_inflight: "int | None" = None,
        telemetry=None,
        batching=None,
    ) -> Session:
        """Open a long-lived streaming session on this backend's executor.

        One session at a time: the executors share warm state (pools,
        sockets, the event loop), so a second concurrent session would
        interleave streams.  Close (or drain and reuse) the current one.

        ``telemetry`` (a :class:`repro.obs.Telemetry` or a journal path) is
        forwarded to ``Session.__init__``, which attaches it before any
        executor machinery starts — so warm-up events are captured too.
        ``batching`` (None, or a positive int: items per batch) turns on
        transparent micro-batching.  A bad ``max_inflight`` or ``batching``
        raises ``ValueError`` before any executor machinery starts.
        """
        if self.closed:
            raise RuntimeError("backend is closed")
        if self._session is not None and not self._session.closed:
            raise RuntimeError(
                "a session is already open on this backend; close it first"
            )
        self._session = self.session_class(
            self, max_inflight=max_inflight, telemetry=telemetry, batching=batching
        )
        return self._session

    def _current_session(self) -> Session:
        """The open session, replacing a closed or poisoned one."""
        session = self._session
        if session is not None and session.broken and not session.closed:
            session.close()
        if session is None or session.closed or session.broken:
            session = self.open()
        return session

    # ------------------------------------------------------------- lifecycle
    def run(self, inputs: Iterable[Any]) -> BackendResult:
        """One bounded stream on the caller's thread: open → submit\\* → drain.

        ``submit`` blocks on the executor's queues (and the admission
        window), so to observe or reconfigure mid-flight call this from a
        producer thread — or hold the session yourself.
        """
        if not self._run_lock.acquire(blocking=False):
            raise RuntimeError("backend already running; wait for that run() to return")
        session = None
        try:
            session = self._current_session()
            n = 0
            for item in inputs:
                session.submit(item)
                n += 1
            outputs = session.drain()
        except BaseException:
            # A poisoned session's executor state is unknown: reap it now so
            # the next run opens a clean one on the warm backend.
            if session is not None:
                session.close()
            raise
        finally:
            self._run_lock.release()
        return BackendResult(
            backend=self.name,
            outputs=outputs,
            items=n,
            elapsed=session.last_stream_elapsed if n else 0.0,
            service_means=session.service_means(),
            replica_counts=self.replica_counts(),
        )

    def close(self) -> None:
        """Release warm resources; the backend may not be reused after."""
        self._closed = True
        if self._session is not None:
            self._session.close()

    def __enter__(self) -> "Backend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ----------------------------------------------------------- observation
    def snapshots(self) -> list[StageSnapshot]:
        """Windowed per-stage service, work and payload-size measurements."""
        if self._session is None:
            return []
        return self._session.snapshots()

    def items_completed(self) -> int:
        if self._session is None:
            return 0
        return self._session.instrumentation.items_completed

    def recent_throughput(self, horizon: float) -> float:
        """Sink completions/s over the trailing ``horizon`` (NaN = no data)."""
        if self._session is None:
            return math.nan
        return self._session.instrumentation.recent_throughput(
            self._session.now(), horizon
        )

    def resource_view(self, n_procs: int) -> ResourceView | None:
        """Measured view of the substrate as a virtual grid of ``n_procs``.

        Backends that can ground the planner's virtual grid in reality —
        host load, per-worker speeds, measured link costs — return a
        :class:`~repro.model.throughput.ResourceView` whose pids are exactly
        ``0..n_procs-1``; ``None`` (the default) keeps the runner's uniform
        unit-speed assumption.
        """
        return None

    # ----------------------------------------------------------------- shape
    def replica_counts(self) -> list[int]:
        return list(self._target)

    def replica_limit(self, stage: int) -> int:
        """Largest replica count ``reconfigure`` can honour for ``stage``."""
        return self.max_replicas if self.pipeline.stage(stage).replicable else 1

    def reconfigure(self, stage: int, n_replicas: int) -> None:
        """Set ``stage``'s degree of parallelism, live.

        Counts clamp to ``[1, replica_limit(stage)]`` — a stateful stage
        clamps to 1 — and are recorded as the target shape, which a cold
        executor warms up to and the next session inherits.
        """
        if n_replicas < 1:
            raise ValueError(f"n_replicas must be >= 1, got {n_replicas}")
        n_replicas = min(n_replicas, self.replica_limit(stage))
        self._target[stage] = n_replicas
        self._resize(stage, n_replicas)

    def _resize(self, stage: int, n_replicas: int) -> None:
        """Bring the live executor's ``stage`` to ``n_replicas`` (already clamped)."""


def validate_pipeline_shape(
    pipeline: PipelineSpec, replicas: "list[int] | None", runtime_name: str
) -> list[int]:
    """Validate a replica shape against the pipeline; returns the counts.

    One set of rejection messages for every executor: length mismatch,
    sub-1 counts, replicated stateful stages and stages without a callable
    all raise ``ValueError`` here.
    """
    n = pipeline.n_stages
    if replicas is None:
        replicas = [1] * n
    if len(replicas) != n:
        raise ValueError(f"replicas must list {n} counts, got {len(replicas)}")
    for i, r in enumerate(replicas):
        spec = pipeline.stage(i)
        if r < 1:
            raise ValueError(f"stage {i} replica count must be >= 1, got {r}")
        if r > 1 and not spec.replicable:
            raise ValueError(
                f"stage {i} ({spec.name!r}) is stateful and cannot be replicated"
            )
        if spec.fn is None:
            raise ValueError(
                f"stage {i} ({spec.name!r}) has no fn; the {runtime_name} "
                "executes real callables"
            )
    return list(replicas)


# ------------------------------------------------------------------ executors
#: Every executor by name: the module that defines it and its class.  A
#: process imports the one it opens, not all three.
_EXECUTORS = {
    "asyncio": ("repro.backend.thread_backend", "ThreadBackend"),
    "distributed": ("repro.backend.distributed.coordinator", "DistributedBackend"),
    "processes": ("repro.backend.process_backend", "ProcessPoolBackend"),
    "threads": ("repro.backend.thread_backend", "ThreadBackend"),
}


def available_backends() -> list[str]:
    return sorted(_EXECUTORS)


def make_backend(
    backend: str | Backend, pipeline: PipelineSpec | None = None, **kwargs
) -> Backend:
    """Resolve ``backend`` (a name or an instance) to a :class:`Backend`.

    Passing an instance returns it unchanged; it is already configured, so
    any kwargs raise ``ValueError``.  When both an instance *and* a
    ``pipeline`` are given, the instance must run the same stage callables:
    silently executing a different pipeline than the caller reasons about
    is the one mistake this seam must not allow.
    """
    if isinstance(backend, Backend):
        if kwargs:
            raise ValueError(
                f"a backend instance is already configured; unexpected kwargs: {sorted(kwargs)}"
            )
        if pipeline is not None and [s.fn for s in backend.pipeline.stages] != [
            s.fn for s in pipeline.stages
        ]:
            raise ValueError(
                f"backend instance was built for pipeline "
                f"{backend.pipeline!s}, which does not run the given stages"
            )
        return backend
    try:
        module, cls = _EXECUTORS[backend]
    except KeyError:
        raise ValueError(
            f"unknown backend {backend!r}; "
            f"available: {', '.join(available_backends())}"
        ) from None
    if pipeline is None:
        raise ValueError("a PipelineSpec is required to build a backend by name")
    __import__(module)  # not import_module: -X importtime only times this entry
    return getattr(sys.modules[module], cls)(pipeline, **kwargs)
