"""The routed-stage core shared by the process and distributed executors.

One implementation of the paper's per-stage skeleton — dispatch → collect
→ reorder → forward — for every executor whose workers live behind a
*lane* (queues between forked processes, a TCP link): something that carries an
item's wire form (a codec's output: its pickle stream as ``bytes``, or a
:class:`~repro.transport.Frame` with buffers) to a worker and brings a
result back.  The core knows nothing about what the lane is made of::

    submit ──> lane[0] ──> router[0] ──> lane[1] ──> ... ──> router[n-1] ──> complete
    (caller)   workers     (reorder)     workers             reorder

There is no thread between the caller and stage 0: ``submit()`` encodes and
dispatches on the caller's thread, under one ingress lock, so a producer
feels the lane's bounded queues directly.

Order is restored only where it is needed: a hop pushes through its
:class:`~repro.util.ordering.SequenceReorderer` when the stage it feeds is
ordered (``StageSpec.ordered`` — a stateful stage starts items in input
order, the first one included even when concurrent submitters race) and
the last router always does, so delivery is in input order; between
stateless stages results are forwarded as they arrive and a slow item
never holds its successors back.

:class:`RoutedSession` owns the ingress lock, one router thread per
*boundary* stage, every reorderer, per-stage metrics (stage 0's input size),
item-space event emission, and the egress branch (decode → release → the
port's ``_complete_run``); the abort flag and ``_fail`` are the port's.  A
router works a burst per wake: one stage-lock round per stage records the
burst's hops (``StageMetrics.record_hops``), and the in-order run goes to
the port in one call.  Items travel under the port's session-wide number
(``gseq``, a batch's ``bseq``), which never restarts, so a reorderer runs
on across stream boundaries and every record names items by the ``gseq``
their ``item.submit`` carried.  An executor supplies four hooks:

``_ingress(seq, value)``
    encode one admitted item (through :meth:`RoutedSession._encode`, the
    one encode-event site) and dispatch it to stage 0 — by default with
    the session codec through ``_forward``; a lane that picks the codec
    per target overrides it;
``_poll(stage)``
    every raw result of ``stage`` the lane holds now, as one *burst* (a
    list): it blocks only while there is none, never to fill a burst, and
    returns ``None`` when ``_wake_lane`` was called (a wake inside a burst
    ends it; there is no timeout and an idle session's routers do not run),
    or raises when a worker died;
``_accept(stage, burst)``
    the lane's bookkeeping for that burst — in-flight accounting, stale
    drops, re-dispatch — returning one ``(seq, wire, hops)`` per result it
    delivers: the executor seq, the result's wire form and what every hop of
    the segment did, oldest first and the boundary last, each ``(stage,
    worker, service_s, nbytes_out, queued, at, speed, phases)`` (``phases``:
    the distributed hop's decomposition when traced, else None).  A
    failed result ends the list with the stage's error: what came before it
    is still forwarded or delivered, then the session fails;
``_forward(stage, seq, wire)``
    send one wire form to ``stage`` (in order when it is ordered); ``False``
    when aborted.

The lane also implements the port's ``_wake_lane``: wake every router out
of ``_poll`` and every dispatcher blocked on lane capacity (abort and
``_shutdown`` call it).  ``_attach`` (warm the lane before any thread
starts) and ``_boundaries`` are optional.  By default only the
:func:`boundaries` report here — the last stage and any stage feeding an
ordered one: the workers of the other stages forward worker to worker
along the *segment* up to the next boundary (forked processes sharing
queues, distributed workers linked to their peers), and what their routers
would have recorded arrives in the boundary's hops and is replayed into the
same per-stage records.  A lane where every stage reports returns them all.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Sequence

from repro.backend.base import Backend, Session
from repro.transport import Codec, Wire, wire_nbytes
from repro.util.ordering import SequenceReorderer

__all__ = ["RoutedSession", "boundaries"]


def boundaries(stages: "Sequence") -> list[int]:
    """Where a segment ends: the last stage, and any feeding an ordered one."""
    return [i for i in range(len(stages)) if i + 1 == len(stages) or stages[i + 1].ordered]


class RoutedSession(Session):
    """Caller-side ingress + boundary routers over an executor's lane (see module doc)."""

    def __init__(self, backend: Backend, **config) -> None:
        super().__init__(backend, **config)
        self._stopping = threading.Event()
        # _reorder[i] sits in front of stage i (0 = ingress), _reorder[n] is
        # egress; None where the stage it feeds takes items as they come.
        self._reorder = [
            SequenceReorderer() if spec.ordered else None
            for spec in backend.pipeline.stages
        ] + [SequenceReorderer()]
        # One dispatcher into stage 0 at a time: the ingress reorderer and
        # the lane's entry accounting each keep a single writer.
        self._ingress_lock = threading.Lock()
        self._codec: Codec = backend._codec  # decodes and releases at egress
        self._attach()
        self._threads = [
            threading.Thread(
                target=self._route, args=(i,), name=f"{backend.name}-router[{i}]", daemon=True
            )
            for i in self._boundaries()
        ]
        for t in self._threads:
            t.start()

    # ------------------------------------------------------------ lane hooks
    def _attach(self) -> None:
        """Warm the lane and adopt it (runs before any thread starts)."""

    def _boundaries(self) -> "Sequence[int]":
        """Stages whose results come back here, each to its own router."""
        return boundaries(self.backend.pipeline.stages)

    def _ingress(self, seq: int, value: Any) -> bool:
        return self._forward(0, seq, self._encode(seq, value, self._codec))

    def _poll(self, stage: int) -> Any:
        raise NotImplementedError

    def _accept(self, stage: int, msg: Any) -> "tuple | None":
        raise NotImplementedError

    def _forward(self, stage: int, seq: int, wire: Wire) -> bool:
        raise NotImplementedError

    # ----------------------------------------------------------- port hooks
    def _submit_one(self, seq: int, item: Any) -> None:
        # Concurrent submitters (and the linger flusher) may arrive out of
        # order; an ordered stage 0 must still start in order.
        reorder = self._reorder[0]
        try:
            with self._ingress_lock:
                for pair in ((seq, item),) if reorder is None else reorder.push(seq, item):
                    if self._abort.is_set() or not self._ingress(*pair):
                        break
        except Exception as err:  # e.g. unencodable input
            self._fail(0, err)
        if self._abort.is_set():
            raise self._aborted()

    def _shutdown(self) -> None:
        """Stop the routers (``close`` already aborted an unfinished stream)."""
        self._stopping.set()
        self._wake_lane()
        for t in self._threads:
            t.join(timeout=5.0)

    def _encode(self, seq: int, value: Any, codec: Codec) -> Wire:
        """Encode one admitted item as stage 0's task wire.

        The single emit site of ``frame.encode``; the encode is timed only
        when it has a listener.
        """
        timed = self.events.wants("frame.encode")
        t0 = time.perf_counter() if timed else 0.0
        wire = codec.encode(value)
        nbytes = wire_nbytes(wire)
        with self._stage_locks[0]:
            self.instrumentation.stages[0].record_bytes_in(nbytes)
        if timed:  # a codec builds a Frame only around a segment
            self._emit_items(
                "frame.encode", seq, stage=0, inline=type(wire) is bytes, nbytes=nbytes,
                seconds=time.perf_counter() - t0,
            )
        return wire

    # --------------------------------------------------------------- routing
    def _route(self, stage: int) -> None:
        """Collect stage results, restore order, forward or deliver.

        Any failure here (a stage error raised by ``_accept``, a dead
        worker reported by ``_poll``, a result whose class explodes on
        unpickle) must poison the session rather than leave ``drain()``
        waiting forever for items that will never arrive.
        """
        try:
            self._route_inner(stage)
        except BaseException as err:  # noqa: BLE001 - reported via the session
            self._fail(stage, err)

    def _route_inner(self, stage: int) -> None:
        nxt = stage + 1
        reorder = self._reorder[nxt]
        last = nxt >= self.backend.pipeline.n_stages
        # Every check of the flags follows a burst: a wake that ended one
        # (or came with none) is never missed.
        while not (self._abort.is_set() or self._stopping.is_set()):
            burst = self._poll(stage)
            if burst is None:
                continue
            got = self._accept(stage, burst)
            failed = got.pop() if got and isinstance(got[-1], BaseException) else None
            ready = []
            for seq, wire, _ in got:
                ready += ((seq, wire),) if reorder is None else reorder.push(seq, wire)
            self._record_trails(got)
            # Workers produce wire forms and the next stage's workers expect
            # exactly that format: forward each untouched and decode only
            # final outputs.
            if last:
                self._egress(stage, ready)
            elif not all(self._forward(nxt, *pair) for pair in ready):
                return
            if failed is not None:
                raise failed

    def _egress(self, stage: int, ready: list) -> None:
        """Decode each in-order final wire and release it; deliver the run
        decoded so far, also when a decode fails."""
        codec, values, traced = self._codec, [], self.events.wants("frame.release")
        try:
            for seq, wire in ready:
                values.append(codec.decode(wire))
                codec.release(wire)
                if traced:
                    self._emit_items("frame.release", seq, stage=stage, nbytes=wire_nbytes(wire))
        finally:
            if values:
                self._complete_run(values)
