"""Structured runtime events: one typed schema for every execution layer.

The adaptation pattern is observe→decide→act, but until this module the
*observe* half was internal — instrumentation snapshots fed the policy and
vanished.  :class:`EventBus` is the session-wide fan-out point: sessions,
executors, the runtime adaptation loop and the distributed coordinator all
emit :class:`Event` records with kinds drawn from :data:`SCHEMA`, and
exporters (:mod:`repro.obs.journal`, :mod:`repro.obs.metrics`) subscribe.

The bus is **lock-cheap by construction**: ``emit`` on a bus with no
subscribers is a single attribute test, and with subscribers it iterates an
immutable tuple snapshot — no lock is ever taken on the emit path.  Hot
loops that would pay to *build* an event's fields guard with
:meth:`EventBus.wants` first.

Event times are in the emitting session's clock (:meth:`Session.now`,
seconds since open) unless a different ``clock`` was supplied; the
simulator stamps each emit with its simulated time (``at=``).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from threading import Lock
from typing import Any, Callable, Iterable

__all__ = ["Event", "EventBus", "NULL_BUS", "SCHEMA"]


#: The typed event schema: every kind the runtime emits, with the fields a
#: subscriber can rely on (beyond the always-present ``time``/``kind``).
SCHEMA: dict[str, str] = {
    # -- session / stream lifecycle (backend/base.py) ---------------------
    "session.open": "session opened: backend, stages, max_inflight, session_id",
    "session.close": "session closed: streams, items_total",
    "session.error": "executor error poisoned the session: error",
    "stream.begin": "a stream opened lazily at first submit: stream",
    "stream.drain": "a stream drained: stream, items, elapsed",
    # -- per-item points: the ticket (base session + executors) -----------
    "item.submit": "item admitted (trace minted): stream, seq, gseq, trace[, wait]",
    "item.complete": "item delivered in order: stream, seq",
    # -- micro-batch cut (backend/base.py assembler; seq = the first member's
    #    gseq, base = its stream seq; as in every record below, seq names an
    #    item by its gseq, and items=N a run of N from it)
    "batch.assemble": "admitted items coalesced into a batch: stream, seq, base, items, reason",
    # -- stage service: the one hop record (monitor/instrument.py hook; a
    #    micro-batched record carries the batch-total durations plus items=N;
    #    nbytes = the hop's output frame, where the lane measured it; the
    #    distributed hop adds its decomposition, clock-mapped from the stamps
    #    its route's trail carries: wire_out (in, a peer link's on a peer
    #    hop), worker_queue, encode and wire_back (the boundary's trip home))
    "stage.service": "items serviced: stage, seconds, speed[, items, seq, worker, queue, "
    "nbytes, wire_out, worker_queue, encode, wire_back]",
    # -- replica shape (executors + distributed placement; the simulator's
    #    retirement names the processor instead: stage, pid) ---------------
    "replica.add": "replicas grew: stage, n[, worker]",
    "replica.remove": "replicas shrank: stage, n[, worker]",
    # -- adaptation loop (core/policy.py Controller on either clock:
    #    core/adaptive.py, backend/runner.py; backlog = work left) ---------
    "adapt.decide": "policy evaluated: reason, acts, predicted_gain, backlog; only the live "
    "runner adds trigger = evidence | shift | tick | validate and, for shift, stage, "
    "mean_before, mean_after, step (window cut back to a new level); the distributed "
    "coordinator's re-home after a worker death carries reason, stage, worker",
    "adapt.act": "mapping applied: action, reason, predicted_gain, replicas_before, "
    "replicas_after, throughput_before",
    "adapt.rollback": "post-action validation regressed: action, reason, replicas_before, "
    "replicas_after, throughput_before, throughput_after",
    # -- worker membership (distributed coordinator; processes: death) ----
    "worker.join": "worker registered: worker, name, cores",
    "worker.death": "worker died mid-run: worker, then name, lost_items (distributed) "
    "or stage, exitcode (processes)",
    "worker.redispatch": "lost in-flight item re-sent: stage, seq",
    # -- payload frames (transport boundary) ------------------------------
    "frame.encode": "payload encoded for the wire: stage, seq, nbytes, inline, seconds[, items]",
    "frame.release": "payload frame decoded and released: stage, seq, nbytes[, items]",
    # -- cross-host clock mapping (coordinator-side fit per worker) --------
    "clock.sync": "per-worker clock fit updated: worker, offset, drift, err, n",
}


@dataclass(frozen=True)
class Event:
    """One structured record: timestamp, schema kind, message, payload.

    Positional order is ``time, kind, message, fields``.
    """

    time: float
    kind: str
    message: str = ""
    fields: dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        extra = " ".join(f"{k}={v}" for k, v in self.fields.items())
        return f"[{self.time:12.6f}] {self.kind:<12} {self.message}" + (
            f" ({extra})" if extra else ""
        )


class EventBus:
    """Fans structured events out to subscribers (see module docstring).

    ``subscribe(fn, kinds=...)`` filters delivery at the bus so exporters
    pay only for the kinds they asked for; ``emit`` with no subscribers is
    one branch.  Subscription changes swap an immutable tuple under a lock;
    emitters read it without locking (benign snapshot semantics).
    """

    def __init__(self, clock: Callable[[], float] | None = None) -> None:
        self._clock = clock
        self._subs: tuple[tuple[Callable[[Event], None], frozenset | None], ...] = ()
        self._sub_lock = Lock()
        self._warned_unclocked = False

    # ------------------------------------------------------------ subscribers
    def subscribe(
        self,
        fn: Callable[[Event], None],
        kinds: Iterable[str] | None = None,
    ) -> Callable[[Event], None]:
        """Deliver every subsequent event (or just ``kinds``) to ``fn``."""
        wanted = None if kinds is None else frozenset(kinds)
        if wanted is not None:
            unknown = wanted - SCHEMA.keys()
            if unknown:
                raise ValueError(f"unknown event kinds: {sorted(unknown)}")
        with self._sub_lock:
            self._subs = self._subs + ((fn, wanted),)
        return fn

    def wants(self, kind: str) -> bool:
        """True when some subscriber would receive ``kind``.

        Hot paths that must *build* field payloads (per-item service
        records) guard on this before constructing kwargs.
        """
        for _, wanted in self._subs:
            if wanted is None or kind in wanted:
                return True
        return False

    # ----------------------------------------------------------------- emit
    def emit(self, kind: str, message: str = "", at: float | None = None, **fields: Any) -> None:
        """Publish one event (single branch when nobody subscribed).

        ``at`` overrides the bus clock (used when forwarding events stamped
        elsewhere, e.g. simulated time).  **Timestamp contract**: every
        delivered event carries a real timestamp — either ``at`` or the bus
        clock.  Forwarding an event without ``at`` on a clockless bus has no
        honest time to stamp; it falls back to 0.0 and warns once per bus,
        because a silent 0.0 corrupts every downstream timeline (per-item
        latency, rates, the profiler's phase attribution).
        """
        subs = self._subs
        if not subs:
            return
        if at is None:
            if self._clock is not None:
                at = self._clock()
            else:
                if not self._warned_unclocked:
                    self._warned_unclocked = True
                    warnings.warn(
                        "EventBus has no clock and emit() got no at=; "
                        "stamping 0.0 — construct the bus with clock= or "
                        "pass at= when forwarding events",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                at = 0.0
        ev = Event(time=at, kind=kind, message=message, fields=fields)
        for fn, wanted in subs:
            if wanted is None or kind in wanted:
                fn(ev)


class _NullBus(EventBus):
    """The shared pre-session bus: emits vanish, subscriptions are refused.

    Backends expose ``.events`` from construction, but the per-session bus
    only exists once a session opens; handing out one inert module-level
    singleton before that keeps every emit site unconditional.  Subscribing
    here would silently observe nothing (and leak across backends), so it
    raises instead.
    """

    def subscribe(self, fn, kinds=None):
        raise RuntimeError(
            "cannot subscribe to the null event bus; open a session first "
            "and subscribe to session.events (or pass telemetry= at open)"
        )


NULL_BUS: EventBus = _NullBus()
