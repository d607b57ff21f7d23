"""Per-item trace spans: one item's timeline across the whole stack.

A span is minted at ``submit()`` — its id is the item's
:class:`~repro.backend.base.Ticket` ``(stream, seq)`` — and every later
event that names the item (``stage.service``, ``frame.encode``/
``frame.release``, ``worker.redispatch``, ``item.complete``) is attached
to it, reconstructing the submit→queue→encode→wire→service→reorder→yield
timeline; on the distributed lane each ``stage.service`` also carries its
hop's wire, queue and encode phases.  Spans are rebuilt from the journal
(:func:`spans_from_journal`), so a session keeps no per-item store: the
journal is the one durable record of each item.

``item.submit``/``item.complete`` name the item by its ticket; every other
record names it by the session-wide ``gseq`` that ``item.submit`` carried
(a batch-covering record by its first member's, plus ``items``) — the one
number every executor keys its records by — so the collector resolves
them through a single ``gseq`` index.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.events import Event

__all__ = ["Span", "SpanCollector", "spans_from_journal"]


@dataclass
class Span:
    """One item's event timeline, keyed by its submit ticket."""

    stream: int
    seq: int
    events: list[Event] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return any(e.kind == "item.complete" for e in self.events)

    @property
    def trace_id(self) -> str | None:
        """The trace id minted at submit (``<session>:<stream>:<seq>``)."""
        sub = self.first("item.submit")
        if sub is None:
            return None
        return sub.fields.get("trace")

    @property
    def redispatched(self) -> bool:
        """True when a worker died holding this item and it was re-sent."""
        return any(e.kind == "worker.redispatch" for e in self.events)

    @property
    def status(self) -> str:
        """``complete`` | ``redispatched`` (re-sent, outcome pending) | ``open``.

        A span that never completes because its worker died is not left
        looking merely unfinished: the ``worker.redispatch`` event is part
        of the span, so its state is visibly "re-sent elsewhere" and the
        replacement attempt's ``stage.service`` records land on this same
        span.
        """
        if self.complete:
            return "complete"
        if self.redispatched:
            return "redispatched"
        return "open"

    def first(self, kind: str) -> Event | None:
        for e in self.events:
            if e.kind == kind:
                return e
        return None

    @property
    def latency(self) -> float | None:
        """submit→yield seconds (None until the item completes)."""
        sub = self.first("item.submit")
        done = self.first("item.complete")
        if sub is None or done is None:
            return None
        return done.time - sub.time

    @property
    def service_seconds(self) -> float:
        """Total measured stage service time attributed to this item.

        A batch-covering record (``items=N``, ``seconds`` = batch total)
        is shared by N spans, so each span claims ``seconds / items`` —
        summing ``service_seconds`` across spans stays equal to the wall
        time the stages actually spent.
        """
        return sum(
            e.fields.get("seconds", 0.0) / max(int(e.fields.get("items", 1)), 1)
            for e in self.events
            if e.kind == "stage.service"
        )

    def phases(self) -> list[tuple[float, str]]:
        """Chronological ``(time, kind)`` points of the timeline."""
        return sorted((e.time, e.kind) for e in self.events)


class SpanCollector:
    """Groups per-item events into :class:`Span` objects (one reader, no lock)."""

    KINDS = (
        "item.submit",
        "item.complete",
        "stage.service",
        "frame.encode",
        "frame.release",
        # A worker death mid-item re-sends it: the redispatch event joins
        # the span so it reads "re-sent" instead of dangling open.
        "worker.redispatch",
    )

    def __init__(self) -> None:
        self._spans: dict[tuple[int, int], Span] = {}
        self._by_gseq: dict[int, Span] = {}

    def __call__(self, ev: Event) -> None:
        f = ev.fields
        if ev.kind in ("item.submit", "item.complete"):
            if "stream" not in f or "seq" not in f:
                return
            key = (int(f["stream"]), int(f["seq"]))
            span = self._spans.setdefault(key, Span(*key))
            if "gseq" in f:
                self._by_gseq[int(f["gseq"])] = span
            span.events.append(ev)
            return
        seq = f.get("seq")
        if seq is None or ev.kind not in self.KINDS:
            return
        # A batch-covering event names its base seq and carries
        # ``items=N``: attach it to all N spans so every item in the
        # micro-batch keeps a full timeline (consumers divide any
        # ``seconds`` field by ``items`` for per-item attribution).
        for k in range(int(f.get("items", 1))):
            span = self._by_gseq.get(int(seq) + k)
            if span is not None:
                span.events.append(ev)

    # --------------------------------------------------------------- access
    def spans(self) -> list[Span]:
        """Every span so far, ordered by ``(stream, seq)``."""
        return [self._spans[k] for k in sorted(self._spans)]

    def span(self, stream: int, seq: int) -> Span | None:
        return self._spans.get((stream, seq))


def spans_from_journal(path) -> list[Span]:
    """Rebuild spans from a JSONL journal written by :class:`JsonlJournal`."""
    from repro.obs.journal import read_journal, to_event

    collector = SpanCollector()
    for rec in read_journal(path):
        collector(to_event(rec))
    return collector.spans()
