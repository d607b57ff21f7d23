"""Micro-batch currency shared by the session layer and every executor.

A :class:`Batch` is one coalesced run of *consecutive* stream items that
travels the executor fabrics as a single logical unit: one queue hop, one
reorderer transaction, one :class:`~repro.transport.Frame` on the wire —
that is the whole amortization story.  Executors stay batching-agnostic on
their dispatch path (a batch is just a value with one sequence number);
only the stage-function application sites map element-wise over
``batch.items``, so stage callables never see batching at all.

This module lives in ``util`` (not ``backend``) because every layer
touches it: the session assembles and splits batches, the thread runtime's
workers and the process/distributed worker *processes* map over them — and
pickled batches must resolve against one importable module on any host.

A session's batch size is one number, the positive int its ``batching=``
names at open.  The assembly buffer is cut when it holds that many items,
when it holds :data:`MAX_BYTES` of payload, or when its first item has
waited :data:`LINGER_S` (under trickle load).
"""

from __future__ import annotations

import sys
from typing import Any, Callable, Iterable

__all__ = [
    "Batch",
    "LINGER_S",
    "MAX_BYTES",
    "map_batch",
]

#: Flush deadline for a partial batch: the first-result latency batching
#: adds under trickle load is at most this.
LINGER_S = 0.002

#: Byte bound per batch, so a batch of large payloads never balloons one
#: frame past what the transport moves well.
MAX_BYTES = 1 << 20


class Batch:
    """One coalesced run of consecutive items, travelling as a single unit.

    ``base_seq`` is the first item's position in its stream (its Ticket
    ``seq``) and ``gbase`` its session-wide ``gseq``, the number every lane
    record names items by; item ``k`` of the batch carries ``base_seq + k``/
    ``gbase + k`` implicitly (assembly only coalesces consecutive
    admissions).  ``bseq`` is the batch's own session-wide number — the one
    executors order and account by.
    """

    __slots__ = ("items", "base_seq", "gbase", "bseq")

    def __init__(self, items: Iterable[Any], base_seq: int, gbase: int, bseq: int) -> None:
        self.items = list(items)
        self.base_seq = base_seq
        self.gbase = gbase
        self.bseq = bseq

    def __len__(self) -> int:
        return len(self.items)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Batch(n={len(self.items)}, base_seq={self.base_seq}, "
            f"gbase={self.gbase}, bseq={self.bseq})"
        )

    # __slots__ classes need explicit state plumbing only below protocol 2;
    # protocol 5 (the transport's floor) handles them natively.


def map_batch(fn: Callable[[Any], Any], batch: Batch) -> Batch:
    """Apply a per-item stage function element-wise; metadata rides along."""
    return Batch([fn(v) for v in batch.items], batch.base_seq, batch.gbase, batch.bseq)


def approx_nbytes(item: Any) -> int:
    """Cheap payload-size estimate for the assembly buffer's byte bound.

    Exact for the bulk carriers (``bytes``-likes and objects exposing
    ``nbytes`` — numpy arrays, memoryviews); ``sys.getsizeof`` for the
    rest.  The byte bound is a guard rail, not an accounting ledger, so a
    shallow estimate is the right cost here.
    """
    nbytes = getattr(item, "nbytes", None)
    if isinstance(nbytes, int):
        return nbytes
    if isinstance(item, (bytes, bytearray, str)):
        return len(item)
    return sys.getsizeof(item)
