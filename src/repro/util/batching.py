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

Sizing has three bounds (any one flushes the assembly buffer):

* ``max_items`` — the count bound; ``"auto"`` calibrates it at the first
  batched open from a quick probe of this host's per-item hop cost
  (:func:`calibrated_batch_items`), mirroring the transport layer's
  ``calibrated_auto_threshold`` pattern;
* ``max_bytes`` — the size bound, so a batch of large payloads never
  balloons one frame past what the transport moves well;
* ``linger_s`` — the deadline bound: under trickle load a partial batch is
  flushed after this long, capping the latency cost of waiting for peers.
"""

from __future__ import annotations

import pickle
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from repro.util.handoff import Handoff

__all__ = [
    "Batch",
    "BatchingConfig",
    "DEFAULT_LINGER_S",
    "DEFAULT_MAX_BYTES",
    "calibrated_batch_items",
    "map_batch",
    "normalize_batching",
]

#: Default flush deadline for a partial batch (the first-result latency
#: cost of batching under trickle load is at most this).
DEFAULT_LINGER_S = 0.002

#: Default byte bound per batch — one frame of roughly this size is still
#: comfortably inside the transport's sweet spot (cf. AUTO_THRESHOLD's
#: calibration band topping out at 1 MiB).
DEFAULT_MAX_BYTES = 1 << 20

#: Clamp band for the calibrated (and the explicit) item bound.  The floor
#: keeps auto mode from degenerating into per-item dispatch on fast hosts;
#: the ceiling bounds head-of-line blocking and redispatch cost (a worker
#: death re-sends whole batches).
_ITEMS_MIN = 4
_ITEMS_MAX = 64
_DEFAULT_ITEMS = 16


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


@dataclass(frozen=True)
class BatchingConfig:
    """Resolved batching bounds (see module docstring for the three knobs)."""

    max_items: int
    max_bytes: int = DEFAULT_MAX_BYTES
    linger_s: float = DEFAULT_LINGER_S

    def __post_init__(self) -> None:
        if self.max_items < 1:
            raise ValueError(f"max_items must be >= 1, got {self.max_items}")
        if self.max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {self.max_bytes}")
        if self.linger_s < 0:
            raise ValueError(f"linger_s must be >= 0, got {self.linger_s}")


def normalize_batching(spec: Any, *, work_hint_s: float = 0.0) -> BatchingConfig | None:
    """Resolve the user-facing ``batching=`` spec to a config (or ``None``).

    Accepted forms: ``None``/``False`` (off), ``True``/``"auto"`` (item
    bound calibrated at open), an ``int`` (explicit item bound), a ``dict``
    of :class:`BatchingConfig` fields (``max_items`` may be ``"auto"``), or
    a ready :class:`BatchingConfig`.  ``work_hint_s`` is the pipeline's
    declared per-item service time (sum of stage ``work`` hints); ``auto``
    sizing uses it to keep a batch's service from holding the first result
    back (see :func:`calibrated_batch_items`).
    """
    if spec is None or spec is False:
        return None
    if isinstance(spec, BatchingConfig):
        return spec
    if spec is True or spec == "auto":
        return BatchingConfig(max_items=calibrated_batch_items(work_hint_s=work_hint_s))
    if isinstance(spec, int):
        return BatchingConfig(max_items=spec)
    if isinstance(spec, dict):
        kwargs = dict(spec)
        if kwargs.get("max_items", None) in (None, "auto"):
            kwargs["max_items"] = calibrated_batch_items(work_hint_s=work_hint_s)
        return BatchingConfig(**kwargs)
    raise TypeError(
        "batching must be None, True, 'auto', an int (max items), a dict "
        f"of BatchingConfig fields, or a BatchingConfig; got {spec!r}"
    )


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


_UNCALIBRATED = object()  # cache sentinel: "the probe has not run yet"
_calibrated: "int | object" = _UNCALIBRATED


def calibrated_batch_items(
    *, repeats: int = 3, work_hint_s: float = 0.0, _cache: bool = True
) -> int:
    """Measure this host's per-item hop cost and size batches from it.

    The quantity batching amortizes is the fixed per-item framework cost:
    one bounded hand-off plus one small pickle round trip (the in-process
    and cross-process halves of the per-item tax).  The probe times both
    (best of ``repeats``, like the transport threshold probe) and returns
    how many such hops fit in one default linger window — the batch size
    at which coalescing saves roughly a linger's worth of per-item overhead
    without ever holding an item longer than the deadline already allows.
    Clamped to [{_ITEMS_MIN}, {_ITEMS_MAX}] and cached per process.

    ``work_hint_s`` (the pipeline's declared per-item service time) caps
    the result from the latency side: a whole batch is serviced before its
    first result egresses, so the count bound must keep ``max_items x
    work`` inside the same one-linger budget the deadline bound promises.
    Amortizing a ~e-5 s hop against millisecond stages buys nothing and
    costs batch x service of first-result latency — there ``auto``
    degenerates toward per-item dispatch (down to 1), below the probe
    clamp's floor on purpose.
    """
    global _calibrated
    if _cache and _calibrated is not _UNCALIBRATED:
        result = _calibrated
    else:
        result = _DEFAULT_ITEMS
        try:
            per_item = _probe_hop_cost(repeats)
            if per_item > 0:
                result = int(DEFAULT_LINGER_S / per_item)
        except Exception:  # noqa: BLE001 - calibration is best-effort everywhere
            pass
        result = max(_ITEMS_MIN, min(_ITEMS_MAX, result))
        if _cache:
            _calibrated = result
    if work_hint_s > 0:
        result = min(result, max(1, int(DEFAULT_LINGER_S / work_hint_s)))
    return result  # type: ignore[return-value]


def _probe_hop_cost(repeats: int, n: int = 128) -> float:
    """Seconds of fixed framework cost one item pays (hand-off + pickle)."""
    q = Handoff(8)  # the hop the fabrics really make, at their default bound
    payload = (0, ("probe", 1.0))
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for i in range(n):
            q.put(payload)
            q.get()
            pickle.loads(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
        best = min(best, (time.perf_counter() - t0) / n)
    return best
