"""Sequence-order restoration shared by the real executors.

Replicated stage workers finish items out of order.  The ``Pipeline1for1``
contract asks for input order at *egress*, and stateless stages commute,
so every executor restores order in two kinds of place only: in front of
an ordered stage (``StageSpec.ordered`` — a stateful stage must *start*
items in input order) and once before final output.  The thread fabric
(coroutine stages included) and the routed core of processes and distributed
all delegate to this one implementation so the invariant has a single home.
"""

from __future__ import annotations

from typing import Any, Iterator

__all__ = ["SequenceReorderer"]


class SequenceReorderer:
    """Buffers (seq, value) pairs and releases them in sequence order.

    Duplicate sequence numbers are rejected: a seq still buffered, or one
    already released, can only mean an executor dispatched the same item
    twice — silently overwriting (or re-emitting) it would corrupt the
    1-for-1 contract downstream, so ``push`` raises instead.

    Long-lived streaming sessions run several *sequential* streams through
    one reorderer with nothing to reset between them: the executors number
    items session-wide (the port's ``gseq``, or a batch's ``bseq``), so the
    next stream's first number is the one this reorderer expects next and
    the duplicate guard keeps its exactly-once meaning across the session.
    """

    def __init__(self, start: int = 0) -> None:
        self._pending: dict[int, Any] = {}
        self._next_seq = start

    def push(self, seq: int, value: Any) -> Iterator[tuple[int, Any]]:
        """Accept one pair; yield every pair now ready, in order.

        Validation and buffering happen eagerly (not on first iteration of
        the returned iterator), so duplicates raise even if a caller never
        consumes the ready items.
        """
        if seq < self._next_seq:
            raise ValueError(
                f"sequence {seq} was already released (next is {self._next_seq})"
            )
        if seq in self._pending:
            raise ValueError(f"sequence {seq} is already buffered")
        self._pending[seq] = value
        return self._release()

    def push_range(self, start: int, values: list[Any]) -> Iterator[tuple[int, Any]]:
        """Accept ``len(values)`` consecutive pairs in one transaction.

        The micro-batched egress path admits a whole batch with a single
        call — one stale/duplicate validation over the range and one
        release sweep — instead of ``len(values)`` per-seq transactions.
        The range is validated in full before anything is buffered, so a
        bad batch leaves the reorderer untouched.
        """
        if start < self._next_seq:
            raise ValueError(
                f"sequence {start} was already released (next is {self._next_seq})"
            )
        for k in range(len(values)):
            if start + k in self._pending:
                raise ValueError(f"sequence {start + k} is already buffered")
        for k, value in enumerate(values):
            self._pending[start + k] = value
        return self._release()

    def _release(self) -> Iterator[tuple[int, Any]]:
        while self._next_seq in self._pending:
            seq_out = self._next_seq
            self._next_seq += 1
            yield seq_out, self._pending.pop(seq_out)

    def __len__(self) -> int:
        return len(self._pending)
