"""A Hypothesis state machine over the session port, on ``threads``.

Random interleavings of submit, take-k-from-``results()``, drain and close
run against a model of what the port promises: ``stats()`` is one
consistent snapshot of the counts, a minted ``Ticket`` is done exactly
when its item was delivered, and what ``results()`` yields plus what
``drain()`` returns is the stream's outputs, in order, exactly once.
Batching is off.
"""

import time

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.backend import SessionClosed
from repro.skel.api import open_pipeline

#: Bound on any wait for the executor to deliver what was submitted.
DEADLINE_S = 10.0


def _stage0(x: int) -> int:
    return 2 * x


def _stage1(x: int) -> int:
    return x + 1


def _output(x: int) -> int:
    return _stage1(_stage0(x))


class SessionMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        # Two replicas on stage 0: items finish out of order there.
        self.session = open_pipeline([_stage0, _stage1], backend="threads", replicas=[2, 1])
        self.closed = False
        self.stream, self.streaming = -1, False  # the current (or last) stream
        self.drained = 0  # streams
        self.before = 0  # items the streams before the current one delivered
        self.values: list[int] = []  # the current stream's inputs
        self.taken: list[int] = []  # what its results() iterator yielded
        self.iterator = None
        self.tickets: list = []  # (ticket, stream, seq)
        self.next_value = 0

    def teardown(self) -> None:
        if self.iterator is not None:
            self.iterator.close()
        self.session.close()

    def _await_delivered(self, n: int) -> None:
        deadline = time.monotonic() + DEADLINE_S
        while self.session.stats().stream_delivered < n:
            assert time.monotonic() < deadline, f"{n} items never delivered"
            time.sleep(0.001)

    @precondition(lambda self: not self.closed)
    @rule()
    def submit(self) -> None:
        if not self.streaming:  # the submit opens the next stream
            self.stream, self.streaming = self.stream + 1, True
            self.before += len(self.values)
            self.values, self.taken = [], []
        value, self.next_value = self.next_value, self.next_value + 1
        ticket = self.session.submit(value)
        assert (ticket.stream, ticket.seq) == (self.stream, len(self.values))
        self.tickets.append((ticket, self.stream, len(self.values)))
        self.values.append(value)

    @precondition(
        lambda self: not self.closed and self.streaming and len(self.values) > len(self.taken)
    )
    @rule(data=st.data())
    def take(self, data) -> None:
        k = data.draw(st.integers(1, len(self.values) - len(self.taken)), label="k")
        if self.iterator is None:
            self.iterator = self.session.results()
        # Delivered first, so next() never parks: a lost item fails the
        # bounded wait instead of hanging the machine.
        self._await_delivered(len(self.taken) + k)
        self.taken += [next(self.iterator) for _ in range(k)]
        assert self.taken == [_output(v) for v in self.values[: len(self.taken)]]

    @precondition(lambda self: not self.closed)
    @rule()
    def drain(self) -> None:
        self._await_delivered(len(self.values))
        rest = self.session.drain()
        if not self.streaming:
            assert rest == []  # no stream was open
            return
        assert self.taken + rest == [_output(v) for v in self.values]
        self.streaming, self.drained = False, self.drained + 1
        if self.iterator is not None:
            assert next(self.iterator, None) is None  # its stream is over
            self.iterator = None

    @precondition(lambda self: not self.closed)
    @rule()
    def close(self) -> None:
        self.session.close()
        self.closed = True

    @precondition(lambda self: self.closed)
    @rule()
    def refused_after_close(self) -> None:
        for call in (lambda: self.session.submit(-1), self.session.drain):
            with pytest.raises(SessionClosed):
                call()

    @invariant()
    def stats_match_the_model(self) -> None:
        st_ = self.session.stats()
        assert st_.streams_completed == self.drained
        assert st_.stream_submitted == len(self.values)
        assert len(self.taken) <= st_.stream_delivered <= len(self.values)
        if not self.streaming and not self.closed:
            assert st_.stream_delivered == len(self.values)  # drained
        # One snapshot: the session's total less the current stream's
        # deliveries is what the earlier streams delivered, however far the
        # current one got.
        assert st_.items_total - st_.stream_delivered == self.before

    @invariant()
    def tickets_resolve_exactly_when_delivered(self) -> None:
        delivered = self.session.stats().stream_delivered
        for ticket, stream, seq in self.tickets:
            drained = stream < self.stream or not self.streaming
            if drained or seq < len(self.taken):
                assert ticket.done(), (ticket, "delivered but not done")
            elif self.closed:  # nothing is delivered after close
                assert ticket.done() == (seq < delivered), ticket


SessionMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
test_session_machine = SessionMachine.TestCase
