"""Tests for the discrete-event simulation kernel."""

import pytest

from repro.gridsim.engine import (
    AnyOf,
    Interrupt,
    ProcessFailed,
    Simulator,
)


class TestScheduling:
    def test_callbacks_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(3.0, order.append, "c")
        sim.schedule(1.0, order.append, "a")
        sim.schedule(2.0, order.append, "b")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_simultaneous_events_fifo(self):
        sim = Simulator()
        order = []
        for tag in "abcde":
            sim.schedule(1.0, order.append, tag)
        sim.run()
        assert order == list("abcde")

    def test_cancel(self):
        sim = Simulator()
        fired = []
        h = sim.schedule(1.0, fired.append, "x")
        h.cancel()
        sim.run()
        assert fired == []

    def test_cancel_after_fire_is_noop(self):
        sim = Simulator()
        fired = []
        h = sim.schedule(0.0, fired.append, "x")
        sim.run()
        h.cancel()
        assert fired == ["x"]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-1.0, lambda: None)

    def test_run_until_advances_clock_without_events(self):
        sim = Simulator()
        assert sim.run(until=5.0) == 5.0
        assert sim.now == 5.0

    def test_run_until_does_not_fire_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(10.0, fired.append, "late")
        sim.run(until=5.0)
        assert fired == []
        assert sim.now == 5.0
        sim.run()
        assert fired == ["late"]

    def test_peek(self):
        sim = Simulator()
        assert sim.peek() == float("inf")
        sim.schedule(2.5, lambda: None)
        assert sim.peek() == 2.5

    def test_max_events_guard(self):
        sim = Simulator()

        def rearm():
            sim.schedule(0.0, rearm)

        sim.schedule(0.0, rearm)
        with pytest.raises(RuntimeError, match="exceeded"):
            sim.run(max_events=100)


class TestProcesses:
    def test_timeout_advances_time(self):
        sim = Simulator()
        times = []

        def proc():
            yield sim.timeout(2.0)
            times.append(sim.now)
            yield sim.timeout(3.0)
            times.append(sim.now)

        sim.process(proc())
        sim.run()
        assert times == [2.0, 5.0]

    def test_timeout_value_passed_through(self):
        sim = Simulator()
        got = []

        def proc():
            v = yield sim.timeout(1.0, value="payload")
            got.append(v)

        sim.process(proc())
        sim.run()
        assert got == ["payload"]

    def test_process_return_value(self):
        sim = Simulator()

        def child():
            yield sim.timeout(1.0)
            return 42

        def parent(results):
            c = sim.process(child(), "child")
            v = yield c
            results.append(v)

        results = []
        sim.process(parent(results), "parent")
        sim.run()
        assert results == [42]

    def test_outcome_is_readable_without_waiting(self):
        sim = Simulator()

        def child():
            yield sim.timeout(1.0)
            return 42

        p = sim.process(child(), "child")
        assert (p.done, p.value, p.failure) == (False, None, None)
        assert repr(p) == "Process('child', running)"
        sim.run()
        assert (p.done, p.value, p.failure) == (True, 42, None)
        assert repr(p) == "Process('child', done)"

    def test_wait_on_finished_process(self):
        sim = Simulator()

        def quick():
            return "done"
            yield  # pragma: no cover

        def waiter(results):
            p = sim.process(quick(), "quick")
            yield sim.timeout(5.0)  # quick() finished long ago
            v = yield p
            results.append((sim.now, v))

        results = []
        sim.process(waiter(results), "waiter")
        sim.run()
        assert results == [(5.0, "done")]

    def test_uncaught_exception_aborts_run(self):
        sim = Simulator()

        def bad():
            yield sim.timeout(1.0)
            raise RuntimeError("boom")

        sim.process(bad(), "bad")
        with pytest.raises(ProcessFailed, match="bad"):
            sim.run()

    def test_yield_non_waitable_fails(self):
        sim = Simulator()

        def bad():
            yield 42

        sim.process(bad(), "bad")
        with pytest.raises(ProcessFailed):
            sim.run()

    def test_event_succeed_wakes_waiters(self):
        sim = Simulator()
        evt = sim.event("go")
        got = []

        def waiter(tag):
            v = yield evt
            got.append((tag, sim.now, v))

        sim.process(waiter("w1"))
        sim.process(waiter("w2"))
        sim.schedule(4.0, lambda: evt.succeed("val"))
        sim.run()
        assert got == [("w1", 4.0, "val"), ("w2", 4.0, "val")]

    def test_event_fail_raises_in_waiter(self):
        sim = Simulator()
        evt = sim.event()
        caught = []

        def waiter():
            try:
                yield evt
            except KeyError as e:
                caught.append(e)

        sim.process(waiter())
        sim.schedule(1.0, lambda: evt.fail(KeyError("nope")))
        sim.run()
        assert len(caught) == 1

    def test_event_double_succeed_rejected(self):
        sim = Simulator()
        evt = sim.event()
        evt.succeed(1)
        with pytest.raises(RuntimeError):
            evt.succeed(2)


class TestInterrupt:
    def test_interrupt_delivered_while_waiting(self):
        sim = Simulator()
        log = []

        def sleeper():
            try:
                yield sim.timeout(100.0)
                log.append("finished")
            except Interrupt as i:
                log.append(("interrupted", sim.now, i.cause))

        p = sim.process(sleeper(), "sleeper")
        sim.schedule(2.0, p.interrupt, "remap")
        sim.run()
        assert log == [("interrupted", 2.0, "remap")]

    def test_interrupt_after_completion_is_noop(self):
        sim = Simulator()

        def quick():
            yield sim.timeout(1.0)

        p = sim.process(quick())
        sim.schedule(5.0, p.interrupt)
        sim.run()
        assert p.done
        assert p.failure is None

    def test_interrupt_escaping_is_normal_termination(self):
        # A process that does not catch Interrupt just stops; the simulation
        # does not abort.
        sim = Simulator()

        def sleeper():
            yield sim.timeout(100.0)

        p = sim.process(sleeper())
        sim.schedule(1.0, p.interrupt)
        sim.run()  # no ProcessFailed
        assert p.done

    def test_interrupted_process_can_continue(self):
        sim = Simulator()
        log = []

        def worker():
            try:
                yield sim.timeout(50.0)
            except Interrupt:
                pass
            yield sim.timeout(1.0)  # migrate, then resume
            log.append(sim.now)

        p = sim.process(worker())
        sim.schedule(3.0, p.interrupt)
        sim.run()
        assert log == [4.0]


class TestCombinators:
    def test_anyof_returns_winner(self):
        sim = Simulator()
        got = []

        def proc():
            result = yield AnyOf([sim.timeout(5.0, "slow"), sim.timeout(2.0, "fast")])
            got.append((sim.now, result))

        sim.process(proc())
        sim.run()
        assert got == [(2.0, (1, "fast"))]

    def test_anyof_empty_rejected(self):
        with pytest.raises(ValueError):
            AnyOf([])
