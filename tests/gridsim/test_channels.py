"""Tests for channels and resources."""

import pytest

from repro.gridsim.channels import Channel, ChannelClosed, SimResource
from repro.gridsim.engine import Simulator


class TestChannelBasics:
    def test_fifo_order(self):
        sim = Simulator()
        ch = Channel()
        got = []

        def producer():
            for i in range(4):
                yield ch.put(i)

        def consumer():
            for _ in range(4):
                item = yield ch.get()
                got.append(item)

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        assert got == [0, 1, 2, 3]

    def test_get_blocks_until_put(self):
        sim = Simulator()
        ch = Channel()
        got = []

        def consumer():
            item = yield ch.get()
            got.append((sim.now, item))

        def producer():
            yield sim.timeout(7.0)
            yield ch.put("x")

        sim.process(consumer())
        sim.process(producer())
        sim.run()
        assert got == [(7.0, "x")]

    def test_put_blocks_when_full(self):
        sim = Simulator()
        ch = Channel(capacity=1)
        log = []

        def producer():
            yield ch.put("a")
            log.append(("a-accepted", sim.now))
            yield ch.put("b")  # blocks until consumer takes "a"
            log.append(("b-accepted", sim.now))

        def consumer():
            yield sim.timeout(10.0)
            item = yield ch.get()
            log.append(("got", item, sim.now))

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        assert ("a-accepted", 0.0) in log
        b_time = next(t for tag, t in [(e[0], e[-1]) for e in log] if tag == "b-accepted")
        assert b_time == 10.0

    def test_unbounded_never_blocks(self):
        sim = Simulator()
        ch = Channel(capacity=None)

        def producer():
            for i in range(1000):
                yield ch.put(i)

        sim.process(producer())
        sim.run()
        assert len(ch) == 1000

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            Channel(capacity=0)


class TestChannelClose:
    def test_get_on_closed_drained_channel_raises(self):
        sim = Simulator()
        ch = Channel()
        outcome = []

        def consumer():
            try:
                yield ch.get()
            except ChannelClosed:
                outcome.append("closed")

        ch.close()
        sim.process(consumer())
        sim.run()
        assert outcome == ["closed"]

    def test_buffered_items_still_delivered_after_close(self):
        sim = Simulator()
        ch = Channel()
        got = []

        def producer():
            yield ch.put(1)
            yield ch.put(2)
            ch.close()

        def consumer():
            while True:
                try:
                    got.append((yield ch.get()))
                except ChannelClosed:
                    return

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        assert got == [1, 2]

    def test_blocked_getter_woken_by_close(self):
        sim = Simulator()
        ch = Channel()
        outcome = []

        def consumer():
            try:
                yield ch.get()
            except ChannelClosed:
                outcome.append(sim.now)

        def closer():
            yield sim.timeout(3.0)
            ch.close()

        sim.process(consumer())
        sim.process(closer())
        sim.run()
        assert outcome == [3.0]

    def test_put_on_closed_channel_raises(self):
        sim = Simulator()
        ch = Channel()
        ch.close()
        outcome = []

        def producer():
            try:
                yield ch.put(1)
            except ChannelClosed:
                outcome.append("rejected")

        sim.process(producer())
        sim.run()
        assert outcome == ["rejected"]

    def test_double_close_is_noop(self):
        ch = Channel()
        ch.close()
        ch.close()
        assert ch.closed


class TestMultipleConsumers:
    def test_items_delivered_exactly_once(self):
        sim = Simulator()
        ch = Channel()
        got = []

        def producer():
            for i in range(20):
                yield ch.put(i)
            ch.close()

        def consumer(tag):
            while True:
                try:
                    item = yield ch.get()
                except ChannelClosed:
                    return
                got.append((tag, item))
                yield sim.timeout(1.0)

        sim.process(producer())
        sim.process(consumer("c1"))
        sim.process(consumer("c2"))
        sim.run()
        items = sorted(i for _, i in got)
        assert items == list(range(20))
        # Both consumers participated (work was shared).
        tags = {t for t, _ in got}
        assert tags == {"c1", "c2"}


class TestSimResource:
    def test_serialises_access(self):
        sim = Simulator()
        res = SimResource(capacity=1)
        log = []

        def worker(tag, hold):
            yield res.acquire()
            log.append((tag, "start", sim.now))
            yield sim.timeout(hold)
            res.release()
            log.append((tag, "end", sim.now))

        sim.process(worker("a", 5.0))
        sim.process(worker("b", 3.0))
        sim.run()
        assert ("a", "end", 5.0) in log
        assert ("b", "start", 5.0) in log
        assert ("b", "end", 8.0) in log

    def test_capacity_two_runs_concurrently(self):
        sim = Simulator()
        res = SimResource(capacity=2)
        ends = []

        def worker(hold):
            yield res.acquire()
            yield sim.timeout(hold)
            res.release()
            ends.append(sim.now)

        sim.process(worker(4.0))
        sim.process(worker(4.0))
        sim.run()
        assert ends == [4.0, 4.0]

    def test_fifo_granting(self):
        sim = Simulator()
        res = SimResource(capacity=1)
        order = []

        def holder():
            yield res.acquire()
            yield sim.timeout(10.0)
            res.release()

        def waiter(tag, arrive):
            yield sim.timeout(arrive)
            yield res.acquire()
            order.append(tag)
            res.release()

        sim.process(holder())
        sim.process(waiter("first", 1.0))
        sim.process(waiter("second", 2.0))
        sim.run()
        assert order == ["first", "second"]

    def test_release_idle_rejected(self):
        res = SimResource()
        with pytest.raises(RuntimeError):
            res.release()

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            SimResource(capacity=0)

    def test_counters(self):
        sim = Simulator()
        res = SimResource(capacity=1)

        def holder():
            yield res.acquire()
            yield sim.timeout(5.0)
            res.release()

        def waiter():
            yield sim.timeout(1.0)
            yield res.acquire()
            res.release()

        sim.process(holder())
        sim.process(waiter())
        sim.run(until=2.0)
        assert res.in_use == 1
        assert res.queued == 1
