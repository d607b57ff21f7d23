"""Blocking FIFO channels and counting resources for the simulation kernel.

:class:`Channel` mirrors the semantics the paper's eSkel/MPI substrate gives
inter-stage communication: bounded buffering with back-pressure (a full buffer
blocks the producer — this is what makes an upstream stage *feel* a downstream
bottleneck) and strict FIFO ordering.  :class:`SimResource` is a counting
semaphore used to serialise access to processors and (optionally) links.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque

from repro.gridsim.engine import ResumeFn, Simulator, Waitable

__all__ = ["Channel", "ChannelClosed", "SimResource"]


class ChannelClosed(Exception):
    """Raised at a ``get`` when the channel is closed and drained."""


class _PutOp(Waitable):
    __slots__ = ("channel", "item")

    def __init__(self, channel: "Channel", item: Any) -> None:
        self.channel = channel
        self.item = item

    def _subscribe(self, sim: Simulator, callback: ResumeFn) -> None:
        self.channel._do_put(sim, self.item, callback)


class _PutFrontOp(Waitable):
    __slots__ = ("channel", "item")

    def __init__(self, channel: "Channel", item: Any) -> None:
        self.channel = channel
        self.item = item

    def _subscribe(self, sim: Simulator, callback: ResumeFn) -> None:
        self.channel._do_put_front(sim, self.item, callback)


class _GetOp(Waitable):
    __slots__ = ("channel",)

    def __init__(self, channel: "Channel") -> None:
        self.channel = channel

    def _subscribe(self, sim: Simulator, callback: ResumeFn) -> None:
        self.channel._do_get(sim, callback)


class Channel:
    """Bounded FIFO channel with blocking put/get.

    * ``capacity=None`` means unbounded (puts never block).
    * ``close()`` causes subsequent/blocked gets to raise
      :class:`ChannelClosed` once the buffer drains; puts to a closed channel
      raise immediately (at the yield point).

    Within a process::

        yield ch.put(item)      # blocks while the buffer is full
        item = yield ch.get()   # blocks while the buffer is empty
    """

    def __init__(self, capacity: int | None = None, name: str = "") -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        self.capacity = capacity
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[ResumeFn] = deque()
        self._putters: Deque[tuple[Any, ResumeFn]] = deque()
        self._front_putters: Deque[tuple[Any, ResumeFn]] = deque()
        self._closed = False

    # -- public operation constructors -------------------------------------
    def put(self, item: Any) -> _PutOp:
        """Waitable that completes once ``item`` is accepted by the buffer."""
        return _PutOp(self, item)

    def put_front(self, item: Any) -> _PutFrontOp:
        """Priority put: ``item`` is delivered before anything buffered.

        Used for control markers (e.g. replica stop tokens) that must not
        wait behind a backlog of data items.  If the buffer is full, the
        item is inserted at the front as soon as a slot frees, ahead of any
        blocked ordinary putters.
        """
        return _PutFrontOp(self, item)

    def get(self) -> _GetOp:
        """Waitable that completes with the next item (FIFO)."""
        return _GetOp(self)

    def close(self) -> None:
        """Close the channel; wake blocked getters with :class:`ChannelClosed`
        once (and only once) no buffered items remain for them."""
        if self._closed:
            return
        self._closed = True
        # Blocked getters can never be satisfied: buffer is empty whenever
        # getters wait (invariant), so fail them all now.
        while self._getters:
            cb = self._getters.popleft()
            self._sim_schedule_fail(cb)

    # -- state inspection ---------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def __len__(self) -> int:
        """Number of buffered items."""
        return len(self._items)

    @property
    def occupancy(self) -> float:
        """Buffer fill fraction in [0, 1]; 0 for unbounded channels."""
        if self.capacity is None:
            return 0.0
        return len(self._items) / self.capacity

    # -- kernel-facing plumbing ---------------------------------------------
    _sim: Simulator | None = None

    def _remember_sim(self, sim: Simulator) -> None:
        self._sim = sim

    def _sim_schedule(self, cb: ResumeFn, value: Any) -> None:
        assert self._sim is not None
        self._sim.schedule(0.0, cb, value, None)

    def _sim_schedule_fail(self, cb: ResumeFn) -> None:
        assert self._sim is not None
        self._sim.schedule(
            0.0, cb, None, ChannelClosed(f"channel {self.name!r} closed")
        )

    def _do_put(self, sim: Simulator, item: Any, callback: ResumeFn) -> None:
        self._remember_sim(sim)
        if self._closed:
            sim.schedule(
                0.0,
                callback,
                None,
                ChannelClosed(f"put on closed channel {self.name!r}"),
            )
            return
        if self._getters:
            # Hand the item straight to the oldest blocked getter.
            getter = self._getters.popleft()
            self._sim_schedule(getter, item)
            self._sim_schedule(callback, None)
            return
        if self.capacity is None or len(self._items) < self.capacity:
            self._items.append(item)
            self._sim_schedule(callback, None)
            return
        self._putters.append((item, callback))

    def _do_put_front(self, sim: Simulator, item: Any, callback: ResumeFn) -> None:
        self._remember_sim(sim)
        if self._closed:
            sim.schedule(
                0.0,
                callback,
                None,
                ChannelClosed(f"put_front on closed channel {self.name!r}"),
            )
            return
        if self._getters:
            getter = self._getters.popleft()
            self._sim_schedule(getter, item)
            self._sim_schedule(callback, None)
            return
        if self.capacity is None or len(self._items) < self.capacity:
            self._items.appendleft(item)
            self._sim_schedule(callback, None)
            return
        # Buffer full: jump the ordinary putter queue — the item enters at
        # the front as soon as the next get frees a slot.
        self._front_putters.append((item, callback))

    def _do_get(self, sim: Simulator, callback: ResumeFn) -> None:
        self._remember_sim(sim)
        if self._items:
            item = self._items.popleft()
            self._sim_schedule(callback, item)
            if self._front_putters:
                # A slot opened: a priority item enters at the front.
                pitem, pcb = self._front_putters.popleft()
                self._items.appendleft(pitem)
                self._sim_schedule(pcb, None)
            elif self._putters:
                # A buffer slot opened up: admit the oldest blocked putter.
                pitem, pcb = self._putters.popleft()
                self._items.append(pitem)
                self._sim_schedule(pcb, None)
            return
        if self._front_putters:
            pitem, pcb = self._front_putters.popleft()
            self._sim_schedule(callback, pitem)
            self._sim_schedule(pcb, None)
            return
        if self._putters:
            # capacity could be 0-like only transiently; hand over directly.
            pitem, pcb = self._putters.popleft()
            self._sim_schedule(callback, pitem)
            self._sim_schedule(pcb, None)
            return
        if self._closed:
            self._sim_schedule_fail(callback)
            return
        self._getters.append(callback)


class _AcquireOp(Waitable):
    __slots__ = ("resource",)

    def __init__(self, resource: "SimResource") -> None:
        self.resource = resource

    def _subscribe(self, sim: Simulator, callback: ResumeFn) -> None:
        self.resource._do_acquire(sim, callback)


class SimResource:
    """Counting resource (semaphore) with FIFO granting.

    Processors are modelled as ``SimResource(capacity=1)``: stage actors
    co-located on a processor contend for it, which *is* the equitable
    time-sharing the analytic model approximates with a share factor.
    """

    def __init__(self, capacity: int = 1, name: str = "") -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiters: Deque[ResumeFn] = deque()
        self._sim: Simulator | None = None

    def acquire(self) -> _AcquireOp:
        """Waitable granting one unit of the resource (FIFO order)."""
        return _AcquireOp(self)

    def release(self) -> None:
        """Return one unit; wakes the oldest waiter if any."""
        if self._in_use <= 0:
            raise RuntimeError(f"release of idle resource {self.name!r}")
        if self._waiters:
            # Hand the unit directly to the next waiter (count unchanged).
            cb = self._waiters.popleft()
            assert self._sim is not None
            self._sim.schedule(0.0, cb, None, None)
        else:
            self._in_use -= 1

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queued(self) -> int:
        return len(self._waiters)

    def _do_acquire(self, sim: Simulator, callback: ResumeFn) -> None:
        self._sim = sim
        if self._in_use < self.capacity:
            self._in_use += 1
            sim.schedule(0.0, callback, None, None)
        else:
            self._waiters.append(callback)
