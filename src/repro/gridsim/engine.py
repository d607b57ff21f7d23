"""A deterministic discrete-event simulation kernel with coroutine processes.

The kernel is a small, from-scratch analogue of SimPy, specialised for this
reproduction:

* **Event heap.**  Events are ``(time, seq, callback)`` triples in a binary
  heap; ``seq`` is a global monotonically increasing counter so simultaneous
  events fire in scheduling order (FIFO tie-break), making runs bit-for-bit
  reproducible.
* **Processes.**  A simulated activity is a Python generator that ``yield``\\ s
  *waitables*: :class:`Timeout`, :class:`SimEvent`, another :class:`Process`,
  channel operations (:mod:`repro.gridsim.channels`) or an :class:`AnyOf`
  combinator.  The value of the ``yield`` expression is the
  waitable's result (e.g. the item received from a channel).
* **Interrupts.**  ``process.interrupt(cause)`` throws :class:`Interrupt`
  into the generator *if it is still waiting* when the interrupt is
  delivered; if the awaited event fired first at the same simulated time, the
  interrupt is dropped (SimPy-like semantics).  The adaptive pipeline uses
  interrupts to preempt stage actors during re-mapping.
* **Fail fast.**  An uncaught exception inside a process aborts the
  simulation by raising :class:`ProcessFailed` from :meth:`Simulator.run`,
  so bugs surface in tests instead of silently stalling the event loop.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable

__all__ = [
    "Simulator",
    "Process",
    "ProcessFailed",
    "Interrupt",
    "SimEvent",
    "Timeout",
    "AnyOf",
    "Waitable",
]

# A process generator yields Waitables and receives their results.
ProcessGen = Generator["Waitable", Any, Any]
# Resume callbacks receive (value, exception); exactly one is non-None on
# failure paths, both may be None for pure timeouts.
ResumeFn = Callable[[Any, BaseException | None], None]


class Interrupt(Exception):
    """Thrown into a process generator by :meth:`Process.interrupt`."""

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class ProcessFailed(RuntimeError):
    """Raised from :meth:`Simulator.run` when a process died uncaught."""

    def __init__(self, process: "Process", exc: BaseException) -> None:
        super().__init__(f"process {process.name!r} failed: {exc!r}")
        self.process = process
        self.exc = exc


class Waitable:
    """Protocol for objects a process may ``yield``."""

    def _subscribe(self, sim: "Simulator", callback: ResumeFn) -> None:
        raise NotImplementedError


class Timeout(Waitable):
    """Fires ``delay`` simulated seconds after being yielded, with ``value``."""

    __slots__ = ("delay", "value")

    def __init__(self, delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"timeout delay must be >= 0, got {delay}")
        self.delay = float(delay)
        self.value = value

    def _subscribe(self, sim: "Simulator", callback: ResumeFn) -> None:
        sim.schedule(self.delay, callback, self.value, None)


class SimEvent(Waitable):
    """A one-shot event that processes can wait on.

    ``succeed(value)`` resumes all waiters with ``value``; ``fail(exc)``
    resumes them with the exception raised at their ``yield``.  Waiting on an
    already-completed event resumes immediately (at the current time).
    """

    __slots__ = ("_sim", "_done", "_value", "_exc", "_callbacks", "name")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self._sim = sim
        self._done = False
        self._value: Any = None
        self._exc: BaseException | None = None
        self._callbacks: list[ResumeFn] = []
        self.name = name

    @property
    def triggered(self) -> bool:
        return self._done

    @property
    def value(self) -> Any:
        """Result value; only meaningful once :attr:`triggered`."""
        return self._value

    def succeed(self, value: Any = None) -> "SimEvent":
        """Complete the event successfully (idempotent calls are errors)."""
        if self._done:
            raise RuntimeError(f"event {self.name!r} already completed")
        self._done = True
        self._value = value
        for cb in self._callbacks:
            self._sim.schedule(0.0, cb, value, None)
        self._callbacks.clear()
        return self

    def fail(self, exc: BaseException) -> "SimEvent":
        """Complete the event by failing every waiter with ``exc``."""
        if self._done:
            raise RuntimeError(f"event {self.name!r} already completed")
        self._done = True
        self._exc = exc
        for cb in self._callbacks:
            self._sim.schedule(0.0, cb, None, exc)
        self._callbacks.clear()
        return self

    def _subscribe(self, sim: "Simulator", callback: ResumeFn) -> None:
        if self._done:
            sim.schedule(0.0, callback, self._value, self._exc)
        else:
            self._callbacks.append(callback)


class AnyOf(Waitable):
    """Resumes when the *first* of several waitables fires.

    The result is ``(index, value)`` identifying which waitable won.  Late
    completions of the losers are discarded (their callbacks are guarded).
    """

    __slots__ = ("waitables",)

    def __init__(self, waitables: Iterable[Waitable]) -> None:
        self.waitables = list(waitables)
        if not self.waitables:
            raise ValueError("AnyOf requires at least one waitable")

    def _subscribe(self, sim: "Simulator", callback: ResumeFn) -> None:
        fired = [False]

        def make_cb(i: int) -> ResumeFn:
            def cb(value: Any, exc: BaseException | None) -> None:
                if fired[0]:
                    return
                fired[0] = True
                if exc is not None:
                    callback(None, exc)
                else:
                    callback((i, value), None)

            return cb

        for i, w in enumerate(self.waitables):
            w._subscribe(sim, make_cb(i))


class Process(Waitable):
    """A running simulated activity wrapping a generator.

    Waiting on a process resumes when it terminates, yielding its return
    value.  See module docstring for interrupt semantics.
    """

    __slots__ = ("_sim", "_gen", "name", "_done", "_value", "_exc", "_token", "_completion")

    def __init__(self, sim: "Simulator", gen: ProcessGen, name: str = "process") -> None:
        self._sim = sim
        self._gen = gen
        self.name = name
        self._done = False
        self._value: Any = None
        self._exc: BaseException | None = None
        # Token guards stale resumptions: each wait gets a fresh token and a
        # resume is honoured only if its token is still current.
        self._token = 0
        self._completion = SimEvent(sim, name=f"{name}.done")
        sim.schedule(0.0, self._resume, self._token, None, None)

    @property
    def done(self) -> bool:
        return self._done

    @property
    def value(self) -> Any:
        """Return value of the generator; meaningful once :attr:`done`."""
        return self._value

    @property
    def failure(self) -> BaseException | None:
        return self._exc

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its current wait.

        No-op if the process already finished.  If the awaited event fires at
        the same simulated time before the interrupt is delivered, the
        interrupt is dropped.
        """
        if self._done:
            return
        self._sim.schedule(0.0, self._resume, self._token, None, Interrupt(cause))

    def _resume(self, token: int, value: Any, exc: BaseException | None) -> None:
        if self._done or token != self._token:
            return  # stale wake-up (e.g. lost race with an interrupt)
        self._token += 1
        try:
            if exc is not None:
                cmd = self._gen.throw(exc)
            else:
                cmd = self._gen.send(value)
        except StopIteration as stop:
            self._finish(stop.value, None)
            return
        except BaseException as err:  # noqa: BLE001 - report via ProcessFailed
            self._finish(None, err)
            return
        if not isinstance(cmd, Waitable):
            self._finish(
                None,
                TypeError(f"process {self.name!r} yielded non-waitable {cmd!r}"),
            )
            return
        current = self._token
        cmd._subscribe(
            self._sim,
            lambda v, e, _t=current: self._resume(_t, v, e),
        )

    def _finish(self, value: Any, exc: BaseException | None) -> None:
        self._done = True
        self._value = value
        self._exc = exc
        if exc is not None:
            self._sim._report_failure(self, exc)
            # Completion event fails so waiters see the error too.
            if not self._completion.triggered:
                self._completion.fail(exc)
        else:
            self._completion.succeed(value)

    def _subscribe(self, sim: "Simulator", callback: ResumeFn) -> None:
        self._completion._subscribe(sim, callback)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "done" if self._done else "running"
        return f"Process({self.name!r}, {state})"


class _Handle:
    """Cancellable handle for a scheduled callback."""

    __slots__ = ("_entry",)

    def __init__(self, entry: list) -> None:
        self._entry = entry

    def cancel(self) -> None:
        """Prevent the callback from running (no-op if already fired)."""
        self._entry[3] = None


class Simulator:
    """The discrete-event loop: clock, heap, process bookkeeping."""

    def __init__(self) -> None:
        self._now = 0.0
        self._seq = 0
        # heap entries: [time, seq, args, callback_or_None]
        self._heap: list[list] = []
        self._failure: ProcessFailed | None = None
        self._processes: list[Process] = []

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> _Handle:
        """Run ``callback(*args)`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        self._seq += 1
        entry = [self._now + delay, self._seq, args, callback]
        heapq.heappush(self._heap, entry)
        return _Handle(entry)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Waitable that fires after ``delay`` seconds."""
        return Timeout(delay, value)

    def event(self, name: str = "") -> SimEvent:
        """Create a fresh one-shot event."""
        return SimEvent(self, name=name)

    def process(self, gen: ProcessGen, name: str = "process") -> Process:
        """Start a new process from a generator; begins at the current time."""
        proc = Process(self, gen, name=name)
        self._processes.append(proc)
        return proc

    def peek(self) -> float:
        """Time of the next pending event, or ``inf`` if none."""
        while self._heap and self._heap[0][3] is None:
            heapq.heappop(self._heap)
        return self._heap[0][0] if self._heap else float("inf")

    def step(self) -> bool:
        """Execute the next event.  Returns False if the heap is empty."""
        while self._heap:
            time, _seq, args, callback = heapq.heappop(self._heap)
            if callback is None:
                continue  # cancelled
            self._now = time
            callback(*args)
            if self._failure is not None:
                failure, self._failure = self._failure, None
                raise failure
            return True
        return False

    def run(self, until: float | None = None, max_events: int = 50_000_000) -> float:
        """Run until the heap drains or simulated time reaches ``until``.

        Returns the final simulated time.  ``max_events`` is a runaway guard;
        exceeding it raises ``RuntimeError``.
        """
        count = 0
        while True:
            nxt = self.peek()
            if nxt == float("inf"):
                if until is not None and until > self._now:
                    self._now = until
                return self._now
            if until is not None and nxt > until:
                self._now = until
                return self._now
            if not self.step():
                return self._now
            count += 1
            if count > max_events:
                raise RuntimeError(
                    f"simulation exceeded {max_events} events (runaway loop?)"
                )

    def _report_failure(self, process: Process, exc: BaseException) -> None:
        if isinstance(exc, Interrupt):
            # An interrupt escaping a generator means the process chose to
            # terminate on interruption; that is normal shutdown, not failure.
            return
        if self._failure is None:
            self._failure = ProcessFailed(process, exc)
