"""The bounded hand-off between two threads, kept in C.

Every item path between two threads of this package — a stage queue of
the thread fabric (coroutine stages included), a distributed worker's
replica inbox — is bounded: ``submit()`` must feel a full pipeline
(``docs/streaming.md``).  ``queue.Queue(maxsize)`` gives that bound with
a Python-level mutex and three ``Condition``s, paid on every put and
get; ``queue.SimpleQueue`` is a C deque with no Python-level lock, but
unbounded.  Two of them make a bounded one: :class:`Credits` is a
``SimpleQueue`` pre-filled with ``n`` permits, and a :class:`Handoff`
takes a permit before it puts an item on a second ``SimpleQueue`` and
gives it back when the item is taken — so a put blocks exactly while
``capacity`` items sit unclaimed, as with ``queue.Queue``: FIFO, and a
slot frees at ``get``, not when the consumer finishes with the item.

A thread parked in ``get()`` wakes only on an item: shutdown is the
owner's business (a sentinel through the same queue), as it was before.
A put parked on a full queue wakes only on a permit: to release it on an
abort, the owner raises the flag, then gives one permit (``give``).

A :class:`Bell` is the same idea for state that is not a queue: callers
that test a condition under a plain lock park on a C lock of their own
instead of a ``threading.Condition``, and whoever changes the state rings.
"""

from __future__ import annotations

import threading
from queue import Empty, SimpleQueue
from typing import Any

__all__ = ["Bell", "Credits", "Handoff"]


class Bell:
    """Wake-all for threads waiting on state guarded by ``lock``.

    A caller holding ``lock`` parks on a fresh C lock with ``lock`` released;
    :meth:`ring` (called with ``lock`` held) releases everyone parked, who
    then re-test their condition under ``lock`` — what ``Condition.wait`` /
    ``notify_all`` do, over a plain lock instead of an ``RLock`` and with
    fewer Python-level steps.  ``parked`` is the list of parked callers, so a
    per-item site rings only ``if bell.parked`` and pays one attribute read
    when nobody waits.
    """

    __slots__ = ("_lock", "parked")

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self.parked: list = []

    def wait(self, timeout: float | None = None) -> bool:
        """Park until rung (``lock`` held on entry and on return); False on timeout."""
        me = threading.Lock()
        me.acquire()
        self.parked.append(me)
        self._lock.release()
        try:
            rung = me.acquire(True, -1 if timeout is None else timeout)
        finally:
            self._lock.acquire()
        if not rung:
            try:
                self.parked.remove(me)
            except ValueError:  # rung after the timeout, before we had the lock
                rung = True
        return rung

    def ring(self) -> None:
        """Release every parked caller (call with ``lock`` held)."""
        parked, self.parked = self.parked, []
        for me in parked:
            me.release()


class Credits:
    """``n`` permits: ``take`` blocks while none is free, ``give`` returns one."""

    def __init__(self, n: int) -> None:
        self._free: SimpleQueue = SimpleQueue()
        for _ in range(n):
            self._free.put(None)

    def take(self, abort: threading.Event | None = None) -> bool:
        """Take a permit: False instead of blocking when ``abort`` is up, and
        when a parked taker wakes to ``abort`` up — it was woken by a
        ``give``, and passes that permit on to the next one."""
        try:
            self._free.get_nowait()  # a free permit never leaves C
            return True
        except Empty:
            if abort is not None and abort.is_set():
                return False
        self._free.get()  # parked untimed: only a permit wakes it
        if abort is not None and abort.is_set():
            self._free.put(None)
            return False
        return True

    def give(self) -> None:
        self._free.put(None)


class Handoff(Credits):
    """FIFO of at most ``capacity`` unclaimed items (see module docstring)."""

    def __init__(self, capacity: int) -> None:
        super().__init__(capacity)
        self._items: SimpleQueue = SimpleQueue()

    def put(self, item: Any, abort: threading.Event | None = None) -> bool:
        """Put ``item`` when a permit is free (see :meth:`Credits.take`)."""
        if not self.take(abort):
            return False
        self._items.put(item)
        return True

    def get(self) -> Any:
        item = self._items.get()
        self._free.put(None)  # give(), without its frame: this runs per item
        return item

    def get_all(self) -> list:
        """Every item queued now, blocking only while there is none."""
        items = [self._items.get()]
        try:
            for _ in range(self._items.qsize()):
                items.append(self._items.get_nowait())
        except Empty:  # another consumer was quicker
            pass
        for _ in items:
            self._free.put(None)
        return items

    def qsize(self) -> int:
        """Items put and not yet taken (approximate between threads)."""
        return self._items.qsize()
