"""JSONL event journal: the durable, grep-able form of the event stream.

One line per event: ``{"t": <session seconds>, "wall": <epoch seconds>,
"kind": ..., "msg": ..., <flattened fields>}``.  Values that are not JSON
types are ``repr``-ed rather than dropped, so a journal line never fails to
serialise.  Rotation is size-based (``journal.jsonl`` → ``journal.jsonl.1``
→ …), bounded by ``max_files``.  :func:`to_event` turns a record back into
the :class:`Event` it was written from; every journal reader (spans, the
profiler, ``top``) goes through it.

The journal is a plain bus subscriber, and it is safe to attach one
journal to several buses (the coordinator's backend bus and the session
bus share one file).  The emitting thread only stamps the event and
enqueues it — a background writer thread does the JSON serialisation,
rotation and file I/O, so routers and submitters never pay for disk inside
the streaming hot path.  :meth:`JsonlJournal.flush` waits until what was
enqueued is on disk.
"""

from __future__ import annotations

import json
import os
import time
from collections import deque
from pathlib import Path
from threading import Condition, Lock, Thread
from typing import Any, Iterator

from repro.obs.events import Event

__all__ = ["JsonlJournal", "read_journal", "to_event"]

#: Keys the journal itself owns; event fields with these names are prefixed.
_RESERVED = ("t", "wall", "kind", "msg")


class JsonlJournal:
    """Appends events to a JSONL file with size-based rotation."""

    def __init__(
        self,
        path: str | os.PathLike,
        *,
        rotate_bytes: int = 32 * 1024 * 1024,
        max_files: int = 3,
    ) -> None:
        if rotate_bytes <= 0:
            raise ValueError(f"rotate_bytes must be > 0, got {rotate_bytes}")
        if max_files < 1:
            raise ValueError(f"max_files must be >= 1, got {max_files}")
        self.path = Path(path)
        self.rotate_bytes = rotate_bytes
        self.max_files = max_files
        # Two locks: the queue condition is all emitters ever touch; the
        # io lock covers the file handle and rotation, held only by the
        # writer thread (or by lifecycle calls), so file I/O never blocks
        # an emitting router or submitter.
        self._io = Lock()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "a", encoding="utf-8")
        self._nbytes = self._fh.tell()
        self._closed = False
        self._writing = False
        self._queue: deque[tuple[float, Event]] = deque()
        self._cv = Condition(Lock())
        self._writer = Thread(target=self._drain_loop, name="jsonl-journal", daemon=True)
        self._writer.start()

    # ------------------------------------------------------------------ write
    def __call__(self, ev: Event) -> None:
        # Hot path: hand the event to the writer thread.  Emitters in
        # routers/submitters pay one lock, an append, and a wall-clock
        # stamp; the record build, JSON dump, rotation check and file write
        # all happen off-thread.  Events are immutable once emitted, so
        # serialising them later is safe.
        with self._cv:
            if not self._closed:
                self._queue.append((time.time(), ev))
                if len(self._queue) == 1:
                    self._cv.notify()  # writer only waits on empty

    @staticmethod
    def _record(wall: float, ev: Event) -> dict[str, Any]:
        record: dict[str, Any] = {"t": round(ev.time, 6), "wall": wall, "kind": ev.kind}
        if ev.message:
            record["msg"] = ev.message
        for k, v in ev.fields.items():
            record[f"f_{k}" if k in _RESERVED else k] = v
        return record

    def _write_line(self, line: str) -> None:
        """Append one serialised line (caller holds ``self._io``)."""
        if self._nbytes + len(line) > self.rotate_bytes and self._nbytes > 0:
            self._rotate()
        self._fh.write(line)
        self._nbytes += len(line)

    #: Lines serialised per GIL yield in the writer thread.  A deep queue
    #: must not turn into one long CPU burst: the interpreter's switch
    #: interval (5ms) would let the burst convoy the latency-critical
    #: router/submit threads that are trying to enqueue.
    _CHUNK = 32

    def _drain_loop(self) -> None:
        while True:
            with self._cv:
                while not self._queue and not self._closed:
                    self._cv.wait()
                batch = list(self._queue)
                self._queue.clear()
                if not batch:  # closed and drained: the final flush is done
                    self._writing = False
                    self._cv.notify_all()
                    return
                self._writing = True
            for start in range(0, len(batch), self._CHUNK):
                lines = [
                    json.dumps(self._record(wall, ev), default=repr,
                               separators=(",", ":")) + "\n"
                    for wall, ev in batch[start:start + self._CHUNK]
                ]
                with self._io:
                    for line in lines:
                        self._write_line(line)
                time.sleep(0)  # yield: emitters outrank the historian
            with self._cv:
                self._writing = False
                if not self._queue:
                    self._cv.notify_all()  # wake any flush() waiters

    def _rotate(self) -> None:
        self._fh.close()
        oldest = self.path.with_name(f"{self.path.name}.{self.max_files - 1}")
        oldest.unlink(missing_ok=True)
        for i in range(self.max_files - 2, 0, -1):
            src = self.path.with_name(f"{self.path.name}.{i}")
            if src.exists():
                src.rename(self.path.with_name(f"{self.path.name}.{i + 1}"))
        if self.max_files > 1:
            self.path.rename(self.path.with_name(f"{self.path.name}.1"))
        else:
            self.path.unlink(missing_ok=True)
        self._fh = open(self.path, "a", encoding="utf-8")
        self._nbytes = 0

    # -------------------------------------------------------------- lifecycle
    def flush(self) -> None:
        """Block until every enqueued record is on disk (then flush the file).

        The wait is untimed: the writer notifies whenever it leaves the queue
        empty, and :meth:`close` notifies too.
        """
        with self._cv:
            while (self._queue or self._writing) and not self._closed:
                self._cv.wait()
        with self._io:
            if not self._closed:
                self._fh.flush()

    def close(self) -> None:
        with self._cv:
            if self._closed:
                return
            self._closed = True
            self._cv.notify_all()
        self._writer.join(timeout=10.0)
        with self._io:
            self._fh.close()

    @property
    def closed(self) -> bool:
        return self._closed


def to_event(rec: dict[str, Any]) -> Event:
    """The :class:`Event` a journal record was written from (``wall`` aside)."""
    fields = {
        (k[2:] if k.startswith("f_") and k[2:] in _RESERVED else k): v
        for k, v in rec.items()
        if k not in _RESERVED
    }
    return Event(rec.get("t", 0.0), rec["kind"], rec.get("msg", ""), fields)


def read_journal(path: str | os.PathLike) -> Iterator[dict[str, Any]]:
    """Yield journal records oldest-first, including rotated siblings."""
    path = Path(path)
    candidates = sorted(
        (p for p in path.parent.glob(f"{path.name}.*") if p.suffix[1:].isdigit()),
        key=lambda p: int(p.suffix[1:]),
        reverse=True,
    )
    if path.exists():
        candidates.append(path)
    for p in candidates:
        with open(p, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    yield json.loads(line)
