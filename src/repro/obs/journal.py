"""JSONL event journal: the durable, grep-able form of the event stream.

One line per event: ``{"t": <session seconds>, "wall": <epoch seconds>,
"kind": ..., "msg": ..., <flattened fields>}``.  Values that are not JSON
types are ``repr``-ed rather than dropped, so a journal line never fails to
serialise.  Rotation is size-based (``journal.jsonl`` → ``journal.jsonl.1``
→ …), bounded by ``max_files``.  :func:`to_event` turns a record back into
the :class:`Event` it was written from; every journal reader (the profiler,
``top``) goes through it.

The journal is a plain bus subscriber, and it is safe to attach one
journal to several buses (the coordinator's backend bus and the session
bus share one file).  Emitters stamp and queue; the writer of a lane
:class:`~repro.transport.lane.Outbox` serialises, rotates and writes, so
routers and submitters never pay for disk.  A failed write (serialising
included) stops it: the journal warns once, turns ``closed``, drops the rest.
"""

from __future__ import annotations

import json
import os
import time
import warnings
from pathlib import Path
from typing import Any, Iterator

from repro.obs.events import Event
from repro.transport.lane import Outbox

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
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "a", encoding="utf-8")
        self._nbytes = self._fh.tell()
        self._failed = False
        self._outbox = Outbox(self._write, "jsonl-journal", self._on_error, self._stop, self._pack)

    # ------------------------------------------------------------------ write
    def __call__(self, ev: Event) -> None:
        # Hot path: a stamp and one queue put (refused once closed).  Events
        # are immutable once emitted, so the writer serialises them later.
        self._outbox.send((time.time(), ev))

    @staticmethod
    def _record(wall: float, ev: Event) -> dict[str, Any]:
        record: dict[str, Any] = {"t": round(ev.time, 6), "wall": wall, "kind": ev.kind}
        if ev.message:
            record["msg"] = ev.message
        for k, v in ev.fields.items():
            record[f"f_{k}" if k in _RESERVED else k] = v
        return record

    #: Lines serialised per GIL yield in the writer thread.  A deep queue
    #: must not turn into one long CPU burst: the interpreter's switch
    #: interval (5ms) would let the burst convoy the latency-critical
    #: router/submit threads that are trying to enqueue.
    _CHUNK = 32

    def _pack(self, batch: list) -> list[str]:
        """Every queued ``(wall, event)`` as its line, a chunk per yield."""
        lines: list[str] = []
        for start in range(0, len(batch), self._CHUNK):
            lines += [
                json.dumps(self._record(wall, ev), default=repr, separators=(",", ":")) + "\n"
                for wall, ev in batch[start:start + self._CHUNK]
            ]
            time.sleep(0)  # yield: emitters outrank the historian
        return lines

    def _write(self, lines: list[str]) -> None:
        for line in lines:
            if self._nbytes + len(line) > self.rotate_bytes and self._nbytes > 0:
                self._rotate()
            self._fh.write(line)
            self._nbytes += len(line)

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

    def _on_error(self, err: "BaseException | None" = None) -> None:
        self._failed = True
        warnings.warn(
            f"journal {str(self.path)!r}: writing a record failed "
            f"({err or self._outbox.error!r}); its writer stopped and later records are dropped",
            RuntimeWarning,
        )

    def _stop(self) -> None:
        try:
            self._fh.close()  # flushes what the file still buffers
        except OSError as err:
            if not self._failed:  # quiet after the failure it warned of
                self._on_error(err)

    # -------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Refuse later records; wait (bounded) for the writer to finish."""
        self._outbox.close()
        self._outbox.thread.join(timeout=10.0)

    @property
    def closed(self) -> bool:
        return not self._outbox.open


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
