"""The byte lane: length-prefixed pickled frames over a byte stream.

A frame is a 4-byte big-endian payload length, then ``pickle.dumps(message)``:
the header ``multiprocessing.connection.Connection.send_bytes`` writes, so
a process worker's ``recv_bytes``/``send_bytes`` speak it too.  The
distributed backend runs it over TCP, bounded by :data:`MAX_FRAME`
(:mod:`repro.backend.distributed.protocol` adds the preamble and the
message table); the process backend over pipes to its forked workers,
unbounded, as a ``Connection`` is.

* :class:`Outbox`: senders frame on their own thread (or, given a
  ``pack``, the writer frames); one writer thread writes everything queued
  with one write-all call.  A socket's outbox frames each message, bounded
  by :data:`MAX_FRAME`; a pipe's packs; the event journal's packs lines.
* :func:`read_frame`: one frame through a blocking ``read``.
* :class:`FrameReader`: a non-blocking descriptor, every whole frame a
  ``read`` completes; a partial frame waits for the next read.
"""

from __future__ import annotations

import os
import pickle
import struct
from collections import deque
from queue import SimpleQueue
from threading import Thread
from typing import Any, Callable

__all__ = [
    "MAX_FRAME",
    "FrameReader",
    "Outbox",
    "ProtocolError",
    "encode_frame",
    "pipe_outbox",
    "read_frame",
    "socket_outbox",
]

#: Upper bound on one network frame's payload: guards both sides against a
#: corrupt or hostile length header committing them to a multi-GB allocation.
MAX_FRAME = 256 * 1024 * 1024

_HEADER = struct.Struct(">I")
# Connection's header for a payload past _SHORT_MAX: a -1 marker, then 8 bytes.
_LONG, _LONG_MARK, _SHORT_MAX = struct.Struct(">IQ"), 0xFFFFFFFF, 0x7FFFFFFF
_CLOSE = object()  # an outbox's close() in its queue: the writer stops there


class ProtocolError(RuntimeError):
    """The peer sent bytes that are not a valid frame."""


def encode_frame(message: Any, bounded: bool = True) -> bytes:
    """``message`` as one frame; ``bounded``, refused above :data:`MAX_FRAME`."""
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    n = len(payload)
    if bounded and n > MAX_FRAME:
        raise ProtocolError(f"frame of {n} bytes exceeds MAX_FRAME ({MAX_FRAME})")
    if n > _SHORT_MAX:
        return _LONG.pack(_LONG_MARK, n) + payload
    return _HEADER.pack(n) + payload


def _loads(payload) -> Any:
    try:
        return pickle.loads(payload)
    except Exception as err:
        raise ProtocolError(f"undecodable frame: {err!r}") from err


def _read_exact(read: Callable[[int], bytes], n: int) -> bytes | None:
    """Read exactly ``n`` bytes; ``None`` on clean EOF before the first byte."""
    chunk = read(min(n, 1 << 20))
    if len(chunk) == n:  # a buffered reader's usual case: no list, no join
        return chunk
    if not chunk:
        return None
    chunks, got = [chunk], len(chunk)
    while got < n:
        chunk = read(min(n - got, 1 << 20))
        if not chunk:
            raise ProtocolError(f"connection closed mid-frame ({got}/{n} bytes)")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def read_frame(read: Callable[[int], bytes]) -> Any | None:
    """Read one frame through ``read`` (a reader's ``read`` or a socket's
    ``recv``); ``None`` on clean EOF at a frame boundary."""
    header = _read_exact(read, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME:
        raise ProtocolError(f"peer announced a {length}-byte frame (> {MAX_FRAME})")
    payload = _read_exact(read, length)
    if payload is None:
        raise ProtocolError("connection closed between header and payload")
    return _loads(payload)


class FrameReader:
    """Whole frames off a non-blocking descriptor, a burst per ``read``.

    :meth:`fill` makes one ``read`` and appends every frame it completes,
    unpickled, to :attr:`frames`; a frame cut short stays buffered until a
    later fill completes it, so a writer killed mid-frame never leaves its
    reader stuck in ``read``.  Unbounded: its writers are trusted workers.
    """

    def __init__(self, fd: int) -> None:
        os.set_blocking(fd, False)
        self._fd, self._buf = fd, bytearray()
        self.frames: deque = deque()

    def fill(self) -> int:
        """One read; the number of frames it completed (0: nothing whole yet)."""
        try:
            data = os.read(self._fd, 1 << 16)
        except BlockingIOError:
            return 0
        if not data:
            raise ProtocolError(f"lane closed ({len(self._buf)} bytes of a frame held)")
        buf, frames = self._buf, self.frames
        buf += data
        pos, end, before = 0, len(buf), len(frames)
        with memoryview(buf) as view:
            while end - pos >= _HEADER.size:
                head, (n,) = _HEADER.size, _HEADER.unpack_from(buf, pos)
                if n == _LONG_MARK:
                    if end - pos < _LONG.size:
                        break
                    head, (_, n) = _LONG.size, _LONG.unpack_from(buf, pos)
                stop = pos + head + n
                if stop > end:
                    break
                frames.append(_loads(view[pos + head:stop]))
                pos = stop
        del buf[:pos]
        return len(frames) - before


class Outbox:
    """The send side of one lane: senders frame, one thread writes.

    The writer parks untimed for the first frame, takes every frame queued
    behind it and writes them with one ``write_all``.  Given ``pack``,
    senders queue their messages as they are and the writer writes
    ``pack(messages)``: a packer sees every message queued per write, so it
    can frame a run of them as one; without one, a frame refuses to exceed
    :data:`MAX_FRAME`.  A failed write calls ``on_error`` once; after that,
    or after :meth:`close`, :meth:`send` returns False.  The writer owns the
    lane's end: it calls ``on_stop`` (close the pipe, shut the socket down)
    when it stops.
    """

    def __init__(
        self,
        write_all: Callable[[Any], Any],
        name: str,
        on_error: Callable[[], Any],
        on_stop: Callable[[], Any],
        pack: "Callable[[list], Any] | None" = None,
    ) -> None:
        self.open, self._write_all, self._pack = True, write_all, pack
        self._on_error, self._on_stop = on_error, on_stop
        self._queue: SimpleQueue = SimpleQueue()
        self.thread = Thread(target=self._write, name=name, daemon=True)
        self.thread.start()

    def send(self, message: Any) -> bool:
        """Frame ``message`` on this thread, unless the writer packs, and queue
        it (or raise ProtocolError)."""
        if not self.open:
            return False
        self._queue.put(message if self._pack else encode_frame(message))
        return True

    def close(self) -> None:
        """Refuse further sends; the writer flushes what is queued, then stops."""
        self.open = False
        self._queue.put(_CLOSE)

    def _write(self) -> None:
        queue, stopping = self._queue, False
        while not stopping:
            queued = [queue.get()]
            while not queue.empty():
                queued.append(queue.get())
            if _CLOSE in queued:  # close(): what was queued before it goes last
                del queued[queued.index(_CLOSE):]
                stopping = True
            try:
                if queued:
                    self._write_all(self._pack(queued) if self._pack else b"".join(queued))
            except OSError:
                self.open = False
                self._on_error()
                break
        self._on_stop()


def socket_outbox(sock, name: str, on_error: Callable[[], Any]) -> Outbox:
    """An outbox over a connected socket; its writer shuts the socket down
    (waking a blocked read) and closes it when it stops."""
    import socket  # here, not at the top: the journal's outbox needs no socket

    def stop() -> None:
        try:
            sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        sock.close()

    return Outbox(sock.sendall, name, on_error, stop)


def pipe_outbox(
    end, name: str, on_error: Callable[[], Any], pack: Callable[[list], bytes]
) -> Outbox:
    """An outbox over a pipe's blocking write ``end`` (anything with
    ``fileno()`` and ``close()``), its writer framing with ``pack``; the
    writer closes ``end`` when it stops."""
    fd = end.fileno()

    def write_all(data: bytes) -> None:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]

    return Outbox(write_all, name, on_error, end.close, pack)
