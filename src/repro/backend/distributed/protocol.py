"""Wire protocol of the distributed backend.

Frames are length-prefixed pickles over a TCP stream: a 4-byte big-endian
payload length followed by ``pickle.dumps(message)``.  A message is a plain
tuple whose first element is the kind (see the table in
``docs/distributed.md``):

========================  =========  ====================================
kind                      direction  fields after the kind
========================  =========  ====================================
``hello``                 w → c      name, cores, load1
``welcome``               c → w      worker_id, heartbeat_interval,
                                     inbox, transport_spec
``shm_ok``                w → c      bool (the worker verified the
                                     transport spec's shared-memory probe)
``place``                 c → w      stage, slot, fn_payload, stage_name
``place_failed``          w → c      stage, slot, error_repr
``retire``                c → w      stage, slot
``task``                  c → w      epoch, stage, slot, seq, payload, t_sent
``result``                w → c      epoch, stage, slot, seq, ok, payload,
                                     service_s, wait_s, t_sent, error_repr,
                                     t_recv_w, t_send_w
``reject``                w → c      epoch, stage, slot, seq (task arrived
                                     for a slot the worker no longer hosts)
``heartbeat``             w → c      load1
``shutdown``              c → w      (none)
========================  =========  ====================================

``t_recv_w``/``t_send_w`` are the worker's clock at task arrival and
result send: together with the echoed ``t_sent`` and the coordinator's
receive time they form the NTP-style quadruple that
:class:`repro.obs.clock.ClockSync` fits a per-worker clock offset from.
With ``wait_s`` and ``service_s`` they are all the timing a worker
reports: the coordinator derives the hop's ``span.phases`` and its
``wk.*`` trace points from them, so no other frame carries any.

``payload`` fields are frames in their flat wire form
(:func:`repro.transport.to_wire`): the pickle stream itself, as ``bytes``,
for an inline frame without buffers; otherwise the
:class:`~repro.transport.Frame` — a pickle stream plus out-of-band buffers,
each inline or a shared-memory segment descriptor under the **negotiated
frame format** (a failed ``result`` carries its pickled error instead):
``welcome`` carries the coordinator's transport spec (codec name, session, placement threshold)
plus a shared-memory probe, and the worker's ``shm_ok`` reply fixes
whether descriptors may cross this connection (same host) or every frame
must be materialized inline (remote).  The coordinator forwards a stage's
output frame to the next stage untouched, so each item crosses the
coordinator without a decode/encode round trip — and, with descriptors,
without its bulk bytes crossing any socket at all.  ``t_sent`` is the
*sender's* clock and is only ever echoed back to be differenced on the
machine that produced it — the protocol itself never compares clocks
across hosts; cross-host timestamp *mapping* happens only downstream, in
the coordinator's per-worker :class:`repro.obs.clock.ClockSync` fit, with
an explicit rtt/2 error bound.

TCP ordering is load-bearing: a ``place`` is always written before any
``task`` for that slot, so workers never see a task for an unknown replica.
A worker opens with the raw :data:`PREAMBLE` (``b"RPRO"`` + a 2-byte
version); the coordinator closes a connection whose first bytes differ
before it unpickles anything.  Each connection has one :class:`Outbox`
(senders frame on their own thread; one writer sends everything queued
with one ``sendall``, keeping each sender's order) and one buffered reader
(``sock.makefile("rb")``: one ``recv`` yields every whole frame held).
"""

from __future__ import annotations

import pickle
import socket
import struct
from queue import SimpleQueue
from threading import Thread
from typing import Any, Callable

__all__ = [
    "MAX_FRAME",
    "Outbox",
    "PREAMBLE",
    "ProtocolError",
    "encode_frame",
    "read_frame",
    "recv_frame",
    "send_frame",
]

#: Upper bound on one frame's payload: guards both sides against a corrupt
#: or hostile length header committing them to a multi-GB allocation.
MAX_FRAME = 256 * 1024 * 1024

#: What a worker writes before its first frame: magic, then the version.
PREAMBLE = b"RPRO" + struct.pack(">H", 2)

_HEADER = struct.Struct(">I")


class ProtocolError(RuntimeError):
    """The peer sent bytes that are not a valid frame."""


def encode_frame(message: Any) -> bytes:
    """``message`` as one frame: its pickle behind a 4-byte length."""
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    if len(payload) > MAX_FRAME:
        raise ProtocolError(
            f"frame of {len(payload)} bytes exceeds MAX_FRAME ({MAX_FRAME})"
        )
    return _HEADER.pack(len(payload)) + payload


def send_frame(sock: socket.socket, message: Any) -> None:
    """Write ``message`` as one frame (one sender per socket)."""
    sock.sendall(encode_frame(message))


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
    try:
        return pickle.loads(payload)
    except Exception as err:
        raise ProtocolError(f"undecodable frame: {err!r}") from err


def recv_frame(sock: socket.socket) -> Any | None:
    """Read one frame straight off ``sock``, unbuffered (never past the frame)."""
    return read_frame(sock.recv)


class Outbox:
    """The send side of one connection: senders frame, one thread writes.

    The writer parks untimed for the first frame, takes every frame queued
    behind it and writes them with one ``sendall``.  A failed write calls
    ``on_error`` once; after that, or after :meth:`close`, :meth:`send`
    returns False.  The writer owns the socket's end: when it stops it
    shuts the socket down (waking a blocked read) and closes it.
    """

    def __init__(self, sock: socket.socket, name: str, on_error: Callable[[], Any]) -> None:
        self.sock, self.open, self._on_error = sock, True, on_error
        self._queue: SimpleQueue = SimpleQueue()
        self.thread = Thread(target=self._write, name=name, daemon=True)
        self.thread.start()

    def send(self, message: Any) -> bool:
        """Frame ``message`` on this thread and queue it (or raise ProtocolError)."""
        if not self.open:
            return False
        self._queue.put(encode_frame(message))
        return True

    def close(self) -> None:
        """Refuse further sends; the writer flushes what is queued, then stops."""
        self.open = False
        self._queue.put(None)

    def _write(self) -> None:
        queue, stopping = self._queue, False
        while not stopping:
            frames = [queue.get()]
            while not queue.empty():
                frames.append(queue.get())
            if None in frames:  # close(): what was queued before it goes last
                del frames[frames.index(None):]
                stopping = True
            try:
                if frames:
                    self.sock.sendall(b"".join(frames))
            except OSError:
                self.open = False
                self._on_error()
                break
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()
