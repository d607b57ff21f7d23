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
                                     inbox, transport_spec, trace
``shm_ok``                w → c      bool (the worker verified the
                                     transport spec's shared-memory probe)
``place``                 c → w      stage, slot, fn_payload, stage_name
``place_failed``          w → c      stage, slot, error_repr
``retire``                c → w      stage, slot
``task``                  c → w      epoch, stage, slot, seq, payload, t_sent
``result``                w → c      epoch, stage, slot, seq, ok, payload,
                                     service_s, wait_s, t_sent, error_repr,
                                     t_recv_w, t_send_w, events
``reject``                w → c      epoch, stage, slot, seq (task arrived
                                     for a slot the worker no longer hosts)
``heartbeat``             w → c      load1, events
``trace``                 c → w      bool (enable/disable worker-side
                                     event tracing live)
``shutdown``              c → w      (none)
========================  =========  ====================================

``trace``, ``t_recv_w``/``t_send_w`` and ``events`` serve tracing.
``t_recv_w``/``t_send_w`` are the worker's clock at task arrival and
result send: together with the echoed ``t_sent`` and the coordinator's
receive time they form the NTP-style quadruple that
:class:`repro.obs.clock.ClockSync` fits a per-worker clock offset from.
``events`` is a list of compact ``(kind, t_worker, fields)`` tuples —
worker-side trace points batched since the last frame, piggybacked here
so tracing never adds a round trip; the coordinator maps their
timestamps through the clock fit and re-emits them on the session bus.

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
"""

from __future__ import annotations

import pickle
import socket
import struct
import threading
from typing import Any

__all__ = [
    "MAX_FRAME",
    "ProtocolError",
    "recv_frame",
    "send_frame",
]

#: Upper bound on one frame's payload: guards both sides against a corrupt
#: or hostile length header committing them to a multi-GB allocation.
MAX_FRAME = 256 * 1024 * 1024

_HEADER = struct.Struct(">I")


class ProtocolError(RuntimeError):
    """The peer sent bytes that are not a valid frame."""


def send_frame(
    sock: socket.socket, message: Any, lock: threading.Lock | None = None
) -> None:
    """Pickle ``message`` and write it as one frame (atomically if locked).

    ``lock`` serialises concurrent senders on a shared socket — interleaved
    ``sendall`` calls from two threads would corrupt the stream.
    """
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    if len(payload) > MAX_FRAME:
        raise ProtocolError(
            f"frame of {len(payload)} bytes exceeds MAX_FRAME ({MAX_FRAME})"
        )
    data = _HEADER.pack(len(payload)) + payload
    if lock is not None:
        with lock:
            sock.sendall(data)
    else:
        sock.sendall(data)


def _recv_exact(sock: socket.socket, n: int) -> bytes | None:
    """Read exactly ``n`` bytes; ``None`` on clean EOF before the first byte."""
    chunks: list[bytes] = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            if chunks:
                raise ProtocolError(
                    f"connection closed mid-frame ({n - remaining}/{n} bytes)"
                )
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> Any | None:
    """Read one frame; ``None`` on clean EOF at a frame boundary."""
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME:
        raise ProtocolError(f"peer announced a {length}-byte frame (> {MAX_FRAME})")
    payload = _recv_exact(sock, length)
    if payload is None:
        raise ProtocolError("connection closed between header and payload")
    try:
        return pickle.loads(payload)
    except Exception as err:
        raise ProtocolError(f"undecodable frame: {err!r}") from err
