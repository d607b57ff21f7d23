"""Wire protocol of the distributed backend.

Frames are the byte lane's (:mod:`repro.transport.lane`, which the process
backend runs on too) over a TCP stream: a 4-byte big-endian payload length
followed by ``pickle.dumps(message)``.  A message is a plain tuple whose
first element is the kind (see the table in ``docs/distributed.md``):

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
``heartbeat``             w → c      load1
``shutdown``              c → w      (none)
========================  =========  ====================================

``epoch`` names the coordinator's session (a result of an earlier one is
dropped); ``retire`` follows the slot's last result, so no ``task`` for a
slot ever follows its ``retire``.  ``t_recv_w``/``t_send_w`` are the worker's clock at task arrival and
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
``task`` for that slot, so a worker sees a task for an unknown replica only
after its ``place`` failed, and drops it.
A worker opens with the raw :data:`PREAMBLE` (``b"RPRO"`` + a 2-byte
version); the coordinator closes a connection whose first bytes differ
before it unpickles anything.  Each connection has one outbox
(:func:`repro.transport.lane.socket_outbox`: senders frame on their own
thread; one writer sends everything queued with one ``sendall``, keeping
each sender's order) and one buffered reader (``sock.makefile("rb")`` with
:func:`repro.transport.lane.read_frame`: one ``recv`` yields every whole
frame held).  What stays here is the preamble and the unbuffered
:func:`send_frame` / :func:`recv_frame` of fake peers and the benchmark's
frame probe.
"""

from __future__ import annotations

import socket
import struct
from typing import Any

from repro.transport.lane import encode_frame, read_frame

__all__ = ["PREAMBLE", "recv_frame", "send_frame"]

#: What a worker writes before its first frame: magic, then the version.
PREAMBLE = b"RPRO" + struct.pack(">H", 3)


def send_frame(sock: socket.socket, message: Any) -> None:
    """Write ``message`` as one frame (one sender per socket)."""
    sock.sendall(encode_frame(message))


def recv_frame(sock: socket.socket) -> Any | None:
    """Read one frame straight off ``sock``, unbuffered (never past the frame)."""
    return read_frame(sock.recv)
