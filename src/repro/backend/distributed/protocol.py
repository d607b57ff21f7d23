"""Wire protocol of the distributed backend.

Frames are the byte lane's (:mod:`repro.transport.lane`, which the process
backend runs on too) over a TCP stream: a 4-byte big-endian payload length
followed by ``pickle.dumps(message)``.  A message is a plain tuple whose
first element is the kind (see the table in ``docs/distributed.md``):

========================  =========  ====================================
kind                      direction  fields after the kind
========================  =========  ====================================
``hello``                 w → c      name, cores, load1, peer address
``welcome``               c → w      worker_id, inbox, transport_spec
                                     (its ``probe`` a frame or None),
                                     token, peers (``(id, address)``)
``peer``                  w → w      worker_id, shm_ok (after the token)
``peer_ok``               w → w      worker_id, shm_ok
``shm_ok``                w → c      bool (the spec's probe frame decodes
                                     to its token); once every peer link
                                     is up, it completes registration
``link_failed``           w → c      worker_id, error_repr
``place``                 c → w      stage, slot, fn_payload, stage_name
``placed``                w → c      stage, slot, error_repr (None: the
                                     replica runs; routes may pass it)
``retire``                c → w      stage, slot
``task``                  c/w → w    epoch, stage, slot, seq, payload,
                                     t_sent, route, trail
``result``                w → c      epoch, stage, slot, seq, ok, payload,
                                     t_sent, error_repr, trail
``peer_lost``             w → c      worker_id (a forward to it failed)
``ping``                  c → w      t0
``pong``                  w → c      t0, t1, t2, load1
``shutdown``              c → w      (none)
========================  =========  ====================================

``epoch`` names the coordinator's session (a result of an earlier one is
dropped).  A segment travels as one **route**: the first hop's ``task``
lists the rest as ``(stage, slot, worker_id)``; each hop passes its output
on (into its own replica's inbox, or over a peer link), appending
``(stage, worker_id, slot, t_recv_w, wait_s, service_s, t_send_w,
nbytes)`` to ``trail``; the last hop — the boundary — appends its own and
sends the ``result``, a failure any hop (with the trail before it).
``t_sent`` (the coordinator's send of the first hop) is only echoed
back; ``t_recv_w``/``t_send_w`` (a worker's clock at task arrival and
hand-off), ``wait_s`` and ``service_s`` are all the timing a worker
reports, mapped per hop through the coordinator's per-worker
:class:`repro.obs.clock.ClockSync` fit, which each ``ping``/``pong``
quadruple feeds with an rtt/2 error bound.

``payload`` fields are the wire form a codec's ``encode`` returns: the
pickle stream itself, as ``bytes``, when it is self-contained; otherwise a
:class:`~repro.transport.Frame` — a pickle stream plus out-of-band buffers,
each inline or a shared-memory segment descriptor under the **negotiated
frame format** (a failed ``result`` carries its pickled error instead):
``welcome`` carries the transport spec (codec name, session, placement
threshold) plus a shared-memory probe — a frame holding a random token
in one slot — and ``shm_ok`` fixes whether descriptors may cross this
connection (same host) or every frame must be materialized inline
(remote); between peers, ``peer``/``peer_ok`` say the same.  The
coordinator forwards a boundary's output frame to the next segment
untouched: no decode/encode round trip, and with descriptors no bulk
bytes on any socket.

Order: a ``place`` is written before any ``task`` for its slot, and a
route passes a replica only once its worker answered ``placed``, so a
task from a peer cannot overtake its place either; a worker drops a task
for an unknown slot (its place failed, or the route is stale).  A
``retire`` follows the last route through its slot, so no ``task`` for a
slot ever follows its ``retire``.  A worker opens with the raw
:data:`PREAMBLE` (``b"RPRO"`` + a 2-byte version), a peer link with
``PREAMBLE`` and the backend's random token from ``welcome``: the listening
end closes a connection whose first bytes differ before it unpickles
anything.  Each connection has one outbox
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

#: What a worker writes before its first frame: magic, then the version (6:
#: ``welcome``'s shm probe is a frame, not a segment name).
PREAMBLE = b"RPRO" + struct.pack(">H", 6)


def send_frame(sock: socket.socket, message: Any) -> None:
    """Write ``message`` as one frame (one sender per socket)."""
    sock.sendall(encode_frame(message))


def recv_frame(sock: socket.socket) -> Any | None:
    """Read one frame straight off ``sock``, unbuffered (never past the frame)."""
    return read_frame(sock.recv)
