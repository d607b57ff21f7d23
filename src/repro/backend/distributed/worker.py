"""The worker side of the distributed backend.

A :class:`WorkerAgent` connects to a coordinator, registers (cores, load
average and the address its peer listener accepts on), links to every
worker the ``welcome`` lists, and then hosts **stage replicas**: each
``place`` starts one — a thread with its own bounded inbox (a
:class:`~repro.util.handoff.Handoff`) — and each ``retire``, sent once the
last route through the replica completed, stops it behind what it holds.
A replica runs :func:`~repro.runtime.threads.run_stage` on its task (the
process pools' step, through the **negotiated transport codec**), appends
its hop's stamps to the trail (``t_recv_w``/``t_send_w`` beside ``wait_s``
and ``service_s``) and passes the output along the task's **route**: into
the next replica's inbox when that is hosted here (no wire), over the peer
link otherwise, and from the last hop — a boundary — home as a ``result``
whose trail ends with the boundary's own hop.  A worker
traces nothing: the coordinator derives its clock fit and, from those
stamps and each ``pong`` (the answer to its monitor's ``ping``, which also
carries the load average), the phases each hop's ``stage.service`` carries.

**Peer links** open with ``PREAMBLE`` and the backend's token from
``welcome``, compared as raw bytes on the listening side before anything is
unpickled, then run the coordinator link's outbox and buffered reader.
Registration completes (``shm_ok``) once every link is confirmed.  A
forward that cannot be delivered is reported (``peer_lost``): the
coordinator takes it as that peer's death.

**Transport negotiation.**  ``welcome`` carries the coordinator's transport
spec plus a shared-memory *probe*, a random token encoded into a slot: a
worker that decodes it back shares the coordinator's namespace (same
host) and encodes with the negotiated codec — large payloads then cross
a socket as segment descriptors — for the coordinator and for every peer
that shares it; otherwise (a remote host) it falls back to inline pickle.  The
coordinator owns a route's input frame (it may re-dispatch the segment
after a death) and its sweep unlinks; the worker that consumes an
intermediate frame releases it, as the process pools do.

Run a worker on a (possibly remote) host with::

    python -m repro.backend.distributed.worker --connect HOST:PORT

Stage callables arrive pickled, so they must be importable on the worker
(module-level functions).  Workers the coordinator auto-spawns locally are
forked from the coordinator process, which makes any module already loaded
there — including test modules — resolvable without an installed package.

``--link-delay`` delays every task reaching the worker over a link (from
the coordinator or a peer) before its arrival stamp, so a slow link (E16)
shows in the measured transfer time, not in service or wait;
``--link-bandwidth`` adds ``payload_bytes / bandwidth`` seconds per task,
a bandwidth-starved link (E17) the size-stratified link fit must detect.
"""

from __future__ import annotations

import os
import pickle
import socket
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

from repro import transport as _transport
from repro.backend.distributed.protocol import PREAMBLE
from repro.monitor.resource_monitor import read_load1
from repro.runtime.threads import run_stage
from repro.transport import Codec, TransportError, Wire, decode_frame, wire_nbytes
from repro.transport.lane import Outbox, ProtocolError, encode_frame, read_frame, socket_outbox
from repro.util.handoff import Handoff

__all__ = ["WorkerAgent", "main"]

_STOP = object()


@dataclass(slots=True)
class _Task:
    epoch: int
    seq: int
    payload: Wire
    t_sent: float  # the coordinator's send of the route's first hop, echoed
    arrived: float  # worker clock, stamped after any injected link delay
    route: tuple  # the hops after this one: (stage, slot, worker id) each
    # The hops before it, as the result reports them: a task with a trail
    # carries an intermediate frame, released where it is decoded.
    trail: tuple


class _ReplicaRunner:
    """One hosted stage replica: a thread draining a bounded ``Handoff``."""

    def __init__(
        self,
        agent: "WorkerAgent",
        stage: int,
        slot: int,
        fn: Callable[[Any], Any],
        stage_name: str,
        capacity: int,
    ) -> None:
        self.stage = stage
        self.slot = slot
        self.fn = fn
        self.queue = Handoff(max(capacity, 1))
        self._agent = agent
        self.thread = threading.Thread(
            target=self._serve, name=f"replica[{stage_name}.{slot}]", daemon=True
        )
        self.thread.start()

    def _serve(self) -> None:
        agent = self._agent
        while (task := self.queue.get()) is not _STOP:
            # The coordinator owns a route's input frame (it may re-dispatch
            # the segment after a death, a micro-batch whole, so per-item
            # exactly-once holds by construction); a frame a hop before this
            # one made is this replica's to release.
            out, t0, t1, failed, _held = run_stage(  # _held lives until the next item
                self.fn, task.payload, agent.codec, agent._codec_for(task.route), bool(task.trail)
            )
            if failed is None:
                agent._pass_on(task, self.stage, self.slot, out, t1 - t0, t0 - task.arrived)
                continue
            # Shipped home from here; stay warm, the coordinator aborts the run.
            agent._outbox.send(("result", task.epoch, self.stage, self.slot, task.seq, False,
                                failed[0], task.t_sent, failed[1], task.trail))


class WorkerAgent:
    """Connects to a coordinator and hosts stage replicas until shut down.

    Parameters
    ----------
    host, port:
        Coordinator address.
    cores:
        Advertised core count (capacity signal for placement); defaults to
        ``os.cpu_count()``.
    name:
        Advertised worker name (defaults to ``host:pid``).
    link_delay:
        Artificial receive delay in seconds per task frame (0 disables) —
        an experiment knob simulating a slow link.
    link_bandwidth:
        Artificial bandwidth in bytes/s (0 disables): each task pays an
        extra ``payload_bytes / link_bandwidth`` seconds on receive — the
        experiment knob for a bandwidth-starved link (E17).
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        cores: int | None = None,
        name: str | None = None,
        link_delay: float = 0.0,
        link_bandwidth: float = 0.0,
    ) -> None:
        if link_delay < 0:
            raise ValueError(f"link_delay must be >= 0, got {link_delay}")
        if link_bandwidth < 0:
            raise ValueError(f"link_bandwidth must be >= 0, got {link_bandwidth}")
        self.host = host
        self.port = port
        self.cores = cores if cores is not None else (os.cpu_count() or 1)
        self.name = name if name is not None else f"{socket.gethostname()}:{os.getpid()}"
        self.link_delay = float(link_delay)
        self.link_bandwidth = float(link_bandwidth)
        self._delays = threading.Lock()  # the injected delays model one link into the worker
        self.inbox = 1  # per-replica task-queue bound, named by the welcome
        self.worker_id: int | None = None
        self.codec: Codec = _transport.get("pickle")  # until negotiation
        self._inline: Codec = self.codec  # frames a peer outside our shm namespace reads
        self.shm_ok = False
        self._outbox: Outbox | None = None  # every send to the coordinator
        self._token = b""  # what a peer writes after PREAMBLE, named by the welcome
        self._peers: dict[int, tuple[Outbox, Codec]] = {}  # worker id -> (link, its codec)
        self._replicas: dict[tuple[int, int], _ReplicaRunner] = {}
        self._stop = threading.Event()

    def _negotiate_transport(self, spec: dict) -> None:
        """Adopt the coordinator's codec iff its shm probe decodes here."""
        probe = spec.get("probe")
        try:  # the probe's slot is read, never released: the coordinator owns it
            ok = probe is not None and decode_frame(probe) == spec.get("token")
        except (OSError, TransportError):
            ok = False  # another host's namespace, or none at all
        self.shm_ok = ok
        codec_spec = {k: v for k, v in spec.items() if k in ("name", "session", "threshold")}
        # Frames must stay self-contained across host boundaries.
        self._inline = _transport.get("pickle", session=spec.get("session"))
        self.codec = _transport.from_spec(codec_spec) if ok else self._inline

    def _codec_for(self, route: tuple) -> Codec:
        """A hop's output codec: its next hop's link's, else ours (here, or home)."""
        link = self._peers.get(route[0][2]) if route else None
        return link[1] if link else self.codec

    # -------------------------------------------------------------- plumbing
    def _pass_on(
        self, task: _Task, stage: int, slot: int, out: Wire, service_s: float, wait_s: float
    ) -> None:
        """Append this hop's worker-clock stamps to the trail (the coordinator's
        clock fit and phase decomposition both come from them)
        and hand the output to the route's next hop, or home from its last."""
        now = time.perf_counter()
        trail = (*task.trail, (stage, self.worker_id, slot, task.arrived, wait_s, service_s,
                               now, wire_nbytes(out)))
        if not task.route:
            self._outbox.send(("result", task.epoch, stage, slot, task.seq, True, out,
                               task.t_sent, None, trail))
            return
        (nstage, nslot, wid), route = task.route[0], task.route[1:]
        if wid == self.worker_id:  # the next replica is here: no wire
            runner = self._replicas.get((nstage, nslot))
            if runner is not None:
                runner.queue.put(_Task(task.epoch, task.seq, out, task.t_sent, now, route, trail))
            else:  # a stale route: no replica reads the frame, so it goes here
                self.codec.release(out)
            return
        link = self._peers.get(wid)
        msg = ("task", task.epoch, nstage, nslot, task.seq, out, task.t_sent, route, trail)
        if link is None or not link[0].send(msg):
            self.codec.release(out)
            self._lose(wid)

    def _lose(self, wid: int) -> None:
        """A forward to ``wid`` failed: the coordinator takes it as that peer's death."""
        self._peers.pop(wid, None)
        self._outbox.send(("peer_lost", wid))

    def _receive(self, frame: tuple) -> None:
        """Queue one ``task`` for its replica, after any injected link delay."""
        _, epoch, stage, slot, seq, payload, t_sent, route, trail = frame
        delay = self.link_delay
        if self.link_bandwidth:
            delay += wire_nbytes(payload) / self.link_bandwidth
        if delay:
            with self._delays:  # every receive path, coordinator or peer, queues on it
                time.sleep(delay)
        runner = self._replicas.get((stage, slot))
        # A retire follows the last route through its slot: an unknown slot's
        # place failed (and failed the session), or a stale route names it.
        if runner is not None:
            runner.queue.put(
                _Task(epoch, seq, payload, t_sent, time.perf_counter(), route, trail)
            )
        elif trail:  # a frame a hop before made, and no replica will read it
            self.codec.release(payload)

    # ------------------------------------------------------------ peer links
    @staticmethod
    def _dial(address) -> socket.socket:
        sock = socket.create_connection(address, timeout=10.0)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def _adopt(self, sock: socket.socket, wid: int, shm: bool) -> Outbox:
        """Register the confirmed link to ``wid`` (``shm``: it shares our namespace)."""
        link = socket_outbox(sock, f"worker-peer-send[{wid}]", lambda: self._lose(wid))
        self._peers[wid] = (link, self.codec if shm else self._inline)
        return link

    def _read_peer(self, reader) -> None:
        try:
            while (frame := read_frame(reader.read)) is not None:
                self._receive(frame)
        except (OSError, ProtocolError):
            pass
        finally:
            reader.close()

    def _link(self, wid: int, address) -> bool:
        """Dial an earlier worker; False, reported, when the pair cannot connect."""
        sock = None
        try:
            sock = self._dial(address)
            hello = encode_frame(("peer", self.worker_id, self.shm_ok))
            sock.sendall(PREAMBLE + self._token + hello)
            reader = sock.makefile("rb", buffering=1 << 16)
            reply = read_frame(reader.read)
            if not (isinstance(reply, tuple) and reply[:2] == ("peer_ok", wid)):
                raise ProtocolError(f"expected peer_ok, got {reply!r}")
            sock.settimeout(None)
        except (OSError, ProtocolError) as err:
            if sock is not None:
                sock.close()
            self._outbox.send(("link_failed", wid, repr(err)))
            return False
        self._adopt(sock, wid, reply[2] and self.shm_ok)
        name = f"worker-peer[{wid}]"
        threading.Thread(target=self._read_peer, args=(reader,), name=name, daemon=True).start()
        return True

    def _link_all(self, peers) -> None:
        """Dial every earlier worker, then complete registration (``shm_ok``)."""
        if all(self._link(wid, address) for wid, address in peers):
            self._outbox.send(("shm_ok", self.shm_ok))

    def _accept_peers(self, listener: socket.socket) -> None:
        while True:
            try:
                sock, _addr = listener.accept()
            except OSError:
                return  # the agent stopped
            threading.Thread(
                target=self._admit, args=(sock,), name="worker-peer", daemon=True
            ).start()

    def _admit(self, sock: socket.socket) -> None:
        """One accepted connection, on its own thread: a stranger until its
        first bytes are the preamble and this backend's token."""
        reader = sock.makefile("rb", buffering=1 << 16)
        try:
            opening = PREAMBLE + self._token
            if reader.read(len(opening)) != opening:
                raise ProtocolError("not a peer")  # closed before anything is unpickled
            hello = read_frame(reader.read)
            if not (isinstance(hello, tuple) and len(hello) == 3 and hello[0] == "peer"):
                raise ProtocolError(f"expected peer, got {hello!r}")
        except (OSError, ProtocolError):
            reader.close()
            sock.close()
            return
        _, wid, shm = hello
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._adopt(sock, wid, shm and self.shm_ok).send(("peer_ok", self.worker_id, self.shm_ok))
        threading.current_thread().name = f"worker-peer[{wid}]"
        self._read_peer(reader)

    # ------------------------------------------------------------------- run
    def run(self) -> None:
        """Connect, register, and serve until shutdown or coordinator EOF."""
        sock = self._dial((self.host, self.port))
        sock.settimeout(None)
        sock.sendall(PREAMBLE)  # raw, ahead of every frame
        # Peers reach this worker where it reached the coordinator.
        listener = socket.create_server((sock.getsockname()[0], 0))
        # One recv yields every whole frame the kernel holds; one writer
        # thread sends what the replicas and the serve loop queue, and a
        # failed write stops the agent (the writer's shutdown ends the
        # serve loop).
        reader = sock.makefile("rb", buffering=1 << 16)
        self._outbox = socket_outbox(sock, "worker-send", self._stop.set)
        try:
            self._outbox.send(
                ("hello", self.name, self.cores, read_load1(), listener.getsockname()[:2])
            )
            welcome = read_frame(reader.read)
            if not welcome or welcome[0] != "welcome":
                raise ProtocolError(f"expected welcome, got {welcome!r}")
            # The inbox bound covers the largest per-replica allowance the
            # coordinator can grant, so a put never blocks a receive loop.
            _, self.worker_id, self.inbox, transport_spec, self._token, peers = welcome
            self._negotiate_transport(transport_spec)
            # A peer that dialed already waits in the listen backlog.
            threading.Thread(
                target=self._accept_peers, args=(listener,), name="worker-accept", daemon=True
            ).start()
            # Dials may outlast the heartbeat timeout: the serve loop answers
            # pings meanwhile (nothing else comes before ``shm_ok``).
            threading.Thread(
                target=self._link_all, args=(peers,), name="worker-dial", daemon=True
            ).start()
            self._serve_loop(reader.read)
        finally:
            self._stop.set()
            try:  # wakes the accept loop
                listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            listener.close()
            for runner in self._replicas.values():
                runner.queue.put(_STOP)
            for link, _codec in list(self._peers.values()):
                link.close()
            reader.close()
            self._outbox.close()  # its writer flushes, then closes the socket

    def _serve_loop(self, read) -> None:
        while not self._stop.is_set():
            try:
                frame = read_frame(read)
            except (OSError, ProtocolError):
                return
            if frame is None:
                return
            kind = frame[0]
            if kind == "task":
                self._receive(frame)
            elif kind == "ping":  # t0 echoed, then this worker's receive and send stamps
                now = time.perf_counter()
                self._outbox.send(("pong", frame[1], now, now, read_load1()))
            elif kind == "place":
                _, stage, slot, fn_payload, stage_name = frame
                try:
                    fn = pickle.loads(fn_payload)
                except Exception as err:
                    self._outbox.send(("placed", stage, slot, repr(err)))
                    continue
                self._replicas[(stage, slot)] = _ReplicaRunner(
                    self, stage, slot, fn, stage_name, self.inbox
                )
                self._outbox.send(("placed", stage, slot, None))
            elif kind == "retire":
                _, stage, slot = frame
                runner = self._replicas.pop((stage, slot), None)
                if runner is not None:
                    # The sentinel queues behind already-dealt tasks, so the
                    # replica finishes its in-flight work before exiting.
                    runner.queue.put(_STOP)
            elif kind == "shutdown":
                return


def main(argv: list[str] | None = None) -> None:
    import argparse  # the command line's cost, not a forked local worker's

    parser = argparse.ArgumentParser(
        prog="python -m repro.backend.distributed.worker",
        description="Join a distributed pipeline coordinator as a worker.",
    )
    parser.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="coordinator address to register with",
    )
    parser.add_argument(
        "--cores",
        type=int,
        default=None,
        help="advertised core count (default: os.cpu_count())",
    )
    parser.add_argument("--name", default=None, help="advertised worker name")
    parser.add_argument(
        "--link-delay",
        type=float,
        default=0.0,
        help="inject an artificial per-task receive delay in seconds",
    )
    parser.add_argument(
        "--link-bandwidth",
        type=float,
        default=0.0,
        help="inject an artificial bandwidth limit in bytes/s (0 = unlimited)",
    )
    args = parser.parse_args(argv)
    host, _, port = args.connect.rpartition(":")
    if not host or not port.isdigit():
        parser.error(f"--connect must be HOST:PORT, got {args.connect!r}")
    WorkerAgent(
        host,
        int(port),
        cores=args.cores,
        name=args.name,
        link_delay=args.link_delay,
        link_bandwidth=args.link_bandwidth,
    ).run()


if __name__ == "__main__":
    main()
