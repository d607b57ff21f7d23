"""The worker side of the distributed backend.

A :class:`WorkerAgent` connects to a coordinator, registers (advertising
its core count and current load average), and then hosts **stage replicas**
on demand: each ``place`` message starts one replica — a thread with its
own bounded inbox (a :class:`~repro.util.handoff.Handoff`) — and each
``retire`` message lets that replica finish what it was dealt and exit
(a stop pill queued behind it).  Replicas decode item payloads through
the **negotiated transport codec** (see below), execute the stage callable,
timing the service, and ship results back tagged with the service time and
the in-queue wait so the coordinator can separate computation from link
cost.

**Transport negotiation.**  The ``welcome`` message carries the
coordinator's transport spec plus a shared-memory *probe*: the name and
expected contents of a small segment the coordinator created.  A worker
that can attach the probe and read the right token shares the
coordinator's shared-memory namespace (same host), replies ``shm_ok``
true, and encodes its results with the negotiated codec — large payloads
then cross the socket as segment descriptors instead of bytes.  A worker
that cannot (a remote host) replies false and falls back to inline
pickle; the coordinator materializes any descriptor frames it forwards
there.  Workers never release a frame: the coordinator owns every release
(a task may be re-dispatched after a worker death) and its sweep unlinks;
a worker recycles its result slots once the coordinator released them.

A heartbeat thread reports the 1-minute load average every
``heartbeat_interval`` seconds; the coordinator derives the worker's
effective speed from it and treats missing heartbeats as node loss.

**Worker timing.**  A worker traces nothing: every result frame carries
one set of stamps — ``t_recv_w``/``t_send_w`` (``time.perf_counter`` at
task arrival and result send) beside ``wait_s`` and ``service_s`` — and
the coordinator derives everything else from them: its per-worker clock
fit (:mod:`repro.obs.clock`), the ``span.phases`` decomposition and the
``wk.*`` trace points.

Run a worker on a (possibly remote) host with::

    python -m repro.backend.distributed.worker --connect HOST:PORT

Stage callables arrive pickled, so they must be importable on the worker
(module-level functions).  Workers the coordinator auto-spawns locally are
forked from the coordinator process, which makes any module already loaded
there — including test modules — resolvable without an installed package.

``--link-delay`` injects an artificial per-frame receive delay, simulating
a slow link for experiments (E16): the delay is applied *before* the task's
arrival timestamp, so it shows up in the coordinator's measured transfer
time, not in service or wait time.  ``--link-bandwidth`` is its size-aware
sibling (E17): an extra ``payload_bytes / bandwidth`` seconds per task,
simulating a bandwidth-starved link whose cost grows with payload size —
exactly what the coordinator's size-stratified link fit must detect.
"""

from __future__ import annotations

import os
import pickle
import socket
import threading
import time
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Any, Callable

from repro import transport as _transport
from repro.backend.distributed.protocol import PREAMBLE
from repro.monitor.resource_monitor import read_load1
from repro.runtime.threads import dump_error
from repro.transport import Codec, Frame, from_wire, to_wire, untrack
from repro.transport.lane import Outbox, ProtocolError, read_frame, socket_outbox
from repro.util.batching import Batch, map_batch
from repro.util.handoff import Handoff

__all__ = ["WorkerAgent", "main"]

_STOP = object()


@dataclass
class _Task:
    epoch: int
    seq: int
    payload: Frame
    t_sent: float
    arrived: float  # worker clock, stamped after any injected link delay


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
        while True:
            msg = self.queue.get()
            if msg is _STOP:
                return
            task: _Task = msg
            started = time.perf_counter()
            wait_s = started - task.arrived
            try:
                # Decode without releasing: the coordinator owns the task
                # frame (it may re-dispatch after this worker's death).
                value = self._agent.codec.decode(task.payload)
                # A micro-batch maps element-wise and travels back as one
                # frame; the coordinator re-dispatches the whole batch
                # frame on worker death, so per-item exactly-once holds by
                # construction.
                result = (
                    map_batch(self.fn, value)
                    if isinstance(value, Batch)
                    else self.fn(value)
                )
                service_s = time.perf_counter() - started
                out = self._agent.codec.encode(result)
            except BaseException as err:  # noqa: BLE001 - shipped to coordinator
                self._agent._send_result(
                    task, self.stage, self.slot, False, dump_error(err), 0.0, wait_s, repr(err)
                )
                continue  # stay warm; the coordinator aborts the run
            self._agent._send_result(
                task, self.stage, self.slot, True, out, service_s, wait_s, None
            )


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
        self.inbox = 1  # per-replica task-queue bound, named by the welcome
        self.worker_id: int | None = None
        self.codec: Codec = _transport.get("pickle")  # until negotiation
        self.shm_ok = False
        self._outbox: Outbox | None = None  # every send: replicas, heartbeat, serve loop
        self._replicas: dict[tuple[int, int], _ReplicaRunner] = {}
        self._stop = threading.Event()

    def _negotiate_transport(self, spec: dict) -> None:
        """Adopt the coordinator's codec iff its shm probe checks out here."""
        probe = spec.get("probe")
        token = spec.get("token")
        ok = False
        if probe is not None:
            try:
                seg = shared_memory.SharedMemory(name=probe)
                untrack(seg)  # the coordinator owns the probe's lifecycle
                try:
                    ok = bytes(seg.buf[: len(token)]) == token
                finally:
                    seg.close()
            except (OSError, ValueError):
                ok = False
        self.shm_ok = ok
        codec_spec = {k: v for k, v in spec.items() if k in ("name", "session", "threshold")}
        if ok:
            self.codec = _transport.from_spec(codec_spec)
        else:
            # Results must stay self-contained across host boundaries.
            self.codec = _transport.get("pickle", session=spec.get("session"))
        self._outbox.send(("shm_ok", ok))

    # -------------------------------------------------------------- plumbing
    def _send_result(
        self,
        task: _Task,
        stage: int,
        slot: int,
        ok: bool,
        payload: "Frame | bytes | None",  # the result, or a failure's pickled error
        service_s: float,
        wait_s: float,
        err_repr: str | None,
    ) -> None:
        """Ship one result, stamped with the worker-clock receive/send pair
        (the coordinator's clock fit, phase decomposition and ``wk.*``
        points all come from these stamps)."""
        self._outbox.send(
            (
                "result",
                task.epoch,
                stage,
                slot,
                task.seq,
                ok,
                to_wire(payload) if ok else payload,
                service_s,
                wait_s,
                task.t_sent,
                err_repr,
                task.arrived,
                time.perf_counter(),
            )
        )

    def _heartbeat_loop(self, interval: float) -> None:
        while not self._stop.wait(interval):
            self._outbox.send(("heartbeat", read_load1()))

    # ------------------------------------------------------------------- run
    def run(self) -> None:
        """Connect, register, and serve until shutdown or coordinator EOF."""
        sock = socket.create_connection((self.host, self.port), timeout=10.0)
        sock.settimeout(None)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.sendall(PREAMBLE)  # raw, ahead of every frame
        # One recv yields every whole frame the kernel holds; one writer
        # thread sends what the replicas and the heartbeat queue, and a
        # failed write stops the agent (the writer's shutdown ends the
        # serve loop).
        reader = sock.makefile("rb", buffering=1 << 16)
        self._outbox = socket_outbox(sock, "worker-send", self._stop.set)
        try:
            self._outbox.send(("hello", self.name, self.cores, read_load1()))
            welcome = read_frame(reader.read)
            if not welcome or welcome[0] != "welcome":
                raise ProtocolError(f"expected welcome, got {welcome!r}")
            # The inbox bound covers the largest per-replica allowance the
            # coordinator can grant, so a put never blocks the receive loop.
            _, self.worker_id, heartbeat_interval, self.inbox, transport_spec = welcome
            self._negotiate_transport(transport_spec)
            beat = threading.Thread(
                target=self._heartbeat_loop,
                args=(heartbeat_interval,),
                name="worker-heartbeat",
                daemon=True,
            )
            beat.start()
            self._serve_loop(reader.read)
        finally:
            self._stop.set()
            for runner in self._replicas.values():
                runner.queue.put(_STOP)
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
                _, epoch, stage, slot, seq, payload, t_sent = frame
                payload = from_wire(payload, self.codec.name)
                delay = self.link_delay
                if self.link_bandwidth:
                    delay += payload.nbytes / self.link_bandwidth
                if delay:
                    time.sleep(delay)
                arrived = time.perf_counter()
                runner = self._replicas.get((stage, slot))
                if runner is not None:
                    runner.queue.put(_Task(epoch, seq, payload, t_sent, arrived))
                else:
                    # A task can legitimately race a retire (the coordinator
                    # assigned the slot just before retiring it): bounce it
                    # back so the item is re-dispatched, never dropped.
                    self._outbox.send(("reject", epoch, stage, slot, seq))
            elif kind == "place":
                _, stage, slot, fn_payload, stage_name = frame
                try:
                    fn = pickle.loads(fn_payload)
                except Exception as err:
                    self._outbox.send(("place_failed", stage, slot, repr(err)))
                    continue
                self._replicas[(stage, slot)] = _ReplicaRunner(
                    self, stage, slot, fn, stage_name, self.inbox
                )
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
