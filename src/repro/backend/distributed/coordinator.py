"""Coordinator side of the distributed backend: the full Backend port.

Topology (routes — a segment's items pass worker to worker)::

                      TCP            peer TCP                  TCP
    submit ──> replica[0] ──> replica[1] ──> ... ──> replica[b] ──> router[b] ──> ...
    (caller)   (a worker)     (a worker)             (boundary)     (session)

* :class:`WorkerAgent` processes register (cores, load, where peers reach
  them) once linked to every earlier worker; they are auto-spawned locally
  (``spawn_workers=``) or started with ``python -m
  repro.backend.distributed.worker``.
* **Sessions over streams**: worker links, negotiated transports and
  replica placement belong to the *backend* and stay warm; the routers
  belong to a *session* (``backend.open()``) — the routed-stage core
  shared with the process backend (:mod:`repro.backend.routed`), which
  dispatches on the caller's thread; this module supplies the lane.  Each
  session gets its own **epoch**: tasks and results carry it beside the
  item's session-wide ``gseq`` (a batch's ``bseq``), so a late result of
  an earlier session is dropped on arrival.
* **Routes, not routers**: as on the process lane, only a *boundary* (the
  last stage, or one feeding an ordered stage: :func:`~repro.backend.
  routed.boundaries`) reports here.  Placement stays central: dispatch into
  a segment reserves one replica per stage where the item is predicted to
  finish first (``_reserve_slot``: measured drain interval and link
  latency, up to the session's lane depth — the window, as on every
  executor) and sends the first a ``task`` naming the rest; the boundary's
  ``result`` carries the trail of every hop, its own last, which
  ``_accept`` replays.
* **Exactly once** rests on one record per fact: every replica on a route
  holds it (``seq → route``: the segment's input frame and its replicas)
  until the boundary's result is accepted, which takes it off all of them;
  a result whose route its replica no longer holds is stale.  A retired
  replica's ``retire`` follows the last route through it, and every way
  out of a replica set goes through ``_leave``, which hands each route
  through the replica back once — the segment is re-dispatched from its
  first stage — or releases it.
* Items travel through the **negotiated transport** (``transport=``):
  :meth:`DistributedBackend._dispatch` — the one send loop for first
  dispatch, forwarding and re-dispatch — **encodes after worker
  selection** (descriptors for a worker that verified the shm probe,
  inline pickle for a remote one).  A route's input frame is released when
  the route completes, an intermediate frame by the worker that reads it,
  and ``close()`` sweeps (unlinks) the session's segments.
* **Link cost is measured, not assumed**: each hop's stamps, mapped through
  its worker's clock fit (fed by ``pong``), give its wire time, charged with
  the bytes that crossed to the receiving worker's
  :class:`~repro.transport.SizeStratifiedLinkEstimator` (the boundary's
  with the trip back), whose fitted ``latency + bytes/bandwidth`` prices
  placement and :meth:`~DistributedBackend.resource_view`.
* **Failure handling**: connection EOF, a peer's report that a forward
  failed, or a missed ``pong`` marks a worker dead; its replicas leave
  every stage's set (an empty stage is re-placed on a survivor) and every
  route through it is re-dispatched.  ``reconfigure(stage, n)`` places or
  retires replicas live; growth targets the best speed/link score.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import queue as thread_queue
import socket
import threading
import time
from collections import Counter
from itertools import count
from multiprocessing import shared_memory
from typing import Any

from repro import transport as _transport
from repro.backend.base import _WINDOW_CEILING, Backend, register_backend
from repro.backend.distributed.protocol import PREAMBLE
from repro.backend.distributed.worker import WorkerAgent
from repro.backend.routed import RoutedSession, boundaries
from repro.runtime.threads import StageError, load_error
from repro.core.pipeline import PipelineSpec
from repro.model.throughput import ResourceView, fn_view
from repro.monitor.resource_monitor import load_to_speed
from repro.obs.clock import ClockSync
from repro.transport import (
    Codec,
    LinkModel,
    SizeStratifiedLinkEstimator,
    Wire,
    materialize,
    untrack,
    wire_nbytes,
)
from repro.transport.lane import Outbox, ProtocolError, read_frame, socket_outbox
from repro.util.validation import check_positive

__all__ = ["DistributedBackend"]

#: Modelled cost of the in-process hop between two replicas on one worker.
_LOCAL_LINK = (1e-7, 1e9)
#: Prior socket bandwidth (bytes/s) for a link before its size-stratified
#: samples pin down a fitted value.
_WIRE_BANDWIDTH = 1e8
#: Default one-way link estimate before any measurement exists.
_DEFAULT_LINK_S = 1e-4
#: How long warm-up waits for the spawned workers to register.
_REGISTER_TIMEOUT = 20.0


def _spawn_agent(
    host: str, port: int, name: str, link_delay: float,
    link_bandwidth: float,
) -> None:
    """Entry point of auto-spawned local worker processes: they share the
    local host, so each advertises one core."""
    WorkerAgent(
        host, port, cores=1, name=name, link_delay=link_delay,
        link_bandwidth=link_bandwidth,
    ).run()


class _WorkerConn:
    """Coordinator-side view of one registered worker."""

    def __init__(
        self, wid: int, outbox: Outbox, name: str, cores: int, sock=None, address=None
    ) -> None:
        self.id = wid
        self.address = address  # where its peers reach it
        self.outbox = outbox  # every send to this worker: framed here, written by its thread
        self.sock = sock  # its writer's to close; a death shuts it down first
        self.name = name
        self.cores = max(1, cores)
        self.alive = True
        self.shm_ok = False  # verified the session's shared-memory probe
        self.shm_replied = False  # answered it (after linking to its peers): registered
        self.last_seen = time.monotonic()
        self.load = 0.0
        self.speed = 1.0  # EWMA of load_to_speed(load, cores)
        self.link_est = SizeStratifiedLinkEstimator(
            default_bandwidth=_WIRE_BANDWIDTH, round_trips=2
        )
        self.link_s = _DEFAULT_LINK_S  # one-way wire time EWMA: dispatch's cached link term
        # Per-worker clock fit (offset + drift, rtt/2-bounded), fed by pongs:
        # maps the worker's hop stamps onto the coordinator clock so the
        # span.phases derived from them merge into the session timeline.
        self.clock = ClockSync()
        self.clock_emit_t = 0.0  # rate limiter for clock.sync events
        self.proc: mp.process.BaseProcess | None = None  # auto-spawned only
        self.new_slot = count(1).__next__  # replica slot ids (next() holds the GIL)

    def observe_load(self, load: float) -> None:
        self.last_seen = time.monotonic()
        self.load = load
        self.speed += 0.5 * (load_to_speed(load, self.cores) - self.speed)

    def observe_transfer(self, nbytes: float, overhead_s: float) -> None:
        """One round trip: ``nbytes`` crossed (both ways) in ``overhead_s``; a
        one-way leg counts as half of one with twice its bytes and seconds."""
        self.link_est.observe(nbytes, overhead_s)
        self.link_s += 0.1 * (overhead_s / 2.0 - self.link_s)

    def link_fit(self) -> LinkModel:
        """Fitted one-way (latency, bandwidth) for this worker's link."""
        model = self.link_est.fit()
        if model.n_samples == 0:
            return LinkModel(_DEFAULT_LINK_S, _WIRE_BANDWIDTH, 0, fitted=False)
        return model


class _Replica:
    """One placed stage replica: (worker, slot) plus the routes through it."""

    def __init__(self, worker: _WorkerConn, slot: int, stage: int = 0) -> None:
        self.worker = worker
        self.slot = slot
        self.stage = stage
        #: seq -> the item's route, held until the route completes: a
        #: reservation enters the seq (None) and the recorded route replaces it.
        self.tasks: dict[int, _Route | None] = {}
        self.active = True  # False once retired: it finishes what it was dealt
        self.placed = False  # its worker answered placed: no peer's task overtakes the place
        self.drain: float | None = None  # EWMA of the gap between completions while busy
        self.done_t = 0.0  # perf_counter of the last accepted completion

    def completed(self, sent: float, end: float) -> None:
        """One item done at ``end``: the drain term _reserve_slot prices the
        replica by, a gap counted from the item's ``sent`` if it sat idle."""
        gap = end - max(self.done_t, sent)
        self.drain = gap if self.drain is None else 0.9 * self.drain + 0.1 * gap
        self.done_t = end


class _Route:
    """One item's trip through a segment: what each replica on it holds."""

    __slots__ = ("frame", "replicas", "t_sent")

    def __init__(self, frame: Wire, replicas: list) -> None:
        self.frame = frame  # the segment's input, released when the route completes
        self.replicas = replicas  # one per stage of the segment, in stage order
        self.t_sent = None  # its first hop's send: a result echoing another is stale


class _DistributedSession(RoutedSession):
    """The TCP lane of the routed-stage core over the warm worker pool."""

    def _attach(self) -> None:
        backend: DistributedBackend = self.backend  # type: ignore[assignment]
        backend.warm()
        backend._ensure_placements()
        self._resq = {b: thread_queue.SimpleQueue() for b in backend._bounds}
        self._depth = self._lane_depth()  # each replica's in-flight allowance
        # gseq restarts with each session: the epoch keeps their results apart.
        backend._epoch += 1

    def _wake_lane(self) -> None:
        for q in self._resq.values():
            q.put(None)  # read as "nothing yet": the router wakes and looks at the flags
        with self.backend._lane_lock:
            self.backend._cond.notify_all()

    def _shutdown(self) -> None:
        super()._shutdown()
        self.backend._reclaim()

    # ------------------------------------------------------------ lane hooks
    def _ingress(self, seq: int, value: Any) -> bool:
        return self.backend._dispatch(self, 0, seq, None, value)

    def _forward(self, stage: int, seq: int, wire: Wire) -> bool:
        return self.backend._dispatch(self, stage, seq, wire)

    def _poll(self, stage: int) -> "list | None":
        """What the boundary's queue holds, waiting for the first; a wake ends it."""
        q, burst = self._resq[stage], []
        msg = q.get()
        while msg is not None:
            burst.append(msg)
            msg = None if q.empty() else q.get()
        return burst or None

    def _accept(self, stage: int, burst: list) -> list:
        """Results ``(worker, recv_t, frame)``, each as its worker sent it — a
        route's last hop, or a failure anywhere on it: taken off their routes
        under one lane lock, then replayed."""
        backend: DistributedBackend = self.backend  # type: ignore[assignment]
        done, failed, slots = [], None, {}
        with backend._lane_lock:
            # Every route in flight holds one replica per stage of the
            # segment: the boundary's count is each stage's.
            queued = sum([len(r.tasks) for r in backend._replicas[stage]])
            for w, recv_t, frame in burst:
                _, _, at, slot, seq, ok, payload, t_sent, err_repr, trail = frame
                if at not in slots:  # (worker, slot) names one replica
                    slots[at] = {(r.worker, r.slot): r for r in backend._replicas[at]}
                replica = slots[at].get((w, slot))
                route = None if replica is None else replica.tasks.get(seq)
                if route is not None and route.t_sent == t_sent:
                    if not ok:  # a failure's payload is its pickled error
                        err = load_error(payload, err_repr)
                        failed = StageError(backend.pipeline.stage(at).name, err)
                        break
                    backend._settle(seq, route)
                    queued -= 1
                    done.append((recv_t, seq, route, payload, t_sent, trail, queued))
                elif ok:  # stale: its payload is released below
                    done.append((recv_t, seq, None, payload, t_sent, trail, queued))
            backend._cond.notify_all()
        bus, got, clock = self.events, [], self.perf_to_session
        trace, sync = bus.wants("span.phases"), bus.wants("clock.sync")
        for recv_t, seq, route, payload, t_out, trail, queued in done:
            if route is None:
                # Stale: this route was handed back after a death on it and the
                # segment re-dispatched; exactly one route may deliver the item.
                backend._codec.release(payload)
                continue
            # The input frame was consumed on the route's first hop; nothing
            # can re-dispatch it now, so its segments can go.
            frame_in = route.frame
            backend._codec.release(frame_in)
            nbytes_in, hops, boundary = wire_nbytes(frame_in), [], trail[-1]
            for r, hop in zip(route.replicas, trail):
                i, _, _, t_in, wait, service, t_done, nbytes = hop
                conn = r.worker
                off = conn.clock.fit().offset_at(t_in)  # the drift across a hop is below its error
                if hop is boundary:
                    # Wire time both ways (rtt minus service and queue wait), fed
                    # with the bytes that crossed in and back to the size-stratified fit.
                    end, overhead = recv_t, max(0.0, (recv_t - t_out) - wait - service)
                    conn.observe_transfer(nbytes_in + nbytes, overhead)
                else:  # a peer hop: its wire time is the receiving worker's, one way
                    end = t_done - off
                    conn.observe_transfer(2 * nbytes_in, 2 * max(0.0, t_in - off - t_out))
                # work_estimate = service x effective speed, so a loaded worker's
                # slow service still yields the true per-item work.
                at_s = clock(t_in + wait + service - off)
                hops.append((i, conn.id, service, nbytes, queued, at_s, conn.speed))
                r.completed(t_out, end)
                if sync and end - conn.clock_emit_t >= 1.0:
                    self._clock_event(conn, end)
                if trace:
                    self._trace_hop(seq, conn, conn.clock.fit().to_local, t_out, hop, end)
                t_out, nbytes_in = end, nbytes
            backend._ref_bytes += 0.1 * (wire_nbytes(frame_in) - backend._ref_bytes)
            got.append((seq, payload, hops))
        return got if failed is None else [*got, failed]

    # ---------------------------------------------------------------- tracing
    def _clock_event(self, w: _WorkerConn, now: float) -> None:
        """A ``clock.sync`` for ``w`` once its fit has a sample (the caller keeps
        it to one a second)."""
        fit = w.clock.fit()
        if fit.n:
            w.clock_emit_t = now
            self.events.emit(
                "clock.sync",
                at=self.perf_to_session(now),
                worker=w.id,
                offset=w.clock.offset(),
                drift=fit.b,
                err=fit.err,
                n=fit.n,
            )

    def _trace_hop(
        self,
        seq: int,
        w: _WorkerConn,
        to_local,
        t_out: float,
        hop: tuple,
        end: float,
    ) -> None:
        """Trace one ``hop`` (shaped as a trail entry) from its stamps, mapped
        through the worker's clock fit (``to_local``): one ``span.phases``
        tiling the hop from ``t_out`` (the previous hop's hand-off, or the
        coordinator's send) to ``end`` (its own hand-off, or the boundary
        result's receipt) — a peer hop's wire time is the receiving hop's
        ``wire_out``, and only the boundary has a ``wire_back`` — with the
        ``nbytes`` of the hop's output frame.  Each term is clamped
        non-negative: clock-fit error can push a boundary past its neighbour
        by up to rtt/2.  Durations cover the whole batch when batching (seq =
        first item, items = N), so the profiler fans the hop out per item
        without double-counting.
        """
        stage, _, _, t_recv_w, wait_s, service_s, t_send_w, nbytes = hop
        self._emit_items(
            "span.phases",
            seq,
            at=self.perf_to_session(end),
            stage=stage,
            worker=w.id,
            wire_out=max(0.0, to_local(t_recv_w) - t_out),
            worker_queue=wait_s,
            service=service_s,
            encode=max(0.0, (t_send_w - t_recv_w) - wait_s - service_s),
            wire_back=max(0.0, end - to_local(t_send_w)),
            nbytes=nbytes,
        )


class DistributedBackend(Backend):
    """Executes pipelines on socket-connected workers (multi-host capable).

    Parameters
    ----------
    pipeline:
        Stage specs; every stage must define a picklable ``fn`` (stage
        callables travel to workers over the wire).
    replicas:
        Initially placed replicas per stage (default 1 each).
    max_replicas:
        Ceiling on a replicable stage's replica count across all workers.
    capacity:
        In-flight items per replica, whatever the window.  Without it the
        session's lane depth is the allowance (8 with no window, and for an
        unmeasured replica of several).
    spawn_workers:
        Number of local worker processes to auto-spawn at warm-up; 0 means
        workers are started externally (``python -m
        repro.backend.distributed.worker --connect host:port``) and the
        caller should :meth:`wait_for_workers`.  Each advertises one core
        (they share the local host), and warm-up waits 20 s for them.
    worker_link_delays:
        Per-spawned-worker artificial receive delay in seconds (experiment
        knob: heterogeneous link costs on one host); padded with 0.0.
    worker_link_bandwidths:
        Per-spawned-worker artificial bandwidth limit in bytes/s (0 = no
        limit; experiment knob: a bandwidth-starved link whose cost grows
        with payload size); padded with 0.0.
    transport:
        Payload codec (``"auto"``/``"pickle"``/``"shm"`` or a configured
        :class:`~repro.transport.Codec`).  ``"auto"`` (default) ships
        large payloads as shared-memory descriptors to workers that share
        this host, negotiated per worker at registration, from
        :data:`~repro.transport.AUTO_THRESHOLD` bytes up.
    host, port:
        Bind address of the coordinator socket (port 0 = ephemeral).
    heartbeat_interval:
        How often the coordinator pings each worker; one silent for six
        intervals (``heartbeat_timeout``) is declared dead.
    """

    name = "distributed"
    supports_live_reconfigure = True
    session_class = _DistributedSession

    def __init__(
        self,
        pipeline: PipelineSpec,
        *,
        replicas: list[int] | None = None,
        max_replicas: int = 4,
        capacity: int | None = None,
        spawn_workers: int = 3,
        worker_link_delays: list[float] | None = None,
        worker_link_bandwidths: list[float] | None = None,
        transport: str | Codec = "auto",
        host: str = "127.0.0.1",
        port: int = 0,
        heartbeat_interval: float = 0.5,
    ) -> None:
        super().__init__(
            pipeline, replicas=replicas, capacity=capacity, max_replicas=max_replicas
        )
        check_positive(heartbeat_interval, "heartbeat_interval")
        if spawn_workers < 0:
            raise ValueError(f"spawn_workers must be >= 0, got {spawn_workers}")
        n = pipeline.n_stages
        self._fn_payloads: list[bytes] = []
        for i, spec in enumerate(pipeline.stages):
            try:
                self._fn_payloads.append(
                    pickle.dumps(spec.fn, protocol=pickle.HIGHEST_PROTOCOL)
                )
            except Exception as err:
                raise ValueError(
                    f"stage {i} ({spec.name!r}) fn is not picklable and cannot "
                    f"be shipped to workers (use a module-level function): {err!r}"
                ) from err
        self.spawn_workers = spawn_workers
        self.worker_link_delays = list(worker_link_delays or [])
        self.worker_link_bandwidths = list(worker_link_bandwidths or [])
        self._codec = _transport.get(transport)
        # Items entering the pipeline are encoded *after* worker selection:
        # descriptor frames for shm-verified workers, self-contained pickle
        # for the rest (same session token, one sweep covers both).
        self._pickle_codec = (
            self._codec
            if self._codec.name == "pickle"
            else _transport.get("pickle", session=self._codec.session)
        )
        self._probe_name: str | None = None
        self._probe_token = b""
        # Mean payload size seen recently (EWMA): the reference point at
        # which placement scores price a worker's link.
        self._ref_bytes = 0.0
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = 6.0 * heartbeat_interval
        self._bind_host = host
        self._bind_port = port

        # Worker registry (guarded by _registry; _registry_changed notifies).
        self._registry = threading.Lock()
        self._registry_changed = threading.Condition(self._registry)
        self._workers: dict[int, _WorkerConn] = {}
        self._next_worker_id = 0
        self._spawned: dict[str, mp.process.BaseProcess] = {}
        # Placement failures are configuration errors (e.g. a stage fn that
        # does not resolve on a worker): they outlive per-stream error state.
        self._config_errors: list[BaseException] = []
        # A newcomer that cannot reach a peer is dropped: wait_for_workers raises each once.
        self._link_errors: list[BaseException] = []

        # Per-stage replica sets and the routes they hold, under one lock: a
        # route is recorded on, and taken off, all its replicas at once.  It is
        # entered directly; the condition over it only waits and wakes.
        self._lane_lock = threading.RLock()
        self._cond = threading.Condition(self._lane_lock)
        self._replicas: list[list[_Replica]] = [[] for _ in range(n)]
        self._bounds = boundaries(pipeline.stages)
        # The boundary ending each stage's segment: where its results go.
        self._end = [min(b for b in self._bounds if b >= i) for i in range(n)]
        self._peer_token = os.urandom(16)  # what a worker's peers open their link with

        # Infrastructure threads and sockets.
        self._close_lock = threading.Lock()
        self._server: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._monitor_thread: threading.Thread | None = None
        self._recv_threads: list[threading.Thread] = []
        self._pending: set[socket.socket] = set()  # accepted, not yet registered (_registry)
        self._warm = False
        self._closing = threading.Event()

        self._epoch = 0  # bumped by each session: an earlier one's results are stale

    # ------------------------------------------------------------------ props
    @property
    def listen_address(self) -> tuple[str, int]:
        """(host, port) the coordinator accepts workers on (after warm)."""
        if self._server is None:
            raise RuntimeError("coordinator socket not open; call warm() first")
        return self._server.getsockname()[:2]

    @property
    def worker_processes(self) -> list[mp.process.BaseProcess]:
        """Process handles of auto-spawned local workers (crash-test hook)."""
        with self._registry:
            return [w.proc for w in self._workers.values() if w.proc is not None]

    def alive_workers(self) -> list[dict[str, Any]]:
        """Snapshot of the live worker pool (id, name, cores, speed, link).

        ``link_s`` is the fitted one-way latency; ``bandwidth_Bps`` and
        ``link_fitted`` expose the rest of the per-worker link model.
        """
        with self._registry:
            rows = []
            for w in self._workers.values():
                if not w.alive:
                    continue
                fit = w.link_fit()
                rows.append(
                    {
                        "id": w.id,
                        "name": w.name,
                        "cores": w.cores,
                        "load": w.load,
                        "speed": w.speed,
                        "shm_ok": w.shm_ok,
                        "link_s": fit.latency_s,
                        "bandwidth_Bps": fit.bandwidth_Bps,
                        "link_fitted": fit.fitted,
                    }
                )
            return rows

    def replica_placement(self) -> list[dict[int, int]]:
        """Per stage: worker id -> active replica count (placement map)."""
        with self._lane_lock:
            return [dict(Counter(r.worker.id for r in replicas if r.active))
                    for replicas in self._replicas]

    # --------------------------------------------------------------- warm-up
    def warm(self) -> None:
        """Open the coordinator socket, spawn/await workers, place replicas."""
        if self._closed:
            raise RuntimeError("backend is closed")
        if self._warm:
            return
        server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        server.bind((self._bind_host, self._bind_port))
        server.listen(64)
        self._server = server
        host, port = server.getsockname()[:2]
        self._create_probe()
        # Fork the local workers *before* starting coordinator threads: a
        # fork in a multi-threaded process risks inheriting held locks.
        # Their connects sit in the listen backlog until the accept loop runs.
        if self.spawn_workers:
            methods = mp.get_all_start_methods()
            ctx = mp.get_context("fork" if "fork" in methods else methods[0])
            delays = self.worker_link_delays + [0.0] * self.spawn_workers
            bandwidths = self.worker_link_bandwidths + [0.0] * self.spawn_workers
            for k in range(self.spawn_workers):
                proc = ctx.Process(
                    target=_spawn_agent,
                    args=(host, port, f"local-{k}", delays[k], bandwidths[k]),
                    name=f"dist-worker-{k}",
                    daemon=True,
                )
                proc.start()
                # Registration pairs the handle with the _WorkerConn by name.
                self._spawned[f"local-{k}"] = proc
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="dist-accept", daemon=True
        )
        self._accept_thread.start()
        self._monitor_thread = threading.Thread(
            target=self._monitor_loop, name="dist-heartbeat-monitor", daemon=True
        )
        self._monitor_thread.start()
        self._warm = True
        # With external workers (spawn_workers=0) none may have connected
        # yet: placement waits until a session opens, after wait_for_workers().
        if self.spawn_workers:
            self.wait_for_workers(self.spawn_workers, timeout=_REGISTER_TIMEOUT)
            self._ensure_placements()
            # Every place answered (a failure or a death ends the wait too), so
            # a first stream deals to every replica.
            with self._lane_lock:
                self._cond.wait_for(lambda: self._config_errors or all(
                    r.placed for replicas in self._replicas for r in replicas))

    def _create_probe(self) -> None:
        """Create the session's shm probe workers verify at registration.

        A worker that can attach this segment and read back the token
        shares the coordinator's shared-memory namespace, so frames may
        carry descriptors instead of payload bytes.  A ``"pickle"``
        transport never probes — every frame is self-contained anyway.
        """
        if self._probe_name is not None or self._codec.name == "pickle":
            return
        self._probe_token = os.urandom(16)
        name = f"{_transport.SHM_PREFIX}{self._codec.session}-probe{os.getpid()}"
        try:
            seg = shared_memory.SharedMemory(
                name=name, create=True, size=len(self._probe_token)
            )
        except OSError:
            return  # no shared memory here: every worker negotiates pickle
        untrack(seg)
        seg.buf[: len(self._probe_token)] = self._probe_token
        seg.close()
        self._codec.track(name)  # close()'s sweep reclaims the probe too
        self._probe_name = name

    def _transport_spec(self) -> dict:
        spec = _transport.spec_of(self._codec)
        spec["probe"] = self._probe_name
        spec["token"] = self._probe_token
        return spec

    def wait_for_workers(self, n: int, timeout: float = 30.0) -> None:
        """Block until ``n`` live workers are registered (or raise).

        Registered means the worker has also linked to its peers and
        answered the transport negotiation: a first dispatch never races its
        ``shm_ok`` reply.  A pair of workers that cannot connect raises.
        """
        def registered() -> int:
            return sum(w.alive and w.shm_replied for w in self._workers.values())

        with self._registry:  # every registry change notifies: accept, shm_ok, death
            self._registry_changed.wait_for(
                lambda: registered() >= n or self._link_errors, timeout
            )
            if registered() < n:
                if self._link_errors:
                    raise self._link_errors.pop(0)
                raise RuntimeError(
                    f"timed out waiting for {n} workers ({registered()} registered)"
                )

    def _accept_loop(self) -> None:
        assert self._server is not None
        while True:
            try:
                sock, _addr = self._server.accept()
            except OSError:
                return  # close() shut the listener down
            with self._registry:
                self._pending.add(sock)
            # The handshake runs on the connection's own thread: a peer that
            # connects and says nothing holds up no one else's registration.
            t = threading.Thread(
                target=self._recv_loop, args=(sock,), name="dist-recv", daemon=True
            )
            self._recv_threads.append(t)
            t.start()

    def _register(self, sock: socket.socket, read) -> "_WorkerConn | None":
        """Check the preamble, read ``hello`` and register; None for a stranger."""
        sock.settimeout(10.0)
        if read(len(PREAMBLE)) != PREAMBLE:
            return None  # closed before anything it sent is unpickled
        hello = read_frame(read)
        if not (isinstance(hello, tuple) and len(hello) == 5 and hello[0] == "hello"):
            return None
        _, wname, cores, load, address = hello
        sock.settimeout(None)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        inbox = self.capacity if self._fixed_capacity else max(self.capacity, _WINDOW_CEILING)
        with self._registry:
            self._pending.discard(sock)
            if self._closing.is_set():
                return None
            wid = self._next_worker_id
            self._next_worker_id += 1
            outbox = socket_outbox(sock, f"dist-send[{wid}]", lambda: self._on_worker_death(worker))
            worker = _WorkerConn(wid, outbox, wname, cores, sock, address)
            # Every earlier worker, registered or still linking: it dials each.
            peers = [(p.id, p.address) for p in self._workers.values() if p.alive]
            # Queued before the worker is visible, so no ``place`` overtakes it.
            outbox.send(
                ("welcome", wid, inbox, self._transport_spec(), self._peer_token, peers)
            )
            worker.proc = self._spawned.get(wname)
            worker.observe_load(load)
            self._workers[wid] = worker
            self._registry_changed.notify_all()
        threading.current_thread().name = f"dist-recv[{wid}]"
        self.events.emit("worker.join", f"worker {wname!r} registered",
                         worker=wid, name=wname, cores=cores)
        return worker

    def _monitor_loop(self) -> None:
        """Ping every live worker each interval; one silent too long is dead."""
        while not self._closing.wait(self.heartbeat_interval):
            now = time.monotonic()
            with self._registry:
                live = [w for w in self._workers.values() if w.alive]
            for w in live:
                if now - w.last_seen > self.heartbeat_timeout:
                    self._on_worker_death(w)
                else:
                    w.outbox.send(("ping", time.perf_counter()))

    # --------------------------------------------------------------- receive
    def _recv_loop(self, sock: socket.socket) -> None:
        reader = sock.makefile("rb", buffering=1 << 16)  # one recv, every whole frame held
        w = None
        try:
            w = self._register(sock, reader.read)
            while w is not None and (frame := read_frame(reader.read)) is not None:
                w.last_seen = time.monotonic()
                kind = frame[0]
                if kind == "result":  # to the router of the segment's boundary
                    if frame[1] == self._epoch:  # else an earlier session's: stale
                        self._session._resq[self._end[frame[2]]].put(
                            (w, time.perf_counter(), frame)
                        )
                elif kind == "pong":
                    _, t0, t1, t2, load = frame
                    t3 = time.perf_counter()
                    w.observe_load(load)
                    w.clock.observe(t0, t1, t2, t3)  # every worker's, boundary or not
                elif kind == "peer_lost":  # a forward to that worker failed
                    self._on_worker_death(self._workers[frame[1]])
                elif kind == "shm_ok":
                    with self._registry:
                        w.shm_ok = bool(frame[1])
                        w.shm_replied = True
                        self._registry_changed.notify_all()
                    w.outbox.send(("ping", time.perf_counter()))  # a first clock sample
                elif kind == "link_failed":
                    _, wid, err_repr = frame
                    peer = self._workers[wid]
                    self._link_errors.append(RuntimeError(
                        f"worker {w.name!r} cannot reach worker {peer.name!r} at "
                        f"{peer.address}: {err_repr}"
                    ))
                    break  # not registered: it goes (its death wakes wait_for_workers)
                elif kind == "placed":
                    _, stage, slot, err_repr = frame
                    with self._lane_lock:  # (w, slot) names one replica
                        replicas = self._replicas[stage]
                        placed = [r for r in replicas if (r.worker, r.slot) == (w, slot)]
                        for r in placed:
                            r.placed = err_repr is None  # routes may pass it from now on
                        self._cond.notify_all()
                    if err_repr is None:
                        continue
                    err = RuntimeError(
                        f"worker {w.name!r} could not host stage {stage} "
                        f"({self.pipeline.stage(stage).name!r}): {err_repr} "
                        "(stage fns must be importable on workers)"
                    )
                    # Before the replica leaves: a dispatcher it wakes finds the error.
                    self._config_errors.append(err)
                    for r in placed:
                        self._leave(r)
                    self._fail(stage, err)
        except (OSError, ProtocolError):
            pass
        finally:
            reader.close()
            if w is not None:
                self._on_worker_death(w)  # its writer closes the socket
            else:
                with self._registry:
                    self._pending.discard(sock)
                sock.close()

    # --------------------------------------------------------------- failure
    def _fail(self, stage: int, err: BaseException) -> None:
        """A failure seen off the router threads poisons the live session."""
        session = self._session
        if session is not None and not session.closed:
            session._fail(stage, err)

    def _leave(self, replica: _Replica, keep=False, lost=False) -> list:
        """Empty ``replica`` and, unless ``keep``, take it out of its set.

        The one exit, for a drained retire, a failed place, a worker death
        and a reclaim: each route through the replica comes off every
        replica on it, once, and its input frame is released — or returned
        as ``(first stage, seq, frame)`` for re-dispatch when ``lost`` (a
        death's).  A retired replica's ``retire`` goes out here, after the
        last route through it.
        """
        with self._lane_lock:
            leaves = not keep and replica in self._replicas[replica.stage]
            if leaves:
                self._replicas[replica.stage].remove(replica)
            routes = sorted((seq, r) for seq, r in replica.tasks.items() if r is not None)
            replica.tasks.clear()  # a reservation's dispatcher deals again
            for seq, route in routes:
                self._settle(seq, route)
            self._cond.notify_all()
            if leaves and not replica.active and replica.worker.alive:
                replica.worker.outbox.send(("retire", replica.stage, replica.slot))
        if lost:
            return [(route.replicas[0].stage, seq, route.frame) for seq, route in routes]
        for _seq, route in routes:
            self._codec.release(route.frame)
        return []

    def _settle(self, seq: int, route: _Route) -> None:
        """Take ``seq`` off every replica of ``route`` (under ``_lane_lock``); a
        retired replica this drains leaves."""
        for r in route.replicas:
            if r.tasks.pop(seq, None) is not None and not r.active and not r.tasks:
                self._leave(r)

    def _reclaim(self) -> None:
        """Release what an aborted stream stranded in flight (a clean close
        finds nothing); a retired replica leaves with its ``retire``."""
        with self._lane_lock:
            for r in [r for replicas in self._replicas for r in replicas]:
                self._leave(r, keep=r.active)

    def _on_worker_death(self, w: _WorkerConn) -> None:
        """Remove a dead worker; re-home its replicas and the routes through it."""
        with self._registry:
            if not w.alive:
                return
            w.alive = False
            self._registry_changed.notify_all()
        w.outbox.close()  # refuses further sends: a sender racing this retries elsewhere
        try:  # wakes the reader, and a write blocked on a peer that stopped reading
            w.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        with self._lane_lock:
            dead = [r for replicas in self._replicas for r in replicas if r.worker is w]
        lost = sorted((t for r in dead for t in self._leave(r, lost=True)), key=lambda t: t[:2])
        self.events.emit(
            "worker.death", f"worker {w.name!r} died", worker=w.id, name=w.name,
            lost_items=len(lost),
        )
        if self._closing.is_set() or not w.shm_replied:
            return  # one that never registered hosted nothing
        # A stage stripped of every replica gets one on a survivor; if no
        # workers remain the run cannot finish — fail rather than hang.
        for i, replicas in enumerate(self._replicas):
            with self._lane_lock:
                has_active = any(r.active for r in replicas)
            if not has_active:
                self.events.emit(
                    "adapt.decide",
                    f"re-home stage {i} after worker {w.name!r} death",
                    reason=f"re-home stage {i}: worker {w.id} died",
                    stage=i,
                    worker=w.id,
                )
                if not self._place_replica(i):
                    self._fail(
                        i,
                        RuntimeError(
                            f"worker {w.name!r} died and no live workers "
                            f"remain to host stage {i}"
                        ),
                    )
                    return
        session = self._session
        if lost and session is not None and not session.closed:
            # Re-dispatch can block on back-pressure: not on the thread
            # (heartbeat monitor, recv loop) that must notice further deaths.
            threading.Thread(
                target=self._redispatch, args=(session, lost),
                name=f"dist-redispatch[{w.id}]", daemon=True,
            ).start()

    def _redispatch(self, session: RoutedSession, lost: list) -> None:
        try:
            for stage, seq, frame in lost:
                session._emit_items("worker.redispatch", seq, stage=stage)
                if not self._dispatch(session, stage, seq, frame):
                    return
        except BaseException as err:  # noqa: BLE001 - reported via the session
            self._fail(0, err)

    # ------------------------------------------------------------- placement
    def _worker_score(self, w: _WorkerConn, hosted: dict[int, int]) -> float:
        """Lower is better: busy-ness over speed, inflated by link cost.

        ``hosted`` maps worker id -> replicas currently hosted (all stages);
        the +1 prices the replica about to be placed.  Link cost is the
        fitted model evaluated at the payload size the pipeline currently
        moves (``_ref_bytes``) — a bandwidth-starved worker is cheap for
        tiny items but expensive for large ones — priced relative to a
        10 ms reference service so a slow link only dominates once it is
        comparable to real per-item work.
        """
        busy = (hosted.get(w.id, 0) + 1) / (w.cores * max(w.speed, 1e-3))
        link_cost = w.link_fit().seconds(self._ref_bytes)
        return busy * (1.0 + link_cost / 0.010)

    def _hosted_counts(self) -> dict[int, int]:
        """Worker id -> active replicas it hosts, all stages together."""
        return sum(map(Counter, self.replica_placement()), Counter())

    def _place_replica(self, stage: int) -> _Replica | None:
        """Place one replica of ``stage`` on the best live worker."""
        while True:
            with self._registry:
                cands = [w for w in self._workers.values() if w.alive and w.shm_replied]
            if not cands:
                return None
            hosted = self._hosted_counts()
            target = min(cands, key=lambda w: self._worker_score(w, hosted))
            replica = _Replica(target, target.new_slot(), stage)
            # In its set before the place goes out: the worker's ``placed``
            # may come back before this thread runs again, and must find it.
            with self._lane_lock:
                self._replicas[stage].append(replica)
                n_active = sum(1 for r in self._replicas[stage] if r.active)
                self._cond.notify_all()
            ok = target.outbox.send(
                (
                    "place",
                    stage,
                    replica.slot,
                    self._fn_payloads[stage],
                    self.pipeline.stage(stage).name,
                )
            )
            if not ok:
                self._leave(replica)  # a death handled before the append missed it
                self._on_worker_death(target)
                continue
            self.events.emit(
                "replica.add", stage=stage, worker=target.id, n=n_active
            )
            return replica

    def _retire_replica(self, stage: int, replica: _Replica) -> None:
        """Stop dispatching to a replica; its ``retire`` follows its last route."""
        with self._lane_lock:
            replica.active = False
            n_active = sum(1 for r in self._replicas[stage] if r.active)
            if not replica.tasks:
                self._leave(replica)
        self.events.emit(
            "replica.remove", stage=stage, worker=replica.worker.id, n=n_active
        )

    def _top_up(self, stage: int, n: int) -> bool:
        """Place replicas of ``stage`` until ``n`` are active; False with no worker
        left.  After a failed place nothing is placed again: dispatch raises it."""
        while True:
            with self._lane_lock:
                if self._config_errors or sum(1 for r in self._replicas[stage] if r.active) >= n:
                    return True
            if self._place_replica(stage) is None:
                return False

    def _ensure_placements(self) -> None:
        """Top each stage's active replica set up to its target count."""
        for i in range(self.pipeline.n_stages):
            if not self._top_up(i, self._target[i]):
                raise RuntimeError(
                    f"no live workers available to place stage {i} "
                    f"({self.pipeline.stage(i).name!r}); start workers "
                    "(python -m repro.backend.distributed.worker "
                    "--connect host:port) and wait_for_workers() first"
                )

    # --------------------------------------------------------------- dispatch
    def _reserve_slot(self, session: RoutedSession, stage: int, seq: int) -> _Replica | None:
        """Reserve ``seq`` where it finishes first (blocks); None on abort.

        One more item on a replica finishes in ``(tasks + 1) × drain +
        link_s`` (an unmeasured drain priced as one default hop).  Each may
        hold the session's lane depth in flight, but an unmeasured replica of
        several stays at ``capacity``: on a cold stream nothing says which
        link is slow.  An idle replica whose estimate is older than a
        heartbeat gets the next item, so a link that recovers is noticed.
        """
        depth = session._depth
        with self._lane_lock:
            while True:
                if session._abort.is_set():
                    return None
                if self._config_errors:  # a stage no worker could host
                    raise self._config_errors[0]
                replicas = self._replicas[stage]
                cold = self.capacity if len(replicas) > 1 else depth
                ready = [
                    r for r in replicas if r.active and r.placed and r.worker.alive
                    and len(r.tasks) < (cold if r.drain is None else depth)
                ]
                if ready:
                    best = ready[0]
                    if len(ready) > 1:
                        stale = time.perf_counter() - self.heartbeat_interval
                        best = min(ready, key=lambda r: -1.0 if not r.tasks and r.done_t < stale
                                   else (len(r.tasks) + 1) * (r.drain or _DEFAULT_LINK_S)
                                   + r.worker.link_s)
                    best.tasks[seq] = None
                    return best
                self._cond.wait()  # every site that frees or adds a slot notifies

    def _dispatch(
        self, session: RoutedSession, stage: int, seq: int, frame: "Wire | None",
        value: Any = None,
    ) -> bool:
        """Send one item along a route through the segment opening at
        ``stage``; survives worker death mid-send.

        One replica per stage of the segment is reserved in stage order, the
        route recorded on all of them, and the first sent a ``task`` naming
        the rest.  ``frame=None`` admits the raw ``value`` at stage 0, encoded
        once the first worker is chosen: descriptors for a shm-verified one,
        inline pickle for a remote one.  Returns False only on abort.
        """
        while True:
            route = []  # an abort leaves its reservations to the session's reclaim
            for i in range(stage, self._end[stage] + 1):
                replica = self._reserve_slot(session, i, seq)
                if replica is None:
                    return False
                route.append(replica)
            w = route[0].worker
            if frame is None:
                frame = session._encode(
                    seq, value, self._codec if w.shm_ok else self._pickle_codec
                )
            elif not w.shm_ok:
                # Before the record, so no other thread can hold the original.
                frame = materialize(frame)
            record = _Route(frame, route)
            with self._lane_lock:
                if not all([seq in r.tasks for r in route]):  # one left meanwhile: deal again
                    for r in route:
                        r.tasks.pop(seq, None)
                    self._cond.notify_all()
                    continue
                for r in route:
                    r.tasks[seq] = record
            # Before the send: once it returns, the item may already be
            # delivered and its batch number forgotten.
            if session.events.wants("item.dispatch"):
                for r in route:
                    session._emit_items("item.dispatch", seq, stage=r.stage, worker=r.worker.id)
            record.t_sent = t_sent = time.perf_counter()
            hops = tuple([(r.stage, r.slot, r.worker.id) for r in route[1:]])
            if not w.outbox.send(
                ("task", self._epoch, stage, route[0].slot, seq, frame, t_sent, hops, ())
            ):
                self._on_worker_death(w)  # whose exit re-dispatches this route too
            return True

    # ------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Shut workers down and release every socket/thread (idempotent)."""
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        self._closing.set()
        if self._session is not None:
            try:
                self._session.close()
            except BaseException:  # noqa: BLE001 - closing, not reporting
                pass
        if self._server is not None:
            try:  # shutdown wakes the accept() the listener thread blocks in
                self._server.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._server.close()
        # The accept loop first: it is what appends (then starts) recv threads.
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=1.0)
        with self._registry:  # a registration after _closing is refused
            workers = list(self._workers.values())
            for sock in self._pending:  # wake a handshake still reading
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
        for w in workers:
            w.outbox.send(("shutdown",))  # refused by a dead worker's outbox
            w.outbox.close()  # its writer flushes, then shuts the socket down
        for t in [*(w.outbox.thread for w in workers), *self._recv_threads]:
            t.join(timeout=1.0)
        if self._monitor_thread is not None:
            self._monitor_thread.join(timeout=self.heartbeat_interval + 1.0)
        for w in workers:
            if w.proc is not None:
                w.proc.join(timeout=1.0)
                if w.proc.is_alive():
                    w.proc.terminate()
                    w.proc.join(timeout=1.0)
                if not w.proc.is_alive():
                    # Hand the handle's sentinel pipes back now: left to the
                    # garbage collector they outlive close() by the lifetime
                    # of the backend <-> session cycle.
                    w.proc.close()
        # Every producer and consumer of the session is stopped (external
        # workers lost their socket above): unlink the probe and every
        # party's pool slots, frames stranded by aborts or kills included.
        self._probe_name = None
        self._codec.sweep()

    # ----------------------------------------------------------- observation
    def resource_view(self, n_procs: int) -> ResourceView | None:
        """The measured worker pool as a virtual grid of ``n_procs`` slots.

        Slots are dealt round-robin over live workers, so when a worker dies
        the same pid universe re-maps onto the survivors — the planner sees
        fewer distinct hosts (and their measured speed and link costs)
        without the mapping's pid space shifting underneath it.

        Links carry each worker's **fitted** (latency, bandwidth): the
        pair's one-way latencies add (both hops cross the coordinator) and
        the smaller fitted bandwidth bounds the path, so the throughput
        model prices a large payload's transfer per link instead of
        assuming one constant wire speed.
        """
        with self._registry:
            alive = sorted(
                (w for w in self._workers.values() if w.alive), key=lambda w: w.id
            )
        if not alive:
            return None
        owner = {pid: alive[pid % len(alive)] for pid in range(n_procs)}
        fits = {w.id: w.link_fit() for w in alive}

        def eff(pid: int) -> float:
            return max(owner[pid].speed, 1e-3)

        def link(a: int, b: int) -> tuple[float, float]:
            wa, wb = owner[a], owner[b]
            if wa is wb:
                return _LOCAL_LINK
            fa, fb = fits[wa.id], fits[wb.id]
            return (
                fa.latency_s + fb.latency_s,
                min(fa.bandwidth_Bps, fb.bandwidth_Bps),
            )

        return fn_view(eff=eff, link=link, pids=list(range(n_procs)))

    # ----------------------------------------------------------------- shape
    def replica_counts(self) -> list[int]:
        if not self._warm:
            return list(self._target)
        return [sum(placed.values()) for placed in self.replica_placement()]

    def _resize(self, stage: int, n_replicas: int) -> None:
        """Place/retire replicas of ``stage`` across workers to ``n_replicas``.

        Growth places on the worker with the best speed/link score; shrink
        retires the worst-scored replica, which finishes its in-flight
        items — nothing drains, the run never pauses.  A cold backend
        places its target shape at warm-up.
        """
        if not self._warm:
            return
        self._top_up(stage, n_replicas)
        with self._lane_lock:
            active = [r for r in self._replicas[stage] if r.active]
        hosted = self._hosted_counts()
        by_score = sorted(active, key=lambda r: self._worker_score(r.worker, hosted))
        for r in by_score[n_replicas:]:
            self._retire_replica(stage, r)

register_backend("distributed", DistributedBackend)
