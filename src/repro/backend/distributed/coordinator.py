"""Coordinator side of the distributed backend: the full Backend port.

Topology (a star — every transfer crosses the coordinator)::

                         TCP                            TCP
    submit ──> replica set[0] ──> router[0] ──> replica set[1] ──> ...
    (caller)   (on workers)       (session)     (on workers)

* The coordinator listens on a TCP socket; :class:`WorkerAgent` processes
  connect and register, advertising cores and load average.  Workers can be
  auto-spawned locally (``spawn_workers=``, the tests/CI path) or started
  on remote hosts with ``python -m repro.backend.distributed.worker``.
* **Sessions over streams**: worker links, negotiated transports and
  replica placement belong to the *backend* and stay warm for as long as
  it lives; the router threads belong to a *session* (``backend.open()``)
  — they are the routed-stage core shared with the process backend
  (:mod:`repro.backend.routed`), ``submit()`` dispatches to stage 0 on the
  caller's thread, and this module supplies the lane behind both.  Each
  stream gets its own **epoch**: tasks and results carry the stream's
  epoch and the item's session-wide ``gseq`` (a batch's ``bseq``), and a
  result is only accepted while its (epoch, seq) assignment is still live —
  so crash re-dispatch stays exactly-once within a stream and a stale
  duplicate from any earlier stream is dropped on arrival.
* Each stage owns a **replica set** spread across workers.  Dispatch sends
  each item to the replica predicted to finish it first (measured drain
  interval and link latency), which may hold the session's lane depth in
  flight — the window, as on every executor (``_reserve_slot``).
* One **router thread per stage** (the core's) collects that stage's
  results; this module's ``_accept`` matches each against the in-flight
  table, feeds the link and clock fits, and hands the core one normalised
  hop, which it records and forwards as an encoded
  :class:`~repro.transport.Frame`, untouched (re-sequenced first only in
  front of an ordered stage and before delivery).  Items travel through the
  **negotiated transport** (``transport=``): :meth:`DistributedBackend.
  _dispatch` — the one send loop for first dispatch, forwarding and
  re-dispatch — **encodes after worker selection**, so an item routed to
  a worker that verified the session's shm probe gets descriptor frames
  while one routed to a non-shm (remote) worker is pickled inline from
  the start — mixed pools no longer pay segment-write + materialize-copy
  + release for items that never needed a segment.  ``"auto"``'s placement
  threshold is calibrated at warm-up from a quick encode/decode probe.
  The coordinator owns every frame's lifecycle — a task frame is released
  only when its result is accepted (so a worker death can always
  re-dispatch), and ``close()`` sweeps (unlinks) the session's segments.
* **Link cost is measured, not assumed**: a result echoes the dispatch
  timestamp plus the worker-side service and queue-wait durations, so
  ``rtt - service - wait`` is pure wire time.  Each observation is paired
  with the bytes that crossed (task frame out + result frame back) and fed
  to a per-worker :class:`~repro.transport.SizeStratifiedLinkEstimator`,
  whose fitted ``latency + bytes/bandwidth`` model prices placement and
  the planner's :meth:`~DistributedBackend.resource_view` per link.
* **Failure handling**: connection EOF or a missed-heartbeat timeout marks
  a worker dead; its replicas leave every stage's set (a stage left empty
  is re-placed on a survivor), its in-flight items are re-dispatched, and
  the shrunken local view is what the adaptation loop sees next.
* ``reconfigure(stage, n)`` places or retires replicas across workers live.
  Retired replicas finish what they were dealt (nothing is drained); growth
  targets the worker with the best speed/link score.
"""

from __future__ import annotations

import multiprocessing as mp
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
from repro.backend.routed import Hop, RoutedSession
from repro.runtime.threads import load_error
from repro.core.pipeline import PipelineSpec
from repro.model.throughput import ResourceView, fn_view
from repro.monitor.resource_monitor import load_to_speed
from repro.obs.clock import ClockSync
from repro.transport import (
    Codec,
    Frame,
    LinkModel,
    SizeStratifiedLinkEstimator,
    from_wire,
    materialize,
    to_wire,
    untrack,
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
#: What ``_trace_hop`` derives from a result's stamps beyond the clock fit.
_HOP_KINDS = ("span.phases", "wk.dequeue", "wk.service", "wk.encode", "wk.send")


def _spawn_agent(
    host: str, port: int, cores: int, name: str, link_delay: float,
    link_bandwidth: float,
) -> None:
    """Entry point of auto-spawned local worker processes."""
    WorkerAgent(
        host, port, cores=cores, name=name, link_delay=link_delay,
        link_bandwidth=link_bandwidth,
    ).run()


class _WorkerConn:
    """Coordinator-side view of one registered worker."""

    def __init__(self, wid: int, outbox: Outbox, name: str, cores: int, sock=None) -> None:
        self.id = wid
        self.outbox = outbox  # every send to this worker: framed here, written by its thread
        self.sock = sock  # its writer's to close; a death shuts it down first
        self.name = name
        self.cores = max(1, cores)
        self.alive = True
        self.shm_ok = False  # verified the session's shared-memory probe
        self.shm_replied = False  # answered it either way: counts as registered
        self.last_seen = time.monotonic()
        self.load = 0.0
        self.speed = 1.0  # EWMA of load_to_speed(load, cores)
        self.link_est = SizeStratifiedLinkEstimator(
            default_bandwidth=_WIRE_BANDWIDTH, round_trips=2
        )
        self.link_s = _DEFAULT_LINK_S  # one-way wire time EWMA: dispatch's cached link term
        # Per-worker clock fit (offset + drift, rtt/2-bounded): maps the
        # worker's result stamps onto the coordinator clock so the wk.*
        # points derived from them merge into the session timeline.
        self.clock = ClockSync()
        self.clock_emit_t = 0.0  # rate limiter for clock.sync events
        self.proc: mp.process.BaseProcess | None = None  # auto-spawned only
        self.new_slot = count(1).__next__  # replica slot ids (next() holds the GIL)

    def observe_load(self, load: float) -> None:
        self.last_seen = time.monotonic()
        self.load = load
        self.speed += 0.5 * (load_to_speed(load, self.cores) - self.speed)

    def observe_transfer(self, nbytes: float, overhead_s: float) -> None:
        """One round trip: ``nbytes`` crossed (both ways) in ``overhead_s``."""
        self.link_est.observe(nbytes, overhead_s)
        self.link_s += 0.1 * (overhead_s / 2.0 - self.link_s)

    def link_fit(self) -> LinkModel:
        """Fitted one-way (latency, bandwidth) for this worker's link."""
        model = self.link_est.fit()
        if model.n_samples == 0:
            return LinkModel(_DEFAULT_LINK_S, _WIRE_BANDWIDTH, 0, fitted=False)
        return model


class _Replica:
    """One placed stage replica: (worker, slot) plus dispatch accounting."""

    def __init__(self, worker: _WorkerConn, slot: int) -> None:
        self.worker = worker
        self.slot = slot
        self.inflight = 0
        self.active = True  # False once retired: it finishes what it was dealt
        self.drain: float | None = None  # EWMA of the gap between completions while busy
        self.done_t = 0.0  # perf_counter of the last accepted completion


class _DistributedSession(RoutedSession):
    """The TCP lane of the routed-stage core over the warm worker pool."""

    def _attach(self) -> None:
        backend: DistributedBackend = self.backend  # type: ignore[assignment]
        backend.warm()
        backend._ensure_placements()
        if backend._config_errors:
            raise backend._config_errors[0]
        # Adopt this session as the backend's live plumbing: the recv loops
        # and death handlers feed these very queues/flags.
        self._resq = [thread_queue.SimpleQueue() for _ in backend._conds]
        backend._abort = self._abort
        backend._resq = self._resq
        backend._depth = self._lane_depth()
        backend._running = True

    def _wake_lane(self) -> None:
        for q, cond in zip(self._resq, self.backend._conds):
            q.put(None)  # read as "nothing yet": the router wakes and looks at the flags
            with cond:
                cond.notify_all()

    # ----------------------------------------------------------- port hooks
    def _begin_stream(self, stream: int) -> None:
        backend: DistributedBackend = self.backend  # type: ignore[assignment]
        # The epoch *is* the stream id: results are only accepted while
        # their (epoch, seq) assignment is live, so a late duplicate from
        # any earlier stream (or an aborted one) is dropped on arrival.
        backend._epoch += 1
        backend._reclaim_inflight()

    def _shutdown(self) -> None:
        backend: DistributedBackend = self.backend  # type: ignore[assignment]
        super()._shutdown()
        backend._running = False
        backend._reclaim_inflight()

    # ------------------------------------------------------------ lane hooks
    def _ingress(self, seq: int, value: Any) -> bool:
        return self.backend._dispatch(0, seq, None, value)

    def _forward(self, stage: int, seq: int, frame: Frame) -> bool:
        return self.backend._dispatch(stage, seq, frame)

    def _poll(self, stage: int) -> "tuple | None":
        return self._resq[stage].get()

    def _accept(self, stage: int, msg: tuple) -> "Hop | None":
        """One ``(worker, recv_t, frame)``: a ``result`` or a ``reject``."""
        backend: DistributedBackend = self.backend  # type: ignore[assignment]
        w, recv_t, frame = msg
        slot, seq, result = frame[3], frame[4], frame[0] == "result"
        if result:
            ok, payload, service_s, wait_s, t_sent, err_repr, t_recv_w, t_send_w = frame[5:]
            if ok:  # a failure's payload is its pickled error
                payload = from_wire(payload, backend._codec.name if w.shm_ok else "pickle")
        cond = backend._conds[stage]
        with cond:
            entry = backend._inflight[stage].get(seq)
            if entry is None or entry[0].worker is not w or entry[0].slot != slot:
                # Stale: this item was re-dispatched after its worker was
                # declared dead; exactly one assignment may deliver it.
                # The duplicate's result frame will never be read.
                if result and ok:
                    backend._codec.release(payload)
                return None
            replica, task_frame = entry
            del backend._inflight[stage][seq]
            replica.inflight -= 1
            if (
                not replica.active
                and replica.inflight == 0
                and replica in backend._replicas[stage]
            ):
                backend._replicas[stage].remove(replica)
            queued = sum(r.inflight for r in backend._replicas[stage])
            cond.notify_all()
        if not result:
            # Task raced a retire on the worker: send it elsewhere.
            backend._dispatch(stage, seq, task_frame)
            return None
        # The task frame was consumed on the worker; nothing can
        # re-dispatch it now, so its segments can go.
        backend._codec.release(task_frame)
        if not ok:
            raise load_error(payload, err_repr)
        # rtt minus worker-side service and queue wait is wire time both
        # ways; halve it for the one-way transfer estimate, and pair the
        # full overhead with the bytes that crossed (task out + result
        # back) to feed the size-stratified latency/bandwidth fit.
        overhead = max(0.0, (recv_t - t_sent) - service_s - wait_s)
        w.observe_transfer(task_frame.nbytes + payload.nbytes, overhead)
        # The drain term _reserve_slot prices the replica by.  A gap counts
        # from the item's own send when the replica sat idle in between.
        gap = recv_t - max(replica.done_t, t_sent)
        replica.drain = gap if replica.drain is None else 0.9 * replica.drain + 0.1 * gap
        replica.done_t = recv_t
        self._trace_hop(
            stage, seq, w, t_sent, recv_t, service_s, wait_s, t_recv_w, t_send_w,
            payload.nbytes,
        )
        backend._ref_bytes += 0.1 * (task_frame.nbytes - backend._ref_bytes)
        # work_estimate = service x effective speed, so a loaded worker's
        # slow service still yields the true per-item work.
        return Hop(seq, payload, service_s, w.speed, w.id, queued, overhead / 2.0)

    # ---------------------------------------------------------------- tracing
    def _trace_hop(
        self,
        stage: int,
        seq: int,
        w: _WorkerConn,
        t_sent: float,
        recv_t: float,
        service_s: float,
        wait_s: float,
        t_recv_w: float,
        t_send_w: float,
        nbytes: int,
    ) -> None:
        """Fold one accepted result into the worker's clock fit and, when
        anyone listens, trace the hop from the result's stamps.

        The quadruple ``(t_sent, t_recv_w, t_send_w, recv_t)`` is exactly
        the NTP sample :class:`~repro.obs.clock.ClockSync` wants; it is fed
        unconditionally (two comparisons and a deque append) so the fit is
        warm the moment tracing turns on.  The ``wk.*`` points are the
        worker's instants mapped through that fit: dequeue and service are
        exact (the worker measured ``wait_s`` and ``service_s`` from
        ``t_recv_w``), encode ends at the send stamp.  The ``span.phases``
        breakdown tiles the hop: wire_out + worker_queue + service + encode
        + wire_back ≈ recv_t - t_sent, each term clamped non-negative
        (clock-fit error can push a boundary past its neighbour by up to
        rtt/2).
        """
        w.clock.observe(t_sent, t_recv_w, t_send_w, recv_t)
        bus = self.events
        if bus.wants("clock.sync") and recv_t - w.clock_emit_t >= 1.0:
            w.clock_emit_t = recv_t
            fit = w.clock.fit()
            bus.emit(
                "clock.sync",
                at=self.perf_to_session(recv_t),
                worker=w.id,
                offset=fit.offset_at(t_send_w),
                drift=fit.b,
                err=fit.err,
                n=fit.n,
            )
        if not any(map(bus.wants, _HOP_KINDS)):
            return
        to_local = w.clock.fit().to_local
        encode = max(0.0, (t_send_w - t_recv_w) - wait_s - service_s)
        dequeued = t_recv_w + wait_s
        # Durations cover the whole batch when batching (the helper reports
        # seq = first item, items = N), so the profiler can fan the hop out
        # per item without double-counting.
        for kind, t_w, fields in (
            ("wk.dequeue", dequeued, {"wait": wait_s}),
            ("wk.service", dequeued + service_s, {"seconds": service_s}),
            ("wk.encode", t_send_w, {"seconds": encode, "nbytes": nbytes}),
            ("wk.send", t_send_w, {}),
        ):
            self._emit_items(
                kind, seq, at=self.perf_to_session(to_local(t_w)), stage=stage,
                worker=w.id, **fields,
            )
        self._emit_items(
            "span.phases",
            seq,
            at=self.perf_to_session(recv_t),
            stage=stage,
            worker=w.id,
            wire_out=max(0.0, to_local(t_recv_w) - t_sent),
            worker_queue=wait_s,
            service=service_s,
            encode=encode,
            wire_back=max(0.0, recv_t - to_local(t_send_w)),
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
        caller should :meth:`wait_for_workers`.
    worker_cores:
        Advertised core count of each auto-spawned worker (they share the
        local host, so 1 is the honest default).
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
        this host, negotiated per worker at registration; its placement
        threshold is calibrated at warm-up.
    host, port:
        Bind address of the coordinator socket (port 0 = ephemeral).
    heartbeat_interval, heartbeat_timeout:
        Worker heartbeat cadence and the silence span after which a worker
        is declared dead (default 6x the interval).
    register_timeout:
        How long warm-up waits for ``spawn_workers`` registrations.
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
        worker_cores: int = 1,
        worker_link_delays: list[float] | None = None,
        worker_link_bandwidths: list[float] | None = None,
        transport: str | Codec = "auto",
        host: str = "127.0.0.1",
        port: int = 0,
        heartbeat_interval: float = 0.5,
        heartbeat_timeout: float | None = None,
        register_timeout: float = 20.0,
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
        self.worker_cores = worker_cores
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
        self.heartbeat_timeout = (
            heartbeat_timeout
            if heartbeat_timeout is not None
            else 6.0 * heartbeat_interval
        )
        self.register_timeout = register_timeout
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

        # Per-stage replica sets + in-flight assignments (guarded by _conds[i]).
        self._conds = [threading.Condition() for _ in range(n)]
        self._replicas: list[list[_Replica]] = [[] for _ in range(n)]
        self._inflight: list[dict[int, tuple[_Replica, Frame]]] = [{} for _ in range(n)]

        # Infrastructure threads and sockets.
        self._close_lock = threading.Lock()
        self._server: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._monitor_thread: threading.Thread | None = None
        self._recv_threads: list[threading.Thread] = []
        self._pending: set[socket.socket] = set()  # accepted, not yet registered (_registry)
        self._warm = False
        self._closing = threading.Event()

        # Live-session plumbing (adopted by each session; the epoch is the
        # stream id and survives sessions so stale results never collide).
        self._epoch = 0
        self._depth = self.capacity  # in-flight allowance per replica (the session's lane depth)
        self._running = False
        self._resq: list[thread_queue.SimpleQueue] = []
        self._abort = threading.Event()

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
        placement: list[dict[int, int]] = []
        for i, cond in enumerate(self._conds):
            with cond:
                counts: dict[int, int] = {}
                for r in self._replicas[i]:
                    if r.active:
                        counts[r.worker.id] = counts.get(r.worker.id, 0) + 1
            placement.append(counts)
        return placement

    # --------------------------------------------------------------- warm-up
    def warm(self) -> None:
        """Open the coordinator socket, spawn/await workers, place replicas."""
        if self._closed:
            raise RuntimeError("backend is closed")
        if self._warm:
            return
        if self._codec.name == "auto":
            fitted = _transport.calibrated_auto_threshold()
            if fitted is not None:
                self._codec.threshold = fitted
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
                    args=(host, port, self.worker_cores, f"local-{k}", delays[k],
                          bandwidths[k]),
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
            self.wait_for_workers(self.spawn_workers, timeout=self.register_timeout)
            self._ensure_placements()

    def _create_probe(self) -> None:
        """Create the session's shm probe workers verify at registration.

        A worker that can attach this segment and read back the token
        shares the coordinator's shared-memory namespace, so frames may
        carry descriptors instead of payload bytes.  A ``"pickle"``
        transport never probes — every frame is self-contained anyway.
        """
        if self._probe_name is not None or self._codec.name == "pickle":
            return
        import os as _os
        import uuid as _uuid

        self._probe_token = _uuid.uuid4().bytes
        name = f"{_transport.SHM_PREFIX}{self._codec.session}-probe{_os.getpid()}"
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

        Registered means the worker has also answered the transport
        negotiation: a first dispatch never races its ``shm_ok`` reply.
        """
        def registered() -> int:
            return sum(w.alive and w.shm_replied for w in self._workers.values())

        with self._registry:  # every registry change notifies: accept, shm_ok, death
            if not self._registry_changed.wait_for(lambda: registered() >= n, timeout):
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
        if not (isinstance(hello, tuple) and len(hello) == 4 and hello[0] == "hello"):
            return None
        _, wname, cores, load = hello
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
            worker = _WorkerConn(wid, outbox, wname, cores, sock)
            # Queued before the worker is visible, so no ``place`` overtakes it.
            outbox.send(("welcome", wid, self.heartbeat_interval, inbox, self._transport_spec()))
            worker.proc = self._spawned.get(wname)
            worker.observe_load(load)
            self._workers[wid] = worker
            self._registry_changed.notify_all()
        threading.current_thread().name = f"dist-recv[{wid}]"
        self.events.emit("worker.join", f"worker {wname!r} registered",
                         worker=wid, name=wname, cores=cores)
        return worker

    def _monitor_loop(self) -> None:
        while not self._closing.wait(self.heartbeat_interval):
            now = time.monotonic()
            with self._registry:
                stale = [
                    w
                    for w in self._workers.values()
                    if w.alive and now - w.last_seen > self.heartbeat_timeout
                ]
            for w in stale:
                self._on_worker_death(w)

    # --------------------------------------------------------------- receive
    def _recv_loop(self, sock: socket.socket) -> None:
        reader = sock.makefile("rb", buffering=1 << 16)  # one recv, every whole frame held
        w = None
        try:
            w = self._register(sock, reader.read)
            while w is not None and (frame := read_frame(reader.read)) is not None:
                w.last_seen = time.monotonic()
                kind = frame[0]
                if kind in ("result", "reject"):
                    # Both go to the stage's router as sent (a reject: the
                    # task raced a retire, and the router re-dispatches it);
                    # one from an earlier or aborted stream is stale.
                    if frame[1] == self._epoch:
                        self._resq[frame[2]].put((w, time.perf_counter(), frame))
                elif kind == "heartbeat":
                    w.observe_load(frame[1])
                elif kind == "shm_ok":
                    with self._registry:
                        w.shm_ok = bool(frame[1])
                        w.shm_replied = True
                        self._registry_changed.notify_all()
                elif kind == "place_failed":
                    _, stage, slot, err_repr = frame
                    err = RuntimeError(
                        f"worker {w.name!r} could not host stage {stage}: "
                        f"{err_repr} (stage fns must be importable on workers)"
                    )
                    self._config_errors.append(err)
                    with self._conds[stage]:
                        self._replicas[stage] = [
                            r
                            for r in self._replicas[stage]
                            if not (r.worker is w and r.slot == slot)
                        ]
                        self._conds[stage].notify_all()
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

    def _reclaim_inflight(self) -> None:
        """Release frames an aborted stream stranded in flight.

        They will never be decoded, and their replicas get the capacity
        back — the next session must not find a replica full of results
        nobody will accept.  A clean boundary finds nothing (``drain()``
        empties the pipeline).
        """
        for i, cond in enumerate(self._conds):
            with cond:
                for replica, stale_frame in self._inflight[i].values():
                    self._codec.release(stale_frame)
                    replica.inflight -= 1
                self._inflight[i].clear()
                self._replicas[i] = [
                    r for r in self._replicas[i] if r.active or r.inflight
                ]
                cond.notify_all()

    def _on_worker_death(self, w: _WorkerConn) -> None:
        """Remove a dead worker; re-home its replicas and in-flight items."""
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
        lost_by_stage: list[list[tuple[int, Frame]]] = []
        for i, cond in enumerate(self._conds):
            with cond:
                self._replicas[i] = [
                    r for r in self._replicas[i] if r.worker is not w
                ]
                lost = sorted(
                    (seq, payload)
                    for seq, (replica, payload) in self._inflight[i].items()
                    if replica.worker is w
                )
                for seq, _payload in lost:
                    del self._inflight[i][seq]
                cond.notify_all()
            lost_by_stage.append(lost)
        self.events.emit(
            "worker.death",
            f"worker {w.name!r} died",
            worker=w.id,
            name=w.name,
            lost_items=sum(len(lost) for lost in lost_by_stage),
        )
        if self._closing.is_set():
            return
        # A stage stripped of every replica gets one on a survivor; if no
        # workers remain the run cannot finish — fail rather than hang.
        for i, cond in enumerate(self._conds):
            with cond:
                has_active = any(r.active for r in self._replicas[i])
            if not has_active and (self._running or self._warm):
                self.events.emit(
                    "adapt.decide",
                    f"re-home stage {i} after worker {w.name!r} death",
                    reason=f"re-home stage {i}: worker {w.id} died",
                    stage=i,
                    worker=w.id,
                )
                if not self._place_replica(i):
                    if self._running:
                        self._fail(
                            i,
                            RuntimeError(
                                f"worker {w.name!r} died and no live workers "
                                f"remain to host stage {i}"
                            ),
                        )
                    return
        if not self._running or not any(lost_by_stage):
            return
        # Re-dispatch can block on back-pressure; doing it inline would stall
        # the calling thread (the heartbeat monitor, or a recv loop), which
        # must stay free to detect *further* failures.
        threading.Thread(
            target=self._redispatch_lost,
            args=(lost_by_stage,),
            name=f"dist-redispatch[{w.id}]",
            daemon=True,
        ).start()

    def _redispatch_lost(self, lost_by_stage: list[list[tuple[int, Frame]]]) -> None:
        try:
            for i, lost in enumerate(lost_by_stage):
                for seq, payload in lost:
                    self._session._emit_items("worker.redispatch", seq, stage=i)
                    if not self._dispatch(i, seq, payload):
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
                cands = [w for w in self._workers.values() if w.alive]
            if not cands:
                return None
            hosted = self._hosted_counts()
            target = min(cands, key=lambda w: self._worker_score(w, hosted))
            slot = target.new_slot()
            ok = target.outbox.send(
                (
                    "place",
                    stage,
                    slot,
                    self._fn_payloads[stage],
                    self.pipeline.stage(stage).name,
                )
            )
            if not ok:
                self._on_worker_death(target)
                continue
            replica = _Replica(target, slot)
            with self._conds[stage]:
                self._replicas[stage].append(replica)
                n_active = sum(1 for r in self._replicas[stage] if r.active)
                self._conds[stage].notify_all()
            self.events.emit(
                "replica.add", stage=stage, worker=target.id, n=n_active
            )
            return replica

    def _retire_replica(self, stage: int, replica: _Replica) -> None:
        """Stop dispatching to a replica; it finishes what it was dealt."""
        with self._conds[stage]:
            replica.active = False
            if replica.inflight == 0 and replica in self._replicas[stage]:
                self._replicas[stage].remove(replica)
            n_active = sum(1 for r in self._replicas[stage] if r.active)
        self.events.emit(
            "replica.remove", stage=stage, worker=replica.worker.id, n=n_active
        )
        replica.worker.outbox.send(("retire", stage, replica.slot))

    def _ensure_placements(self) -> None:
        """Top each stage's active replica set up to its target count."""
        for i in range(self.pipeline.n_stages):
            while True:
                with self._conds[i]:
                    active = sum(1 for r in self._replicas[i] if r.active)
                if active >= self._target[i]:
                    break
                if self._place_replica(i) is None:
                    raise RuntimeError(
                        f"no live workers available to place stage {i} "
                        f"({self.pipeline.stage(i).name!r}); start workers "
                        "(python -m repro.backend.distributed.worker "
                        "--connect host:port) and wait_for_workers() first"
                    )

    # --------------------------------------------------------------- dispatch
    def _reserve_slot(self, stage: int) -> _Replica | None:
        """Claim a slot where the item finishes first (blocks); None on abort.

        One more item on a replica finishes in ``(inflight + 1) × drain +
        link_s`` (an unmeasured drain priced as one default hop).  Each may
        hold ``_depth`` in flight, but an unmeasured replica of several stays
        at ``capacity``: on a cold stream nothing says which link is slow.
        An idle replica whose estimate is older than a heartbeat gets the
        next item, so a link that recovers is noticed.
        """
        cond = self._conds[stage]
        with cond:
            while True:
                if self._abort.is_set():
                    return None
                replicas = self._replicas[stage]
                cold = self.capacity if len(replicas) > 1 else self._depth
                ready = [
                    r for r in replicas if r.active and r.worker.alive
                    and r.inflight < (cold if r.drain is None else self._depth)
                ]
                if ready:
                    best = ready[0]
                    if len(ready) > 1:
                        stale = time.perf_counter() - self.heartbeat_interval
                        best = min(ready, key=lambda r: -1.0 if not r.inflight and r.done_t < stale
                                   else (r.inflight + 1) * (r.drain or _DEFAULT_LINK_S)
                                   + r.worker.link_s)
                    best.inflight += 1
                    return best
                cond.wait()  # every site that frees or adds a slot notifies

    def _dispatch(
        self, stage: int, seq: int, frame: "Frame | None", value: Any = None
    ) -> bool:
        """Send one item to ``stage``; survives worker death mid-send.

        ``frame=None`` admits the raw ``value`` at stage 0: the worker is
        selected *first* and the item encoded for it — descriptor frames
        for a shm-verified worker, inline pickle for a remote (or
        not-yet-negotiated) one — so mixed pools pay no segment-write +
        materialize + release churn.  Returns False only on abort.
        """
        cond = self._conds[stage]
        while True:
            replica = self._reserve_slot(stage)
            if replica is None:
                return False
            w = replica.worker
            if frame is None:
                frame = self._session._encode(
                    seq, value, self._codec if w.shm_ok else self._pickle_codec
                )
            with cond:
                self._inflight[stage][seq] = (replica, frame)
            if not frame.inline and not w.shm_ok:
                # The chosen worker cannot attach this host's segments:
                # swap the assignment to a self-contained copy.  Copy
                # first, swap under the lock, release last — a concurrent
                # worker-death re-dispatch must never find the original's
                # segments already gone.
                copy = materialize(frame, release=False)
                with cond:
                    entry = self._inflight[stage].get(seq)
                    owned = entry is not None and entry[0] is replica
                    if owned:
                        self._inflight[stage][seq] = (replica, copy)
                if not owned:
                    return True  # a death handler already re-homed the item
                self._codec.release(frame)
                frame = copy
            # Before the send: once it returns, the item may already be
            # delivered and its batch number forgotten (a failed send is a
            # death, and the re-dispatch that follows records again).
            self._session._emit_items("item.dispatch", seq, stage=stage, worker=w.id)
            if w.outbox.send(
                ("task", self._epoch, stage, replica.slot, seq, to_wire(frame),
                 time.perf_counter())
            ):
                return True
            # Send failed: reclaim the assignment (unless the death handler
            # got there first and already re-homed it — with this very
            # frame), then mark the worker dead and retry.
            with cond:
                entry = self._inflight[stage].get(seq)
                reclaimed = entry is not None and entry[0] is replica
                if reclaimed:
                    del self._inflight[stage][seq]
                    replica.inflight -= 1
                    cond.notify_all()
            self._on_worker_death(w)
            if not reclaimed:
                return True

    # ------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Shut workers down and release every socket/thread (idempotent)."""
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        self._closing.set()
        self._abort.set()
        for cond in self._conds:
            with cond:
                cond.notify_all()
        if self._session is not None:
            try:
                self._session.close()
            except BaseException:  # noqa: BLE001 - closing, not reporting
                pass
        self._running = False
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
        with self._conds[stage]:
            active = [r for r in self._replicas[stage] if r.active]
        grow = n_replicas - len(active)
        for _ in range(grow):
            if self._place_replica(stage) is None:
                break
        if grow < 0:
            hosted = self._hosted_counts()
            by_badness = sorted(
                active,
                key=lambda r: self._worker_score(r.worker, hosted),
                reverse=True,
            )
            for r in by_badness[: len(active) - n_replicas]:
                self._retire_replica(stage, r)


register_backend("distributed", DistributedBackend)
