"""Observe→decide→act on *real* executors, with wall-clock measurements.

:class:`RuntimeAdaptiveRunner` closes the loop the simulator's controller
runs in simulated time (:mod:`repro.core.adaptive`), but against a live
:class:`~repro.backend.base.Backend` — and, since the streaming refactor,
against a live **session**: :meth:`~RuntimeAdaptiveRunner.attach` binds a
controller thread to a :class:`~repro.backend.base.Session`, and that one
controller keeps observing and acting across every stream the session
serves.  The measurement window, cooldown state and current mapping are
continuous across stream boundaries instead of restarting per ``run()`` —
exactly what a resident service needs.

* **observe** — the backend's per-stage :class:`StageSnapshot` samples
  (wall-clock service times and queue depths collected through
  :mod:`repro.monitor.instrument`, cumulative across streams);
* **decide** — any policy with the ``decide(...)`` signature of
  :class:`~repro.core.policy.AdaptationPolicy` (the model-driven default),
  :class:`~repro.core.policies_alt.ReactivePolicy`, or the
  :class:`BottleneckGrowthPolicy` heuristic.  The policy reasons over a
  **virtual local grid**: one uniform unit-speed processor per available
  slot, so "replicate the bottleneck stage onto an idle processor"
  translates to "activate another warm worker";
* **act** — mapping deltas become ``backend.reconfigure(stage, n)`` calls,
  clamped to the backend's warm-pool limits;
* **validate** — after ``settle_time`` the measured sink throughput is
  compared with the pre-action window; a regression beyond
  ``rollback_tolerance`` reverts the replica counts and doubles the
  cooldown, mirroring the simulator controller's rollback rule.

The virtual grid is grounded in measurements where the backend can provide
them: each decide step asks ``backend.resource_view(n_virtual_procs)`` for
a view carrying load-derived effective speeds (thread backend) or
per-worker speeds plus measured link costs (distributed backend), falling
back to uniform unit-speed processors — where ``work_estimate`` *is* the
measured wall-clock service time.

``run(inputs)`` remains the bounded-stream convenience: it attaches (once,
lazily), feeds the items through ``session.submit`` under backpressure,
drains, and reports the events of that stream — repeated calls stream
back-to-back over the same warm session with the controller never
detaching in between.
"""

from __future__ import annotations

import math
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from repro.backend.base import Backend, Session, make_backend
from repro.core.events import AdaptationEvent, Decision
from repro.core.pipeline import PipelineSpec
from repro.core.policy import AdaptationConfig, AdaptationPolicy
from repro.gridsim.spec import uniform_grid
from repro.model.cost import MigrationCostModel
from repro.model.mapping import Mapping
from repro.model.throughput import ResourceView, snapshot_view
from repro.util.validation import check_positive

__all__ = [
    "BottleneckGrowthPolicy",
    "RuntimeAdaptiveRunner",
    "RuntimeRunResult",
    "local_config",
    "propose_growth",
]


def local_config(**overrides) -> AdaptationConfig:
    """An :class:`AdaptationConfig` tuned for wall-clock cadences.

    The simulation defaults (5 s intervals, 10 s cooldowns) assume long
    grid runs; local pipelines finish in seconds, so the loop must look and
    act at sub-second cadence.  Activating a warm worker costs microseconds,
    hence the near-zero migration model.
    """
    defaults = dict(
        interval=0.25,
        cooldown=0.5,
        min_samples=2,
        settle_time=0.3,
        min_improvement=1.1,
        migration=MigrationCostModel(restart_overhead=0.01, drain_slack=0.01),
    )
    defaults.update(overrides)
    return AdaptationConfig(**defaults)


@dataclass
class RuntimeRunResult:
    """Outcome of one adaptively-controlled stream on a real backend."""

    backend: str
    outputs: list[Any] | None
    items: int
    elapsed: float
    adaptation_events: list[AdaptationEvent] = field(default_factory=list)
    replica_history: list[tuple[float, tuple[int, ...]]] = field(default_factory=list)
    final_replicas: list[int] = field(default_factory=list)
    service_means: list[float] = field(default_factory=list)

    @property
    def throughput(self) -> float:
        return self.items / self.elapsed if self.elapsed > 0 else 0.0


def propose_growth(
    per_worker_service: Sequence[float],
    replicas: Sequence[int],
    replicable: Sequence[bool],
    *,
    max_workers: int,
    imbalance_threshold: float,
) -> int | None:
    """The growth decision: which stage (if any) gets a worker.

    Picks the stage with the largest mean service time *per worker*; it
    grows only when it is replicable, under ``max_workers``, and dominates
    the runner-up by ``imbalance_threshold`` (ties below the threshold are
    left alone — growing a balanced pipeline just burns threads).  Returns
    the stage index or ``None``.
    """
    if not per_worker_service or max(per_worker_service) <= 0:
        return None
    order = sorted(
        range(len(per_worker_service)),
        key=lambda i: per_worker_service[i],
        reverse=True,
    )
    worst = order[0]
    runner_up = per_worker_service[order[1]] if len(order) > 1 else 0.0
    if (
        replicable[worst]
        and replicas[worst] < max_workers
        and (
            runner_up == 0.0
            or per_worker_service[worst] / max(runner_up, 1e-12) >= imbalance_threshold
        )
    ):
        return worst
    return None


class BottleneckGrowthPolicy:
    """The classic bottleneck-growth heuristic as a live policy.

    Wraps :func:`propose_growth` — grow the stage with the largest windowed
    service time per worker, when it dominates the runner-up by
    ``imbalance_threshold`` and is replicable and under ``max_workers`` —
    in the runner's ``decide`` signature.  Grow-only and model-free: useful
    where the model-driven default is too eager.
    """

    def __init__(
        self,
        pipeline: PipelineSpec,
        config: AdaptationConfig | None = None,
        *,
        max_workers: int = 4,
        imbalance_threshold: float = 1.5,
    ) -> None:
        check_positive(max_workers, "max_workers")
        if imbalance_threshold < 1.0:
            raise ValueError(
                f"imbalance_threshold must be >= 1.0, got {imbalance_threshold}"
            )
        self.pipeline = pipeline
        self.config = config if config is not None else local_config()
        self.max_workers = max_workers
        self.imbalance_threshold = imbalance_threshold

    def decide(
        self,
        *,
        now: float,
        current: Mapping,
        snapshots,
        view: ResourceView,
        source_pid: int,
        sink_pid: int,
        remaining_items: int,
        last_action_time: float = -math.inf,
    ) -> Decision:
        cfg = self.config
        if now - last_action_time < cfg.cooldown:
            return Decision(None, reason="cooldown")
        if remaining_items <= 0:
            return Decision(None, reason="no-remaining-work")
        n = self.pipeline.n_stages
        per_worker, counts, replicable = [], [], []
        for i in range(n):
            snap = snapshots[i] if i < len(snapshots) else None
            n_reps = len(current.replicas(i))
            service = 0.0
            if (
                snap is not None
                and snap.items_processed >= cfg.min_samples
                and not math.isnan(snap.service_time)
            ):
                service = snap.service_time
            per_worker.append(service / n_reps)
            counts.append(n_reps)
            replicable.append(self.pipeline.stage(i).replicable)
        stage = propose_growth(
            per_worker,
            counts,
            replicable,
            max_workers=self.max_workers,
            imbalance_threshold=self.imbalance_threshold,
        )
        if stage is None:
            return Decision(None, reason="balanced-or-capped")
        used = {p for i in range(n) for p in current.replicas(i)}
        free = [p for p in view.pids() if p not in used]
        if not free:
            return Decision(None, reason="no-free-processor")
        new = current.with_stage(stage, list(current.replicas(stage)) + [free[0]])
        return Decision(
            new,
            reason=(
                f"grow bottleneck stage {stage} to {counts[stage] + 1} workers "
                f"({per_worker[stage] * 1e3:.1f} ms/item/worker)"
            ),
            predicted_gain=1.0,
        )


class RuntimeAdaptiveRunner:
    """Drives live adaptation of a pipeline on a real execution backend.

    Parameters
    ----------
    pipeline:
        What to run.
    backend:
        A :class:`Backend` instance, or a registered name (``"threads"``,
        ``"processes"``); it must support live reconfiguration.
    config:
        Loop tunables; default :func:`local_config`.
    policy:
        Custom decide step (``AdaptationPolicy`` signature, carrying a
        ``config`` attribute); overrides ``config``.
    n_virtual_procs:
        Size of the virtual local grid the policy plans over — effectively
        the replica budget shared by all stages.  Default: enough for one
        processor per stage plus the largest warm pool, capped to be at
        least the host's core count.
    rollback:
        Enable the post-action throughput validation (default True).
    backend_kwargs:
        Forwarded to the backend factory when ``backend`` is a name.
    """

    def __init__(
        self,
        pipeline: PipelineSpec,
        backend: str | Backend = "threads",
        *,
        config: AdaptationConfig | None = None,
        policy=None,
        n_virtual_procs: int | None = None,
        rollback: bool = True,
        **backend_kwargs,
    ) -> None:
        self.pipeline = pipeline
        # run() keeps the backend's session warm so the runner can be
        # reused; close() (or the context manager) reaps it, whether the
        # backend was built here from a name or passed in pre-configured.
        self.backend = make_backend(backend, pipeline, **backend_kwargs)
        if not self.backend.supports_live_reconfigure:
            raise ValueError(
                f"backend {self.backend.name!r} cannot reconfigure live; "
                "use it through skel.api / Backend.run instead"
            )
        if policy is not None:
            self.policy = policy
            self.config = policy.config
        else:
            self.config = config if config is not None else local_config()
            self.policy = AdaptationPolicy(pipeline, self.config)
        self.rollback = rollback
        n = pipeline.n_stages
        if n_virtual_procs is None:
            budget = max(self.backend.replica_limit(i) for i in range(n))
            n_virtual_procs = max(n + budget - 1, os.cpu_count() or 2, 2)
        if n_virtual_procs < n:
            raise ValueError(
                f"n_virtual_procs must cover {n} stages, got {n_virtual_procs}"
            )
        self.n_virtual_procs = n_virtual_procs
        self._view: ResourceView = snapshot_view(
            uniform_grid(n_virtual_procs).snapshot(0.0)
        )
        # Controller state (guarded by _lock; persists across streams).
        self._lock = threading.Lock()
        self._controller: threading.Thread | None = None
        self._stop = threading.Event()
        self._attached: Session | None = None
        self._attach_t0 = 0.0
        self._run_t0: float | None = None
        self._controller_error: BaseException | None = None
        self.events: list[AdaptationEvent] = []
        self.replica_history: list[tuple[float, tuple[int, ...]]] = []

    # ------------------------------------------------------------- lifecycle
    def attach(self, session: Session | None = None) -> Session:
        """Bind the control loop to ``session`` (opening one if needed).

        The controller thread observes, decides and acts for as long as the
        session lives — across every stream it serves — keeping cooldowns
        and the measurement window continuous over stream boundaries.
        Returns the attached session.
        """
        if self._controller is not None and self._controller.is_alive():
            raise RuntimeError("controller already attached; detach() it first")
        if session is None:
            # Reuse the backend's live session (replacing a broken one)
            # rather than demanding a fresh open: attaching to whatever is
            # already streaming is the common case.
            session = self.backend._current_session()
        self._attached = session
        self._stop = threading.Event()
        self._attach_t0 = time.perf_counter()
        self._controller_error = None
        self._controller = threading.Thread(
            target=self._controller_main,
            args=(session, self._stop),
            name="adaptive-controller",
            daemon=True,
        )
        self._controller.start()
        return session

    def detach(self) -> None:
        """Stop the control loop (the session keeps streaming unadapted)."""
        self._stop.set()
        if self._controller is not None:
            self._controller.join(timeout=5.0)
            self._controller = None
        self._attached = None

    def close(self) -> None:
        """Detach and release the backend's warm resources."""
        self.detach()
        self.backend.close()

    def __enter__(self) -> "RuntimeAdaptiveRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ run
    def run(self, inputs: Iterable[Any]) -> RuntimeRunResult:
        """Process ``inputs`` as one adaptively-controlled bounded stream.

        Attaches on first use and stays attached, so repeated ``run`` calls
        stream back-to-back over one warm session with the controller
        adapting continuously across the boundaries.  The result carries
        the events and replica timeline of *this* stream.
        """
        items = list(inputs)
        session = self._attached
        if session is None or session.closed or session.broken:
            if self._controller is not None:
                self.detach()
            session = self.attach()
        with self._lock:
            events_mark = len(self.events)
            self._run_t0 = time.perf_counter()
            run_start_counts = tuple(self.backend.replica_counts())
        t0 = time.perf_counter()
        try:
            for item in items:
                session.submit(item)
            outputs = session.drain()
        except BaseException:
            # The stream failed (or was interrupted): the controller has
            # nothing live left to adapt — detach so state is not smeared
            # into a future session.
            self.detach()
            raise
        finally:
            with self._lock:
                self._run_t0 = None
        if self._controller_error is not None:
            # A crashing decide step must not be silently swallowed: reap
            # the backend (mirroring the one-shot runner) and re-raise.
            err = self._controller_error
            self.close()
            raise err
        elapsed = session.last_stream_elapsed
        with self._lock:
            run_events = list(self.events[events_mark:])
        history = [(0.0, run_start_counts)]
        history += [(e.time, self._counts_of(e.mapping_after)) for e in run_events]
        return RuntimeRunResult(
            backend=self.backend.name,
            outputs=outputs if session.produces_outputs else None,
            items=session.last_stream_items,
            elapsed=elapsed if elapsed is not None else time.perf_counter() - t0,
            adaptation_events=run_events,
            replica_history=history,
            final_replicas=list(self.backend.replica_counts()),
            service_means=session.service_means(),
        )

    def _counts_of(self, mapping: Mapping) -> tuple[int, ...]:
        return tuple(
            len(mapping.replicas(i)) for i in range(self.pipeline.n_stages)
        )

    # ------------------------------------------------------------ controller
    def _initial_mapping(self) -> Mapping:
        """Spread stages over virtual processors, honouring start replicas."""
        counts = self.backend.replica_counts()
        free = list(range(self.n_virtual_procs))
        stages = []
        for count in counts:
            reps = []
            for _ in range(count):
                if free:
                    reps.append(free.pop(0))
            if not reps:  # more replicas than procs: share pid 0
                reps = [0]
            stages.append(tuple(reps))
        return Mapping(tuple(stages))

    def _now(self) -> float:
        """Controller clock: stream-relative while a run() is active."""
        with self._lock:
            t0 = self._run_t0 if self._run_t0 is not None else self._attach_t0
        return time.perf_counter() - t0

    def _session_live(self, session: Session, stop: threading.Event) -> bool:
        return not stop.is_set() and not session.closed and not session.broken

    def _wait_active(
        self, session: Session, stop: threading.Event, duration: float
    ) -> bool:
        """Sleep ``duration`` in slices; False once nothing is left flowing."""
        deadline = time.perf_counter() + duration
        while time.perf_counter() < deadline:
            if not self._session_live(session, stop):
                return False
            time.sleep(0.02)
        return self._session_live(session, stop) and session.backlog > 0

    def _controller_main(self, session: Session, stop: threading.Event) -> None:
        try:
            self._control_loop(session, stop)
        except BaseException as err:  # noqa: BLE001 - re-raised from run()
            self._controller_error = err

    def _control_loop(self, session: Session, stop: threading.Event) -> None:
        cfg = self.config
        mapping = self._initial_mapping()
        last_action = -math.inf
        while self._session_live(session, stop):
            stop.wait(cfg.interval)
            if not self._session_live(session, stop):
                return
            backlog = session.backlog
            if backlog <= 0:
                continue  # idle between streams: nothing to measure or move
            now = self._now()
            # Ground the virtual grid in the backend's measured reality when
            # it has one (host load, per-worker speeds, link costs); the
            # uniform unit-speed view remains the fallback.
            measured_view = self.backend.resource_view(self.n_virtual_procs)
            decision = self.policy.decide(
                now=now,
                current=mapping,
                snapshots=self.backend.snapshots(),
                view=measured_view if measured_view is not None else self._view,
                source_pid=0,
                sink_pid=0,
                remaining_items=backlog,
                last_action_time=last_action,
            )
            if not decision.acts:
                continue
            session.events.emit(
                "adapt.decide",
                decision.reason,
                reason=decision.reason,
                predicted_gain=decision.predicted_gain,
                backlog=backlog,
            )
            assert decision.new_mapping is not None
            new_mapping = decision.new_mapping
            old_counts = self.backend.replica_counts()
            # Clamp the proposal to what the warm pools can actually honour.
            for i in range(self.pipeline.n_stages):
                limit = self.backend.replica_limit(i)
                reps = new_mapping.replicas(i)
                if len(reps) > limit:
                    new_mapping = new_mapping.with_stage(i, list(reps)[:limit])
            new_counts = [
                len(new_mapping.replicas(i)) for i in range(self.pipeline.n_stages)
            ]
            if new_mapping == mapping or new_counts == old_counts:
                # Nothing physical would change (e.g. the proposal exceeded
                # the warm-pool limit and clamped back to the current shape):
                # recording an event or sleeping a settle window would
                # fabricate adaptations the backend never performed.
                continue
            before_tp = self.backend.recent_throughput(max(cfg.interval, 0.25))
            for i, (old_n, new_n) in enumerate(zip(old_counts, new_counts)):
                if old_n != new_n:
                    self.backend.reconfigure(i, new_n)
            # Record what the backend *achieved*, not what was proposed — a
            # live grow can no-op, and the timeline must not claim replicas
            # that never existed.
            realized = self.backend.replica_counts()
            if realized == old_counts:
                continue
            for i, cnt in enumerate(realized):
                reps = new_mapping.replicas(i)
                if cnt < len(reps):
                    new_mapping = new_mapping.with_stage(i, list(reps)[:cnt])
            old_mapping = mapping
            mapping = new_mapping
            last_action = self._now()
            kind = "replicate" if new_mapping.is_replicated() else "remap"
            event = AdaptationEvent(
                time=last_action,
                kind=kind,
                mapping_before=old_mapping,
                mapping_after=new_mapping,
                reason=decision.reason,
                predicted_gain=decision.predicted_gain,
                throughput_before=before_tp,
            )
            with self._lock:
                self.events.append(event)
                self.replica_history.append((last_action, tuple(realized)))
            session.events.emit(
                "adapt.act",
                decision.reason,
                action=kind,
                reason=decision.reason,
                predicted_gain=decision.predicted_gain,
                replicas_before=list(old_counts),
                replicas_after=list(realized),
                throughput_before=before_tp,
            )
            if not self.rollback:
                continue
            # Post-action validation mirrors the simulator controller: let
            # in-flight items drain for one settle window, measure a second.
            if not self._wait_active(session, stop, 2 * cfg.settle_time):
                continue
            after_tp = self.backend.recent_throughput(cfg.settle_time)
            if (
                not math.isnan(before_tp)
                and not math.isnan(after_tp)
                and after_tp < before_tp * cfg.rollback_tolerance
            ):
                for i, (old_n, new_n) in enumerate(zip(old_counts, realized)):
                    if old_n != new_n:
                        self.backend.reconfigure(i, old_n)
                now = self._now()
                rollback_event = AdaptationEvent(
                    time=now,
                    kind="rollback",
                    mapping_before=new_mapping,
                    mapping_after=old_mapping,
                    reason=(
                        f"measured {after_tp:.3f}/s < "
                        f"{cfg.rollback_tolerance:.2f} x {before_tp:.3f}/s"
                    ),
                    predicted_gain=1.0,
                    throughput_before=after_tp,
                )
                with self._lock:
                    self.events.append(rollback_event)
                    self.replica_history.append((now, tuple(old_counts)))
                session.events.emit(
                    "adapt.rollback",
                    rollback_event.reason,
                    reason=rollback_event.reason,
                    replicas_before=list(realized),
                    replicas_after=list(old_counts),
                    throughput_before=before_tp,
                    throughput_after=after_tp,
                )
                mapping = old_mapping
                last_action = now + cfg.cooldown  # demand stronger evidence
