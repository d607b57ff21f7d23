"""Observe→decide→act on *real* executors, with wall-clock measurements.

:class:`RuntimeAdaptiveRunner` closes the loop the simulator's controller
runs in simulated time (:mod:`repro.core.adaptive`) against a live
**session**: :meth:`~RuntimeAdaptiveRunner.attach` binds one controller
thread to a :class:`~repro.backend.base.Session`, and its measurement
window, cooldown and mapping carry across every stream the session serves.

* **observe** — per-stage :class:`StageSnapshot` samples collected through
  :mod:`repro.monitor.instrument`.  The controller sleeps in one bounded
  wait that a :class:`~repro.monitor.instrument.ServiceWatch` on that hook
  ends: when every stage first has ``min_samples`` observations, and then
  when a stage's windowed service mean leaves the ``min_improvement`` band
  around the value the last decision saw.  ``interval`` is only the
  fallback timeout, ``cooldown`` the least time between two decisions
  after the first; detach and close end the same wait at once;
* **decide** — any policy with the ``decide(...)`` signature of
  :class:`~repro.core.policy.AdaptationPolicy` (the model-driven default)
  or :class:`~repro.core.policies_alt.ReactivePolicy`, over a **virtual
  local grid** of one processor per warm-worker slot.
  ``backend.resource_view`` grounds it in measured speeds and link costs
  where the backend has them; uniform unit-speed processors
  (``work_estimate`` = measured service time) are the fallback.  The
  default policy's replica cap is the smaller of the config's (if it names
  one) and ``backend.replica_limit``;
* **act** — mapping deltas become ``backend.reconfigure(stage, n)`` calls;
* **validate** — ``2 x settle_time`` later (a deadline of the same wait,
  evidence still heard) the sink throughput is compared with the
  pre-action window; a regression beyond ``rollback_tolerance`` reverts
  the replica counts and doubles the cooldown, as in the simulator.

``run(inputs)`` is the bounded-stream convenience: attach (once, lazily),
submit under backpressure, drain, report that stream's events; repeated
calls stream back-to-back over the same warm session.
"""

from __future__ import annotations

import math
import os
import threading
import time
from dataclasses import dataclass, field, replace
from itertools import islice
from typing import Any, Iterable, Sequence

from repro.backend.base import Backend, Session, make_backend
from repro.core.events import AdaptationEvent
from repro.core.pipeline import PipelineSpec
from repro.core.policy import AdaptationConfig, AdaptationPolicy
from repro.model.cost import MigrationCostModel
from repro.model.mapping import Mapping
from repro.model.throughput import ResourceView, snapshot_view
from repro.monitor.instrument import ServiceWatch

__all__ = ["RuntimeAdaptiveRunner", "RuntimeRunResult", "local_config"]


def local_config(**overrides) -> AdaptationConfig:
    """An :class:`AdaptationConfig` tuned for wall-clock pipelines.

    The live controller wakes on evidence — every stage reaching
    ``min_samples``, then a windowed service mean leaving the
    ``min_improvement`` band around the last decision's — so ``interval``
    is only the fallback re-evaluation when nothing fired, and ``cooldown``
    the least time between two decisions.  It carries no replica cap of its
    own: the runner plans against the executor's warm pools
    (``backend.replica_limit``), and a ``max_replicas=`` given here can
    only lower that.  Activating a warm worker costs microseconds, hence
    the near-zero migration model.
    """
    defaults = dict(
        interval=0.25,
        cooldown=0.5,
        min_samples=2,
        settle_time=0.3,
        min_improvement=1.1,
        max_replicas=None,
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
        n = pipeline.n_stages
        budget = max(self.backend.replica_limit(i) for i in range(n))
        if policy is not None:
            self.policy = policy
            self.config = policy.config
        else:
            # One cap: the planner may use every replica the executor keeps
            # warm, and a smaller cap the caller configured still wins.
            config = config if config is not None else local_config()
            cap = min(config.max_replicas or budget, budget)
            self.config = replace(config, max_replicas=cap)
            self.policy = AdaptationPolicy(pipeline, self.config)
        self.rollback = rollback
        if n_virtual_procs is None:
            n_virtual_procs = max(n + budget - 1, os.cpu_count() or 2, 2)
        if n_virtual_procs < n:
            raise ValueError(
                f"n_virtual_procs must cover {n} stages, got {n_virtual_procs}"
            )
        self.n_virtual_procs = n_virtual_procs
        from repro.gridsim.spec import uniform_grid  # only a controller builds a grid

        self._view: ResourceView = snapshot_view(
            uniform_grid(n_virtual_procs).snapshot(0.0)
        )
        # Controller state (guarded by _lock; persists across streams).
        self._lock = threading.Lock()
        self._controller: threading.Thread | None = None
        #: The attached controller's wake-up; replaced (None) to stop it.
        self._wake: threading.Event | None = None
        self._attached: Session | None = None
        self._controller_error: BaseException | None = None
        self.events: list[AdaptationEvent] = []

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
        self._wake = wake = threading.Event()
        session.add_close_callback(wake.set)
        self._controller_error = None
        self._controller = threading.Thread(
            target=self._controller_main,
            args=(session, wake),
            name="adaptive-controller",
            daemon=True,
        )
        self._controller.start()
        return session

    def detach(self) -> None:
        """Stop the control loop (the session keeps streaming unadapted)."""
        wake, self._wake = self._wake, None
        if wake is not None:
            wake.set()
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
        run_start_counts = tuple(self.backend.replica_counts())
        t0 = time.perf_counter()
        started = session.now()  # events are stamped on the session clock
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
        history += [
            (e.time - started, self._counts_of(e.mapping_after)) for e in run_events
        ]
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
        return tuple(len(mapping.replicas(i)) for i in range(self.pipeline.n_stages))

    # ------------------------------------------------------------ controller
    def _initial_mapping(self) -> Mapping:
        """Spread stages over virtual processors, honouring start replicas."""
        free = iter(range(self.n_virtual_procs))
        return Mapping(
            tuple(  # more replicas than procs: the rest share pid 0
                tuple(islice(free, count)) or (0,)
                for count in self.backend.replica_counts()
            )
        )

    def _throughput(self, session: Session, horizon: float) -> float:
        """Sink completions/s over the trailing ``horizon`` of this stream.

        The window never reaches back past the stream's start, and fewer
        than ``min_samples`` completions are no measurement: NaN, which the
        rollback check reads as "no verdict".
        """
        span = min(horizon, time.perf_counter() - session._stream_t0)
        rate = self.backend.recent_throughput(span)
        return rate if rate * span >= self.config.min_samples - 0.5 else math.nan

    def _record(self, session: Session, kind, before, after, reason, gain, tp, **fields):
        """Log one adaptation (or its rollback) and journal it; returns its time."""
        now = session.now()
        with self._lock:
            self.events.append(AdaptationEvent(now, kind, before, after, reason, gain, tp))
        topic = "adapt.rollback" if kind == "rollback" else "adapt.act"
        session.events.emit(topic, reason, action=kind, reason=reason, **fields)
        return now

    def _controller_main(self, session: Session, wake: threading.Event) -> None:
        watch = ServiceWatch(
            getattr(session.instrumentation, "stages", ()),
            wake.set,
            min_samples=self.config.min_samples,
            ratio=self.config.min_improvement,
        )
        try:
            self._control_loop(session, wake, watch)
        except BaseException as err:  # noqa: BLE001 - re-raised from run()
            self._controller_error = err
        finally:
            watch.close()

    def _wait(self, session, wake, watch, quiet_until, calm_until, validate_at):
        """The controller's one wait: why it woke, or None once it is over.

        Wakes for detach/close; for the watch's evidence, which a step or
        the first look may bring once ``quiet_until`` has passed and a
        drifted mean only after ``calm_until``; at the validation deadline
        of the last action; and after ``interval`` if none of those came.
        """
        tick_at = max(session.now() + self.config.interval, calm_until)
        while self._wake is wake and not (session.closed or session.broken):
            now = session.now()
            if now >= validate_at:
                return ("validate",)
            fired, hold = watch.fired, math.inf
            if fired is not None:
                # ("shift", ..., step=False) is a drifted mean; the rest is urgent.
                hold = calm_until if fired[-1] is False else quiet_until
                if now >= hold:
                    return watch.take()
            if now >= tick_at:
                return ("tick",)
            wake.wait(min(validate_at, tick_at, hold) - now)
            wake.clear()
        return None

    def _control_loop(self, session: Session, wake, watch: ServiceWatch) -> None:
        cfg = self.config
        mapping = self._initial_mapping()
        last_action = -math.inf
        quiet_until = calm_until = 0.0  # session times: no decision / only for a step
        pending: tuple | None = None  # the last action, until it is validated
        while trigger := self._wait(
            session, wake, watch, quiet_until, calm_until, pending[0] if pending else math.inf
        ):
            backlog = session.backlog
            if backlog <= 0:
                # Idle between streams: nothing to measure, move or judge.
                pending = None
                watch.arm()
                continue
            if trigger[0] == "validate":
                _, before_tp, old_counts, realized, old_mapping = pending
                pending = None
                after_tp = self._throughput(session, cfg.settle_time)
                if after_tp < before_tp * cfg.rollback_tolerance:  # NaN: no verdict
                    for i, (old_n, new_n) in enumerate(zip(old_counts, realized)):
                        if old_n != new_n:
                            self.backend.reconfigure(i, old_n)
                    now = self._record(
                        session, "rollback", mapping, old_mapping,
                        f"measured {after_tp:.3f}/s < "
                        f"{cfg.rollback_tolerance:.2f} x {before_tp:.3f}/s",
                        1.0, after_tp,
                        replicas_before=list(realized),
                        replicas_after=list(old_counts),
                        throughput_before=before_tp,
                        throughput_after=after_tp,
                    )
                    mapping = old_mapping
                    last_action = now + cfg.cooldown  # demand stronger evidence
                    quiet_until = calm_until = last_action + cfg.cooldown
                    watch.arm()
                    continue
            # The backend's measured view of the virtual grid, where it has one.
            measured_view = self.backend.resource_view(self.n_virtual_procs)
            snapshots = self.backend.snapshots()
            now = session.now()
            decision = self.policy.decide(
                now=now,
                current=mapping,
                snapshots=snapshots,
                view=measured_view if measured_view is not None else self._view,
                source_pid=0,
                sink_pid=0,
                remaining_items=backlog,
                last_action_time=last_action,
            )
            # The next shift is measured from the means this decision saw.
            means = [s.service_time for s in snapshots]
            watch.arm(means, self.backend.replica_counts())
            # A mean that keeps drifting is looked at once per cooldown; a
            # step is not made to wait, but however often stages step, saying
            # no takes at most a twentieth of one core.
            calm_until = now + cfg.cooldown
            quiet_until = now + 20 * (session.now() - now)
            session.events.emit(
                "adapt.decide",
                decision.reason,
                reason=decision.reason,
                acts=decision.acts,
                predicted_gain=decision.predicted_gain,
                backlog=backlog,
                **dict(zip(("trigger", "stage", "mean_before", "mean_after", "step"), trigger)),
            )
            if not decision.acts:
                continue
            old_counts = self.backend.replica_counts()
            # Backstop: clamp the proposal to what the warm pools can honour.
            limits = [self.backend.replica_limit(i) for i in range(self.pipeline.n_stages)]
            new_mapping = self._fit(decision.new_mapping, limits)
            new_counts = list(self._counts_of(new_mapping))
            if new_mapping == mapping or new_counts == old_counts:
                # Nothing physical would change (e.g. the proposal clamped
                # back to the current shape): an event or a validation would
                # fabricate an adaptation the backend never performed.
                continue
            before_tp = self._throughput(session, cfg.settle_time)
            for i, (old_n, new_n) in enumerate(zip(old_counts, new_counts)):
                if old_n != new_n:
                    self.backend.reconfigure(i, new_n)
            # Record what the backend *achieved*, not what was proposed — a
            # live grow can no-op, and the timeline must not claim replicas
            # that never existed.
            realized = self.backend.replica_counts()
            if realized == old_counts:
                continue
            new_mapping = self._fit(new_mapping, realized)
            watch.arm(means, realized)
            last_action = self._record(
                session,
                "replicate" if new_mapping.is_replicated() else "remap",
                mapping, new_mapping, decision.reason, decision.predicted_gain, before_tp,
                predicted_gain=decision.predicted_gain,
                replicas_before=list(old_counts),
                replicas_after=list(realized),
                throughput_before=before_tp,
            )
            quiet_until = calm_until = last_action + cfg.cooldown
            if self.rollback:
                # Judged like the simulator controller's actions: in-flight
                # items drain for one settle window, a second is measured.
                deadline = last_action + 2 * cfg.settle_time
                pending = (deadline, before_tp, old_counts, realized, mapping)
            mapping = new_mapping

    @staticmethod
    def _fit(mapping: Mapping, limits: Sequence[int]) -> Mapping:
        """Truncate each stage's replica set to ``limits[stage]``."""
        for i, limit in enumerate(limits):
            reps = mapping.replicas(i)
            if len(reps) > limit:
                mapping = mapping.with_stage(i, list(reps)[:limit])
        return mapping
