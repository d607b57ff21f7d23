"""Observe→decide→act on *real* executors, with wall-clock measurements.

:class:`RuntimeAdaptiveRunner` drives the adaptation loop the simulator
drives in simulated time (:mod:`repro.core.adaptive`) — one
:class:`~repro.core.policy.Controller` — against a live **session**: it is
the one controller thread a :class:`~repro.backend.base.Session` owns
(``open_pipeline(adaptive=...)`` builds it), started when it is built and
stopped when the session closes, and its measurement window, cooldown and
mapping carry across every stream the session serves.  What lives here is
what the wall clock needs:

* **observe** — per-stage :class:`StageSnapshot` samples collected through
  :mod:`repro.monitor.instrument`.  The controller sleeps in one bounded
  wait that a :class:`~repro.monitor.instrument.ServiceWatch` on that hook
  ends: when every stage first has ``min_samples`` observations, and then
  when a stage's windowed service mean leaves the ``min_improvement`` band
  around the value the last decision saw.  ``interval`` is only the
  fallback timeout, ``cooldown`` the least time between two decisions
  after the first; closing the session ends the same wait at once;
* **decide** — :class:`~repro.core.policy.AdaptationPolicy` over a
  **virtual local grid** of one processor per warm-worker slot.
  ``backend.resource_view`` grounds it in measured speeds and link costs
  where the backend has them; uniform unit-speed processors
  (``work_estimate`` = measured service time) are the fallback.  Its
  replica cap is the smaller of the config's (if it names one) and
  ``backend.replica_limit``;
* **act** — the controller's port: the proposal clamped to the warm pools,
  its deltas as ``backend.reconfigure(stage, n)`` calls, the replica
  counts the backend realised as the result;
* **validate** — the controller's ``2 x settle_time`` deadline is one more
  deadline of the same wait (evidence still heard); its verdict and
  rollback are the simulator's, and ``rollback_tolerance=0`` takes none.

Every decision, action and rollback is an ``adapt.*`` record on the
session's bus.  A loop that raises poisons the session with its own error,
as a failing stage does with a ``StageError``: the next ``submit``,
``results`` or ``drain`` raises it, and ``session.error`` journals it.
"""

from __future__ import annotations

import math
import os
import threading
import time
from dataclasses import replace
from itertools import islice
from typing import Sequence

from repro.backend.base import Session
from repro.core.policy import AdaptationConfig, AdaptationPolicy, Controller
from repro.model.cost import MigrationCostModel
from repro.model.mapping import Mapping
from repro.model.throughput import ResourceView, snapshot_view
from repro.monitor.instrument import ServiceWatch

__all__ = ["RuntimeAdaptiveRunner", "local_config"]


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


class RuntimeAdaptiveRunner:
    """The live controller of one session (see the module docstring).

    Parameters
    ----------
    session:
        The open :class:`Session` to adapt.  The controller thread starts
        here and stops when the session closes; the backend is its owner's.
    config:
        Loop tunables; default :func:`local_config`.
    """

    def __init__(self, session: Session, *, config: AdaptationConfig | None = None) -> None:
        self.session = session
        self.backend = backend = session.backend
        n = backend.pipeline.n_stages
        budget = max(backend.replica_limit(i) for i in range(n))
        # One cap: the planner may use every replica the executor keeps
        # warm, and a smaller cap the caller configured still wins.
        config = config if config is not None else local_config()
        self.config = replace(config, max_replicas=min(config.max_replicas or budget, budget))
        # The virtual local grid the policy plans over: one processor per
        # stage plus the largest warm pool, and at least the host's cores.
        self.n_virtual_procs = max(n + budget - 1, os.cpu_count() or 2, 2)
        from repro.gridsim.spec import uniform_grid  # only a controller builds a grid

        self._view: ResourceView = snapshot_view(
            uniform_grid(self.n_virtual_procs).snapshot(0.0)
        )
        self._wake = threading.Event()
        self._thread = threading.Thread(
            target=self._controller_main, name="adaptive-controller", daemon=True
        )
        session.add_close_callback(self._stop)
        self._thread.start()

    def _stop(self) -> None:
        """Close callback: end the controller's wait and join it."""
        self._wake.set()
        self._thread.join(timeout=5.0)

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

    def _throughput(self, horizon: float) -> float:
        """Sink completions/s over the trailing ``horizon`` of this stream.

        The window never reaches back past the stream's start, and fewer
        than ``min_samples`` completions are no measurement: NaN, which the
        rollback check reads as "no verdict".
        """
        session = self.session
        span = min(horizon, time.perf_counter() - session._stream_t0)
        rate = session.instrumentation.recent_throughput(session.now(), span)
        return rate if rate * span >= self.config.min_samples - 0.5 else math.nan

    def _controller_main(self) -> None:
        session = self.session
        watch = ServiceWatch(
            session.instrumentation.stages,
            self._wake.set,
            locks=session._stage_locks,
            min_samples=self.config.min_samples,
            ratio=self.config.min_improvement,
        )
        try:
            self._control_loop(watch)
        except BaseException as err:  # noqa: BLE001 - the session raises it
            # A crashing decide step must not be silently swallowed: it
            # poisons the session, as a failing stage does.
            session._fail(None, err)
        finally:
            watch.close()

    def _wait(self, watch, quiet_until, calm_until, validate_at):
        """The controller's one wait: why it woke, or None once it is over.

        Wakes for close; for the watch's evidence, which a step or
        the first look may bring once ``quiet_until`` has passed and a
        drifted mean only after ``calm_until``; at the validation deadline
        of the last action; and after ``interval`` if none of those came.
        """
        session, wake = self.session, self._wake
        tick_at = max(session.now() + self.config.interval, calm_until)
        while not (session.closed or session.broken):
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

    def _control_loop(self, watch: ServiceWatch) -> None:
        session, cfg = self.session, self.config
        ctl = Controller(
            AdaptationPolicy(self.backend.pipeline, cfg), self._initial_mapping(),
            self._act, clock=session.now, throughput=self._throughput,
            horizon=cfg.settle_time, events=session.events,
        )
        quiet_until = calm_until = 0.0  # session times: no decision / only for a step
        while trigger := self._wait(watch, quiet_until, calm_until, ctl.due):
            backlog = session.backlog
            if backlog <= 0:
                # Idle between streams: nothing to measure, move or judge.
                ctl.pending = None
                watch.arm()
                continue
            if trigger[0] == "validate" and ctl.validate() is not None:
                quiet_until = calm_until = ctl.last_action + cfg.cooldown
                watch.arm()
                continue
            # The backend's measured view of the virtual grid, where it has one.
            measured_view = self.backend.resource_view(self.n_virtual_procs)
            snapshots = session.snapshots()
            now = session.now()
            acted = ctl.step(
                snapshots=snapshots,
                view=measured_view if measured_view is not None else self._view,
                source_pid=0, sink_pid=0, remaining=backlog,
                **dict(zip(("trigger", "stage", "mean_before", "mean_after", "step"), trigger)),
            )
            # The next shift is measured from the means this decision saw.
            watch.arm([s.service_time for s in snapshots], self.backend.replica_counts())
            if acted is not None:
                quiet_until = calm_until = ctl.last_action + cfg.cooldown
            else:
                # A mean that keeps drifting is looked at once per cooldown; a
                # step is not made to wait, but however often stages step,
                # saying no takes at most a twentieth of one core.
                calm_until = now + cfg.cooldown
                quiet_until = now + 20 * (session.now() - now)

    def _act(self, mapping: Mapping, _migration_s: float) -> Mapping | None:
        """The controller's act port: the mapping now running, or None.

        Activating a warm replica has no migration to wait for.  The
        proposal is clamped to what the warm pools can honour; one that
        would change nothing physical is not made (an event or a validation
        would fabricate an adaptation the backend never performed).  What is
        returned is what the backend *achieved* — a live grow can no-op, and
        the timeline must not claim replicas that never existed.
        """
        old = self.backend.replica_counts()
        mapping = self._fit(mapping, [self.backend.replica_limit(i) for i in range(len(old))])
        for i, (old_n, new_n) in enumerate(zip(old, map(len, mapping.stages))):
            if old_n != new_n:
                self.backend.reconfigure(i, new_n)
        realized = self.backend.replica_counts()
        return None if realized == old else self._fit(mapping, realized)

    @staticmethod
    def _fit(mapping: Mapping, limits: Sequence[int]) -> Mapping:
        """Truncate each stage's replica set to ``limits[stage]``."""
        return Mapping(tuple(reps[:n] for reps, n in zip(mapping.stages, limits)))
