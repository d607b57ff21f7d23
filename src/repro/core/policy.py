"""The adaptation loop: when and how to adapt, and what came of it.

:class:`AdaptationPolicy` is the *decide* step, a pure function of its
inputs — instrumentation snapshots, monitor forecasts, the current mapping
— returning a :class:`~repro.core.events.Decision`.  All the guards that
keep adaptation from thrashing live here:

* **cooldown** — no decision within ``cooldown`` seconds of the last action;
* **evidence** — every stage must have ``min_samples`` recent service
  observations before its measured work is trusted (the spec's prior is used
  until then, and no action is taken on priors alone unless allowed);
* **improvement threshold** — predicted throughput must improve by at least
  ``min_improvement`` (a ratio, e.g. 1.15 = +15 %), the hysteresis that
  absorbs forecast noise;
* **amortisation** — the migration cost must be recovered by the per-item
  saving over the items still to process.

The candidate generator composes :func:`~repro.model.optimizer.local_search`
(re-homing) with :func:`~repro.model.optimizer.propose_replication`
(farm-conversion of the bottleneck stage), both driven by *measured* work
estimates and *forecast* resource availability — never ground truth.

:class:`Controller` is the caller that holds the loop's state and runs
observe → decide → act → validate → rollback on either clock: simulated
time (:mod:`repro.core.adaptive`) or a live session's (:mod:`repro.backend.runner`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.events import AdaptationEvent, Decision
from repro.core.pipeline import PipelineSpec
from repro.model.cost import MigrationCostModel
from repro.model.mapping import Mapping
from repro.model.optimizer import local_search, propose_replication
from repro.model.throughput import ModelContext, ResourceView, StageCost, predict
from repro.monitor.instrument import StageSnapshot
from repro.obs.events import NULL_BUS
from repro.util.validation import check_non_negative, check_positive

__all__ = ["AdaptationConfig", "AdaptationPolicy", "Controller", "resolve_policy"]


@dataclass(frozen=True)
class AdaptationConfig:
    """Tunables of the adaptation loop (defaults match the benchmarks)."""

    interval: float = 5.0  # seconds between policy evaluations
    min_improvement: float = 1.15  # predicted gain required to act
    cooldown: float = 10.0  # seconds after an action before the next
    min_samples: int = 3  # per-stage observations before acting
    max_replicas: int | None = 4  # replica cap per stage (None: the view's processors)
    enable_remap: bool = True
    enable_replication: bool = True
    rollback_tolerance: float = 0.85  # post-action throughput floor (x before); 0: no verdict
    settle_time: float = 5.0  # seconds before judging an action
    migration: MigrationCostModel = field(default_factory=MigrationCostModel)

    def __post_init__(self) -> None:
        check_positive(self.interval, "interval")
        check_positive(self.settle_time, "settle_time")
        check_non_negative(self.cooldown, "cooldown")
        if self.min_improvement < 1.0:
            raise ValueError(
                f"min_improvement is a ratio >= 1.0, got {self.min_improvement}"
            )
        if not 0.0 <= self.rollback_tolerance <= 1.0:
            raise ValueError(
                f"rollback_tolerance must be in [0, 1], got {self.rollback_tolerance}"
            )
        if self.min_samples < 1:
            raise ValueError(f"min_samples must be >= 1, got {self.min_samples}")
        if self.max_replicas is not None and self.max_replicas < 1:
            raise ValueError(f"max_replicas must be >= 1, got {self.max_replicas}")


class AdaptationPolicy:
    """Stateless decision logic (state like cooldown lives in the :class:`Controller`)."""

    def __init__(self, pipeline: PipelineSpec, config: AdaptationConfig) -> None:
        self.pipeline = pipeline
        self.config = config

    # -- helpers --------------------------------------------------------------
    def measured_works(self, snapshots: list[StageSnapshot]) -> dict[int, float]:
        """Per-stage work estimates from instrumentation (where trusted)."""
        works = {}
        for snap in snapshots:
            if (
                snap.items_processed >= self.config.min_samples
                and not math.isnan(snap.work_estimate)
                and snap.work_estimate > 0
            ):
                works[snap.stage_index] = snap.work_estimate
        return works

    def build_context(
        self,
        snapshots: list[StageSnapshot],
        view: ResourceView,
        source_pid: int,
        sink_pid: int,
    ) -> ModelContext:
        """Model context from measured work + forecast resources.

        Payload sizes follow the same measured-over-declared rule as work:
        where a backend recorded real per-stage byte counts (the process
        and distributed transports do), they override the spec's
        ``out_bytes``/``input_bytes`` priors, so link pricing reflects the
        payloads actually crossing the wire.
        """
        costs = list(self.pipeline.stage_costs(self.measured_works(snapshots)))
        input_bytes = self.pipeline.input_bytes
        for snap in snapshots:
            i = snap.stage_index
            if i == 0 and snap.bytes_in > 0:
                input_bytes = snap.bytes_in
            if 0 <= i < len(costs) and snap.bytes_out > 0:
                cost = costs[i]
                costs[i] = StageCost(
                    work=cost.work,
                    out_bytes=snap.bytes_out,
                    replicable=cost.replicable,
                    state_bytes=cost.state_bytes,
                )
        return ModelContext(
            stage_costs=tuple(costs),
            view=view,
            source_pid=source_pid,
            sink_pid=sink_pid,
            input_bytes=input_bytes,
        )

    # -- the decision ---------------------------------------------------------
    def decide(
        self,
        *,
        now: float,
        current: Mapping,
        snapshots: list[StageSnapshot],
        view: ResourceView,
        source_pid: int,
        sink_pid: int,
        remaining_items: int,
        last_action_time: float = -math.inf,
    ) -> Decision:
        """Evaluate the situation and return a :class:`Decision`."""
        cfg = self.config
        if now - last_action_time < cfg.cooldown:
            return Decision(None, reason="cooldown")
        if remaining_items <= 0:
            return Decision(None, reason="no-remaining-work")
        observed = sum(
            1 for s in snapshots if s.items_processed >= cfg.min_samples
        )
        if observed < len(snapshots):
            return Decision(None, reason="insufficient-samples")

        ctx = self.build_context(snapshots, view, source_pid, sink_pid)
        current_pred = predict(current, ctx)

        candidate = current_pred
        if cfg.enable_remap:
            candidate = local_search(candidate.mapping, ctx)
        if cfg.enable_replication:
            cap = cfg.max_replicas if cfg.max_replicas is not None else len(view.pids())
            candidate = propose_replication(
                candidate.mapping,
                ctx,
                max_replicas=cap,
                min_gain=1.02,
            )
        if candidate.mapping == current:
            return Decision(None, reason="already-optimal")

        gain = (
            candidate.throughput / current_pred.throughput
            if current_pred.throughput > 0
            else math.inf
        )
        if gain < cfg.min_improvement:
            return Decision(
                None,
                reason=f"below-threshold (x{gain:.3f} < x{cfg.min_improvement:.3f})",
                predicted_gain=gain,
            )
        migration_s = cfg.migration.estimate(current, candidate.mapping, ctx)
        if not cfg.migration.worthwhile(
            current_pred.period, candidate.period, migration_s, remaining_items
        ):
            return Decision(
                None,
                reason=f"migration-not-amortised ({migration_s:.2f}s)",
                predicted_gain=gain,
                migration_cost=migration_s,
            )
        moved = current.moved_stages(candidate.mapping)
        return Decision(
            candidate.mapping,
            reason=f"move stages {moved}: {current} -> {candidate.mapping}",
            predicted_gain=gain,
            migration_cost=migration_s,
        )


def resolve_policy(pipeline: PipelineSpec, config: AdaptationConfig | None, policy=None):
    """The ``(policy, config)`` a driver runs: ``policy`` overrides ``config``.

    ``(None, None)`` when neither is given: nothing adapts.
    """
    if policy is None and config is not None:
        policy = AdaptationPolicy(pipeline, config)
    return policy, None if policy is None else policy.config


class Controller:
    """One adaptation loop: observe → decide → act → validate → rollback.

    Pure: no clock, thread or executor of its own.  Its driver wakes it —
    the simulator every ``interval`` of simulated time, the live runner on
    evidence — and calls :meth:`step` with what it observed, then
    :meth:`validate` once :attr:`due` has passed.  It acts through one port,
    ``act(new_mapping, migration_s)``, which returns the mapping really
    running afterwards, or None when nothing changed.  ``clock()`` stamps
    its records; ``throughput(horizon)`` is the sink rate over a trailing
    horizon (NaN: too little to measure), read over ``horizon`` before an
    action and over ``settle_time`` to judge it, unless ``rollback_tolerance`` is 0.

    Every action and rollback is logged once, as an
    :class:`~repro.core.events.AdaptationEvent` appended to ``log`` and an
    ``adapt.act`` / ``adapt.rollback`` record on ``events``.
    """

    def __init__(
        self, policy, mapping: Mapping, act, *, clock, throughput, horizon: float,
        events=NULL_BUS, log: list[AdaptationEvent] | None = None,
    ) -> None:
        self.policy, self.config = policy, policy.config
        self.mapping = mapping  # the mapping it believes is running
        self.last_action = -math.inf
        #: The action awaiting its verdict: (due, throughput before, old
        #: mapping, migration_s), or None.
        self.pending: tuple | None = None
        self.log = [] if log is None else log
        self._act, self._clock, self._throughput = act, clock, throughput
        self._horizon, self._events = horizon, events

    @property
    def due(self) -> float:
        """When the pending action is judged (``inf`` when none is)."""
        return self.pending[0] if self.pending else math.inf

    def step(self, *, snapshots, view, source_pid, sink_pid, remaining, **fields):
        """Decide on what was observed and act; returns the action's event or None.

        ``remaining`` (the work left) is journalled as ``backlog``, and
        ``fields`` ride along on the ``adapt.decide`` record.
        """
        now = self._clock()
        decision = self.policy.decide(
            now=now, current=self.mapping, snapshots=snapshots, view=view,
            source_pid=source_pid, sink_pid=sink_pid, remaining_items=remaining,
            last_action_time=self.last_action,
        )
        gain = decision.predicted_gain
        self._events.emit(
            "adapt.decide", decision.reason, at=now, reason=decision.reason,
            acts=decision.acts, predicted_gain=gain, backlog=remaining, **fields,
        )
        if not decision.acts:
            return None
        before_tp, old = self._throughput(self._horizon), self.mapping
        event = self._apply(
            decision.new_mapping, decision.migration_cost, decision.reason, gain,
            before_tp, predicted_gain=gain, throughput_before=before_tp,
        )
        if event is not None:
            self.last_action = event.time
            if self.config.rollback_tolerance > 0:
                # Judged after two settle windows: in-flight items started on
                # the old replicas drain for one, the second is measured.
                due = event.time + 2 * self.config.settle_time
                self.pending = (due, before_tp, old, decision.migration_cost)
        return event

    def validate(self):
        """Judge the pending action; returns the rollback's event, or None if it stands."""
        cfg = self.config
        _, before_tp, old, migration_s = self.pending
        self.pending = None
        after_tp = self._throughput(cfg.settle_time)
        if not after_tp < before_tp * cfg.rollback_tolerance:  # NaN: no verdict
            return None
        reason = f"measured {after_tp:.3f}/s < {cfg.rollback_tolerance:.2f} x {before_tp:.3f}/s"
        event = self._apply(
            old, migration_s, reason, 1.0, after_tp, kind="rollback",
            throughput_before=before_tp, throughput_after=after_tp,
        )
        if event is not None:
            # The model was wrong here: the next action waits a doubled cooldown.
            self.last_action = event.time + cfg.cooldown
        return event

    def _apply(self, target, migration_s, reason, gain, tp, kind=None, **fields):
        """Act through the port; log and journal the mapping it realised."""
        realised = self._act(target, migration_s)
        if realised is None:
            return None
        before, self.mapping = self.mapping, realised
        kind = kind or ("replicate" if realised.is_replicated() else "remap")
        event = AdaptationEvent(self._clock(), kind, before, realised, reason, gain, tp)
        self.log.append(event)
        self._events.emit(
            "adapt.rollback" if kind == "rollback" else "adapt.act", reason,
            at=event.time, action=kind, reason=reason, **fields,
            replicas_before=list(map(len, before.stages)),
            replicas_after=list(map(len, realised.stages)),
        )
        return event
