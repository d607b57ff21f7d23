"""Alternative adaptation policies for the policy ablation (E11).

The model-driven :class:`~repro.core.policy.AdaptationPolicy` is the paper's
approach.  To quantify what the model buys, the ablation compares it
against:

* :class:`ReactivePolicy` — the model-free baseline a pragmatic grid user
  would write: watch the bottleneck stage's measured service time; when it
  exceeds its own historical baseline by a trigger factor, move that stage
  to the processor with the best forecast availability.  No throughput
  model, no replication, no amortisation reasoning.
* an **oracle** variant of the model-driven policy (ground-truth resource
  view instead of monitor forecasts), wired up through
  ``AdaptivePipeline(view_source="oracle")`` — the upper bound on what any
  monitor-fed policy could decide.

Both implement the same ``decide(...)`` signature as
:class:`AdaptationPolicy`, so the controller treats them uniformly.
"""

from __future__ import annotations

import math

from repro.core.events import Decision
from repro.core.pipeline import PipelineSpec
from repro.core.policy import AdaptationConfig
from repro.model.mapping import Mapping
from repro.model.throughput import ResourceView
from repro.monitor.instrument import StageSnapshot

__all__ = ["ReactivePolicy"]


class ReactivePolicy:
    """Threshold-reactive re-mapping without a performance model.

    State: remembers the best (lowest) bottleneck service time seen so far
    as the baseline.  When the current bottleneck stage's windowed service
    time exceeds ``TRIGGER × baseline``, the stage is moved to the processor
    with the highest forecast effective speed that is not already hosting
    it.  Cooldown and min-samples guards mirror the model-driven policy so
    the ablation isolates the *decision quality*, not the guard rails.
    """

    #: How far over its baseline the bottleneck's service time must be.
    TRIGGER = 1.5

    def __init__(self, pipeline: PipelineSpec, config: AdaptationConfig) -> None:
        self.pipeline = pipeline
        self.config = config
        self._baseline: dict[int, float] = {}

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
        cfg = self.config
        if now - last_action_time < cfg.cooldown:
            return Decision(None, reason="cooldown")
        if remaining_items <= 0:
            return Decision(None, reason="no-remaining-work")
        usable = [
            s
            for s in snapshots
            if s.items_processed >= cfg.min_samples and not math.isnan(s.service_time)
        ]
        if len(usable) < len(snapshots):
            return Decision(None, reason="insufficient-samples")

        # Update baselines with the best service time ever observed.
        for s in usable:
            prev = self._baseline.get(s.stage_index, math.inf)
            if s.service_time < prev:
                self._baseline[s.stage_index] = s.service_time

        bottleneck = max(usable, key=lambda s: s.service_time)
        baseline = self._baseline.get(bottleneck.stage_index, math.inf)
        if not math.isfinite(baseline) or bottleneck.service_time < self.TRIGGER * baseline:
            return Decision(None, reason="below-trigger")

        # Move the bottleneck stage to the fastest-looking idle processor.
        stage = bottleneck.stage_index
        hosts = set(current.replicas(stage))
        candidates = [p for p in view.pids() if p not in hosts]
        if not candidates:
            return Decision(None, reason="no-candidate-processor")
        share = current.share_counts()
        target = max(
            candidates, key=lambda p: view.eff_speed(p) / (share.get(p, 0) + 1)
        )
        new_mapping = current.with_stage(stage, [target])
        return Decision(
            new_mapping,
            reason=(
                f"reactive: stage {stage} service "
                f"{bottleneck.service_time:.3f}s > {self.TRIGGER:.1f}x baseline "
                f"{baseline:.3f}s, move to proc {target}"
            ),
            predicted_gain=math.nan,  # reactive policies do not predict
        )
