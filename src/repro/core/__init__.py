"""The adaptive parallel pipeline pattern — the paper's contribution.

Layering (mirrors the observe → decide → act loop):

* :mod:`repro.core.stage` / :mod:`repro.core.pipeline` — what the
  application programmer writes: ordered stage definitions with work models
  (simulation) and/or callables (local execution).
* :mod:`repro.core.executor_sim` — executes a pipeline on a simulated grid
  under a given :class:`~repro.model.mapping.Mapping`, with live
  reconfiguration (re-mapping and replication) that never loses or reorders
  delivered items.
* :mod:`repro.core.policy` — the *decide* step: turns instrumentation and
  resource forecasts into re-mapping/replication decisions, guarded by
  improvement thresholds, cooldowns and migration-cost amortisation.
* :mod:`repro.core.adaptive` — :class:`AdaptivePipeline`, the user-facing
  runner tying monitor + policy + executor together; also the static
  baseline (the same runner with adaptation disabled).
* :mod:`repro.core.events` — adaptation events and the :class:`RunResult`
  returned by every run.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "adaptive": "AdaptivePipeline run_static",
        "events": "AdaptationEvent Decision RunResult",
        "executor_sim": "SimPipelineEngine",
        "pipeline": "PipelineSpec",
        "policies_alt": "ReactivePolicy",
        "policy": "AdaptationConfig AdaptationPolicy",
        "stage": "FixedWork StageSpec WorkModel",
    },
)
