"""Resource monitoring and forecasting (the NWS-like substrate).

The adaptive pipeline cannot read ground truth: it must *measure*.  This
package supplies:

* :mod:`repro.monitor.samples` — timestamped measurement streams with
  windowed queries.
* :mod:`repro.monitor.forecasters` — one-step-ahead predictors and the
  Network-Weather-Service-style :class:`EnsembleForecaster` that dynamically
  selects the predictor with the lowest running error.
* :mod:`repro.monitor.resource_monitor` — periodic (noisy) sampling of
  processor availability and link performance inside a simulation.
* :mod:`repro.monitor.instrument` — stage-level instrumentation: service
  times, transfer times, queue occupancy; the *observe* step of the pattern,
  and :class:`ServiceWatch`, the change detector that wakes a live controller.
"""

from repro.monitor.forecasters import (
    EnsembleForecaster,
    ExponentialSmoothingForecaster,
    Forecaster,
    LastValueForecaster,
    RunningMeanForecaster,
    SlidingMeanForecaster,
    SlidingMedianForecaster,
    default_ensemble,
)
from repro.monitor.instrument import (
    PipelineInstrumentation,
    ServiceWatch,
    StageMetrics,
    StageSnapshot,
)
from repro.monitor.resource_monitor import ResourceEstimates, ResourceMonitor
from repro.monitor.samples import MeasurementStream

__all__ = [
    "EnsembleForecaster",
    "ExponentialSmoothingForecaster",
    "Forecaster",
    "LastValueForecaster",
    "MeasurementStream",
    "PipelineInstrumentation",
    "ResourceEstimates",
    "ResourceMonitor",
    "RunningMeanForecaster",
    "ServiceWatch",
    "SlidingMeanForecaster",
    "SlidingMedianForecaster",
    "StageMetrics",
    "StageSnapshot",
    "default_ensemble",
]
