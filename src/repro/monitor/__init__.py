"""Resource monitoring and forecasting (the NWS-like substrate).

The adaptive pipeline cannot read ground truth: it must *measure*.  This
package supplies:

* :mod:`repro.monitor.forecasters` — one-step-ahead predictors and the
  Network-Weather-Service-style :class:`EnsembleForecaster` that dynamically
  selects the predictor with the lowest running error.
* :mod:`repro.monitor.resource_monitor` — periodic (noisy) sampling of
  processor availability and link performance inside a simulation.
* :mod:`repro.monitor.instrument` — stage-level instrumentation: windowed
  service times, work estimates and payload sizes, the completion record;
  the *observe* step of the pattern, and :class:`ServiceWatch`, the change
  detector that wakes a live controller.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "forecasters": (
            "EnsembleForecaster ExponentialSmoothingForecaster Forecaster "
            "LastValueForecaster RunningMeanForecaster SlidingMeanForecaster "
            "SlidingMedianForecaster default_ensemble"
        ),
        "instrument": "PipelineInstrumentation ServiceWatch StageMetrics StageSnapshot",
        "resource_monitor": "ResourceEstimates ResourceMonitor",
    },
)
