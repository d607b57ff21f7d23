"""Workload generators: stage-cost distributions, scenarios, applications.

* :mod:`repro.workloads.cost_models` — the log-normal
  :class:`~repro.core.stage.WorkModel`, the one stochastic stage cost;
* :mod:`repro.workloads.synthetic` — pipeline builders (balanced, imbalanced
  profiles) used across tests and benchmarks;
* :mod:`repro.workloads.scenarios` — named grid scenarios: perturbation
  scripts (load steps, churn), heterogeneity ladders, Markov interference;
* :mod:`repro.workloads.apps` — realistic application pipelines (numpy image
  processing, k-mer counting, a simulated-latency fetch service) runnable on
  the real executors and mirrored as simulated cost models;
* :mod:`repro.workloads.payloads` — large-payload (megabytes/item) array
  pipelines where transport cost dominates, for the transport/zero-copy
  experiments (E17).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "cost_models": "LogNormalWork",
        "payloads": "array_pipeline make_arrays",
        "scenarios": (
            "PerturbationScenario heterogeneity_ladder load_step "
            "markov_load_factory node_churn"
        ),
        "synthetic": "balanced_pipeline imbalanced_pipeline stochastic_pipeline",
    },
)
