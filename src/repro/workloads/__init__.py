"""Workload generators: stage-cost distributions, scenarios, applications.

* :mod:`repro.workloads.cost_models` — stochastic :class:`~repro.core.stage.
  WorkModel` implementations (exponential, log-normal, Pareto, bimodal, ...);
* :mod:`repro.workloads.synthetic` — pipeline builders (balanced, imbalanced
  profiles) used across tests and benchmarks;
* :mod:`repro.workloads.scenarios` — named grid scenarios: perturbation
  scripts, heterogeneity ladders, non-dedicated load mixes;
* :mod:`repro.workloads.apps` — realistic application pipelines (numpy image
  processing, text analytics, k-mer counting) runnable on the thread runtime
  and mirrored as simulated cost models;
* :mod:`repro.workloads.payloads` — large-payload (megabytes/item) array
  pipelines where transport cost dominates, for the transport/zero-copy
  experiments (E17).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "cost_models": (
            "BimodalWork EmpiricalWork ExponentialWork LogNormalWork "
            "ParetoWork UniformWork"
        ),
        "payloads": "array_pipeline make_arrays",
        "scenarios": (
            "PerturbationScenario diurnal_load_factory flash_crowd "
            "heterogeneity_ladder load_step markov_load_factory node_churn "
            "random_walk_load_factory"
        ),
        "synthetic": "balanced_pipeline imbalanced_pipeline stochastic_pipeline",
    },
)
