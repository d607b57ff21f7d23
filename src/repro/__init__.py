"""repro — An Adaptive Parallel Pipeline Pattern for Grids (IPDPS 2008).

A from-scratch reproduction of the adaptive pipeline skeleton of
Gonzalez-Velez & Cole, including every substrate it needs: a discrete-event
grid simulator, an NWS-style monitoring/forecasting layer, an analytic
mapping model with optimisers, and the observe-decide-act adaptation engine.
The real executors behind the same skeleton are documented under ``docs/``
(``backends.md`` first).

Quickstart::

    from repro import (AdaptationConfig, AdaptivePipeline, Mapping,
                       balanced_pipeline, uniform_grid)

    grid = uniform_grid(4)
    grid.perturb(1, [(20.0, 0.1)])          # node 1 degrades at t=20 s
    pipe = balanced_pipeline(3, work=0.1)
    runner = AdaptivePipeline(pipe, grid, config=AdaptationConfig(),
                              initial_mapping=Mapping.single([0, 1, 2]))
    result = runner.run(1000)
    print(result.throughput(), result.adaptation_events)
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, _exports = lazy_exports(
    __name__,
    {
        "backend": (
            "Backend BackendResult ProcessPoolBackend RuntimeAdaptiveRunner "
            "RuntimeRunResult ThreadBackend available_backends local_config "
            "make_backend"
        ),
        "core": (
            "AdaptationConfig AdaptationEvent AdaptationPolicy AdaptivePipeline "
            "FixedWork PipelineSpec RunResult StageSpec run_static"
        ),
        "gridsim": (
            "GridSpec GridSystem SiteSpec heterogeneous_grid two_site_grid "
            "uniform_grid"
        ),
        "model": "Mapping ModelContext StageCost predict",
        "skel": "open_pipeline pipeline_1for1 simulate_pipeline",
        "workloads": (
            "balanced_pipeline heterogeneity_ladder imbalanced_pipeline load_step "
            "stochastic_pipeline"
        ),
    },
)
__all__ = [*_exports, "__version__"]
