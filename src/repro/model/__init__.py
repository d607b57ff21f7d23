"""Analytic performance model of a pipeline on a grid.

The *decide* step of the adaptive pattern ranks candidate stage-to-processor
mappings without running them.  This package provides:

* :mod:`repro.model.mapping` — the :class:`Mapping` type (per-stage replica
  sets) and mapping enumeration;
* :mod:`repro.model.throughput` — steady-state throughput and latency
  prediction via bottleneck analysis with communication costs;
* :mod:`repro.model.optimizer` — exhaustive, greedy, dynamic-programming and
  local-search mapping optimisers, plus bottleneck-replication proposals;
* :mod:`repro.model.cost` — the migration-cost model used to decide whether
  a predicted improvement amortises the cost of acting on it.

The model is deliberately *mean-value*: it predicts steady-state behaviour
from per-stage mean work and link parameters.  Experiment E9 quantifies its
fidelity against the discrete-event simulator.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "cost": "MigrationCostModel",
        "mapping": "Mapping enumerate_mappings random_mapping",
        "optimizer": (
            "dp_contiguous_mapping exhaustive_best_mapping greedy_mapping "
            "local_search propose_replication"
        ),
        "throughput": (
            "ModelContext PipelinePrediction StageCost estimates_view predict "
            "snapshot_view"
        ),
    },
)
