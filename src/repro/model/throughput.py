"""Steady-state pipeline performance prediction.

The model mirrors the simulator's execution semantics (see
``repro.core.executor_sim``): each stage replica is a sequential server whose
per-item cycle is *receive transfer + service*; replicas of a stage serve in
parallel; stages co-located on one processor contend for its CPU; the sink
serialises final-output transfers.

Steady-state throughput is computed from two families of bounds on the
pipeline period (seconds per item), taking the largest:

* **processor bound** — every item visits every stage, so processor ``p``
  must spend ``Σ_i f_{i,p} · w_i / eff(p)`` CPU seconds per item, where
  ``f_{i,p}`` is the fraction of the stream stage ``i``'s replica on ``p``
  handles (1 for unreplicated stages);
* **replica serial bound** — a replica is a sequential server: its share of
  the stream costs ``f_{i,p} · (x̄_in(i,p) + w_i / eff(p))`` per item
  (receive transfer + uncontended service);
* **sink bound** — the sink pays the final transfer per item, serially.

Replica stream fractions ``f_{i,p}`` are set rate-proportionally (a faster
replica pulls more items off the shared FIFO channel), estimated from the
contention-inclusive cycle ``x̄_in + w_i · share(p) / eff(p)``.

Approximations (validated in experiment E9):

* *mean-value* — stochastic service-time distributions enter only through
  their means; queueing/blocking second-order effects are ignored;
* transfers into a replica are averaged over upstream replicas, weighted by
  the upstream stream fractions;
* the FIFO channel's self-balancing of replica loads is approximated by the
  rate-proportional fractions rather than solved exactly (an LP would give
  the true optimum; FIFO tracks the proportional split closely).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.model.mapping import Mapping
from repro.util.validation import check_non_negative

if TYPE_CHECKING:
    from repro.gridsim.grid import GridSnapshot
    from repro.monitor.resource_monitor import ResourceEstimates

__all__ = [
    "StageCost",
    "ModelContext",
    "PipelinePrediction",
    "ResourceView",
    "fn_view",
    "snapshot_view",
    "estimates_view",
    "predict",
]


@dataclass(frozen=True)
class StageCost:
    """What the model needs to know about one stage.

    ``work`` — mean work units per item (1 unit = 1 second on an unloaded
    reference processor of speed 1.0).
    ``out_bytes`` — bytes sent downstream per item.
    ``replicable`` — stateless stages may be replicated; stateful may not.
    ``state_bytes`` — size of migratable stage state (for migration cost).
    """

    work: float
    out_bytes: float = 0.0
    replicable: bool = True
    state_bytes: float = 0.0

    def __post_init__(self) -> None:
        check_non_negative(self.work, "work")
        check_non_negative(self.out_bytes, "out_bytes")
        check_non_negative(self.state_bytes, "state_bytes")


class ResourceView:
    """Uniform resource interface over ground truth or monitor estimates."""

    def eff_speed(self, pid: int) -> float:
        """Effective work-units/second of a processor."""
        raise NotImplementedError

    def link(self, a: int, b: int) -> tuple[float, float]:
        """(latency_s, bandwidth_Bps) for the ``a``→``b`` pair."""
        raise NotImplementedError

    def pids(self) -> list[int]:
        raise NotImplementedError


class _FnView(ResourceView):
    def __init__(
        self,
        eff: Callable[[int], float],
        link: Callable[[int, int], tuple[float, float]],
        pids: list[int],
    ) -> None:
        self._eff = eff
        self._link = link
        self._pids = pids

    def eff_speed(self, pid: int) -> float:
        return self._eff(pid)

    def link(self, a: int, b: int) -> tuple[float, float]:
        return self._link(a, b)

    def pids(self) -> list[int]:
        return list(self._pids)


def fn_view(
    eff: Callable[[int], float],
    link: Callable[[int, int], tuple[float, float]],
    pids: list[int],
) -> ResourceView:
    """A :class:`ResourceView` from plain callables.

    The seam real backends use to describe their measured world (host load,
    socket transfer times) to the planner without a simulated grid.
    """
    return _FnView(eff=eff, link=link, pids=pids)


def snapshot_view(snap: GridSnapshot) -> ResourceView:
    """Ground-truth view from a :class:`GridSnapshot` (oracle experiments)."""
    return _FnView(
        eff=lambda pid: snap.effective_speed[pid],
        link=lambda a, b: snap.links[(a, b)],
        pids=sorted(snap.speed),
    )


def estimates_view(
    est: ResourceEstimates, nominal_speeds: dict[int, float]
) -> ResourceView:
    """Monitor-forecast view — what the adaptive pipeline actually uses."""
    return _FnView(
        eff=lambda pid: nominal_speeds[pid] * est.availability[pid],
        link=lambda a, b: (est.latency[(a, b)], est.bandwidth[(a, b)]),
        pids=sorted(nominal_speeds),
    )


@dataclass(frozen=True)
class ModelContext:
    """Everything needed to evaluate a mapping: stages + resources + endpoints.

    ``source_pid``/``sink_pid`` locate the input producer and output consumer
    (the "user" in the grid-scheduling tables); ``input_bytes`` is the size
    of one raw input item.
    """

    stage_costs: tuple[StageCost, ...]
    view: ResourceView
    source_pid: int
    sink_pid: int
    input_bytes: float = 0.0

    def __post_init__(self) -> None:
        if not self.stage_costs:
            raise ValueError("model context needs at least one stage")
        check_non_negative(self.input_bytes, "input_bytes")

    @property
    def n_stages(self) -> int:
        return len(self.stage_costs)


@dataclass(frozen=True)
class PipelinePrediction:
    """Model output for one mapping."""

    mapping: Mapping
    period: float
    throughput: float
    latency: float
    bottleneck_stage: int  # -1 means the sink transfer dominates
    stage_periods: tuple[float, ...] = field(default=())
    sink_transfer: float = 0.0
    # (pid, CPU-seconds per item) per used processor, sorted by pid.
    proc_loads: tuple[tuple[int, float], ...] = field(default=())

    @property
    def load_imbalance(self) -> float:
        """Sum of squared processor loads — the plateau tie-breaker.

        Two mappings with equal bottleneck period can differ in how much
        slack they leave: spreading load lowers this metric and opens the
        door to subsequent replication (see ``local_search``).
        """
        return sum(load * load for _, load in self.proc_loads)


def _transfer_time(view: ResourceView, a: int, b: int, nbytes: float) -> float:
    lat, bw = view.link(a, b)
    return lat + (nbytes / bw if nbytes > 0 else 0.0)


def predict(mapping: Mapping, ctx: ModelContext) -> PipelinePrediction:
    """Predict steady-state performance of ``mapping`` under ``ctx``.

    Raises ``ValueError`` if the mapping's stage count disagrees with the
    context or a non-replicable stage is replicated.
    """
    if mapping.n_stages != ctx.n_stages:
        raise ValueError(
            f"mapping covers {mapping.n_stages} stages, context has {ctx.n_stages}"
        )
    view = ctx.view
    share = mapping.share_counts()
    latency = 0.0
    proc_cpu: dict[int, float] = {}  # CPU seconds per pipeline item
    # Per-stage serial bound (max over that stage's replicas) — also the
    # per-stage quantity reported in PipelinePrediction.stage_periods.
    stage_periods: list[float] = []
    # Contribution of each stage to each processor's CPU bound, used to
    # attribute a processor-bound bottleneck to a stage.
    contribution: dict[tuple[int, int], float] = {}

    # Upstream stream fractions: pid -> fraction of items produced there.
    upstream: dict[int, float] = {ctx.source_pid: 1.0}
    in_bytes = ctx.input_bytes
    for i, cost in enumerate(ctx.stage_costs):
        reps = mapping.replicas(i)
        if len(reps) > 1 and not cost.replicable:
            raise ValueError(f"stage {i} is stateful and cannot be replicated")
        # Receive transfer per replica, weighted by upstream fractions.
        xfer_in = {
            p: sum(
                fq * _transfer_time(view, q, p, in_bytes)
                for q, fq in upstream.items()
            )
            for p in reps
        }
        # Rate-proportional stream fractions from contention-inclusive cycles.
        cycle = {
            p: xfer_in[p] + cost.work * share[p] / view.eff_speed(p) for p in reps
        }
        inv = {p: (1.0 / c if c > 0 else math.inf) for p, c in cycle.items()}
        if any(math.isinf(v) for v in inv.values()):
            # Zero-cost stage: split uniformly, bounds below come out 0.
            f = {p: 1.0 / len(reps) for p in reps}
        else:
            total = sum(inv.values())
            f = {p: inv[p] / total for p in reps}
        serial = 0.0
        for p in reps:
            svc = cost.work / view.eff_speed(p)
            serial = max(serial, f[p] * (xfer_in[p] + svc))
            proc_cpu[p] = proc_cpu.get(p, 0.0) + f[p] * svc
            contribution[(i, p)] = f[p] * svc
        stage_periods.append(serial)
        latency += sum(f[p] * cycle[p] for p in reps)
        upstream = f
        in_bytes = cost.out_bytes

    sink_xfer = sum(
        fq * _transfer_time(view, q, ctx.sink_pid, in_bytes)
        for q, fq in upstream.items()
    )
    latency += sink_xfer

    period = max(stage_periods) if stage_periods else 0.0
    bottleneck = int(max(range(len(stage_periods)), key=lambda i: stage_periods[i]))
    if proc_cpu:
        worst_proc = max(proc_cpu, key=proc_cpu.get)
        if proc_cpu[worst_proc] > period:
            period = proc_cpu[worst_proc]
            # Attribute to the stage contributing most CPU on that processor.
            bottleneck = max(
                (i for i in range(ctx.n_stages) if (i, worst_proc) in contribution),
                key=lambda i: contribution[(i, worst_proc)],
            )
    if sink_xfer > period:
        period = sink_xfer
        bottleneck = -1
    throughput = 1.0 / period if period > 0 else float("inf")
    return PipelinePrediction(
        mapping=mapping,
        period=period,
        throughput=throughput,
        latency=latency,
        bottleneck_stage=bottleneck,
        stage_periods=tuple(stage_periods),
        sink_transfer=sink_xfer,
        proc_loads=tuple(sorted(proc_cpu.items())),
    )
