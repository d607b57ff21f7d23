"""Mapping optimisers: exhaustive, greedy, dynamic programming, local search.

Which optimiser the adaptive pipeline uses depends on instance size:

* **exhaustive** — provably best single-assignment mapping; cost
  ``|P|^S`` model evaluations, fine for the small instances of the mapping
  tables (3 stages × 3 processors = 27) and used as the ground truth that
  the cheaper optimisers are tested against;
* **greedy** — heaviest-stage-first list scheduling, O(S·P) evaluations;
* **dp_contiguous** — optimal *contiguous* grouping of stages onto an
  ordered processor subset (the classical chains-on-chains partitioning
  shape), O(S²·P) per processor order;
* **local_search** — hill-climbing repair of any starting mapping, used at
  adaptation time because it naturally minimises movement from the current
  mapping (fewer migrations for the same predicted throughput).

``propose_replication`` implements the farm-conversion decision: grow the
replica set of the bottleneck stage while the model predicts a worthwhile
gain.
"""

from __future__ import annotations

from typing import Sequence

from repro.model.mapping import Mapping, enumerate_mappings
from repro.model.throughput import ModelContext, PipelinePrediction, predict

__all__ = [
    "exhaustive_best_mapping",
    "greedy_mapping",
    "dp_contiguous_mapping",
    "local_search",
    "propose_replication",
]

#: The most improvement rounds local_search takes: its termination guard.
_MAX_ITERS = 200


def exhaustive_best_mapping(
    ctx: ModelContext, pids: Sequence[int] | None = None, max_mappings: int = 2_000_000
) -> PipelinePrediction:
    """Best single-assignment mapping by brute force (small instances)."""
    pids = list(pids) if pids is not None else ctx.view.pids()
    best: PipelinePrediction | None = None
    for m in enumerate_mappings(ctx.n_stages, pids, max_mappings=max_mappings):
        pred = predict(m, ctx)
        if best is None or pred.throughput > best.throughput:
            best = pred
    assert best is not None
    return best


def greedy_mapping(ctx: ModelContext, pids: Sequence[int] | None = None) -> PipelinePrediction:
    """Bottleneck-aware heaviest-stage-first list scheduling.

    Stages are placed in decreasing work order; each candidate processor is
    scored by the *resulting bottleneck period over all stages placed so
    far* (service times only — co-locating a new stage slows every stage
    already on that processor, which a share-myopic greedy misses and pays
    up to a factor-of-|P| for).  Communication is not considered during
    placement (second-order for compute-bound pipelines); the returned
    prediction of course includes it.
    """
    pids = list(pids) if pids is not None else ctx.view.pids()
    order = sorted(
        range(ctx.n_stages), key=lambda i: ctx.stage_costs[i].work, reverse=True
    )
    assignment: dict[int, int] = {}
    share: dict[int, int] = {p: 0 for p in pids}

    def bottleneck_with(stage: int, p: int) -> float:
        share_after = dict(share)
        share_after[p] += 1
        placed = list(assignment.items()) + [(stage, p)]
        return max(
            ctx.stage_costs[s].work * share_after[proc] / ctx.view.eff_speed(proc)
            for s, proc in placed
        )

    for i in order:
        best_p = min(pids, key=lambda p: bottleneck_with(i, p))
        assignment[i] = best_p
        share[best_p] += 1
    mapping = Mapping.single([assignment[i] for i in range(ctx.n_stages)])
    return predict(mapping, ctx)


def _block_time(ctx: ModelContext, lo: int, hi: int, pid: int, prev_pid: int) -> float:
    """Approximate period contribution of stages [lo, hi) fused on ``pid``.

    The block behaves like one server: per-item service is the summed work at
    full effective speed (the block owns the processor in this mapping
    family) plus the boundary transfer from the previous block's processor.
    """
    work = sum(ctx.stage_costs[i].work for i in range(lo, hi))
    svc = work / ctx.view.eff_speed(pid)
    in_bytes = ctx.input_bytes if lo == 0 else ctx.stage_costs[lo - 1].out_bytes
    lat, bw = ctx.view.link(prev_pid, pid)
    xfer = lat + (in_bytes / bw if in_bytes > 0 else 0.0)
    return svc + xfer


def dp_contiguous_mapping(ctx: ModelContext) -> PipelinePrediction:
    """Optimal contiguous partition of stages onto an ordered processor list.

    For each candidate processor order, a DP computes the partition of the
    stage sequence into at most ``len(order)`` contiguous blocks (block *j*
    hosted on the *j*-th processor of the order) minimising the bottleneck
    block time.  Two orders are tried: processors by descending effective
    speed, and ascending pid (stable/cheap).  Returns the best mapping found
    across orders, evaluated with the full model.
    """
    pids = ctx.view.pids()
    n = ctx.n_stages
    best: PipelinePrediction | None = None
    for order in (sorted(pids, key=ctx.view.eff_speed, reverse=True), sorted(pids)):
        order = order[: max(1, min(len(order), n))]
        k = len(order)
        INF = float("inf")
        # dp[i][j] = best bottleneck for stages[:i] on the first j processors,
        # with stage i-1 ending block j-1.  choice[i][j] = block start.
        dp = [[INF] * (k + 1) for _ in range(n + 1)]
        choice = [[-1] * (k + 1) for _ in range(n + 1)]
        dp[0][0] = 0.0
        for j in range(1, k + 1):
            pid = order[j - 1]
            prev_pid = ctx.source_pid if j == 1 else order[j - 2]
            for i in range(1, n + 1):
                # Block may be empty only by skipping the processor entirely,
                # which the j-loop upper bound handles; here blocks are >= 1.
                for m in range(i):
                    if dp[m][j - 1] == INF:
                        continue
                    bt = _block_time(ctx, m, i, pid, prev_pid)
                    cand = max(dp[m][j - 1], bt)
                    if cand < dp[i][j]:
                        dp[i][j] = cand
                        choice[i][j] = m
                # Alternatively stage prefix i may already be complete with
                # fewer blocks (leave remaining processors unused).
                if dp[i][j - 1] < dp[i][j]:
                    dp[i][j] = dp[i][j - 1]
                    choice[i][j] = -2  # marker: block j unused
        # Reconstruct the partition from the best final cell.
        j = min(range(1, k + 1), key=lambda jj: dp[n][jj])
        bounds: list[tuple[int, int, int]] = []  # (lo, hi, pid)
        i = n
        while i > 0 and j > 0:
            m = choice[i][j]
            if m == -2:
                j -= 1
                continue
            bounds.append((m, i, order[j - 1]))
            i = m
            j -= 1
        bounds.reverse()
        assignment = [0] * n
        for lo, hi, pid in bounds:
            for s in range(lo, hi):
                assignment[s] = pid
        pred = predict(Mapping.single(assignment), ctx)
        if best is None or pred.throughput > best.throughput:
            best = pred
    assert best is not None
    return best


def local_search(
    start: Mapping,
    ctx: ModelContext,
    *,
    pids: Sequence[int] | None = None,
) -> PipelinePrediction:
    """Lexicographic hill-climb: move one stage's whole replica set per step.

    A move is accepted when it strictly improves the predicted period, or —
    on a **plateau** — keeps the period while strictly reducing the
    processor-load imbalance (sum of squared loads).  The tie-breaker is
    what lets the search drain multi-bottleneck plateaus: with several
    processors tied at the bottleneck period, pure period-improvement is
    stuck, but balance-improving moves spread the load until replication or
    a further move can actually lower the period.

    Deterministic (first-improvement over a fixed move order), so adaptation
    decisions are reproducible.  Replicated stages are moved as a unit by
    re-homing their primary; replica-set *growth* is handled separately by
    :func:`propose_replication`.
    """
    pids = list(pids) if pids is not None else ctx.view.pids()
    current = predict(start, ctx)

    def better(cand: PipelinePrediction, cur: PipelinePrediction) -> bool:
        if cand.period < cur.period * (1.0 - 1e-9):
            return True
        if cand.period <= cur.period * (1.0 + 1e-9):
            return cand.load_imbalance < cur.load_imbalance * (1.0 - 1e-9)
        return False

    for _ in range(_MAX_ITERS):
        improved = False
        for stage in range(ctx.n_stages):
            reps = current.mapping.replicas(stage)
            for p in pids:
                if p in reps:
                    continue
                # Move: re-home the stage to processor p (dropping replicas —
                # the policy re-grows them if still worthwhile).
                cand_mapping = current.mapping.with_stage(stage, [p])
                cand = predict(cand_mapping, ctx)
                if better(cand, current):
                    current = cand
                    improved = True
                    break
            if improved:
                break
        if not improved:
            break
    return current


def propose_replication(
    mapping: Mapping,
    ctx: ModelContext,
    *,
    max_replicas: int = 4,
    min_gain: float = 1.10,
) -> PipelinePrediction:
    """Grow the bottleneck stage's replica set while the model predicts gain.

    Each iteration finds the current predicted bottleneck stage; if it is
    replicable and under the replica cap, the candidate processor giving the
    best predicted throughput is added.  Stops when the relative gain of the
    best single addition falls below ``min_gain``.
    """
    if min_gain < 1.0:
        raise ValueError(f"min_gain must be >= 1.0, got {min_gain}")
    current = predict(mapping, ctx)
    pids = ctx.view.pids()
    while True:
        stage = current.bottleneck_stage
        if stage < 0:  # sink transfer dominates; replication cannot help
            return current
        cost = ctx.stage_costs[stage]
        reps = current.mapping.replicas(stage)
        if not cost.replicable or len(reps) >= max_replicas:
            return current
        best_cand: PipelinePrediction | None = None
        for p in pids:
            if p in reps:
                continue
            cand = predict(current.mapping.with_stage(stage, list(reps) + [p]), ctx)
            if best_cand is None or cand.throughput > best_cand.throughput:
                best_cand = cand
        if best_cand is None or best_cand.throughput < current.throughput * min_gain:
            return current
        current = best_cand
