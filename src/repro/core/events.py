"""Adaptation decisions, events and run results."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.model.mapping import Mapping

__all__ = ["Decision", "AdaptationEvent", "RunResult"]


@dataclass(frozen=True)
class Decision:
    """Outcome of one policy evaluation.

    ``new_mapping is None`` means "stay put"; ``reason`` explains either
    choice ("cooldown", "below-threshold", "remap stage 2 -> proc 5", ...).
    ``predicted_gain`` is the model's throughput ratio new/current (1.0 when
    staying).
    """

    new_mapping: Mapping | None
    reason: str
    predicted_gain: float = 1.0
    migration_cost: float = 0.0

    @property
    def acts(self) -> bool:
        return self.new_mapping is not None


@dataclass(frozen=True)
class AdaptationEvent:
    """One actuated (or rolled-back) adaptation, for timelines and reports."""

    time: float
    kind: str  # "remap" | "replicate" | "rollback"
    mapping_before: Mapping
    mapping_after: Mapping
    reason: str
    predicted_gain: float
    throughput_before: float  # measured, items/s (NaN if unknown)

    def __str__(self) -> str:
        return (
            f"t={self.time:.2f} {self.kind}: {self.mapping_before} -> "
            f"{self.mapping_after} ({self.reason}, predicted x{self.predicted_gain:.2f})"
        )


@dataclass
class RunResult:
    """Everything a pipeline run produced.

    ``completion_times`` are sink-side item completion instants (simulated
    seconds), in output order; ``latencies`` align with them.  The mapping
    history starts with the initial mapping at t=0.
    """

    n_items: int
    completion_times: list[float]
    latencies: list[float]
    adaptation_events: list[AdaptationEvent]
    mapping_history: list[tuple[float, Mapping]]
    end_time: float
    output_seqs: list[int] = field(default_factory=list)

    @property
    def items_completed(self) -> int:
        return len(self.completion_times)

    @property
    def completed_all(self) -> bool:
        return self.items_completed == self.n_items

    @property
    def makespan(self) -> float:
        """Time of the last completion (NaN when nothing completed)."""
        return self.completion_times[-1] if self.completion_times else math.nan

    @property
    def final_mapping(self) -> Mapping:
        return self.mapping_history[-1][1]

    def throughput(self) -> float:
        """Overall items/s from t=0 to the last completion."""
        if not self.completion_times or self.completion_times[-1] <= 0:
            return 0.0
        return len(self.completion_times) / self.completion_times[-1]

    def steady_throughput(self, skip_fraction: float = 0.25) -> float:
        """Items/s ignoring the pipeline-fill transient.

        Drops the first ``skip_fraction`` of completions and rates the rest
        over their time span — the number comparable to the analytic model's
        steady-state prediction.
        """
        if not 0.0 <= skip_fraction < 1.0:
            raise ValueError(f"skip_fraction must be in [0, 1), got {skip_fraction}")
        n = len(self.completion_times)
        k = int(n * skip_fraction)
        rest = self.completion_times[k:]
        if len(rest) < 2:
            return self.throughput()
        span = rest[-1] - rest[0]
        if span <= 0:
            return math.inf
        return (len(rest) - 1) / span

    def throughput_series(self, dt: float) -> tuple[list[float], list[float]]:
        """Windowed throughput: (window end times, items/s per window)."""
        if dt <= 0:
            raise ValueError(f"dt must be > 0, got {dt}")
        if not self.completion_times:
            return [], []
        end = self.end_time
        edges = np.arange(dt, end + dt, dt)
        counts, _ = np.histogram(self.completion_times, bins=np.concatenate([[0.0], edges]))
        return edges.tolist(), (counts / dt).tolist()

    def in_order(self) -> bool:
        """Did outputs leave in input order (the 1-for-1 contract)?"""
        return self.output_seqs == sorted(self.output_seqs)
