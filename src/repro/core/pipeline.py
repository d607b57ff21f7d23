"""Pipeline composition: an ordered sequence of stages.

This is the eSkel ``Pipeline1for1`` contract: every stage consumes exactly
one input and produces exactly one output, so the pipeline as a whole maps
its input sequence to an equal-length, order-preserved output sequence.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.stage import StageSpec
from repro.model.throughput import StageCost
from repro.util.validation import check_non_negative

__all__ = ["PipelineSpec"]


@dataclass(frozen=True)
class PipelineSpec:
    """An ordered, immutable pipeline definition.

    ``input_bytes`` is the size of one raw input item (charged on the
    transfer from the source location into the first stage).
    """

    stages: tuple[StageSpec, ...]
    input_bytes: float = 0.0
    name: str = "pipeline"

    def __post_init__(self) -> None:
        if not self.stages:
            raise ValueError("a pipeline needs at least one stage")
        check_non_negative(self.input_bytes, "input_bytes")
        names = [s.name for s in self.stages]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate stage names: {names}")

    @property
    def n_stages(self) -> int:
        return len(self.stages)

    def stage(self, i: int) -> StageSpec:
        return self.stages[i]

    def stage_costs(
        self, measured_works: dict[int, float] | None = None
    ) -> tuple[StageCost, ...]:
        """Model-facing costs, optionally overridden by measured work."""
        measured_works = measured_works or {}
        return tuple(
            spec.cost(measured_works.get(i)) for i, spec in enumerate(self.stages)
        )

    def with_stage(self, i: int, spec: StageSpec) -> "PipelineSpec":
        stages = list(self.stages)
        stages[i] = spec
        return PipelineSpec(tuple(stages), input_bytes=self.input_bytes, name=self.name)

    def __str__(self) -> str:
        inner = " -> ".join(s.name for s in self.stages)
        return f"{self.name}[{inner}]"
