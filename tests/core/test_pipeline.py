"""Tests for pipeline specs."""

import pytest

from repro.core.pipeline import PipelineSpec
from repro.core.stage import StageSpec


def make_pipe(works=(0.1, 0.2, 0.3)):
    return PipelineSpec(
        tuple(StageSpec(name=f"s{i}", work=w) for i, w in enumerate(works))
    )


class TestPipelineSpec:
    def test_basic(self):
        p = make_pipe()
        assert p.n_stages == 3
        assert p.stage(1).name == "s1"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            PipelineSpec(())

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            PipelineSpec((StageSpec(name="x", work=0.1), StageSpec(name="x", work=0.1)))

    def test_negative_input_bytes_rejected(self):
        with pytest.raises(ValueError):
            PipelineSpec((StageSpec(name="a", work=0.1),), input_bytes=-1)

    def test_stage_costs_defaults(self):
        costs = make_pipe().stage_costs()
        assert [c.work for c in costs] == pytest.approx([0.1, 0.2, 0.3])

    def test_stage_costs_with_measured_overrides(self):
        costs = make_pipe().stage_costs({1: 9.0})
        assert costs[1].work == 9.0
        assert costs[0].work == pytest.approx(0.1)

    def test_with_stage_replaces(self):
        p = make_pipe().with_stage(0, StageSpec(name="new", work=5.0))
        assert p.stage(0).name == "new"
        assert p.n_stages == 3

    def test_str(self):
        assert "s0 -> s1 -> s2" in str(make_pipe())
