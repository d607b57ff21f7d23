"""Tests for synthetic pipeline builders."""

import pytest

from repro.workloads.cost_models import LogNormalWork
from repro.workloads.synthetic import (
    balanced_pipeline,
    imbalanced_pipeline,
    stochastic_pipeline,
)


class TestBalanced:
    def test_shape(self):
        p = balanced_pipeline(4, work=0.2)
        assert p.n_stages == 4
        assert [s.work.mean for s in p.stages] == [0.2] * 4

    def test_bytes_propagate(self):
        p = balanced_pipeline(2, out_bytes=100.0, input_bytes=50.0, state_bytes=10.0)
        assert p.input_bytes == 50.0
        assert p.stage(0).out_bytes == 100.0
        assert p.stage(1).state_bytes == 10.0

    def test_invalid(self):
        with pytest.raises(ValueError):
            balanced_pipeline(0)


class TestImbalanced:
    def test_works_assigned(self):
        p = imbalanced_pipeline([0.1, 0.5, 0.2])
        assert [s.work.mean for s in p.stages] == pytest.approx([0.1, 0.5, 0.2])

    def test_bottleneck_stateful_flag(self):
        p = imbalanced_pipeline([0.1, 0.5, 0.2], bottleneck_replicable=False)
        assert p.stage(0).replicable
        assert not p.stage(1).replicable
        assert p.stage(2).replicable

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            imbalanced_pipeline([])

    def test_every_stage_replicable_by_default(self):
        p = imbalanced_pipeline([0.1, 0.5, 0.2])
        assert all(s.replicable for s in p.stages)


class TestStochastic:
    def test_lognormal_stages(self):
        p = stochastic_pipeline([0.1, 0.2], cv=1.0)
        assert all(isinstance(s.work, LogNormalWork) for s in p.stages)
        assert p.stage(1).work.mean == pytest.approx(0.2)

    def test_cv_shared_by_every_stage(self):
        p = stochastic_pipeline([0.1, 0.2, 0.3], cv=1.5, out_bytes=8.0)
        assert [s.work.cv for s in p.stages] == [1.5] * 3
        assert all(s.out_bytes == 8.0 for s in p.stages)
        assert p.name == "stochastic(cv=1.5)"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            stochastic_pipeline([], cv=0.5)
