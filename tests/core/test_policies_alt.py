"""Tests for alternative policies and the oracle view (ablation plumbing)."""

import math

import pytest

from repro.core.adaptive import AdaptivePipeline
from repro.core.pipeline import PipelineSpec
from repro.core.policies_alt import ReactivePolicy
from repro.core.policy import AdaptationConfig
from repro.core.stage import StageSpec
from repro.gridsim.spec import uniform_grid
from repro.model.mapping import Mapping
from repro.model.throughput import snapshot_view
from repro.monitor.instrument import StageSnapshot
from repro.workloads.scenarios import load_step
from repro.workloads.synthetic import balanced_pipeline


def snap(i, items=10, service=0.1, work=0.1):
    return StageSnapshot(
        stage_index=i,
        items_processed=items,
        service_time=service,
        work_estimate=work,
    )


def make_reactive(**kw):
    pipe = PipelineSpec(tuple(StageSpec(name=f"s{i}", work=0.1) for i in range(3)))
    return ReactivePolicy(pipe, AdaptationConfig(), **kw)


class TestReactivePolicy:
    def test_invalid_trigger(self):
        with pytest.raises(ValueError):
            make_reactive(trigger=1.0)

    def test_quiet_below_trigger(self):
        policy = make_reactive(trigger=1.5)
        grid = uniform_grid(4)
        view = snapshot_view(grid.snapshot(0.0))
        # Establish a baseline, then present mild degradation (x1.2).
        for service in (0.1, 0.12):
            d = policy.decide(
                now=100.0 + service,
                current=Mapping.single([0, 1, 2]),
                snapshots=[snap(0), snap(1, service=service), snap(2)],
                view=view,
                source_pid=0,
                sink_pid=0,
                remaining_items=1000,
            )
        assert not d.acts
        assert d.reason == "below-trigger"

    def test_fires_on_degradation(self):
        policy = make_reactive(trigger=1.5)
        grid = uniform_grid(4)
        view = snapshot_view(grid.snapshot(0.0))
        # Baseline pass...
        policy.decide(
            now=50.0,
            current=Mapping.single([0, 1, 2]),
            snapshots=[snap(0), snap(1), snap(2)],
            view=view,
            source_pid=0,
            sink_pid=0,
            remaining_items=1000,
        )
        # ...then stage 1's service triples.
        d = policy.decide(
            now=100.0,
            current=Mapping.single([0, 1, 2]),
            snapshots=[snap(0), snap(1, service=0.3), snap(2)],
            view=view,
            source_pid=0,
            sink_pid=0,
            remaining_items=1000,
        )
        assert d.acts
        assert d.new_mapping.replicas(1) == (3,)  # moved to the idle proc
        assert math.isnan(d.predicted_gain)

    def test_guards_mirror_model_policy(self):
        policy = make_reactive()
        grid = uniform_grid(2)
        view = snapshot_view(grid.snapshot(0.0))
        d = policy.decide(
            now=1.0,
            current=Mapping.single([0, 1, 0]),
            snapshots=[snap(0), snap(1), snap(2)],
            view=view,
            source_pid=0,
            sink_pid=0,
            remaining_items=100,
            last_action_time=0.0,
        )
        assert d.reason == "cooldown"
        d = policy.decide(
            now=100.0,
            current=Mapping.single([0, 1, 0]),
            snapshots=[snap(0, items=1), snap(1), snap(2)],
            view=view,
            source_pid=0,
            sink_pid=0,
            remaining_items=100,
        )
        assert d.reason == "insufficient-samples"


class TestPolicyInjection:
    def test_reactive_policy_recovers_from_perturbation(self):
        grid = uniform_grid(4)
        load_step(1, at=15.0, availability=0.1).apply(grid)
        pipe = balanced_pipeline(3, work=0.1)
        runner = AdaptivePipeline(
            pipe,
            grid,
            policy=ReactivePolicy(pipe, AdaptationConfig(interval=3.0, cooldown=5.0)),
            initial_mapping=Mapping.single([0, 1, 2]),
            seed=6,
        )
        res = runner.run(800)
        assert res.completed_all
        assert res.in_order()
        assert any(e.kind != "rollback" for e in res.adaptation_events)
        # The reactive move must leave the dead processor.
        assert 1 not in res.final_mapping.processors_used()

    def test_oracle_view_source(self):
        grid = uniform_grid(4)
        load_step(1, at=15.0, availability=0.1).apply(grid)
        pipe = balanced_pipeline(3, work=0.1)
        runner = AdaptivePipeline(
            pipe,
            grid,
            config=AdaptationConfig(interval=3.0, cooldown=5.0),
            view_source="oracle",
            initial_mapping=Mapping.single([0, 1, 2]),
            seed=6,
        )
        res = runner.run(800)
        assert res.completed_all
        assert any(e.kind != "rollback" for e in res.adaptation_events)
        assert 1 not in res.final_mapping.processors_used()

    def test_invalid_view_source(self):
        pipe = balanced_pipeline(2)
        with pytest.raises(ValueError, match="view_source"):
            AdaptivePipeline(pipe, uniform_grid(2), view_source="psychic")

    def test_policy_overrides_config(self):
        pipe = balanced_pipeline(2)
        policy = ReactivePolicy(pipe, AdaptationConfig(interval=7.0))
        runner = AdaptivePipeline(pipe, uniform_grid(2), policy=policy)
        assert runner.config.interval == 7.0
        assert runner.policy is policy
