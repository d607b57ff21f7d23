"""Tests for the adaptation policy (decide step)."""

import math

import pytest

from repro.core.pipeline import PipelineSpec
from repro.core.policy import AdaptationConfig, AdaptationPolicy
from repro.core.stage import StageSpec
from repro.gridsim.spec import heterogeneous_grid, uniform_grid
from repro.model.mapping import Mapping
from repro.model.throughput import snapshot_view
from repro.monitor.instrument import StageSnapshot


def snap(i, items=10, service=0.1, work=0.1):
    return StageSnapshot(
        stage_index=i,
        items_processed=items,
        service_time=service,
        work_estimate=work,
    )


def make_policy(works=(0.1, 0.1, 0.1), **cfg_kwargs):
    pipe = PipelineSpec(
        tuple(StageSpec(name=f"s{i}", work=w) for i, w in enumerate(works))
    )
    return AdaptationPolicy(pipe, AdaptationConfig(**cfg_kwargs))


class TestConfigValidation:
    def test_defaults_valid(self):
        AdaptationConfig()

    def test_bad_improvement(self):
        with pytest.raises(ValueError):
            AdaptationConfig(min_improvement=0.9)

    def test_bad_rollback(self):
        # [0, 1]: 0 takes no verdict, so only a value outside raises.
        for tolerance in (-0.1, 1.1):
            with pytest.raises(ValueError):
                AdaptationConfig(rollback_tolerance=tolerance)

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            AdaptationConfig(interval=0.0)

    def test_bad_min_samples(self):
        with pytest.raises(ValueError):
            AdaptationConfig(min_samples=0)


class TestGuards:
    def test_cooldown_blocks(self):
        policy = make_policy(cooldown=10.0)
        grid = uniform_grid(3)
        d = policy.decide(
            now=5.0,
            current=Mapping.single([0, 0, 0]),
            snapshots=[snap(i) for i in range(3)],
            view=snapshot_view(grid.snapshot(0.0)),
            source_pid=0,
            sink_pid=0,
            remaining_items=100,
            last_action_time=0.0,
        )
        assert not d.acts
        assert d.reason == "cooldown"

    def test_insufficient_samples_blocks(self):
        policy = make_policy(min_samples=5)
        grid = uniform_grid(3)
        d = policy.decide(
            now=100.0,
            current=Mapping.single([0, 0, 0]),
            snapshots=[snap(0, items=10), snap(1, items=2), snap(2, items=10)],
            view=snapshot_view(grid.snapshot(0.0)),
            source_pid=0,
            sink_pid=0,
            remaining_items=100,
        )
        assert not d.acts
        assert d.reason == "insufficient-samples"

    def test_no_remaining_work_blocks(self):
        policy = make_policy()
        grid = uniform_grid(3)
        d = policy.decide(
            now=100.0,
            current=Mapping.single([0, 1, 2]),
            snapshots=[snap(i) for i in range(3)],
            view=snapshot_view(grid.snapshot(0.0)),
            source_pid=0,
            sink_pid=0,
            remaining_items=0,
        )
        assert not d.acts

    def test_already_optimal_stays(self):
        policy = make_policy(enable_replication=False)
        grid = uniform_grid(3)
        d = policy.decide(
            now=100.0,
            current=Mapping.single([0, 1, 2]),
            snapshots=[snap(i) for i in range(3)],
            view=snapshot_view(grid.snapshot(0.0)),
            source_pid=0,
            sink_pid=0,
            remaining_items=1000,
        )
        assert not d.acts
        assert d.reason == "already-optimal"


class TestDecisions:
    def test_spreads_out_bad_initial_mapping(self):
        policy = make_policy()
        grid = uniform_grid(3)
        d = policy.decide(
            now=100.0,
            current=Mapping.single([0, 0, 0]),
            snapshots=[snap(i) for i in range(3)],
            view=snapshot_view(grid.snapshot(0.0)),
            source_pid=0,
            sink_pid=0,
            remaining_items=10_000,
        )
        assert d.acts
        assert d.predicted_gain > 1.15
        assert len(d.new_mapping.processors_used()) == 3

    def test_moves_off_degraded_processor(self):
        policy = make_policy()
        grid = uniform_grid(4)
        grid.perturb(1, [(0.0, 0.05)])  # pid 1 nearly dead from the start
        d = policy.decide(
            now=100.0,
            current=Mapping.single([0, 1, 2]),
            snapshots=[
                snap(0),
                snap(1, service=2.0, work=0.1),  # observed pain on stage 1
                snap(2),
            ],
            view=snapshot_view(grid.snapshot(50.0)),
            source_pid=0,
            sink_pid=0,
            remaining_items=10_000,
        )
        assert d.acts
        assert 1 not in d.new_mapping.processors_used()

    def test_replicates_heavy_stage(self):
        policy = make_policy(works=(0.1, 0.8, 0.1), enable_remap=False)
        grid = uniform_grid(5)
        d = policy.decide(
            now=100.0,
            current=Mapping.single([0, 1, 2]),
            snapshots=[
                snap(0, work=0.1),
                snap(1, service=0.8, work=0.8),
                snap(2, work=0.1),
            ],
            view=snapshot_view(grid.snapshot(0.0)),
            source_pid=0,
            sink_pid=0,
            remaining_items=10_000,
        )
        assert d.acts
        assert len(d.new_mapping.replicas(1)) > 1

    def test_below_threshold_stays(self):
        # Marginal improvements are rejected by hysteresis.
        policy = make_policy(works=(0.1, 0.1), min_improvement=3.0)
        grid = heterogeneous_grid([1.0, 1.2])
        d = policy.decide(
            now=100.0,
            current=Mapping.single([0, 0]),
            snapshots=[snap(0), snap(1)],
            view=snapshot_view(grid.snapshot(0.0)),
            source_pid=0,
            sink_pid=0,
            remaining_items=10_000,
        )
        assert not d.acts
        assert "below-threshold" in d.reason or d.reason == "already-optimal"

    def test_migration_not_amortised_for_tiny_remaining_work(self):
        policy = make_policy()
        grid = uniform_grid(3)
        d = policy.decide(
            now=100.0,
            current=Mapping.single([0, 0, 0]),
            snapshots=[snap(i) for i in range(3)],
            view=snapshot_view(grid.snapshot(0.0)),
            source_pid=0,
            sink_pid=0,
            remaining_items=1,  # one item left: not worth moving anything
        )
        assert not d.acts
        assert "not-amortised" in d.reason

    def test_measured_work_beats_spec_prior(self):
        # Spec says balanced, but measurements show stage 0 is 10x heavier
        # and it sits on the slow processor; the decision must hinge on the
        # measurements and move it to the fast one.
        policy = make_policy(works=(0.1, 0.1))
        grid = heterogeneous_grid([1.0, 4.0])
        d = policy.decide(
            now=100.0,
            current=Mapping.single([0, 1]),  # heavy measured stage on slow proc
            snapshots=[snap(0, service=1.0, work=1.0), snap(1, work=0.1)],
            view=snapshot_view(grid.snapshot(0.0)),
            source_pid=0,
            sink_pid=0,
            remaining_items=10_000,
        )
        assert d.acts
        # After the move, the heavy stage must own the fast processor.
        assert 1 in d.new_mapping.replicas(0)
        works = policy.measured_works(
            [snap(0, service=1.0, work=1.0), snap(1, work=0.1)]
        )
        assert works[0] == pytest.approx(1.0)


class TestMeasuredWorks:
    def test_untrusted_stages_excluded(self):
        policy = make_policy(min_samples=5)
        works = policy.measured_works(
            [snap(0, items=10, work=0.5), snap(1, items=1, work=9.0)]
        )
        assert 0 in works and 1 not in works

    def test_nan_work_excluded(self):
        policy = make_policy()
        works = policy.measured_works([snap(0, work=math.nan)])
        assert works == {}
