"""Tests for the full adaptive runner (observe-decide-act end to end)."""

import warnings
from collections import Counter

import pytest

from repro.core.adaptive import AdaptivePipeline, run_static
from repro.core.pipeline import PipelineSpec
from repro.core.policy import AdaptationConfig
from repro.core.stage import StageSpec
from repro.gridsim.spec import heterogeneous_grid, uniform_grid
from repro.model.mapping import Mapping
from repro.obs.events import EventBus


def balanced(n=3, work=0.1):
    return PipelineSpec(tuple(StageSpec(name=f"s{i}", work=work) for i in range(n)))


class TestStaticRunner:
    def test_completes_and_orders(self):
        res = run_static(
            balanced(), uniform_grid(3), 100, mapping=Mapping.single([0, 1, 2])
        )
        assert res.completed_all
        assert res.in_order()
        assert res.adaptation_events == []
        assert res.final_mapping == Mapping.single([0, 1, 2])

    def test_default_mapping_reasonable(self):
        # Without an explicit mapping the greedy default should spread a
        # balanced pipeline over distinct processors.
        res = run_static(balanced(), uniform_grid(3), 50)
        assert len(res.final_mapping.processors_used()) == 3

    def test_throughput_metrics(self):
        res = run_static(
            balanced(), uniform_grid(3), 300, mapping=Mapping.single([0, 1, 2])
        )
        assert res.steady_throughput() == pytest.approx(10.0, rel=0.05)
        assert res.throughput() <= res.steady_throughput() + 0.2
        times, series = res.throughput_series(dt=5.0)
        assert len(times) == len(series)
        assert max(series) <= 11.0

    def test_until_cuts_run_short(self):
        res = run_static(
            balanced(),
            uniform_grid(3),
            10_000,
            mapping=Mapping.single([0, 1, 2]),
            until=5.0,
        )
        assert not res.completed_all
        assert res.end_time == 5.0
        assert res.items_completed < 100


class TestAdaptiveRunner:
    def test_stable_grid_no_adaptations(self):
        # On a dedicated balanced grid with the optimal mapping there is
        # nothing to improve: the controller must keep its hands still.
        grid = uniform_grid(3)
        runner = AdaptivePipeline(
            balanced(),
            grid,
            config=AdaptationConfig(interval=2.0, min_improvement=1.15),
            initial_mapping=Mapping.single([0, 1, 2]),
            seed=3,
        )
        res = runner.run(400)
        assert res.completed_all
        remaps = [e for e in res.adaptation_events if e.kind != "rollback"]
        assert remaps == []

    def test_recovers_from_perturbation(self):
        grid = uniform_grid(4)
        grid.perturb(1, [(20.0, 0.1)])
        runner = AdaptivePipeline(
            balanced(),
            grid,
            config=AdaptationConfig(interval=3.0, cooldown=5.0),
            initial_mapping=Mapping.single([0, 1, 2]),
            seed=1,
        )
        res = runner.run(1500)
        assert res.completed_all
        assert res.in_order()
        assert any(e.kind in ("remap", "replicate") for e in res.adaptation_events)
        # Post-adaptation mapping avoids the dead processor.
        assert 1 not in res.final_mapping.processors_used()

    def test_beats_static_under_perturbation(self):
        def fresh_grid():
            g = uniform_grid(4)
            g.perturb(1, [(20.0, 0.1)])
            return g

        adaptive = AdaptivePipeline(
            balanced(),
            fresh_grid(),
            config=AdaptationConfig(interval=3.0, cooldown=5.0),
            initial_mapping=Mapping.single([0, 1, 2]),
            seed=1,
        ).run(1000)
        static = run_static(
            balanced(), fresh_grid(), 1000, mapping=Mapping.single([0, 1, 2])
        )
        assert adaptive.completed_all and static.completed_all
        assert adaptive.makespan < static.makespan / 2.0

    def test_fixes_bad_initial_mapping(self):
        grid = heterogeneous_grid([1.0, 1.0, 1.0, 4.0])
        bad = Mapping.single([0, 0, 0])
        runner = AdaptivePipeline(
            balanced(),
            grid,
            config=AdaptationConfig(interval=2.0, cooldown=4.0),
            initial_mapping=bad,
            seed=5,
        )
        res = runner.run(800)
        assert res.completed_all
        assert res.in_order()
        # The winning mapping must involve the 4x processor (fusing all three
        # light stages onto it beats spreading: 0.1*3/4 = 0.075 s/item).
        assert 3 in res.final_mapping.processors_used()
        static = run_static(balanced(), heterogeneous_grid([1.0, 1.0, 1.0, 4.0]), 800, mapping=bad)
        assert res.makespan < static.makespan

    def test_adaptation_event_fields(self):
        grid = uniform_grid(4)
        grid.perturb(1, [(10.0, 0.1)])
        runner = AdaptivePipeline(
            balanced(),
            grid,
            config=AdaptationConfig(interval=3.0, cooldown=5.0),
            initial_mapping=Mapping.single([0, 1, 2]),
            seed=1,
        )
        res = runner.run(800)
        ev = next(e for e in res.adaptation_events if e.kind != "rollback")
        assert ev.time > 10.0
        assert ev.predicted_gain > 1.0
        assert ev.mapping_before != ev.mapping_after
        assert "->" in str(ev)

    def test_events_go_to_the_bus_in_simulated_time(self):
        # The bus has no clock: an emit without at= would warn.
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        grid = uniform_grid(4)
        grid.perturb(1, [(10.0, 0.1)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = AdaptivePipeline(
                balanced(),
                grid,
                config=AdaptationConfig(interval=3.0, cooldown=5.0),
                initial_mapping=Mapping.single([0, 1, 2]),
                seed=1,
                events=bus,
            ).run(800)
        kinds = Counter(e.kind for e in seen)
        assert kinds["item.submit"] == kinds["item.complete"] == 800
        decided = [e.time for e in seen if e.kind == "adapt.decide"]
        assert decided[:3] == [3.0, 6.0, 9.0]  # one look per simulated interval
        acted = [e.time for e in seen if e.kind == "adapt.act"]
        assert acted[0] == res.adaptation_events[0].time > 10.0
        done = [e.time for e in seen if e.kind == "item.complete"]
        assert done == res.completion_times

    def test_mapping_history_tracks_changes(self):
        grid = uniform_grid(4)
        grid.perturb(2, [(15.0, 0.05)])
        runner = AdaptivePipeline(
            balanced(),
            grid,
            config=AdaptationConfig(interval=3.0, cooldown=6.0),
            initial_mapping=Mapping.single([0, 1, 2]),
            seed=2,
        )
        res = runner.run(1000)
        assert res.mapping_history[0][1] == Mapping.single([0, 1, 2])
        assert len(res.mapping_history) >= 2
        times = [t for t, _ in res.mapping_history]
        assert times == sorted(times)

    def test_replication_disabled_never_replicates(self):
        grid = uniform_grid(6)
        pipe = balanced(3).with_stage(1, StageSpec(name="heavy", work=0.7))
        runner = AdaptivePipeline(
            pipe,
            grid,
            config=AdaptationConfig(
                interval=2.0, cooldown=4.0, enable_replication=False
            ),
            initial_mapping=Mapping.single([0, 1, 2]),
            seed=4,
        )
        res = runner.run(400)
        assert res.completed_all
        for _, m in res.mapping_history:
            assert not m.is_replicated()

    def test_replication_enabled_farms_bottleneck(self):
        grid = uniform_grid(6)
        pipe = balanced(3).with_stage(1, StageSpec(name="heavy", work=0.8))
        runner = AdaptivePipeline(
            pipe,
            grid,
            config=AdaptationConfig(interval=2.0, cooldown=4.0),
            initial_mapping=Mapping.single([0, 1, 2]),
            seed=4,
        )
        res = runner.run(600)
        assert res.completed_all
        assert res.in_order()
        assert any(len(m.replicas(1)) > 1 for _, m in res.mapping_history)
        # And it pays off against the static run.
        static = run_static(pipe, uniform_grid(6), 600, mapping=Mapping.single([0, 1, 2]))
        assert res.makespan < static.makespan

    def test_seed_reproducibility(self):
        def once():
            grid = uniform_grid(4)
            grid.perturb(1, [(10.0, 0.2)])
            runner = AdaptivePipeline(
                balanced(),
                grid,
                config=AdaptationConfig(interval=3.0, cooldown=5.0),
                initial_mapping=Mapping.single([0, 1, 2]),
                seed=7,
            )
            return runner.run(500)

        a, b = once(), once()
        assert a.makespan == b.makespan
        assert [str(e) for e in a.adaptation_events] == [
            str(e) for e in b.adaptation_events
        ]
