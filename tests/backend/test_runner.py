"""Tests for the wall-clock adaptive runner."""

import time

import pytest

from repro.backend import (
    BottleneckGrowthPolicy,
    RuntimeAdaptiveRunner,
    ThreadBackend,
    local_config,
)
from repro.core.pipeline import PipelineSpec
from repro.core.stage import StageSpec
from repro.runtime.threads import StageError


def spec(fns, replicable=None):
    replicable = replicable or [True] * len(fns)
    return PipelineSpec(
        tuple(
            StageSpec(name=f"s{i}", work=0.01, fn=f, replicable=r)
            for i, (f, r) in enumerate(zip(fns, replicable))
        )
    )


def _fast(x):
    return x + 1


def _bottleneck(x):
    time.sleep(0.02)
    return x * 2


class TestLocalConfig:
    def test_defaults_are_subsecond(self):
        cfg = local_config()
        assert cfg.interval < 1.0
        assert cfg.cooldown < 2.0

    def test_overrides(self):
        cfg = local_config(interval=0.1, max_replicas=6)
        assert cfg.interval == 0.1
        assert cfg.max_replicas == 6

    def test_invalid_overrides_still_validated(self):
        with pytest.raises(ValueError):
            local_config(min_improvement=0.5)


class TestRuntimeAdaptiveRunner:
    def test_rejects_sim_backend(self):
        with pytest.raises(ValueError, match="cannot reconfigure live"):
            RuntimeAdaptiveRunner(spec([_fast]), "sim")

    def test_virtual_grid_must_cover_stages(self):
        with pytest.raises(ValueError, match="n_virtual_procs"):
            RuntimeAdaptiveRunner(spec([_fast, _fast]), "threads", n_virtual_procs=1)

    def test_grows_bottleneck_on_thread_backend(self):
        pipe = spec([_fast, _bottleneck, _fast])
        runner = RuntimeAdaptiveRunner(
            pipe,
            "threads",
            config=local_config(interval=0.1, cooldown=0.2, settle_time=0.1),
            rollback=False,
            max_replicas=3,
        )
        res = runner.run(range(80))
        assert res.outputs == [(x + 1) * 2 + 1 for x in range(80)]
        assert res.items == 80
        grows = [e for e in res.adaptation_events if e.kind != "rollback"]
        assert len(grows) >= 1
        # The bottleneck stage (1) must have been replicated.
        assert res.final_replicas[1] > 1
        assert res.replica_history[0][1] == (1, 1, 1)
        assert res.replica_history[-1][1][1] == res.final_replicas[1]

    def test_grows_forwarded_bottleneck_on_process_backend(self):
        # Stage 0's workers put straight onto stage 1's queue: no router in
        # the parent watches it, and the controller sees its service times
        # only through the trail replayed at the egress boundary.
        runner = RuntimeAdaptiveRunner(
            spec([_bottleneck, _fast]),
            "processes",
            config=local_config(interval=0.1, cooldown=0.2, settle_time=0.1),
            rollback=False,
            max_replicas=3,
        )
        with runner:
            res = runner.run(range(80))
        assert res.outputs == [x * 2 + 1 for x in range(80)]
        assert res.final_replicas[0] > 1
        assert res.final_replicas[1] == 1

    def test_clamped_noop_proposal_records_no_event(self):
        # Warm pool caps the bottleneck at 2 replicas; with a huge virtual
        # grid the policy keeps proposing more, but once the backend sits at
        # the cap the clamped proposal changes nothing physical and must not
        # fabricate adaptation events (or phantom rollbacks).
        pipe = spec([_fast, _bottleneck, _fast])
        runner = RuntimeAdaptiveRunner(
            pipe,
            "threads",
            config=local_config(interval=0.1, cooldown=0.1, settle_time=0.1),
            rollback=False,
            max_replicas=2,
            n_virtual_procs=12,
        )
        res = runner.run(range(120))
        assert res.items == 120
        real_changes = {tuple(c) for _, c in res.replica_history}
        assert len(res.adaptation_events) == len(res.replica_history) - 1
        # Every recorded event corresponds to a distinct physical shape.
        assert len(real_changes) == len(res.replica_history)
        assert res.final_replicas[1] <= 2

    def test_context_manager_closes_owned_backend(self):
        with RuntimeAdaptiveRunner(spec([_fast]), "processes") as runner:
            res = runner.run(range(5))
            assert res.outputs == [x + 1 for x in range(5)]
        # The warm pools must be reaped: a closed backend refuses work.
        with pytest.raises(RuntimeError, match="closed"):
            runner.backend.start([1])

    def test_quiet_pipeline_takes_no_action(self):
        # A balanced, fast pipeline finishes before any decision can act.
        pipe = spec([_fast, _fast])
        runner = RuntimeAdaptiveRunner(pipe, ThreadBackend(pipe))
        res = runner.run(range(30))
        assert res.outputs == [x + 2 for x in range(30)]
        assert res.adaptation_events == []
        assert res.final_replicas == [1, 1]


def growth_runner(pipe, max_workers, imbalance_threshold=1.5):
    """A thread-backend runner on the bottleneck-growth policy, fast cadence."""
    config = local_config(interval=0.05, cooldown=0.05, min_samples=2, settle_time=0.05)
    return RuntimeAdaptiveRunner(
        pipe,
        ThreadBackend(pipe, max_replicas=max_workers),
        policy=BottleneckGrowthPolicy(
            pipe,
            config,
            max_workers=max_workers,
            imbalance_threshold=imbalance_threshold,
        ),
        rollback=False,
    )


def _sleeper(seconds):
    def heavy(x):
        time.sleep(seconds)
        return x

    return heavy


class TestBottleneckGrowthPolicy:
    """Back-to-back ``run()`` calls over one warm session, growing live."""

    def test_grows_bottleneck_stage(self):
        pipe = spec([lambda x: x, _sleeper(0.004), lambda x: x])
        grown_stages = []
        with growth_runner(pipe, max_workers=3) as runner:
            for _ in range(3):
                res = runner.run(range(30))
                assert res.outputs == list(range(30))
                for event in res.adaptation_events:
                    grown_stages += [
                        i
                        for i in range(pipe.n_stages)
                        if len(event.mapping_after.replicas(i))
                        != len(event.mapping_before.replicas(i))
                    ]
            # The heavy middle stage must have gained workers.
            assert runner.backend.replica_counts()[1] > 1
        assert all(stage == 1 for stage in grown_stages)

    def test_respects_max_workers(self):
        pipe = spec([_sleeper(0.002)])
        with growth_runner(pipe, max_workers=2) as runner:
            for _ in range(5):
                runner.run(range(10))
            assert runner.backend.replica_counts()[0] <= 2

    def test_never_replicates_stateful_stage(self):
        pipe = spec([_sleeper(0.002), lambda x: x], replicable=[False, True])
        with growth_runner(pipe, max_workers=4) as runner:
            for _ in range(3):
                runner.run(range(10))
            assert runner.backend.replica_counts()[0] == 1

    def test_invalid_params(self):
        pipe = spec([lambda x: x])
        with pytest.raises(ValueError):
            BottleneckGrowthPolicy(pipe, max_workers=0)
        with pytest.raises(ValueError):
            BottleneckGrowthPolicy(pipe, imbalance_threshold=0.5)

    def test_adaptive_batches_surface_replicated_stage_error(self):
        calls = []

        def boom(x):
            calls.append(x)
            if len(calls) > 15:
                raise RuntimeError("dies in batch 2")
            time.sleep(0.002)
            return x

        pipe = spec([boom])
        with growth_runner(pipe, max_workers=3, imbalance_threshold=1.0) as runner:
            with pytest.raises(StageError, match="s0"):
                for _ in range(3):
                    runner.run(range(10))


class TestMeasuredResourceView:
    def test_thread_backend_view_reflects_host_load(self):
        backend = ThreadBackend(spec([_fast]))
        view = backend.resource_view(4)
        assert view.pids() == [0, 1, 2, 3]
        speeds = {view.eff_speed(p) for p in view.pids()}
        assert len(speeds) == 1  # one host: every slot degrades alike
        assert 0.0 < speeds.pop() <= 1.0
        lat, bw = view.link(0, 1)
        assert lat < 1e-3 and bw > 1e6  # in-process links are near-free

    def test_runner_consumes_backend_view(self):
        # The decide step must query the backend's measured view each
        # iteration (falling back to uniform only when it returns None).
        calls = []

        class Spying(ThreadBackend):
            def resource_view(self, n_procs):
                calls.append(n_procs)
                return super().resource_view(n_procs)

        runner = RuntimeAdaptiveRunner(
            spec([_fast, _bottleneck]),
            Spying(spec([_fast, _bottleneck])),
            config=local_config(interval=0.05, cooldown=0.1, settle_time=0.05),
            rollback=False,
        )
        with runner:
            res = runner.run(range(40))
        assert res.outputs == [(x + 1) * 2 for x in range(40)]
        assert calls, "runner never asked the backend for its measured view"
        assert all(n == runner.n_virtual_procs for n in calls)
