"""Tests for the simulated pipeline executor (static behaviour)."""

import pytest

from repro.core.executor_sim import SimPipelineEngine
from repro.core.pipeline import PipelineSpec
from repro.core.stage import StageSpec
from repro.gridsim.engine import Simulator
from repro.gridsim.spec import heterogeneous_grid, two_site_grid, uniform_grid
from repro.model.mapping import Mapping


def run_engine(grid, pipe, mapping, n_items=50, **kw):
    sim = Simulator()
    eng = SimPipelineEngine(sim, grid, pipe, mapping, n_items=n_items, **kw)
    sim.run()
    return eng, sim


def balanced(n=3, work=0.1):
    return PipelineSpec(tuple(StageSpec(name=f"s{i}", work=work) for i in range(n)))


class TestBasicExecution:
    def test_all_items_complete_in_order(self):
        eng, _ = run_engine(uniform_grid(3), balanced(), Mapping.single([0, 1, 2]))
        assert eng.items_completed == 50
        assert eng.output_seqs() == list(range(50))

    def test_throughput_matches_model_balanced(self):
        eng, sim = run_engine(
            uniform_grid(3), balanced(), Mapping.single([0, 1, 2]), n_items=300
        )
        # Bottleneck service 0.1 s -> steady throughput 10/s; allow fill.
        span = eng.completion_times()[-1] - eng.completion_times()[50]
        rate = (300 - 51) / span
        assert rate == pytest.approx(10.0, rel=0.05)

    def test_colocated_stages_share_cpu(self):
        eng, _ = run_engine(
            uniform_grid(1), balanced(3), Mapping.single([0, 0, 0]), n_items=200
        )
        span = eng.completion_times()[-1] - eng.completion_times()[50]
        rate = (200 - 51) / span
        # 3 stages x 0.1 s on one CPU -> 3.33 items/s.
        assert rate == pytest.approx(10.0 / 3.0, rel=0.05)

    def test_done_event_fires(self):
        sim = Simulator()
        eng = SimPipelineEngine(
            sim, uniform_grid(2), balanced(2), Mapping.single([0, 1]), n_items=10
        )
        sim.run()
        assert eng.done.triggered
        assert eng.done.value == 10

    def test_faster_processor_shortens_run(self):
        pipe = balanced(1, work=1.0)
        slow, _ = run_engine(
            heterogeneous_grid([1.0, 4.0]), pipe, Mapping.single([0]), n_items=20
        )
        fast, _ = run_engine(
            heterogeneous_grid([1.0, 4.0]), pipe, Mapping.single([1]), n_items=20
        )
        assert fast.completion_times()[-1] == pytest.approx(
            slow.completion_times()[-1] / 4.0, rel=0.05
        )

    def test_latencies_positive_and_reasonable(self):
        eng, _ = run_engine(uniform_grid(3), balanced(), Mapping.single([0, 1, 2]))
        lats = eng.latencies()
        assert all(lat > 0 for lat in lats)
        # An unqueued item takes ~0.3 s; queueing adds more.
        assert min(lats) == pytest.approx(0.3, rel=0.1)

    def test_validation_errors(self):
        sim = Simulator()
        with pytest.raises(ValueError, match="stages"):
            SimPipelineEngine(
                sim, uniform_grid(2), balanced(3), Mapping.single([0, 1]), n_items=5
            )
        with pytest.raises(KeyError, match="unknown processor"):
            SimPipelineEngine(
                sim, uniform_grid(2), balanced(2), Mapping.single([0, 7]), n_items=5
            )
        with pytest.raises(ValueError):
            SimPipelineEngine(
                sim, uniform_grid(2), balanced(2), Mapping.single([0, 1]), n_items=0
            )


class TestCommunicationCosts:
    def test_wan_transfer_slows_pipeline(self):
        pipe = PipelineSpec(
            (
                StageSpec(name="a", work=0.01, out_bytes=1e6),
                StageSpec(name="b", work=0.01),
            )
        )
        local = two_site_grid([1.0, 1.0], [1.0], wan_bandwidth=1e6)
        eng_local, _ = run_engine(local, pipe, Mapping.single([0, 1]), n_items=20)
        remote = two_site_grid([1.0, 1.0], [1.0], wan_bandwidth=1e6)
        eng_remote, _ = run_engine(remote, pipe, Mapping.single([0, 2]), n_items=20)
        # Crossing the WAN costs ~1 s per item vs ~0.01 s on the LAN.
        assert eng_remote.completion_times()[-1] > 5 * eng_local.completion_times()[-1]

    def test_sink_transfer_charged(self):
        pipe = PipelineSpec((StageSpec(name="a", work=0.01, out_bytes=2e6),))
        grid = two_site_grid([1.0], [1.0], wan_bandwidth=1e6, wan_latency=0.0)
        # Stage on remote proc 1, sink on proc 0: 2 s per item at the sink.
        eng, _ = run_engine(grid, pipe, Mapping.single([1]), n_items=10, sink_pid=0)
        span = eng.completion_times()[-1] - eng.completion_times()[0]
        assert span / 9 == pytest.approx(2.0, rel=0.05)


class TestReplication:
    def test_replicated_stage_doubles_throughput(self):
        pipe = balanced(1, work=0.5)
        single, _ = run_engine(uniform_grid(2), pipe, Mapping(((0,),)), n_items=100)
        double, _ = run_engine(uniform_grid(2), pipe, Mapping(((0, 1),)), n_items=100)
        assert single.completion_times()[-1] / double.completion_times()[-1] == pytest.approx(
            2.0, rel=0.1
        )

    def test_replicated_output_still_in_order(self):
        # Stochastic-ish ordering pressure: replicas on very different speeds.
        pipe = balanced(1, work=0.5)
        grid = heterogeneous_grid([1.0, 10.0])
        eng, _ = run_engine(grid, pipe, Mapping(((0, 1),)), n_items=80)
        assert eng.output_seqs() == list(range(80))

    def test_three_stage_with_middle_replicated(self):
        pipe = balanced(3, work=0.1)
        pipe = pipe.with_stage(1, StageSpec(name="mid", work=0.4))
        grid = uniform_grid(5)
        m = Mapping(((0,), (1, 3, 4), (2,)))
        eng, _ = run_engine(grid, pipe, m, n_items=120)
        assert eng.items_completed == 120
        assert eng.output_seqs() == list(range(120))
        # Bottleneck becomes ~0.4/3 = 0.133 s -> beat the 0.4 s singleton.
        span = eng.completion_times()[-1] - eng.completion_times()[30]
        rate = (120 - 31) / span
        assert rate > 1.0 / 0.2


class TestInstrumentation:
    def test_service_times_recorded(self):
        eng, _ = run_engine(uniform_grid(3), balanced(), Mapping.single([0, 1, 2]))
        snaps = eng.instrumentation.snapshots()
        assert all(s.items_processed == 50 for s in snaps)
        assert snaps[0].service_time == pytest.approx(0.1, rel=0.01)

    def test_work_estimate_recovers_spec_work(self):
        grid = heterogeneous_grid([2.0, 1.0, 1.0])
        eng, _ = run_engine(grid, balanced(), Mapping.single([0, 1, 2]))
        snaps = eng.instrumentation.snapshots()
        # Stage 0 on a 2x processor: service 0.05 s but work estimate 0.1.
        assert snaps[0].service_time == pytest.approx(0.05, rel=0.01)
        assert snaps[0].work_estimate == pytest.approx(0.1, rel=0.01)
