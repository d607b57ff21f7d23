"""Tests for the analytic throughput model."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.gridsim.spec import heterogeneous_grid, uniform_grid
from repro.model.mapping import Mapping
from repro.model.throughput import (
    ModelContext,
    StageCost,
    predict,
    snapshot_view,
)


def make_ctx(works, grid, out_bytes=0.0, input_bytes=0.0, source=0, sink=0):
    return ModelContext(
        stage_costs=tuple(StageCost(work=w, out_bytes=out_bytes) for w in works),
        view=snapshot_view(grid.snapshot(0.0)),
        source_pid=source,
        sink_pid=sink,
        input_bytes=input_bytes,
    )


class TestBasicPrediction:
    def test_balanced_one_per_proc(self):
        grid = uniform_grid(3)
        ctx = make_ctx([0.1, 0.1, 0.1], grid)
        pred = predict(Mapping.single([0, 1, 2]), ctx)
        # Each stage: 0.1 s service, negligible transfer -> ~10 items/s.
        assert pred.throughput == pytest.approx(10.0, rel=0.01)
        assert pred.period == pytest.approx(0.1, rel=0.01)

    def test_colocation_halves_rate(self):
        grid = uniform_grid(3)
        one_per = predict(Mapping.single([0, 1, 2]), make_ctx([0.1] * 3, grid))
        fused = predict(Mapping.single([0, 0, 1]), make_ctx([0.1] * 3, grid))
        # Two stages sharing processor 0 each run at half speed: period 0.2.
        assert fused.period == pytest.approx(0.2, rel=0.01)
        assert fused.throughput < one_per.throughput

    def test_all_on_one_processor(self):
        grid = uniform_grid(1)
        pred = predict(Mapping.single([0, 0, 0]), make_ctx([0.1] * 3, grid))
        # Three stages share: each takes 0.3 s/item -> throughput ~3.33.
        assert pred.period == pytest.approx(0.3, rel=0.01)

    def test_bottleneck_stage_identified(self):
        grid = uniform_grid(3)
        pred = predict(Mapping.single([0, 1, 2]), make_ctx([0.1, 0.5, 0.1], grid))
        assert pred.bottleneck_stage == 1
        assert pred.period == pytest.approx(0.5, rel=0.01)

    def test_faster_processor_lowers_service(self):
        grid = heterogeneous_grid([1.0, 4.0])
        slow = predict(Mapping.single([0]), make_ctx([1.0], grid))
        fast = predict(Mapping.single([1]), make_ctx([1.0], grid))
        assert fast.period == pytest.approx(slow.period / 4.0, rel=0.01)

    def test_latency_sums_stage_cycles(self):
        grid = uniform_grid(3)
        pred = predict(Mapping.single([0, 1, 2]), make_ctx([0.1, 0.2, 0.3], grid))
        assert pred.latency == pytest.approx(0.6, rel=0.02)

    def test_stage_count_mismatch(self):
        grid = uniform_grid(2)
        with pytest.raises(ValueError, match="stages"):
            predict(Mapping.single([0]), make_ctx([0.1, 0.1], grid))


class TestCommunication:
    def test_transfer_bound_pipeline(self):
        # Big items over a slow link: the link, not compute, is the bottleneck.
        grid = heterogeneous_grid([1.0, 1.0], latency=0.0, bandwidth=1e6)
        ctx = make_ctx([0.001, 0.001], grid, out_bytes=1e6, input_bytes=0.0)
        pred = predict(Mapping.single([0, 1]), ctx)
        # stage0 -> stage1 moves 1 MB over 1 MB/s = 1 s inside stage 1 cycle.
        assert pred.period >= 1.0

    def test_colocated_stages_avoid_transfer(self):
        grid = heterogeneous_grid([1.0, 1.0], latency=0.0, bandwidth=1e6)
        ctx = make_ctx([0.001, 0.001], grid, out_bytes=1e6)
        split = predict(Mapping.single([0, 1]), ctx)
        fused = predict(Mapping.single([0, 0]), ctx)
        assert fused.throughput > split.throughput

    def test_sink_transfer_can_dominate(self):
        grid = heterogeneous_grid([1.0, 1.0], latency=0.0, bandwidth=1e6)
        # Output returned to sink on proc 0 from stage on proc 1: 2 MB at 1MB/s.
        ctx = ModelContext(
            stage_costs=(StageCost(work=0.001, out_bytes=2e6),),
            view=snapshot_view(grid.snapshot(0.0)),
            source_pid=1,
            sink_pid=0,
        )
        pred = predict(Mapping.single([1]), ctx)
        assert pred.bottleneck_stage == -1
        assert pred.period == pytest.approx(2.0, rel=0.01)

    def test_input_bytes_charged_to_first_stage(self):
        grid = heterogeneous_grid([1.0, 1.0], latency=0.0, bandwidth=1e6)
        ctx = ModelContext(
            stage_costs=(StageCost(work=0.001),),
            view=snapshot_view(grid.snapshot(0.0)),
            source_pid=0,
            sink_pid=0,
            input_bytes=5e5,
        )
        remote = predict(Mapping.single([1]), ctx)
        local = predict(Mapping.single([0]), ctx)
        assert remote.period > local.period


class TestReplication:
    def test_two_replicas_double_rate(self):
        grid = uniform_grid(3)
        ctx = make_ctx([0.4], grid)
        single = predict(Mapping(((0,),)), ctx)
        double = predict(Mapping(((0, 1),)), ctx)
        assert double.throughput == pytest.approx(2 * single.throughput, rel=0.02)

    def test_replication_on_heterogeneous_procs(self):
        grid = heterogeneous_grid([1.0, 3.0])
        ctx = make_ctx([1.0], grid)
        both = predict(Mapping(((0, 1),)), ctx)
        # rate = 1/1 + 3/1 = 4 items per second of work unit 1.0
        assert both.throughput == pytest.approx(4.0, rel=0.02)

    def test_stateful_stage_cannot_replicate(self):
        grid = uniform_grid(2)
        ctx = ModelContext(
            stage_costs=(StageCost(work=0.1, replicable=False),),
            view=snapshot_view(grid.snapshot(0.0)),
            source_pid=0,
            sink_pid=0,
        )
        with pytest.raises(ValueError, match="stateful"):
            predict(Mapping(((0, 1),)), ctx)


class TestMonotonicityProperties:
    @given(
        works=st.lists(
            st.floats(min_value=0.01, max_value=10.0, allow_nan=False),
            min_size=1,
            max_size=5,
        )
    )
    def test_slower_grid_never_faster(self, works):
        fast = uniform_grid(3, speed=2.0)
        slow = uniform_grid(3, speed=1.0)
        mapping = Mapping.single([i % 3 for i in range(len(works))])
        p_fast = predict(mapping, make_ctx(works, fast))
        p_slow = predict(mapping, make_ctx(works, slow))
        assert p_fast.throughput >= p_slow.throughput

    @given(
        extra=st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
    )
    def test_adding_work_never_raises_throughput(self, extra):
        grid = uniform_grid(2)
        base = predict(Mapping.single([0, 1]), make_ctx([0.5, 0.5], grid))
        heavier = predict(Mapping.single([0, 1]), make_ctx([0.5 + extra, 0.5], grid))
        assert heavier.throughput <= base.throughput + 1e-12
