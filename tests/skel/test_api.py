"""Tests for the skeleton API layer."""

import pytest

from repro.core.policy import AdaptationConfig
from repro.core.stage import StageSpec
from repro.gridsim.spec import uniform_grid
from repro.model.mapping import Mapping
from repro.skel.api import farm, pipeline_1for1, simulate_farm, simulate_pipeline
from repro.workloads.synthetic import balanced_pipeline


class TestPipeline1for1:
    def test_callables(self):
        out = pipeline_1for1([lambda x: x + 1, lambda x: x * 2], [1, 2, 3])
        assert out == [4, 6, 8]

    def test_mixed_specs_and_callables(self):
        stage = StageSpec(name="inc", work=0.01, fn=lambda x: x + 1)
        out = pipeline_1for1([stage, lambda x: x * 10], [0, 1])
        assert out == [10, 20]

    def test_replicated_stage(self):
        out = pipeline_1for1([lambda x: x**2], range(10), replicas=[3])
        assert out == [x**2 for x in range(10)]

    def test_invalid_stage_type(self):
        with pytest.raises(TypeError):
            pipeline_1for1([42], [1])  # type: ignore[list-item]

    def test_named_function_keeps_name(self):
        def double(x):
            return x * 2

        # Smoke test: construction succeeds and uses function name.
        out = pipeline_1for1([double], [1, 2])
        assert out == [2, 4]


def _inc(x):
    return x + 1


def _slow_double(x):
    import time

    time.sleep(0.01)
    return x * 2


class TestBackendSelection:
    def test_processes_match_threads(self):
        inputs = list(range(15))
        expected = pipeline_1for1([_inc, _slow_double], inputs, backend="threads")
        out = pipeline_1for1([_inc, _slow_double], inputs, backend="processes")
        assert out == expected == [(x + 1) * 2 for x in inputs]

    def test_typoed_backend_kwarg_raises(self):
        with pytest.raises(TypeError):
            pipeline_1for1([_inc], [1], backend="processes", max_replcas=16)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            pipeline_1for1([_inc], [1], backend="quantum")

    def test_backend_instance_accepted(self):
        from repro.backend import ThreadBackend
        from repro.core.pipeline import PipelineSpec as PS

        pipe = PS((StageSpec(name="inc", work=0.01, fn=_inc),))
        b = ThreadBackend(pipe)
        assert pipeline_1for1([_inc], [5], backend=b) == [6]

    def test_backend_instance_for_other_pipeline_rejected(self):
        from repro.backend import ThreadBackend
        from repro.core.pipeline import PipelineSpec as PS

        b = ThreadBackend(PS((StageSpec(name="inc", work=0.01, fn=_inc),)))
        with pytest.raises(ValueError, match="does not run the given stages"):
            pipeline_1for1([_slow_double], [5], backend=b)

    def test_backend_instance_with_shape_kwargs_rejected(self):
        from repro.backend import ThreadBackend
        from repro.core.pipeline import PipelineSpec as PS

        b = ThreadBackend(PS((StageSpec(name="inc", work=0.01, fn=_inc),)))
        with pytest.raises(ValueError, match="already configured"):
            pipeline_1for1([_inc], [5], backend=b, replicas=[2])
        with pytest.raises(ValueError, match="already configured"):
            pipeline_1for1([_inc], [5], backend=b, capacity=32)

    def test_farm_requires_backend_name(self):
        from repro.backend import ThreadBackend
        from repro.core.pipeline import PipelineSpec as PS

        b = ThreadBackend(PS((StageSpec(name="inc", work=0.01, fn=_inc),)))
        with pytest.raises(ValueError, match="backend name"):
            farm(_inc, [1], backend=b)

    def test_adaptive_run_returns_ordered_outputs(self):
        out = pipeline_1for1(
            [_inc, _slow_double], range(25), backend="threads", adaptive=True
        )
        assert out == [(x + 1) * 2 for x in range(25)]

    def test_adaptive_run_leaves_no_controller_on_a_callers_backend(self):
        import threading

        from repro.backend import ThreadBackend
        from repro.core.pipeline import PipelineSpec as PS

        def controllers():
            return sum(t.name == "adaptive-controller" for t in threading.enumerate())

        b = ThreadBackend(PS((StageSpec(name="inc", work=0.01, fn=_inc),)))
        before = controllers()
        try:
            for _ in range(2):  # a second call attaches no second controller
                assert pipeline_1for1([_inc], range(5), backend=b, adaptive=True) == [1, 2, 3, 4, 5]
                assert controllers() == before
        finally:
            b.close()

    def test_farm_on_processes(self):
        out = farm(_slow_double, range(12), workers=3, backend="processes")
        assert out == [x * 2 for x in range(12)]


class TestFarm:
    def test_results_in_order(self):
        out = farm(lambda x: x * 3, range(20), workers=4)
        assert out == [x * 3 for x in range(20)]

    def test_single_worker(self):
        assert farm(lambda x: -x, [1, 2], workers=1) == [-1, -2]


class TestSimulatePipeline:
    def test_static(self):
        res = simulate_pipeline(
            balanced_pipeline(3), uniform_grid(3), 100, adaptive=False,
            mapping=Mapping.single([0, 1, 2]),
        )
        assert res.completed_all
        assert res.adaptation_events == []

    def test_adaptive_default_config(self):
        grid = uniform_grid(4)
        grid.perturb(1, [(10.0, 0.1)])
        res = simulate_pipeline(
            balanced_pipeline(3),
            grid,
            600,
            adaptive=True,
            mapping=Mapping.single([0, 1, 2]),
        )
        assert res.completed_all
        assert any(e.kind != "rollback" for e in res.adaptation_events)

    def test_adaptive_custom_config(self):
        cfg = AdaptationConfig(interval=2.0, cooldown=4.0)
        res = simulate_pipeline(
            balanced_pipeline(2), uniform_grid(2), 50, adaptive=cfg,
            mapping=Mapping.single([0, 1]),
        )
        assert res.completed_all


class TestSimulateFarm:
    def test_uses_all_processors_by_default(self):
        res = simulate_farm(0.4, uniform_grid(4), 200)
        assert res.completed_all
        assert res.final_mapping.replicas(0) == (0, 1, 2, 3)

    def test_worker_cap(self):
        res = simulate_farm(0.4, uniform_grid(4), 100, workers=2)
        assert res.final_mapping.replicas(0) == (0, 1)

    def test_farm_scales(self):
        one = simulate_farm(0.4, uniform_grid(4), 200, workers=1)
        four = simulate_farm(0.4, uniform_grid(4), 200, workers=4)
        assert four.makespan < one.makespan / 2.5

    def test_outputs_ordered(self):
        res = simulate_farm(0.4, uniform_grid(4), 100)
        assert res.in_order()
