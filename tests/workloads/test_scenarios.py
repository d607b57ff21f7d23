"""Tests for grid scenarios."""

import pytest

from repro.gridsim.load import ConstantLoad
from repro.gridsim.spec import GridSpec, SiteSpec, uniform_grid
from repro.workloads.scenarios import (
    PerturbationScenario,
    heterogeneity_ladder,
    load_step,
    markov_load_factory,
    node_churn,
)


class TestPerturbationScenario:
    def test_apply_returns_the_grid(self):
        grid = uniform_grid(2)
        assert load_step(0, at=1.0, availability=0.5).apply(grid) is grid

    def test_steps_multiply_existing_load(self):
        grid = uniform_grid(2)
        grid.processor(1).set_load(ConstantLoad(0.5))
        load_step(1, at=10.0, availability=0.4).apply(grid)
        assert grid.processor(1).availability(5.0) == pytest.approx(0.5)
        assert grid.processor(1).availability(15.0) == pytest.approx(0.2)

    def test_several_nodes_in_one_script(self):
        grid = uniform_grid(3)
        PerturbationScenario("two", steps={0: [(5.0, 0.5)], 2: [(8.0, 0.25)]}).apply(grid)
        assert [grid.processor(p).availability(10.0) for p in range(3)] == pytest.approx(
            [0.5, 1.0, 0.25]
        )


class TestLoadStep:
    def test_applies(self):
        grid = uniform_grid(3)
        load_step(1, at=10.0, availability=0.2).apply(grid)
        assert grid.processor(1).availability(5.0) == pytest.approx(1.0)
        assert grid.processor(1).availability(15.0) == pytest.approx(0.2)

    def test_recovery(self):
        grid = uniform_grid(2)
        load_step(0, at=10.0, availability=0.2, recover_at=50.0).apply(grid)
        assert grid.processor(0).availability(60.0) == pytest.approx(1.0)

    def test_invalid_recovery(self):
        with pytest.raises(ValueError):
            load_step(0, at=10.0, availability=0.2, recover_at=5.0)


class TestNodeChurn:
    def test_alternates(self):
        grid = uniform_grid(1)
        node_churn(0, period=10.0, duty=0.5, availability=0.01).apply(grid)
        p = grid.processor(0)
        assert p.availability(2.0) == pytest.approx(1.0)  # first up phase
        assert p.availability(7.0) == pytest.approx(0.01)  # down
        assert p.availability(12.0) == pytest.approx(1.0)  # up again

    def test_invalid_duty(self):
        with pytest.raises(ValueError):
            node_churn(0, period=10.0, duty=1.5)

    def test_invalid_period(self):
        with pytest.raises(ValueError):
            node_churn(0, period=0.0)

    def test_stays_up_after_until(self):
        grid = uniform_grid(1)
        node_churn(0, period=10.0, duty=0.5, until=30.0).apply(grid)
        assert grid.processor(0).availability(27.0) == pytest.approx(0.01)
        assert all(
            grid.processor(0).availability(t) == pytest.approx(1.0) for t in (31.0, 37.0, 500.0)
        )


class TestHeterogeneityLadder:
    def test_endpoints(self):
        speeds = heterogeneity_ladder(4, factor=8.0)
        assert speeds[0] == pytest.approx(1.0)
        assert speeds[-1] == pytest.approx(8.0)
        assert len(speeds) == 4

    def test_monotone(self):
        speeds = heterogeneity_ladder(6, factor=4.0)
        assert speeds == sorted(speeds)

    def test_homogeneous(self):
        assert heterogeneity_ladder(3, factor=1.0) == [1.0, 1.0, 1.0]

    def test_single_node(self):
        assert heterogeneity_ladder(1, factor=5.0) == [1.0]

    def test_invalid_factor(self):
        with pytest.raises(ValueError):
            heterogeneity_ladder(3, factor=0.5)

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            heterogeneity_ladder(0, factor=2.0)


class TestLoadFactories:
    @pytest.mark.parametrize(
        "factory",
        [
            markov_load_factory(),
            markov_load_factory(mean_idle=5.0, mean_busy=5.0),
            markov_load_factory(busy_availability=0.05),
        ],
    )
    def test_usable_in_grid_spec(self, factory):
        spec = GridSpec(
            sites=[SiteSpec(name="s", speeds=[1.0, 1.0], load_factory=factory)],
            seed=3,
        )
        grid = spec.build()
        vals = [grid.processor(0).availability(float(t)) for t in range(200)]
        assert all(0.0 < v <= 1.0 for v in vals)
        assert len(set(round(v, 6) for v in vals)) > 1  # actually varies

    def test_busy_level_is_the_factory_setting(self):
        grid = uniform_grid(
            1, load_factory=markov_load_factory(mean_idle=5.0, mean_busy=5.0, busy_availability=0.3)
        )
        vals = {grid.processor(0).availability(float(t)) for t in range(300)}
        assert vals == {1.0, 0.3}

    def test_each_node_draws_its_own_trace(self):
        grid = uniform_grid(2, load_factory=markov_load_factory(mean_idle=5.0, mean_busy=5.0))
        traces = [
            [grid.processor(p).availability(float(t)) for t in range(300)] for p in (0, 1)
        ]
        assert traces[0] != traces[1]
