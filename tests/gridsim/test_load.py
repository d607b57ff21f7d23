"""Tests for background-load models."""

import pytest

from repro.gridsim.load import (
    MIN_AVAILABILITY,
    CompositeLoad,
    ConstantLoad,
    MarkovOnOffLoad,
    PeriodicLoad,
    RandomWalkLoad,
    StepLoad,
)
from repro.util.rng import derive_rng


class TestLoadModelInterface:
    def test_callable_is_availability(self):
        m = StepLoad([(10.0, 0.5)])
        assert [m(t) for t in (5.0, 15.0)] == [m.availability(t) for t in (5.0, 15.0)]


class TestConstantLoad:
    def test_value(self):
        assert ConstantLoad(0.7).availability(123.0) == 0.7

    def test_zero_clamped(self):
        assert ConstantLoad(0.0).availability(0.0) == MIN_AVAILABILITY

    def test_invalid(self):
        with pytest.raises(ValueError):
            ConstantLoad(1.5)


class TestStepLoad:
    def test_initial_before_first_step(self):
        m = StepLoad([(10.0, 0.5)], initial=1.0)
        assert m.availability(9.999) == 1.0

    def test_step_applies_at_breakpoint(self):
        m = StepLoad([(10.0, 0.5)], initial=1.0)
        assert m.availability(10.0) == 0.5
        assert m.availability(1e9) == 0.5

    def test_multiple_steps(self):
        m = StepLoad([(10.0, 0.5), (20.0, 0.2), (30.0, 1.0)])
        assert m.availability(15.0) == 0.5
        assert m.availability(25.0) == 0.2
        assert m.availability(35.0) == 1.0

    def test_unsorted_input_sorted(self):
        m = StepLoad([(20.0, 0.2), (10.0, 0.5)])
        assert m.availability(15.0) == 0.5

    def test_invalid_value(self):
        with pytest.raises(ValueError):
            StepLoad([(0.0, 2.0)])

    def test_empty_schedule_keeps_initial(self):
        m = StepLoad([], initial=0.6)
        assert m.availability(0.0) == m.availability(1e6) == 0.6


class TestRandomWalkLoad:
    def test_deterministic_for_same_seed(self):
        a = RandomWalkLoad(derive_rng(3, "w"), dt=1.0, sigma=0.1)
        b = RandomWalkLoad(derive_rng(3, "w"), dt=1.0, sigma=0.1)
        ts = [0.0, 3.5, 10.0, 7.2, 100.0]
        assert [a.availability(t) for t in ts] == [b.availability(t) for t in ts]

    def test_pure_function_of_time(self):
        # Querying out of order must agree with querying in order.
        m1 = RandomWalkLoad(derive_rng(4, "w"), dt=1.0, sigma=0.2)
        m2 = RandomWalkLoad(derive_rng(4, "w"), dt=1.0, sigma=0.2)
        forward = [m1.availability(t) for t in (1.0, 2.0, 3.0)]
        backward = [m2.availability(t) for t in (3.0, 2.0, 1.0)]
        assert forward == backward[::-1]

    def test_respects_bounds(self):
        m = RandomWalkLoad(derive_rng(5, "w"), dt=0.5, sigma=0.5, lo=0.3, hi=0.9)
        vals = [m.availability(t) for t in range(200)]
        assert all(0.3 <= v <= 0.9 for v in vals)

    def test_constant_within_a_step(self):
        m = RandomWalkLoad(derive_rng(6, "w"), dt=1.0, sigma=0.2)
        assert m.availability(2.1) == m.availability(2.9)

    def test_start_clamped_into_bounds(self):
        m = RandomWalkLoad(derive_rng(6, "w"), start=1.0, lo=0.2, hi=0.8)
        assert m.availability(0.0) == 0.8

    def test_invalid_dt(self):
        with pytest.raises(ValueError):
            RandomWalkLoad(derive_rng(0, "w"), dt=0.0)

    def test_actually_varies(self):
        m = RandomWalkLoad(derive_rng(6, "w"), dt=1.0, sigma=0.1)
        vals = {round(m.availability(t), 6) for t in range(50)}
        assert len(vals) > 5

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            RandomWalkLoad(derive_rng(0, "w"), lo=0.9, hi=0.5)


class TestMarkovOnOffLoad:
    def test_two_level_values(self):
        m = MarkovOnOffLoad(
            derive_rng(7, "m"), mean_idle=5.0, mean_busy=5.0, busy_availability=0.25
        )
        vals = {m.availability(float(t)) for t in range(300)}
        assert vals <= {1.0, 0.25}
        assert len(vals) == 2  # both states visited over 300 s

    def test_deterministic(self):
        a = MarkovOnOffLoad(derive_rng(8, "m"))
        b = MarkovOnOffLoad(derive_rng(8, "m"))
        ts = [0.0, 50.0, 12.5, 200.0]
        assert [a.availability(t) for t in ts] == [b.availability(t) for t in ts]

    def test_starts_idle_by_default(self):
        m = MarkovOnOffLoad(derive_rng(9, "m"), mean_idle=1000.0)
        assert m.availability(0.0) == 1.0

    def test_start_busy(self):
        m = MarkovOnOffLoad(
            derive_rng(9, "m"), mean_busy=1000.0, busy_availability=0.1, start_busy=True
        )
        assert m.availability(0.0) == 0.1

    def test_long_run_busy_share(self):
        # Alternating exponential sojourns: busy a mean_busy/(mean_idle +
        # mean_busy) share of the time in the long run.
        m = MarkovOnOffLoad(
            derive_rng(10, "m"), mean_idle=30.0, mean_busy=10.0, busy_availability=0.2
        )
        busy = [m.availability(t / 10) == 0.2 for t in range(200_000)]
        assert sum(busy) / len(busy) == pytest.approx(0.25, abs=0.05)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            MarkovOnOffLoad(derive_rng(0, "m"), mean_idle=0.0)
        with pytest.raises(ValueError):
            MarkovOnOffLoad(derive_rng(0, "m"), busy_availability=1.5)


class TestPeriodicLoad:
    def test_oscillates_around_base(self):
        m = PeriodicLoad(base=0.6, amplitude=0.3, period=100.0)
        assert m.availability(25.0) == pytest.approx(0.9)  # sin peak
        assert m.availability(75.0) == pytest.approx(0.3)  # sin trough

    def test_clamped_to_valid_range(self):
        m = PeriodicLoad(base=0.9, amplitude=0.5, period=10.0)
        vals = [m.availability(t / 10) for t in range(200)]
        assert all(MIN_AVAILABILITY <= v <= 1.0 for v in vals)

    def test_negative_amplitude_rejected(self):
        with pytest.raises(ValueError):
            PeriodicLoad(amplitude=-0.1)

    def test_phase_shifts_the_cycle(self):
        m = PeriodicLoad(base=0.6, amplitude=0.3, period=100.0, phase=25.0)
        assert m.availability(0.0) == pytest.approx(0.9)
        assert m.availability(50.0) == pytest.approx(0.3)

    def test_invalid_period(self):
        with pytest.raises(ValueError):
            PeriodicLoad(period=0.0)


class TestCompositeLoad:
    def test_product(self):
        m = CompositeLoad([ConstantLoad(0.5), ConstantLoad(0.4)])
        assert m.availability(0.0) == pytest.approx(0.2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            CompositeLoad([])

    def test_follows_time_varying_parts(self):
        m = CompositeLoad([StepLoad([(10.0, 0.5)]), StepLoad([(20.0, 0.4)])])
        assert [m.availability(t) for t in (5.0, 15.0, 25.0)] == pytest.approx([1.0, 0.5, 0.2])

    def test_clamped(self):
        m = CompositeLoad([ConstantLoad(0.001), ConstantLoad(0.001)])
        assert m.availability(0.0) == MIN_AVAILABILITY
