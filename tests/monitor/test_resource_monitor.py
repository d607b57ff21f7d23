"""Tests for the simulated resource monitor."""

import pytest

from repro.gridsim.engine import Simulator
from repro.gridsim.spec import heterogeneous_grid, uniform_grid
from repro.monitor.resource_monitor import (
    HOST_CORES,
    LOAD_ALPHA,
    LOAD_MIN_INTERVAL,
    SPEED_FLOOR,
    HostLoadSampler,
    ResourceMonitor,
    load_to_speed,
)
from repro.util.rng import derive_rng


class TestSampling:
    def test_samples_at_period(self):
        sim = Simulator()
        grid = uniform_grid(2)
        ResourceMonitor(sim, grid, noise_std=0.0)
        sim.run(until=10.5)
        # t=0 plus one per PERIOD through t=10: the next is due at t=11.
        assert ResourceMonitor.PERIOD == 1.0
        assert sim.peek() == pytest.approx(11.0)

    def test_a_change_shows_at_the_next_sample(self):
        sim = Simulator()
        grid = uniform_grid(1)
        grid.perturb(0, [(2.5, 0.2)])
        mon = ResourceMonitor(sim, grid, noise_std=0.0)
        sim.run(until=2.9)
        assert mon.estimates().availability[0] == pytest.approx(1.0)  # samples at 0, 1, 2
        sim.run(until=3.5)
        assert mon.estimates().availability[0] < 1.0  # the t=3 sample saw the drop

    def test_every_ordered_pair_is_monitored(self):
        sim = Simulator()
        grid = uniform_grid(3)
        mon = ResourceMonitor(sim, grid, noise_std=0.0)
        sim.run(until=1.0)
        assert set(mon.estimates().bandwidth) == {(a, b) for a in grid.pids for b in grid.pids}

    def test_estimates_track_truth_without_noise(self):
        sim = Simulator()
        grid = uniform_grid(2)
        mon = ResourceMonitor(sim, grid, noise_std=0.0)
        sim.run(until=5.0)
        est = mon.estimates()
        assert est.availability[0] == pytest.approx(1.0)
        assert est.availability[1] == pytest.approx(1.0)

    def test_detects_perturbation(self):
        sim = Simulator()
        grid = uniform_grid(2)
        grid.perturb(1, [(10.0, 0.2)])
        mon = ResourceMonitor(sim, grid, noise_std=0.0)
        sim.run(until=40.0)
        est = mon.estimates()
        assert est.availability[0] == pytest.approx(1.0, abs=0.05)
        assert est.availability[1] == pytest.approx(0.2, abs=0.1)

    def test_noise_does_not_bias_grossly(self):
        sim = Simulator()
        grid = uniform_grid(1)
        mon = ResourceMonitor(sim, grid, noise_std=0.05, rng=derive_rng(0, "noise"))
        sim.run(until=60.0)
        est = mon.estimates()
        assert est.availability[0] == pytest.approx(1.0, abs=0.1)

    def test_bandwidth_estimates_present(self):
        sim = Simulator()
        grid = heterogeneous_grid([1.0, 1.0], bandwidth=5e6)
        mon = ResourceMonitor(sim, grid, noise_std=0.0)
        sim.run(until=3.0)
        est = mon.estimates()
        assert est.bandwidth[(0, 1)] == pytest.approx(5e6, rel=0.01)
        assert est.latency[(0, 1)] > 0

    def test_estimates_before_any_sample_are_optimistic(self):
        sim = Simulator()
        grid = uniform_grid(1)
        mon = ResourceMonitor(sim, grid, noise_std=0.0)
        # No sim.run(): only the constructor sample at t=0 exists after run;
        # but estimates() must work even then.
        est = mon.estimates()
        assert 0.0 < est.availability[0] <= 1.0

    def test_stop_halts_sampling(self):
        sim = Simulator()
        grid = uniform_grid(1)
        mon = ResourceMonitor(sim, grid, noise_std=0.0)
        sim.run(until=2.5)
        mon.stop()
        sim.run(until=10.0)
        assert sim.peek() == float("inf")  # no sample left scheduled


class TestHostLoadSampler:
    """The availability-aware local view: os.getloadavg -> effective speed."""

    def test_load_to_speed_bounds(self):
        assert load_to_speed(0.0, 4) == 1.0
        assert load_to_speed(2.0, 4) == pytest.approx(0.5)
        assert load_to_speed(100.0, 4) == SPEED_FLOOR  # saturated, floored
        assert load_to_speed(-1.0, 4) == 1.0  # negative load clamps to free
        with pytest.raises(ValueError):
            load_to_speed(1.0, 0)

    @staticmethod
    def clocked(monkeypatch, loads, step):
        """A sampler reading the list ``loads`` in turn, whose clock moves
        ``step`` seconds per look."""
        now = [0.0]

        def tick():
            now[0] += step
            return now[0]

        monkeypatch.setattr("os.getloadavg", lambda: (loads.pop(0), 0, 0))
        monkeypatch.setattr("time.monotonic", tick)
        return HostLoadSampler()

    def test_sampler_smooths_with_ewma(self, monkeypatch):
        saturated = 100.0 * HOST_CORES
        sampler = self.clocked(
            monkeypatch, [0.0, saturated, saturated], step=LOAD_MIN_INTERVAL
        )
        assert sampler.effective_speed() == pytest.approx(1.0)
        # One EWMA step toward the floor, not all the way.
        first_step = 1.0 + LOAD_ALPHA * (SPEED_FLOOR - 1.0)
        assert sampler.effective_speed() == pytest.approx(first_step)
        assert SPEED_FLOOR < sampler.effective_speed() < first_step

    def test_sampler_rate_limits_getloadavg(self, monkeypatch):
        loads = [0.5] * 8
        sampler = self.clocked(monkeypatch, loads, step=LOAD_MIN_INTERVAL / 4)
        for _ in range(8):  # two intervals of the sampler's clock
            sampler.effective_speed()
        assert len(loads) == 6  # two reads

    def test_sampler_without_getloadavg_is_dedicated(self, monkeypatch):
        monkeypatch.delattr("os.getloadavg")
        sampler = HostLoadSampler()
        assert sampler.effective_speed() == 1.0
        assert sampler.sample() == 0.0
