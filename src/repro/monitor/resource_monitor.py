"""Periodic, noisy sampling of grid resources inside a simulation.

The :class:`ResourceMonitor` plays the role of the NWS sensors: a simulated
process wakes every simulated second, "measures" each processor's
availability and each link's bandwidth (ground truth perturbed by
multiplicative Gaussian noise — real sensors are noisy), feeds each series to
its own :func:`~repro.monitor.forecasters.default_ensemble`, and exposes the
forecasts through :meth:`estimates`.

The *decide* step of the adaptive pipeline consumes only these estimates —
never ground truth — so every adaptation decision in the experiments is made
with realistic, imperfect information.

:class:`HostLoadSampler` is the same sensor idea pointed at the *real* host:
it samples ``os.getloadavg()`` and turns it into an effective per-core speed
for the virtual grid the wall-clock adaptation loop plans over, so the
thread and distributed backends model contended cores instead of assuming
speed 1.0.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.util.validation import check_non_negative

if TYPE_CHECKING:
    from repro.gridsim.engine import Simulator
    from repro.gridsim.grid import GridSystem
    from repro.monitor.forecasters import EnsembleForecaster

__all__ = [
    "HostLoadSampler",
    "ResourceMonitor",
    "ResourceEstimates",
    "load_to_speed",
    "read_load1",
]

#: Effective speed is never reported below this: a saturated host still
#: makes progress, and a zero speed would divide the throughput model by 0.
SPEED_FLOOR = 0.05
#: The host sampler's cores, its EWMA weight of a new sample, and the least
#: seconds between two ``os.getloadavg`` calls (the kernel's 1-minute
#: average moves far slower than the decide loop may ask).
HOST_CORES = os.cpu_count() or 1
LOAD_ALPHA = 0.5
LOAD_MIN_INTERVAL = 0.25


def read_load1() -> float:
    """The host's 1-minute load average; 0.0 where unavailable (dedicated).

    The one load sensor in the codebase: the thread backend's sampler and
    the distributed worker's heartbeats both read through here.
    """
    if not hasattr(os, "getloadavg"):
        return 0.0
    try:
        return float(os.getloadavg()[0])
    except OSError:
        return 0.0


def load_to_speed(load: float, cores: int) -> float:
    """Effective per-core speed of a host with ``cores`` at load avg ``load``.

    The NWS-style availability heuristic: each unit of load average is one
    runnable task contending for a core, so a newly placed worker sees
    roughly the free fraction ``1 - load/cores`` of one core, clamped to
    ``[SPEED_FLOOR, 1]``.
    """
    if cores < 1:
        raise ValueError(f"cores must be >= 1, got {cores}")
    return max(SPEED_FLOOR, min(1.0, 1.0 - max(0.0, load) / cores))


class HostLoadSampler:
    """Samples this host's load average into an effective-speed estimate.

    Samples are rate-limited (at most one ``os.getloadavg`` call per
    :data:`LOAD_MIN_INTERVAL` seconds) and EWMA-smoothed (weight
    :data:`LOAD_ALPHA`) over the host's :data:`HOST_CORES`.  On
    platforms without ``os.getloadavg`` the sampler reports a dedicated
    host (speed 1.0, load 0.0).
    """

    def __init__(self) -> None:
        self._speed: float | None = None
        self._load = 0.0
        self._last_sample = -math.inf

    def sample(self) -> float:
        """Take (or reuse) a load sample; returns the raw 1-min load avg."""
        now = time.monotonic()
        if now - self._last_sample >= LOAD_MIN_INTERVAL:
            self._last_sample = now
            self._load = read_load1()
            raw = load_to_speed(self._load, HOST_CORES)
            if self._speed is None:
                self._speed = raw
            else:
                self._speed += LOAD_ALPHA * (raw - self._speed)
        return self._load

    def effective_speed(self) -> float:
        """Smoothed effective per-core speed in ``[SPEED_FLOOR, 1]``."""
        self.sample()
        assert self._speed is not None
        return self._speed


@dataclass(frozen=True)
class ResourceEstimates:
    """Forecasts of grid state, as believed by the monitor at ``time``.

    ``availability`` maps pid → forecast availability (0, 1]; ``bandwidth``
    maps (src, dst) → forecast bytes/s; ``latency`` maps (src, dst) →
    latency in seconds (latencies are treated as static, matching the
    topology model).
    """

    time: float
    availability: dict[int, float]
    bandwidth: dict[tuple[int, int], float] = field(default_factory=dict)
    latency: dict[tuple[int, int], float] = field(default_factory=dict)


class ResourceMonitor:
    """Samples a :class:`GridSystem` periodically from within a simulation.

    Parameters
    ----------
    sim, grid:
        The simulation to run in and the grid to observe; every processor
        and every ordered pair of processors is sampled once per
        :attr:`PERIOD`.
    noise_std:
        Multiplicative measurement noise: a sample of true value ``v`` is
        ``v * (1 + N(0, noise_std))`` clamped positive.  0 disables noise.
    rng:
        Source of measurement noise (seeded upstream).
    """

    #: Sampling interval in simulated seconds.
    PERIOD = 1.0

    def __init__(
        self,
        sim: Simulator,
        grid: GridSystem,
        *,
        noise_std: float = 0.02,
        rng: np.random.Generator | None = None,
    ) -> None:
        # Only the simulated monitor forecasts; the host-load helpers above
        # are what the real executors import this module for.
        from repro.monitor.forecasters import default_ensemble

        check_non_negative(noise_std, "noise_std")
        self._sim = sim
        self._grid = grid
        self.noise_std = float(noise_std)
        self._rng = rng if rng is not None else np.random.default_rng(0)
        pids = grid.pids
        self._pairs = [(a, b) for a in pids for b in pids]
        self._avail_fc: dict[int, EnsembleForecaster] = {p: default_ensemble() for p in pids}
        self._bw_fc: dict[tuple[int, int], EnsembleForecaster] = {
            pr: default_ensemble() for pr in self._pairs
        }
        self._proc = sim.process(self._sampling_loop(), name="resource-monitor")

    # -- measurement --------------------------------------------------------
    def _noisy(self, true_value: float) -> float:
        if self.noise_std == 0.0:
            return true_value
        factor = 1.0 + float(self._rng.normal(0.0, self.noise_std))
        return max(1e-9, true_value * factor)

    def _sample_once(self) -> None:
        t = self._sim.now
        for pid in self._grid.pids:
            measured = self._noisy(self._grid.processor(pid).availability(t))
            measured = min(1.0, measured)
            self._avail_fc[pid].observe(measured)
        for a, b in self._pairs:
            link = self._grid.link(a, b)
            self._bw_fc[(a, b)].observe(self._noisy(link.bandwidth))

    def _sampling_loop(self):
        # Take a sample immediately so estimates exist from t=0.
        self._sample_once()
        while True:
            yield self._sim.timeout(self.PERIOD)
            self._sample_once()

    # -- queries --------------------------------------------------------------
    def estimates(self) -> ResourceEstimates:
        """Current forecasts for all monitored resources."""
        avail = {}
        for pid, fc in self._avail_fc.items():
            pred = fc.predict()
            if math.isnan(pred):
                pred = 1.0  # optimistic prior before any sample
            avail[pid] = min(1.0, max(1e-3, pred))
        bandwidth = {}
        latency = {}
        for pr, fc in self._bw_fc.items():
            pred = fc.predict()
            link = self._grid.link(*pr)
            bandwidth[pr] = link.bandwidth if math.isnan(pred) else max(1e-9, pred)
            latency[pr] = link.latency
        return ResourceEstimates(
            time=self._sim.now, availability=avail, bandwidth=bandwidth, latency=latency
        )

    def stop(self) -> None:
        """Stop the sampling loop (e.g. at the end of a run)."""
        self._proc.interrupt("monitor-stop")
