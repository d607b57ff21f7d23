"""Named grid scenarios: the "non-dedicated grid" conditions of the paper.

A :class:`PerturbationScenario` is a reproducible script of availability
changes applied to a grid.  Benchmarks build a fresh grid per run and apply
the scenario, so baselines and adaptive runs face *identical* conditions.

A load factory (for :class:`~repro.gridsim.spec.SiteSpec.load_factory`)
describes statistically non-dedicated nodes: Markov on/off interference.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.gridsim.grid import GridSystem
from repro.gridsim.load import LoadModel, MarkovOnOffLoad
from repro.util.validation import check_positive

__all__ = [
    "PerturbationScenario",
    "load_step",
    "node_churn",
    "heterogeneity_ladder",
    "markov_load_factory",
]


@dataclass(frozen=True)
class PerturbationScenario:
    """A named, reproducible availability script.

    ``steps`` maps pid → list of (time, availability) breakpoints, applied
    multiplicatively on top of whatever load the grid already has.
    """

    name: str
    steps: dict[int, list[tuple[float, float]]] = field(default_factory=dict)

    def apply(self, grid: GridSystem) -> GridSystem:
        """Apply the script to ``grid`` (mutates and returns it)."""
        for pid, schedule in self.steps.items():
            grid.perturb(pid, schedule)
        return grid


def load_step(
    pid: int, at: float, availability: float, *, recover_at: float | None = None
) -> PerturbationScenario:
    """One node drops to ``availability`` at ``at`` (optionally recovers).

    The canonical E1 condition: an external job lands on one grid node.
    """
    schedule = [(at, availability)]
    if recover_at is not None:
        if recover_at <= at:
            raise ValueError(f"recover_at must follow at: {recover_at} <= {at}")
        schedule.append((recover_at, 1.0))
    return PerturbationScenario(name=f"load-step(p{pid}@{at})", steps={pid: schedule})


def node_churn(
    pid: int, period: float, duty: float = 0.5, availability: float = 0.01, until: float = 1e4
) -> PerturbationScenario:
    """A node that repeatedly (almost) disappears and returns.

    ``duty`` is the fraction of each period the node is *up*; "down" means
    ``availability`` (near zero — grid nodes rarely vanish cleanly, they
    just stop making progress).
    """
    check_positive(period, "period")
    if not 0.0 < duty < 1.0:
        raise ValueError(f"duty must be in (0, 1), got {duty}")
    schedule: list[tuple[float, float]] = []
    t = period * duty
    while t < until:
        schedule.append((t, availability))
        schedule.append((t + period * (1.0 - duty), 1.0))
        t += period
    return PerturbationScenario(name=f"churn(p{pid})", steps={pid: schedule})


def heterogeneity_ladder(n: int, factor: float) -> list[float]:
    """Speeds for an ``n``-node grid with max/min speed ratio ``factor``.

    Speeds are geometrically spaced between 1.0 and ``factor`` — the E3
    x-axis.  ``factor=1`` is a homogeneous cluster.
    """
    check_positive(n, "n")
    if factor < 1.0:
        raise ValueError(f"factor must be >= 1.0, got {factor}")
    if n == 1:
        return [1.0]
    return [float(factor ** (i / (n - 1))) for i in range(n)]


def markov_load_factory(
    mean_idle: float = 40.0, mean_busy: float = 15.0, busy_availability: float = 0.3
):
    """Nodes suffering Markov on/off external jobs (non-dedicated cluster)."""

    def factory(rng: np.random.Generator, pid: int) -> LoadModel:
        return MarkovOnOffLoad(
            rng,
            mean_idle=mean_idle,
            mean_busy=mean_busy,
            busy_availability=busy_availability,
        )

    return factory
