"""Processors: heterogeneous, non-dedicated compute resources.

A :class:`Processor` has a *nominal speed* (work units per second, relative
to a reference machine at 1.0) and a background :class:`~repro.gridsim.load.
LoadModel` describing how much of that speed external users take away over
time.  Co-located pipeline stages contend for the processor through its
``resource`` (a capacity-1 :class:`~repro.gridsim.channels.SimResource`),
which realises equitable time-sharing in the simulation.

Service-time semantics: the effective speed is *frozen at service start* —
an item that starts executing when availability is 0.5 runs to completion at
that speed even if availability changes mid-service.  This is a standard DES
approximation; with per-item service times far below load-change timescales
(the regime of every experiment here) the error is negligible.
"""

from __future__ import annotations

from repro.gridsim.channels import SimResource
from repro.gridsim.load import ConstantLoad, LoadModel
from repro.util.validation import check_positive

__all__ = ["Processor"]


class Processor:
    """One grid node.

    Parameters
    ----------
    pid:
        Unique integer id, used in mappings and snapshots.
    speed:
        Nominal speed in work-units/second relative to the reference machine.
    load:
        Background-load model; defaults to a dedicated node.
    site:
        Name of the site (cluster) this node belongs to; drives default link
        selection in :class:`~repro.gridsim.network.Topology`.
    name:
        Human-readable label.
    """

    def __init__(
        self,
        pid: int,
        speed: float = 1.0,
        load: LoadModel | None = None,
        site: str = "site0",
        name: str | None = None,
    ) -> None:
        check_positive(speed, "speed")
        self.pid = int(pid)
        self.speed = float(speed)
        self.load = load if load is not None else ConstantLoad(1.0)
        self.site = site
        self.name = name if name is not None else f"proc{pid}"
        # Capacity-1: co-located stage actors serialise on the CPU.
        self.resource = SimResource(capacity=1, name=f"{self.name}.cpu")

    def availability(self, t: float) -> float:
        """Background-load availability at time ``t`` in (0, 1]."""
        return self.load.availability(t)

    def effective_speed(self, t: float) -> float:
        """Work units per second actually deliverable at time ``t``."""
        return self.speed * self.load.availability(t)

    def set_load(self, load: LoadModel) -> None:
        """Replace the background-load model (used by perturbation scenarios)."""
        self.load = load

    def __repr__(self) -> str:
        return f"Processor(pid={self.pid}, speed={self.speed}, site={self.site!r})"
