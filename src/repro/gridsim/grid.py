"""The :class:`GridSystem` façade and point-in-time snapshots.

A :class:`GridSystem` bundles processors and topology, answers "what does the
grid look like right now" via :meth:`GridSystem.snapshot`, and hosts the
perturbation API used by benchmark scenarios.  Snapshots are what the
performance model consumes — they are *ground truth*; the monitoring layer
produces noisy estimates of the same quantities.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.gridsim.channels import SimResource
from repro.gridsim.load import CompositeLoad, StepLoad
from repro.gridsim.network import Link, Topology
from repro.gridsim.resources import Processor

__all__ = ["GridSystem", "GridSnapshot"]


@dataclass(frozen=True)
class GridSnapshot:
    """Ground-truth grid state at one instant.

    ``effective_speed[pid]`` is nominal speed × availability; ``links`` maps
    ``(src_pid, dst_pid)`` to ``(latency_s, effective_bandwidth_Bps)``.
    Only pairs that were requested are present in ``links`` (it is built
    lazily via :meth:`GridSystem.snapshot` for the processors of interest).
    """

    time: float
    speed: dict[int, float]
    availability: dict[int, float]
    effective_speed: dict[int, float]
    links: dict[tuple[int, int], tuple[float, float]] = field(default_factory=dict)


class GridSystem:
    """A set of processors plus their interconnect.

    Construct directly from components or declaratively through
    :class:`repro.gridsim.spec.GridSpec`.
    """

    def __init__(self, processors: list[Processor], topology: Topology | None = None) -> None:
        if not processors:
            raise ValueError("a grid needs at least one processor")
        pids = [p.pid for p in processors]
        if len(set(pids)) != len(pids):
            raise ValueError(f"duplicate processor ids: {sorted(pids)}")
        self._procs: dict[int, Processor] = {p.pid: p for p in processors}
        self.topology = topology if topology is not None else Topology()
        self._link_resources: dict[int, SimResource] = {}

    # -- accessors ----------------------------------------------------------
    @property
    def processors(self) -> list[Processor]:
        """Processors ordered by pid."""
        return [self._procs[pid] for pid in sorted(self._procs)]

    @property
    def pids(self) -> list[int]:
        return sorted(self._procs)

    def processor(self, pid: int) -> Processor:
        try:
            return self._procs[pid]
        except KeyError:
            raise KeyError(f"no processor with pid {pid}; have {sorted(self._procs)}") from None

    def link(self, a: int, b: int) -> Link:
        """Link used for data moving from processor ``a`` to ``b``."""
        return self.topology.link(self.processor(a), self.processor(b))

    def link_resource(self, a: int, b: int) -> SimResource:
        """Serialisation resource for the physical link carrying ``a``→``b``.

        Used by executors running with link contention enabled: concurrent
        transfers over the same *physical* link queue here, so a shared
        bottleneck (e.g. the one WAN pipe between two sites, which the
        topology returns as a single :class:`Link` object for every
        cross-site pair) genuinely saturates.  Keyed by link-object
        identity; both directions share (half-duplex).  Same-processor
        transfers never contend — callers skip loopbacks.
        """
        if a == b:
            raise ValueError("loopback transfers do not contend; do not request a resource")
        link = self.link(a, b)
        key = id(link)
        res = self._link_resources.get(key)
        if res is None:
            res = SimResource(capacity=1, name=f"link[{link.name or key}]")
            self._link_resources[key] = res
        return res

    def __len__(self) -> int:
        return len(self._procs)

    def __contains__(self, pid: int) -> bool:
        return pid in self._procs

    # -- snapshots ------------------------------------------------------------
    def snapshot(self, t: float, pairs: list[tuple[int, int]] | None = None) -> GridSnapshot:
        """Ground-truth state at time ``t``.

        ``pairs`` selects which link pairs to materialise; ``None`` includes
        all ordered pairs (fine for the grid sizes in the experiments).
        """
        speed = {pid: p.speed for pid, p in self._procs.items()}
        avail = {pid: p.availability(t) for pid, p in self._procs.items()}
        eff = {pid: speed[pid] * avail[pid] for pid in self._procs}
        if pairs is None:
            pids = sorted(self._procs)
            pairs = [(a, b) for a in pids for b in pids]
        links = {}
        for a, b in pairs:
            lk = self.link(a, b)
            links[(a, b)] = (lk.latency, lk.effective_bandwidth(t))
        return GridSnapshot(
            time=t, speed=speed, availability=avail, effective_speed=eff, links=links
        )

    # -- perturbations ---------------------------------------------------------
    def perturb(self, pid: int, steps: list[tuple[float, float]]) -> None:
        """Overlay a stepped availability schedule on processor ``pid``.

        The schedule multiplies the processor's existing load model, so a node
        that already fluctuates keeps fluctuating around the new level.  Used
        by benchmark scenarios ("at t=40, node 3 drops to 20 %").
        """
        proc = self.processor(pid)
        proc.set_load(CompositeLoad([proc.load, StepLoad(steps, initial=1.0)]))
