"""Declarative grid construction.

Experiments describe grids as data (:class:`GridSpec` / :class:`SiteSpec`)
so scenario files and benchmarks stay free of construction boilerplate, and
the same spec can be rebuilt with different seeds for repetitions.

Convenience builders:

* :func:`uniform_grid` — ``n`` identical dedicated nodes in one site.
* :func:`heterogeneous_grid` — explicit per-node speeds in one site.
* :func:`two_site_grid` — a classic grid shape: a fast local cluster plus a
  remote cluster behind a WAN link.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.gridsim.grid import GridSystem
from repro.gridsim.load import ConstantLoad, LoadModel
from repro.gridsim.network import Link, Topology
from repro.gridsim.resources import Processor
from repro.util.rng import derive_rng
from repro.util.validation import check_positive

__all__ = ["SiteSpec", "GridSpec", "uniform_grid", "heterogeneous_grid", "two_site_grid"]

# A load factory receives (rng, pid) and returns the node's load model, so
# specs can describe stochastic load without baking in generator state.
LoadFactory = Callable[[np.random.Generator, int], LoadModel]


def _dedicated(_rng: np.random.Generator, _pid: int) -> LoadModel:
    return ConstantLoad(1.0)


@dataclass
class SiteSpec:
    """One cluster: node count, per-node speeds, intra-site link."""

    name: str
    speeds: list[float]
    intra_latency: float = 1e-4
    intra_bandwidth: float = 100e6
    load_factory: LoadFactory = _dedicated

    def __post_init__(self) -> None:
        if not self.speeds:
            raise ValueError(f"site {self.name!r} has no nodes")
        for s in self.speeds:
            check_positive(s, "speed")


@dataclass
class GridSpec:
    """A multi-site grid description; ``build`` turns it into a GridSystem."""

    sites: list[SiteSpec]
    inter_latency: float = 30e-3
    inter_bandwidth: float = 5e6
    seed: int = 0
    link_overrides: list[tuple[int, int, Link]] = field(default_factory=list)

    def build(self) -> GridSystem:
        """Materialise processors and topology (fresh load-model streams)."""
        if not self.sites:
            raise ValueError("grid spec has no sites")
        procs: list[Processor] = []
        pid = 0
        for site in self.sites:
            for speed in site.speeds:
                rng = derive_rng(self.seed, "load", site.name, str(pid))
                procs.append(
                    Processor(
                        pid=pid,
                        speed=speed,
                        load=site.load_factory(rng, pid),
                        site=site.name,
                    )
                )
                pid += 1
        # Use the first site's link parameters as the intra-site default; the
        # topology consults `site` equality, so differing sites only matter
        # for the inter-site link.  Per-site intra links can be expressed via
        # link_overrides when needed.
        first = self.sites[0]
        topo = Topology(
            intra_site=Link(first.intra_latency, first.intra_bandwidth, name="intra"),
            inter_site=Link(self.inter_latency, self.inter_bandwidth, name="inter"),
        )
        for a, b, link in self.link_overrides:
            topo.set_link(a, b, link)
        return GridSystem(procs, topo)


def uniform_grid(
    n: int,
    speed: float = 1.0,
    *,
    latency: float = 1e-4,
    bandwidth: float = 100e6,
    load_factory: LoadFactory = _dedicated,
    seed: int = 0,
) -> GridSystem:
    """``n`` identical nodes in a single site."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    spec = GridSpec(
        sites=[
            SiteSpec(
                name="site0",
                speeds=[speed] * n,
                intra_latency=latency,
                intra_bandwidth=bandwidth,
                load_factory=load_factory,
            )
        ],
        seed=seed,
    )
    return spec.build()


def heterogeneous_grid(
    speeds: list[float],
    *,
    latency: float = 1e-4,
    bandwidth: float = 100e6,
    load_factory: LoadFactory = _dedicated,
    seed: int = 0,
) -> GridSystem:
    """Single-site grid with explicit per-node speeds."""
    spec = GridSpec(
        sites=[
            SiteSpec(
                name="site0",
                speeds=list(speeds),
                intra_latency=latency,
                intra_bandwidth=bandwidth,
                load_factory=load_factory,
            )
        ],
        seed=seed,
    )
    return spec.build()


def two_site_grid(
    local_speeds: list[float],
    remote_speeds: list[float],
    *,
    wan_latency: float = 30e-3,
    wan_bandwidth: float = 5e6,
    seed: int = 0,
) -> GridSystem:
    """A local cluster plus a remote cluster behind a WAN link (dedicated
    processors)."""
    spec = GridSpec(
        sites=[
            SiteSpec(name="local", speeds=list(local_speeds)),
            SiteSpec(name="remote", speeds=list(remote_speeds)),
        ],
        inter_latency=wan_latency,
        inter_bandwidth=wan_bandwidth,
        seed=seed,
    )
    return spec.build()
