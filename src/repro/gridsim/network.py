"""Links and topology: the heterogeneous grid interconnect.

The model keeps what the adaptive pipeline reacts to — per-pair latency and
bandwidth — and nothing it does not (no routing, no packet-level detail).
Transfers between stages co-located on one processor use a
:func:`loopback_link` that is effectively free, matching the paper line's
observation that in-memory hand-off is orders of magnitude cheaper than
wide-area transfer.
"""

from __future__ import annotations

from repro.gridsim.resources import Processor
from repro.util.validation import check_non_negative, check_positive

__all__ = ["Link", "Topology", "loopback_link", "LOOPBACK_LATENCY", "LOOPBACK_BANDWIDTH"]

LOOPBACK_LATENCY = 1e-7  # seconds
LOOPBACK_BANDWIDTH = 1e12  # bytes/second


class Link:
    """A directed network link with a fixed latency and bandwidth."""

    def __init__(self, latency: float, bandwidth: float, name: str = "") -> None:
        check_non_negative(latency, "latency")
        check_positive(bandwidth, "bandwidth")
        self.latency = float(latency)
        self.bandwidth = float(bandwidth)
        self.name = name

    def transfer_time(self, nbytes: float) -> float:
        """Seconds to move ``nbytes``."""
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        return self.latency + nbytes / self.bandwidth

    def __repr__(self) -> str:
        return f"Link(latency={self.latency}, bandwidth={self.bandwidth:g})"


def loopback_link() -> Link:
    """Link used for same-processor transfers (effectively free)."""
    return Link(LOOPBACK_LATENCY, LOOPBACK_BANDWIDTH, name="loopback")


class Topology:
    """Per-pair link lookup with site-based defaults.

    Resolution order for ``link(a, b)``:

    1. same processor → loopback;
    2. an explicit override registered with :meth:`set_link`;
    3. same site → the intra-site default link;
    4. otherwise → the inter-site default link.

    Links are symmetric unless an asymmetric override is registered.
    """

    def __init__(
        self,
        intra_site: Link | None = None,
        inter_site: Link | None = None,
    ) -> None:
        # LAN-ish and WAN-ish defaults (2008-era grid numbers).
        self.intra_site = intra_site if intra_site is not None else Link(1e-4, 100e6)
        self.inter_site = inter_site if inter_site is not None else Link(30e-3, 5e6)
        self._loopback = loopback_link()
        self._overrides: dict[tuple[int, int], Link] = {}

    def set_link(self, a: int, b: int, link: Link, symmetric: bool = True) -> None:
        """Register an explicit link between processors ``a`` and ``b``."""
        self._overrides[(a, b)] = link
        if symmetric:
            self._overrides[(b, a)] = link

    def link(self, a: Processor, b: Processor) -> Link:
        """Resolve the link used to move data from ``a`` to ``b``."""
        if a.pid == b.pid:
            return self._loopback
        override = self._overrides.get((a.pid, b.pid))
        if override is not None:
            return override
        if a.site == b.site:
            return self.intra_site
        return self.inter_site
