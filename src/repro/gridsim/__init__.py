"""Discrete-event simulation of a computational grid.

This subpackage is the substrate that replaces the paper's physical grid
testbed (see DESIGN.md §2).  It provides:

* :mod:`repro.gridsim.engine` — a deterministic discrete-event simulator with
  generator-coroutine processes (a minimal SimPy-like kernel built from
  scratch, as required by the reproduction protocol).
* :mod:`repro.gridsim.channels` — finite-capacity FIFO channels with blocking
  put/get (MPI-like message semantics) and counting resources.
* :mod:`repro.gridsim.resources` — processors with relative speeds and
  time-varying background load (the "non-dedicated" part of the grid).
* :mod:`repro.gridsim.load` — background-load models: constant, steps,
  random walk, Markov on/off, periodic, composite.
* :mod:`repro.gridsim.network` — links (latency + bandwidth) and topology.
* :mod:`repro.gridsim.grid` — the :class:`GridSystem` façade + snapshots.
* :mod:`repro.gridsim.spec` — declarative grid construction helpers.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "channels": "Channel ChannelClosed SimResource",
        "engine": (
            "AnyOf Interrupt Process ProcessFailed SimEvent Simulator Timeout"
        ),
        "grid": "GridSnapshot GridSystem",
        "load": (
            "CompositeLoad ConstantLoad LoadModel MarkovOnOffLoad "
            "PeriodicLoad RandomWalkLoad StepLoad"
        ),
        "network": "Link Topology loopback_link",
        "resources": "Processor",
        "spec": "GridSpec SiteSpec heterogeneous_grid two_site_grid uniform_grid",
    },
)
