"""Pluggable execution backends for the adaptive pipeline pattern.

The :class:`~repro.backend.base.Backend` port decouples *what* a pipeline
computes (a :class:`~repro.core.pipeline.PipelineSpec`) from *where* it
executes — the same separation task-parallel frameworks like Pipeflow draw
between pipeline structure and scheduling substrate.  Since the streaming
refactor the port is **session-oriented**: ``backend.open()`` returns a
long-lived :class:`~repro.backend.base.Session` with ``submit`` /
``results`` / ``drain`` / ``close`` — pipelines stay warm, accept work as
it arrives, and emit results as an ordered stream; ``run()`` is the
bounded-stream convenience on top.  Four executors ship, under five names:

* ``"sim"`` — :class:`SimBackend`, the discrete-event grid simulator
  (simulated time; sessions via a batch-emulation shim; adaptation via the
  in-sim controller);
* ``"threads"`` — :class:`ThreadBackend`, the local thread fabric
  (GIL-releasing kernels, I/O-bound stages and portable correctness runs;
  workers stay warm across streams).  A stage declared ``async def`` runs
  as worker coroutines on one warm event-loop thread, so ``"asyncio"`` —
  :class:`AsyncioBackend` — names the same fabric;
* ``"processes"`` — :class:`ProcessPoolBackend`, warm pre-forked process
  pools per stage (true multi-core for CPU-bound Python stages; pools
  survive across streams, items travel through a :mod:`repro.transport`
  codec, by default inline below a fixed shared-memory threshold);
* ``"distributed"`` — :class:`DistributedBackend`, TCP-socket workers on
  this or other hosts (the paper's actual setting: real link costs, node
  loss, load-derived speeds; worker links and replica placement stay warm
  between streams, one epoch per session keeps its results apart —
  see ``docs/distributed.md`` and ``docs/streaming.md``).

:class:`RuntimeAdaptiveRunner` runs the paper's observe→decide→act loop
against any live backend using wall-clock measurements — attached to a
session, so adaptation continues across stream boundaries — with the
policies the simulator's controller runs
(:class:`~repro.core.policy.AdaptationPolicy` by default, or
:class:`~repro.core.policies_alt.ReactivePolicy`).

See ``docs/backends.md`` for the contract and selection guidance, and
``docs/streaming.md`` for the session lifecycle.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "base": (
            "Backend BackendCapabilityError BackendResult Session "
            "SessionClosed SessionStats Ticket available_backends "
            "capability_error make_backend register_backend"
        ),
        "distributed": "DistributedBackend WorkerAgent",
        "process_backend": "ProcessPoolBackend",
        "runner": "RuntimeAdaptiveRunner RuntimeRunResult local_config",
        "sim_backend": "SimBackend",
        "thread_backend": "AsyncioBackend ThreadBackend",
    },
)
