"""Pluggable execution backends for the adaptive pipeline pattern.

The :class:`~repro.backend.base.Backend` port decouples *what* a pipeline
computes (a :class:`~repro.core.pipeline.PipelineSpec`) from *where* it
executes — the same separation task-parallel frameworks like Pipeflow draw
between pipeline structure and scheduling substrate.  Since the streaming
refactor the port is **session-oriented**: ``backend.open()`` returns a
long-lived :class:`~repro.backend.base.Session` with ``submit`` /
``results`` / ``drain`` / ``close`` — pipelines stay warm, accept work as
it arrives, and emit results as an ordered stream; a bounded stream is
open → submit\\* → drain.  Three executors ship, under four names:

* ``"threads"`` — :class:`ThreadBackend`, the local thread fabric
  (GIL-releasing kernels, I/O-bound stages and portable correctness runs;
  workers stay warm across streams).  A stage declared ``async def`` runs
  as worker coroutines on one warm event-loop thread, so ``"asyncio"``
  names the same fabric;
* ``"processes"`` — :class:`ProcessPoolBackend`, warm pre-forked process
  pools per stage (true multi-core for CPU-bound Python stages; pools
  survive across streams, items travel through a :mod:`repro.transport`
  codec, by default inline below a fixed shared-memory threshold);
* ``"distributed"`` — :class:`DistributedBackend`, TCP-socket workers on
  this or other hosts (the paper's actual setting: real link costs, node
  loss, load-derived speeds; worker links and replica placement stay warm
  between streams, one epoch per session keeps its results apart —
  see ``docs/distributed.md`` and ``docs/streaming.md``).

Simulated time is not an executor: the paper's pattern studies drive the
discrete-event grid simulator directly (:func:`repro.skel.api.simulate_pipeline`,
:class:`~repro.core.adaptive.AdaptivePipeline`).

:class:`RuntimeAdaptiveRunner` runs the paper's observe→decide→act loop
against any live backend using wall-clock measurements — the one
controller a session owns (``open_pipeline(adaptive=...)``), so adaptation
continues across stream boundaries — with the simulator's controller and
its :class:`~repro.core.policy.AdaptationPolicy`.

See ``docs/backends.md`` for the contract and selection guidance, and
``docs/streaming.md`` for the session lifecycle.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "base": (
            "Backend Session SessionClosed SessionStats "
            "Ticket available_backends make_backend"
        ),
        "distributed": "DistributedBackend WorkerAgent",
        "process_backend": "ProcessPoolBackend",
        "runner": "RuntimeAdaptiveRunner local_config",
        "thread_backend": "ThreadBackend",
    },
)
