"""Pluggable execution backends for the adaptive pipeline pattern.

The :class:`~repro.backend.base.Backend` port decouples *what* a pipeline
computes (a :class:`~repro.core.pipeline.PipelineSpec`) from *where* it
executes — the same separation task-parallel frameworks like Pipeflow draw
between pipeline structure and scheduling substrate.  Since the streaming
refactor the port is **session-oriented**: ``backend.open()`` returns a
long-lived :class:`~repro.backend.base.Session` with ``submit`` /
``results`` / ``drain`` / ``close`` — pipelines stay warm, accept work as
it arrives, and emit results as an ordered stream; ``run()`` is the
bounded-stream convenience on top.  Five adapters ship:

* ``"sim"`` — :class:`SimBackend`, the discrete-event grid simulator
  (simulated time; sessions via a batch-emulation shim; adaptation via the
  in-sim controller);
* ``"threads"`` — :class:`ThreadBackend`, the local thread runtime (for
  GIL-releasing kernels and portable correctness runs; session-owned
  worker threads stay warm across streams);
* ``"processes"`` — :class:`ProcessPoolBackend`, warm pre-forked process
  pools per stage (true multi-core for CPU-bound Python stages; pools
  survive across streams, items travel through a :mod:`repro.transport`
  codec with a warm-up-calibrated shared-memory threshold);
* ``"asyncio"`` — :class:`AsyncioBackend`, coroutine pools on a dedicated
  event-loop thread (I/O-bound stages; semaphore-bounded admission on the
  resident loop);
* ``"distributed"`` — :class:`DistributedBackend`, TCP-socket workers on
  this or other hosts (the paper's actual setting: real link costs, node
  loss, load-derived speeds; worker links and replica placement stay warm
  between streams, epoch guards scope exactly-once delivery to a stream —
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
        "async_backend": "AsyncioBackend",
        "base": (
            "Backend BackendCapabilityError BackendResult Session "
            "SessionClosed SessionStats Ticket available_backends "
            "capability_error make_backend register_backend"
        ),
        "distributed": "DistributedBackend WorkerAgent",
        "process_backend": "ProcessPoolBackend",
        "runner": "RuntimeAdaptiveRunner RuntimeRunResult local_config",
        "sim_backend": "SimBackend",
        "thread_backend": "ThreadBackend",
    },
)
