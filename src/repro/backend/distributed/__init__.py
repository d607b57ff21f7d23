"""Distributed socket backend: multi-host workers behind the Backend port.

This package brings the pattern back to *actual* grids: pipeline stage
replicas hosted by :class:`~repro.backend.distributed.worker.WorkerAgent`
processes on (potentially remote) machines, coordinated over TCP by
:class:`~repro.backend.distributed.coordinator.DistributedBackend` — a full
implementation of the :class:`~repro.backend.base.Backend` port, so
``skel.api`` pipelines and :class:`~repro.backend.runner.RuntimeAdaptiveRunner`
drive it exactly like the local executors.

* Workers register with the coordinator, advertising their core count and a
  load-average-derived effective speed (refreshed by every heartbeat).
* The coordinator shards items over per-stage replica sets, measures real
  per-item service times *and* per-link transfer times, and restores input
  order through the shared :class:`~repro.util.ordering.SequenceReorderer`.
* ``reconfigure(stage, n)`` places or retires replicas across workers live,
  without draining in-flight items; placement is link- and load-aware.
* Failure handling is first-class: heartbeats (and connection EOF) detect
  dead workers, their in-flight items are re-dispatched to survivors, and
  the local view shrinks so the adaptation loop reacts to node loss the way
  the paper's pattern reacts to grid dynamism.

Start a remote worker with::

    python -m repro.backend.distributed.worker --connect HOST:PORT

or let the coordinator auto-spawn local workers (``spawn_workers=``, the
tests/CI path).  See ``docs/distributed.md`` for the wire protocol, failure
semantics and a deployment recipe.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__, {"coordinator": "DistributedBackend", "worker": "WorkerAgent"}
)
