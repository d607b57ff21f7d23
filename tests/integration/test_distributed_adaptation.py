"""Acceptance tests for the distributed backend (ISSUE 3).

* A ``skel.api`` pipeline on ``backend="distributed"`` runs end to end on
  three auto-spawned localhost workers and matches the threads backend.
* ``RuntimeAdaptiveRunner`` on the distributed backend replicates an
  injected bottleneck *across workers* (a cross-worker reconfiguration).
* Killing a worker mid-adaptive-run loses no items and keeps order.
"""

import time
from concurrent.futures import ThreadPoolExecutor

from repro.backend import DistributedBackend, RuntimeAdaptiveRunner, local_config
from repro.core.pipeline import PipelineSpec
from repro.core.stage import StageSpec
from repro.skel.api import pipeline_1for1


def _prepare(x):
    return x + 1


def _bottleneck(x):
    time.sleep(0.02)  # injected: dominates the other stages by >10x
    return x * 2


def _finish(x):
    return x - 3


def _pipe():
    return PipelineSpec(
        (
            StageSpec(name="prepare", work=0.001, fn=_prepare),
            StageSpec(name="bottleneck", work=0.02, fn=_bottleneck),
            StageSpec(name="finish", work=0.001, fn=_finish),
        )
    )


def test_distributed_matches_threads_through_skel_api():
    inputs = list(range(30))
    via_threads = pipeline_1for1(
        [_prepare, _bottleneck, _finish], inputs, backend="threads"
    )
    via_distributed = pipeline_1for1(
        [_prepare, _bottleneck, _finish],
        inputs,
        backend="distributed",
        spawn_workers=3,
    )
    assert via_distributed == via_threads
    assert via_distributed == [(x + 1) * 2 - 3 for x in inputs]


def test_runtime_adaptation_replicates_across_workers():
    backend = DistributedBackend(_pipe(), spawn_workers=3, max_replicas=3)
    runner = RuntimeAdaptiveRunner(
        backend,
        config=local_config(interval=0.1, cooldown=0.2, settle_time=0.1),
        rollback=False,
    )
    try:
        res = runner.run(range(100))
        placement = backend.replica_placement()
    finally:
        backend.close()
    assert res.outputs == [(x + 1) * 2 - 3 for x in range(100)]
    actions = [e for e in res.adaptation_events if e.kind != "rollback"]
    assert len(actions) >= 1, "expected at least one adaptation event"
    # The bottleneck stage grew, and its replicas span more than one
    # worker: the reconfiguration crossed host boundaries.
    assert res.replica_counts[1] > 1
    assert len(placement[1]) >= 2, f"expected cross-worker spread, got {placement}"


def test_worker_loss_during_adaptive_run():
    backend = DistributedBackend(
        _pipe(), spawn_workers=3, max_replicas=3, heartbeat_interval=0.2
    )
    try:
        n = 120
        # No controller attached: the loss happens before adaptation, which
        # is the harsher case: replicas re-home while nothing re-plans them.
        with ThreadPoolExecutor(1) as producer:
            run = producer.submit(backend.run, range(n))
            time.sleep(0.5)
            backend.worker_processes[-1].kill()
            res = run.result(timeout=60)
        assert res.items == n
        assert res.outputs == [(x + 1) * 2 - 3 for x in range(n)]
        assert len(backend.alive_workers()) == 2
    finally:
        backend.close()
