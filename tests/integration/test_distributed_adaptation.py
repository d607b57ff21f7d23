"""Acceptance tests for the distributed backend (ISSUE 3).

* A ``skel.api`` pipeline on ``backend="distributed"`` runs end to end on
  three auto-spawned localhost workers and matches the threads backend.
* An adaptive session on the distributed backend replicates an
  injected bottleneck *across workers* (a cross-worker reconfiguration).
* Killing a worker mid-adaptive-run loses no items and keeps order.
"""

import time
from concurrent.futures import ThreadPoolExecutor

from conftest import stream

from repro.backend import DistributedBackend, local_config
from repro.core.pipeline import PipelineSpec
from repro.core.stage import StageSpec
from repro.skel.api import open_pipeline, pipeline_1for1


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
    actions = []
    try:
        session = open_pipeline(
            backend.pipeline.stages, backend=backend,
            adaptive=local_config(
                interval=0.1, cooldown=0.2, settle_time=0.1, rollback_tolerance=0.0
            ),
        )
        session.events.subscribe(actions.append, kinds=("adapt.act",))
        outputs = stream(session, range(100))
        replicas, placement = backend.replica_counts(), backend.replica_placement()
    finally:
        backend.close()
    assert outputs == [(x + 1) * 2 - 3 for x in range(100)]
    assert len(actions) >= 1, "expected at least one adaptation event"
    # The bottleneck stage grew, and its replicas span more than one
    # worker: the reconfiguration crossed host boundaries.
    assert replicas[1] > 1
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
            run = producer.submit(stream, backend.open(), range(n))
            time.sleep(0.5)
            backend.worker_processes[-1].kill()
            assert run.result(timeout=60) == [(x + 1) * 2 - 3 for x in range(n)]
        assert len(backend.alive_workers()) == 2
    finally:
        backend.close()
