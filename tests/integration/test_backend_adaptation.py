"""Acceptance tests for the backend subsystem (ISSUE 1).

* ``pipeline_1for1(..., backend="processes")`` returns input-ordered
  results identical to the threads backend on the same inputs.
* An adaptive session on the process backend records at
  least one adaptation event on a workload with an injected bottleneck.
"""

import time

from conftest import stream

from repro.backend import ProcessPoolBackend, local_config
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


def test_processes_match_threads_through_skel_api():
    stages = [_prepare, _bottleneck, _finish]
    inputs = list(range(30))
    via_threads = pipeline_1for1(stages, inputs, backend="threads")
    via_processes = pipeline_1for1(stages, inputs, backend="processes")
    assert via_processes == via_threads
    assert via_processes == [(x + 1) * 2 - 3 for x in inputs]


def test_runtime_adaptation_on_process_backend():
    pipe = _pipe()
    backend = ProcessPoolBackend(pipe, max_replicas=3)
    actions = []
    try:
        session = open_pipeline(
            pipe.stages, backend=backend,
            adaptive=local_config(
                interval=0.1, cooldown=0.2, settle_time=0.1, rollback_tolerance=0.0
            ),
        )
        session.events.subscribe(actions.append, kinds=("adapt.act",))
        outputs = stream(session, range(80))
        replicas = backend.replica_counts()
    finally:
        backend.close()
    assert outputs == [(x + 1) * 2 - 3 for x in range(80)]
    assert len(actions) >= 1, "expected at least one adaptation event"
    # The observe->decide->act loop must have replicated the injected
    # bottleneck stage onto warm workers.
    assert replicas[1] > 1
    assert all(
        e.fields["replicas_after"][1] >= e.fields["replicas_before"][1] for e in actions
    )
