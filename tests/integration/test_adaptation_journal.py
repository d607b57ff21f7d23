"""One journal contract for both clocks.

The simulator (simulated seconds) and the live thread runner (session time)
drive the same adaptation controller, so their journals agree: one
``adapt.act`` per action, one ``adapt.rollback`` per rollback, and every
``adapt.*`` record carries the fields ``SCHEMA`` promises.
"""

import re
import time

import pytest

from repro.backend import RuntimeAdaptiveRunner, ThreadBackend, local_config
from repro.core.adaptive import AdaptivePipeline
from repro.core.events import Decision
from repro.core.pipeline import PipelineSpec
from repro.core.policy import AdaptationConfig
from repro.core.stage import StageSpec
from repro.gridsim.spec import uniform_grid
from repro.model.mapping import Mapping
from repro.obs.events import SCHEMA, EventBus
from repro.workloads.scenarios import load_step
from repro.workloads.synthetic import balanced_pipeline

ADAPT = ("adapt.decide", "adapt.act", "adapt.rollback")


def required(kind):
    """The fields ``SCHEMA[kind]`` names as always present (before any ``;``)."""
    head = SCHEMA[kind].split(":", 1)[1].split(";")[0]
    return {f.strip() for f in re.sub(r"\[.*?\]", "", head).split(",") if f.strip()}


class MoveOntoDegraded:
    """Proposes one move, stage 2 onto processor 3 (degraded), then stays."""

    def __init__(self):
        self.config = AdaptationConfig(interval=3.0, cooldown=5.0)
        self.proposed = False

    def decide(self, *, current, **_):
        if self.proposed:
            return Decision(None, reason="stay")
        self.proposed = True
        return Decision(current.with_stage(2, [3]), reason="move stage 2 onto 3")


def simulated(policy=None):
    """E1's load step (seed 1) in simulated time; a stub's target is degraded too."""
    grid = uniform_grid(4)
    load_step(1, at=20.0, availability=0.1).apply(grid)
    if policy is not None:
        load_step(3, at=0.0, availability=0.1).apply(grid)
    bus = EventBus()
    records = []
    bus.subscribe(records.append, kinds=ADAPT)
    res = AdaptivePipeline(
        balanced_pipeline(3, work=0.1), grid,
        config=AdaptationConfig(interval=3.0, cooldown=5.0), policy=policy,
        initial_mapping=Mapping.single([0, 1, 2]), seed=1, events=bus,
    ).run(300)
    return res.adaptation_events, records


def live():
    """The step pipeline: A (2 ms, stateful), B slowing 2 -> 10 ms at item 60."""

    def a(x):
        time.sleep(0.002)
        return x

    def b(x):
        time.sleep(0.010 if x >= 60 else 0.002)
        return x + 1

    pipe = PipelineSpec((
        StageSpec(name="a", work=0.01, fn=a, replicable=False),
        StageSpec(name="b", work=0.01, fn=b),
    ))
    runner = RuntimeAdaptiveRunner(
        ThreadBackend(pipe, max_replicas=8),
        config=local_config(interval=30.0, cooldown=0.1),
    )
    records = []
    with runner.backend:
        runner.attach().events.subscribe(records.append, kinds=ADAPT)
        assert runner.run(range(260)).outputs == [x + 1 for x in range(260)]
        runner.detach()
    return runner.events, records  # detached: the controller has stopped


@pytest.mark.parametrize(
    "drive",
    [simulated, lambda: simulated(MoveOntoDegraded()), live],
    ids=["simulated", "simulated-rollback", "live-threads"],
)
def test_one_record_per_action_with_the_schema_fields(drive):
    events, records = drive()
    acts = [r for r in records if r.kind == "adapt.act"]
    rollbacks = [r for r in records if r.kind == "adapt.rollback"]
    assert len(acts) == sum(e.kind != "rollback" for e in events) >= 1
    assert len(rollbacks) == sum(e.kind == "rollback" for e in events)
    for r in records:
        missing = required(r.kind) - r.fields.keys()
        assert not missing, f"{r.kind} lacks {missing}: {r.fields}"
    for r, e in zip(sorted(acts + rollbacks, key=lambda r: r.time), events):
        assert (r.time, r.fields["action"], r.fields["reason"]) == (e.time, e.kind, e.reason)
        assert r.fields["replicas_after"] == [len(s) for s in e.mapping_after.stages]


def test_the_stub_move_is_rolled_back_in_simulated_time():
    events, _ = simulated(MoveOntoDegraded())
    assert [e.kind for e in events] == ["remap", "rollback"]
    assert events[1].mapping_after == Mapping.single([0, 1, 2])
