"""The adaptation controller alone: no simulator, no threads, a fake clock.

Both drivers (simulated time in ``core/adaptive.py``, the wall clock in
``backend/runner.py``) wake one :class:`Controller`; what it decides, when
it judges an action and how it rolls one back is checked here directly.
"""

import math
from dataclasses import replace

import pytest

from repro.core.events import Decision
from repro.core.pipeline import PipelineSpec
from repro.core.policy import AdaptationConfig, AdaptationPolicy, Controller, resolve_policy
from repro.core.stage import StageSpec
from repro.model.mapping import Mapping
from repro.obs.events import EventBus

HOME, AWAY = Mapping.single([0, 1]), Mapping(((0,), (1, 2)))
CONFIG = AdaptationConfig(cooldown=4.0, settle_time=1.5, rollback_tolerance=0.85)
NO_VERDICT = replace(CONFIG, rollback_tolerance=0.0)


class Toggler:
    """The default policy's cooldown guard, then the other of two mappings."""

    def __init__(self, config=CONFIG):
        self.config = config

    def decide(self, *, now, current, last_action_time, **_):
        if now - last_action_time < self.config.cooldown:
            return Decision(None, reason="cooldown")
        target = AWAY if current == HOME else HOME
        return Decision(target, reason="toggle", predicted_gain=2.0, migration_cost=0.25)


class Rig:
    """A controller on a fake clock, a settable throughput and a recording port."""

    def __init__(self, *, port_realises=True, config=CONFIG):
        self.t = 0.0
        self.tp = 10.0
        self.acts = []
        self.records = []
        bus = EventBus(clock=lambda: self.t)
        bus.subscribe(self.records.append)

        def act(mapping, migration_s):
            self.acts.append((self.t, mapping, migration_s))
            return mapping if port_realises else None

        self.ctl = Controller(
            Toggler(config), HOME, act, clock=lambda: self.t, throughput=lambda _h: self.tp,
            horizon=2.0, events=bus,
        )

    def step(self, at):
        self.t = at
        return self.ctl.step(snapshots=[], view=None, source_pid=0, sink_pid=0, remaining=100)

    def kinds(self):
        return [r.kind for r in self.records]


def test_a_decision_inside_the_cooldown_is_refused():
    rig = Rig(config=NO_VERDICT)
    assert rig.step(1.0).kind == "replicate"
    assert rig.step(1.0 + CONFIG.cooldown - 0.01) is None
    assert rig.records[-1].fields["reason"] == "cooldown"
    assert rig.ctl.mapping == AWAY and len(rig.acts) == 1
    assert rig.step(1.0 + CONFIG.cooldown).mapping_after == HOME


def test_validation_falls_due_two_settle_times_after_an_act():
    rig = Rig()
    assert rig.ctl.due == math.inf
    event = rig.step(3.0)
    assert rig.ctl.due == event.time + 2 * CONFIG.settle_time == 6.0
    assert rig.ctl.pending[1:] == (10.0, HOME, 0.25)


def test_a_regression_rolls_back_and_doubles_the_cooldown():
    rig = Rig()
    rig.step(1.0)
    rig.t, rig.tp = rig.ctl.due, 10.0 * CONFIG.rollback_tolerance - 0.01
    event = rig.ctl.validate()
    assert event.kind == "rollback" and event.time == 4.0
    assert (event.mapping_before, event.mapping_after) == (AWAY, HOME)
    assert event.throughput_before == rig.tp and event.predicted_gain == 1.0
    assert rig.acts[-1] == (4.0, HOME, 0.25)  # reverted at the action's migration cost
    assert rig.ctl.mapping == HOME and rig.ctl.pending is None
    assert [e.kind for e in rig.ctl.log] == ["replicate", "rollback"]
    rb = rig.records[-1]
    assert rb.kind == "adapt.rollback" and rb.time == 4.0
    assert rb.fields["replicas_before"] == [1, 2] and rb.fields["replicas_after"] == [1, 1]
    assert rb.fields["throughput_before"] == 10.0 and rb.fields["throughput_after"] == rig.tp
    # Twice the cooldown before the next action, not once.
    assert rig.ctl.last_action == 4.0 + CONFIG.cooldown
    assert rig.step(4.0 + CONFIG.cooldown + 0.5) is None
    assert rig.step(4.0 + 2 * CONFIG.cooldown - 0.01) is None
    assert rig.step(4.0 + 2 * CONFIG.cooldown) is not None


def test_a_kept_action_stands():
    rig = Rig()
    rig.step(1.0)
    rig.t, rig.tp = rig.ctl.due, 10.0 * CONFIG.rollback_tolerance
    assert rig.ctl.validate() is None
    assert rig.ctl.mapping == AWAY and rig.ctl.last_action == 1.0
    assert "adapt.rollback" not in rig.kinds()


@pytest.mark.parametrize("before, after", [(math.nan, 1.0), (10.0, math.nan)])
def test_a_nan_throughput_gives_no_verdict(before, after):
    rig = Rig()
    rig.tp = before
    rig.step(1.0)
    rig.t, rig.tp = rig.ctl.due, after
    assert rig.ctl.validate() is None
    assert rig.ctl.pending is None and rig.ctl.mapping == AWAY
    assert len(rig.acts) == 1


def test_a_zero_tolerance_takes_no_verdict():
    # rollback_tolerance=0 acts as usual but schedules no judgement of it.
    rig = Rig(config=NO_VERDICT)
    assert rig.step(1.0).kind == "replicate"
    assert rig.ctl.pending is None and rig.ctl.due == math.inf
    rig.tp = 0.0
    assert rig.step(1.0 + CONFIG.cooldown).mapping_after == HOME
    assert rig.ctl.pending is None
    assert rig.kinds().count("adapt.act") == 2 and "adapt.rollback" not in rig.kinds()


def test_an_act_the_port_refuses_records_nothing():
    rig = Rig(port_realises=False)
    assert rig.step(1.0) is None
    assert len(rig.acts) == 1  # asked, but nothing changed
    assert rig.ctl.log == [] and rig.kinds() == ["adapt.decide"]
    assert rig.ctl.mapping == HOME and rig.ctl.pending is None
    assert rig.ctl.last_action == -math.inf


def test_each_act_is_journalled_once_with_its_decision():
    rig = Rig()
    rig.tp = 7.5
    event = rig.step(2.0)
    decide, act = rig.records
    assert decide.kind == "adapt.decide" and decide.time == 2.0
    assert decide.fields == {
        "reason": "toggle", "acts": True, "predicted_gain": 2.0, "backlog": 100,
    }
    assert act.kind == "adapt.act" and act.time == event.time == 2.0
    assert act.fields == {
        "action": "replicate", "reason": "toggle", "predicted_gain": 2.0,
        "throughput_before": 7.5, "replicas_before": [1, 1], "replicas_after": [1, 2],
    }


def test_policy_overrides_config():
    pipe = PipelineSpec((StageSpec(name="s", work=0.1),))
    assert resolve_policy(pipe, None) == (None, None)
    policy, config = resolve_policy(pipe, CONFIG)
    assert isinstance(policy, AdaptationPolicy) and config is CONFIG is policy.config
    stub = Toggler(AdaptationConfig())
    assert resolve_policy(pipe, CONFIG, stub) == (stub, stub.config)
