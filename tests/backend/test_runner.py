"""Tests for the wall-clock adaptive runner."""

import math
import os
import threading
import time
from contextlib import contextmanager

import pytest
from conftest import stream

from repro import open_pipeline
from repro.backend import ProcessPoolBackend, RuntimeAdaptiveRunner, ThreadBackend, local_config
from repro.core.pipeline import PipelineSpec
from repro.core.policy import AdaptationPolicy
from repro.core.stage import StageSpec
from repro.runtime.threads import StageError


def spec(fns, replicable=None):
    replicable = replicable or [True] * len(fns)
    return PipelineSpec(
        tuple(
            StageSpec(name=f"s{i}", work=0.01, fn=f, replicable=r)
            for i, (f, r) in enumerate(zip(fns, replicable))
        )
    )


def _fast(x):
    return x + 1


def _bottleneck(x):
    time.sleep(0.02)
    return x * 2


class TestLocalConfig:
    def test_defaults_are_subsecond(self):
        cfg = local_config()
        assert cfg.interval < 1.0
        assert cfg.cooldown < 2.0
        # No cap of its own: the executor's warm pools are the budget.
        assert cfg.max_replicas is None

    def test_overrides(self):
        cfg = local_config(interval=0.1, max_replicas=6)
        assert cfg.interval == 0.1
        assert cfg.max_replicas == 6

    def test_invalid_overrides_still_validated(self):
        with pytest.raises(ValueError):
            local_config(min_improvement=0.5)


def adapt(backend, config=True):
    """Open ``backend``'s adaptive session; returns it and the list its
    ``adapt.act`` and ``adapt.rollback`` records (its changes) land in."""
    session = open_pipeline(backend.pipeline.stages, backend=backend, adaptive=config)
    acts = []
    session.events.subscribe(acts.append, kinds=("adapt.act", "adapt.rollback"))
    return session, acts


def shapes(acts):
    """The replica counts the changes went through, the starting shape first."""
    return [tuple(a.fields["replicas_before"]) for a in acts[:1]] + [
        tuple(a.fields["replicas_after"]) for a in acts
    ]


FAST = dict(interval=0.1, cooldown=0.2, settle_time=0.1, rollback_tolerance=0.0)


class TestRuntimeAdaptiveRunner:
    def test_virtual_grid_must_cover_stages(self):
        # More stages than host cores: the policy's virtual grid still holds
        # one processor per stage plus the warm pool's extra replica.
        n = (os.cpu_count() or 2) + 3
        with ThreadBackend(spec([_fast] * n), max_replicas=2) as b:
            assert RuntimeAdaptiveRunner(b.open()).n_virtual_procs == n + 1

    def test_virtual_grid_spans_the_host_cores(self):
        with ThreadBackend(spec([_fast]), max_replicas=1) as b:
            assert RuntimeAdaptiveRunner(b.open()).n_virtual_procs == max(os.cpu_count() or 2, 2)

    def test_grows_bottleneck_on_thread_backend(self):
        pipe = spec([_fast, _bottleneck, _fast])
        with ThreadBackend(pipe, max_replicas=3) as b:
            session, acts = adapt(b, local_config(**FAST))
            assert stream(session, range(80)) == [(x + 1) * 2 + 1 for x in range(80)]
            replicas = b.replica_counts()
        assert len(acts) >= 1
        # The bottleneck stage (1) must have been replicated.
        assert replicas[1] > 1
        assert shapes(acts)[0] == (1, 1, 1)
        assert shapes(acts)[-1][1] == replicas[1]

    def test_grows_forwarded_bottleneck_on_process_backend(self):
        # Stage 0's workers put straight onto stage 1's queue: no router in
        # the parent watches it, and the controller sees its service times
        # only through the trail replayed at the egress boundary.
        with ProcessPoolBackend(spec([_bottleneck, _fast]), max_replicas=3) as b:
            session, _ = adapt(b, local_config(**FAST))
            assert stream(session, range(80)) == [x * 2 + 1 for x in range(80)]
            replicas = b.replica_counts()
        assert replicas[0] > 1
        assert replicas[1] == 1

    def test_clamped_noop_proposal_records_no_event(self):
        # Warm pool caps the bottleneck at 2 replicas; once the backend sits
        # at the cap a clamped proposal changes nothing physical and must not
        # fabricate adaptation events (or phantom rollbacks).
        pipe = spec([_fast, _bottleneck, _fast])
        with ThreadBackend(pipe, max_replicas=2) as b:
            session, acts = adapt(b, local_config(**{**FAST, "cooldown": 0.1}))
            assert len(stream(session, range(120))) == 120
            assert b.replica_counts()[1] <= 2
        # Every recorded event corresponds to a distinct physical shape.
        assert len(set(shapes(acts))) == len(shapes(acts))

    def test_the_backends_owner_closes_it(self):
        with ProcessPoolBackend(spec([_fast])) as b:
            session, _ = adapt(b)
            assert stream(session, range(5)) == [x + 1 for x in range(5)]
            session.close()  # stops the controller, closes nothing of the backend's
            assert stream(b.open(), range(3)) == [1, 2, 3]
        # The warm pools must be reaped: a closed backend refuses work.
        with pytest.raises(RuntimeError, match="closed"):
            b.open()

    @pytest.mark.parametrize("make", [ThreadBackend, ProcessPoolBackend])
    def test_a_crashing_decide_step_poisons_the_session(self, make, monkeypatch):
        # The controller's own error, not a StageError, and journaled: a
        # decide step that raises must not be silently swallowed.
        def crash(self, **_):
            raise ZeroDivisionError("decide crashed")

        monkeypatch.setattr(AdaptationPolicy, "decide", crash)
        with make(spec([_bottleneck]), capacity=64) as b:
            session = open_pipeline(
                b.pipeline.stages, backend=b, adaptive=local_config(interval=0.05)
            )
            errors = []
            session.events.subscribe(errors.append, kinds=("session.error",))
            for x in range(40):  # 0.8 s of work: the first decision comes first
                session.submit(x)
            with pytest.raises(ZeroDivisionError, match="decide crashed"):
                session.drain()
            assert session.broken and len(errors) == 1
            session.close()
            assert "adaptive-controller" not in {t.name for t in threading.enumerate()}
            assert stream(b.open(), range(3)) == [0, 2, 4]

    def test_crashing_decide_step_leaves_the_backend_open(self, monkeypatch):
        # Like a failed stream, a crashed controller costs the session,
        # never the backend the caller handed in.
        decided = threading.Event()

        def crash(self, **_):
            decided.set()
            raise RuntimeError("decide crashed")

        def held(x):
            decided.wait(5.0)  # the stream outlasts the first decision
            return x

        monkeypatch.setattr(AdaptationPolicy, "decide", crash)
        backend = ThreadBackend(spec([held]))
        try:
            with pytest.raises(RuntimeError, match="decide crashed"):
                with adapt(backend, local_config(interval=0.05))[0] as session:
                    stream(session, range(10))
            assert backend.closed is False
            assert stream(backend.open(), range(3)) == [0, 1, 2]
        finally:
            backend.close()

    def test_quiet_pipeline_takes_no_action(self):
        # A balanced, fast pipeline: the decision is taken as soon as both
        # stages have their samples, and says no (not amortised).
        pipe = spec([_fast, _fast])
        with ThreadBackend(pipe) as b:
            session, acts = adapt(b)
            assert stream(session, range(30)) == [x + 2 for x in range(30)]
            assert b.replica_counts() == [1, 1]
        assert acts == []


def _sleeper(seconds):
    def heavy(x):
        time.sleep(seconds)
        return x

    return heavy


class TestEventDrivenController:
    """The controller wakes on evidence; ``interval`` is only a fallback."""

    def test_step_reaction_needs_no_tick(self):
        # A (2 ms, stateful) bounds the period while B takes 1 ms, so the
        # first look must leave B alone: a host stall would have to double
        # B's measured service before widening it paid.  B then slows to
        # 10 ms at item 60.  With a 30 s interval
        # no tick can fire: only the shift trigger can have widened B.  (The
        # short cooldown lets a first action taken on a host hiccup be
        # corrected inside the time allowed; a host that stalls for hundreds
        # of ms gets a second and a third try.)
        def a(x):
            time.sleep(0.002)
            return x

        for attempt in range(3):
            slow_at = []

            def b(x):
                if x >= 60:
                    slow_at.append(time.perf_counter())
                    time.sleep(0.010)
                else:
                    time.sleep(0.001)
                return x + 1

            pipe = spec([a, b], replicable=[False, True])
            decided = []
            with ThreadBackend(pipe, max_replicas=8) as backend:
                session, acts = adapt(
                    backend, local_config(interval=30.0, cooldown=0.1, rollback_tolerance=0.0)
                )
                session.events.subscribe(decided.append, kinds=("adapt.decide",))
                assert stream(session, range(260)) == [x + 1 for x in range(260)]
                assert backend.replica_counts()[0] == 1
                step = session.perf_to_session(slow_at[0] + 0.010)
            first = decided[0].fields
            assert first["trigger"] == "evidence" and not first["acts"]
            assert {e.fields["trigger"] for e in decided} <= {"evidence", "shift"}
            wide = [e.time for e in acts if e.fields["replicas_after"][1] >= 4]
            if wide and wide[0] - step < 0.5:
                return
        pytest.fail(f"B was not at 4 replicas within 0.5 s of the step: {wide}, step {step}")

    @pytest.mark.parametrize(
        "config_cap, pool, expected", [(None, 8, 8), (3, 8, 3), (6, 2, 2)]
    )
    def test_one_replica_budget(self, config_cap, pool, expected):
        # The planner's cap is the executor's warm pool; a cap in the config
        # can only lower it.
        overrides = {} if config_cap is None else {"max_replicas": config_cap}
        session = open_pipeline(
            [_fast, _sleeper(0.005), _fast],
            adaptive=local_config(**overrides),
            max_replicas=pool,
        )
        with session:
            for x in range(150):
                session.submit(x)
            assert session.drain() == [x + 2 for x in range(150)]
            assert session.backend.replica_counts() == [1, expected, 1]

    def test_steady_stream_does_not_thrash(self):
        pipe = spec([_fast, _sleeper(0.004), _fast])
        config = local_config(cooldown=0.2, settle_time=0.1)
        decided = []
        with ThreadBackend(pipe, max_replicas=4) as b:
            session, acts = adapt(b, config)
            session.events.subscribe(decided.append, kinds=("adapt.decide",))
            stream(session, range(100))
            assert b.replica_counts() == [1, 4, 1]
            del decided[:], acts[:]
            assert stream(session, range(600)) == [x + 2 for x in range(600)]
        assert acts == []
        # Ticks and drifting means are looked at once per cooldown, plus the
        # first action's validation.  (A stalled host shows up as steps,
        # which are evidence and only bounded in cost.)
        unhurried = [e for e in decided if not e.fields.get("step")]
        assert len(unhurried) <= session.last_stream_elapsed / config.cooldown + 2

    def test_closing_the_session_does_not_wait_out_the_interval(self):
        with ThreadBackend(spec([_fast])) as b:
            session, _ = adapt(b, local_config(interval=5.0))
            time.sleep(0.05)  # the controller is inside its wait
            t0 = time.perf_counter()
            session.close()
            assert time.perf_counter() - t0 < 0.05
            assert "adaptive-controller" not in {t.name for t in threading.enumerate()}

    def test_idle_session_takes_no_decisions(self):
        decided = []
        with ThreadBackend(spec([_fast, _fast])) as b:
            session, _ = adapt(b)
            session.events.subscribe(decided.append, kinds=("adapt.decide",))
            stream(session, range(20))
            after_stream = len(decided)
            time.sleep(1.0)  # the controller runs on, backlog 0
            assert len(decided) == after_stream

    def test_throughput_before_is_clipped_to_the_stream(self):
        # An action a few items into a stream has no full horizon of history:
        # its baseline is measured from the stream's start, or is NaN ("no
        # verdict") below min_samples completions — never a handful of
        # completions divided by the whole horizon.
        pipe = spec([_sleeper(0.005)])

        def feed(session, items):
            for x in items:
                session.submit(x)
            while session.backlog:
                time.sleep(0.001)

        with ThreadBackend(pipe) as b:
            session = b.open()
            runner = RuntimeAdaptiveRunner(
                session, config=local_config(min_samples=4, interval=30.0)
            )
            t0 = time.perf_counter()
            feed(session, range(3))
            assert math.isnan(runner._throughput(5.0))
            feed(session, range(3, 12))
            rate = runner._throughput(5.0)
            age = time.perf_counter() - t0
            assert rate == pytest.approx(12 / age, rel=0.25)  # not 12 / 5.0
            assert session.drain() == list(range(12))


@contextmanager
def fast_session(pipe, **backend_kwargs):
    """A thread backend with an adaptive session open on it (the default
    policy, fast cadence, no verdicts); yields the backend, the session
    and the session's changes (see :func:`adapt`)."""
    config = local_config(
        interval=0.05, cooldown=0.05, min_samples=2, settle_time=0.05, rollback_tolerance=0.0
    )
    with ThreadBackend(pipe, **backend_kwargs) as b:
        yield b, *adapt(b, config)


class TestAdaptationAcrossRuns:
    """Back-to-back streams over one warm session, adapting live."""

    def test_grows_bottleneck_stage(self):
        pipe = spec([lambda x: x, _sleeper(0.004), lambda x: x])
        with fast_session(pipe, max_replicas=3) as (b, session, acts):
            for _ in range(3):
                assert stream(session, range(30)) == list(range(30))
                assert b._session is session  # one warm session throughout
            # The heavy middle stage must have gained workers.
            assert b.replica_counts()[1] > 1
        grown_stages = [
            i
            for a in acts
            for i, (old, new) in enumerate(
                zip(a.fields["replicas_before"], a.fields["replicas_after"])
            )
            if old != new
        ]
        assert all(stage == 1 for stage in grown_stages)

    def test_respects_the_warm_pool(self):
        pipe = spec([_sleeper(0.002)])
        with fast_session(pipe, max_replicas=2) as (b, session, _):
            for _ in range(5):
                stream(session, range(10))
            assert b.replica_counts()[0] <= 2

    def test_never_replicates_stateful_stage(self):
        pipe = spec([_sleeper(0.002), lambda x: x], replicable=[False, True])
        with fast_session(pipe, max_replicas=4) as (b, session, _):
            for _ in range(3):
                stream(session, range(10))
            assert b.replica_counts()[0] == 1

    def test_adaptive_batches_surface_replicated_stage_error(self):
        calls = []

        def boom(x):
            calls.append(x)
            if len(calls) > 15:
                raise RuntimeError("dies in batch 2")
            time.sleep(0.002)
            return x

        pipe = spec([boom])
        with fast_session(pipe, replicas=[2], max_replicas=3) as (b, session, _):
            with pytest.raises(StageError, match="s0"):
                for _ in range(3):
                    stream(session, range(10))


class TestMeasuredResourceView:
    def test_thread_backend_view_reflects_host_load(self):
        backend = ThreadBackend(spec([_fast]))
        view = backend.resource_view(4)
        assert view.pids() == [0, 1, 2, 3]
        speeds = {view.eff_speed(p) for p in view.pids()}
        assert len(speeds) == 1  # one host: every slot degrades alike
        assert 0.0 < speeds.pop() <= 1.0
        lat, bw = view.link(0, 1)
        assert lat < 1e-3 and bw > 1e6  # in-process links are near-free

    def test_runner_consumes_backend_view(self):
        # The decide step must query the backend's measured view each
        # iteration (falling back to uniform only when it returns None).
        calls = []

        class Spying(ThreadBackend):
            def resource_view(self, n_procs):
                calls.append(n_procs)
                return super().resource_view(n_procs)

        with Spying(spec([_fast, _bottleneck])) as b, b.open() as session:
            runner = RuntimeAdaptiveRunner(
                session,
                config=local_config(
                    interval=0.05, cooldown=0.1, settle_time=0.05, rollback_tolerance=0.0
                ),
            )
            assert stream(session, range(40)) == [(x + 1) * 2 for x in range(40)]
        assert calls, "runner never asked the backend for its measured view"
        assert all(n == runner.n_virtual_procs for n in calls)
