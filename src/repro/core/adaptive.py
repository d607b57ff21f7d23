"""The user-facing adaptive pipeline runner (observe → decide → act).

:class:`AdaptivePipeline` assembles the whole pattern around one run:

* a fresh :class:`~repro.gridsim.engine.Simulator`,
* a :class:`~repro.monitor.resource_monitor.ResourceMonitor` (observe,
  resource side),
* a :class:`~repro.core.executor_sim.SimPipelineEngine` whose built-in
  instrumentation is the observe, application side,
* a controller process evaluating the :class:`~repro.core.policy.
  AdaptationPolicy` every ``interval`` seconds (decide) and calling
  :meth:`~repro.core.executor_sim.SimPipelineEngine.reconfigure` (act),
* post-action validation: if measured throughput after ``settle_time``
  regressed below ``rollback_tolerance`` × the pre-action value, the
  controller reverts the mapping and extends its cooldown.

``run_static`` executes the same machinery with the controller disabled —
the baseline every experiment compares against.
"""

from __future__ import annotations

import math

from repro.core.events import AdaptationEvent, RunResult
from repro.core.executor_sim import SimPipelineEngine
from repro.core.pipeline import PipelineSpec
from repro.core.policy import AdaptationConfig, AdaptationPolicy
from repro.gridsim.engine import AnyOf, Interrupt, Simulator
from repro.gridsim.grid import GridSystem
from repro.model.mapping import Mapping
from repro.model.optimizer import greedy_mapping
from repro.model.throughput import ModelContext, estimates_view, snapshot_view
from repro.monitor.resource_monitor import ResourceMonitor
from repro.obs.events import NULL_BUS, EventBus
from repro.util.rng import derive_rng

__all__ = ["AdaptivePipeline", "run_static"]


class AdaptivePipeline:
    """Runs a :class:`PipelineSpec` adaptively on a :class:`GridSystem`.

    Parameters
    ----------
    pipeline, grid:
        What to run and where.
    config:
        Adaptation tunables; ``None`` disables adaptation entirely (static
        baseline).
    policy:
        Custom decision policy (anything with the ``decide(...)`` signature
        of :class:`AdaptationPolicy`, carrying a ``config`` attribute).
        Overrides ``config``; used for the policy ablation (e.g.
        :class:`~repro.core.policies_alt.ReactivePolicy`).
    view_source:
        Where the decide step gets its resource view: ``"monitor"`` (NWS
        forecasts — the real pattern) or ``"oracle"`` (ground-truth grid
        snapshots — the upper bound used in ablations).
    initial_mapping:
        Starting mapping; default is the model's greedy mapping computed
        from the grid's *nominal* speeds (availability unknown before the
        run starts — exactly the information a static scheduler has).
    source_pid, sink_pid:
        Where inputs originate and outputs must be delivered (default: the
        lowest pid, the "user's" machine).
    monitor_period, monitor_noise:
        Resource-monitor sampling interval and measurement noise.
    buffer_capacity:
        Inter-stage channel capacity (items).
    seed:
        Root seed for all stochastic streams of the run.
    events:
        Bus the run's events go to (``adapt.*``, ``item.*``,
        ``replica.remove``), stamped with simulated seconds; none by default.
    """

    def __init__(
        self,
        pipeline: PipelineSpec,
        grid: GridSystem,
        *,
        config: AdaptationConfig | None = None,
        policy=None,
        view_source: str = "monitor",
        initial_mapping: Mapping | None = None,
        source_pid: int | None = None,
        sink_pid: int | None = None,
        monitor_period: float = 1.0,
        monitor_noise: float = 0.02,
        buffer_capacity: int = 4,
        link_contention: bool = False,
        seed: int = 0,
        events: EventBus = NULL_BUS,
    ) -> None:
        if view_source not in ("monitor", "oracle"):
            raise ValueError(f"view_source must be 'monitor' or 'oracle', got {view_source!r}")
        self.pipeline = pipeline
        self.grid = grid
        if policy is not None:
            self.policy = policy
            self.config = policy.config
        elif config is not None:
            self.policy = AdaptationPolicy(pipeline, config)
            self.config = config
        else:
            self.policy = None
            self.config = None
        self.view_source = view_source
        self.source_pid = grid.pids[0] if source_pid is None else source_pid
        self.sink_pid = grid.pids[0] if sink_pid is None else sink_pid
        self.monitor_period = monitor_period
        self.monitor_noise = monitor_noise
        self.buffer_capacity = buffer_capacity
        self.link_contention = link_contention
        self.seed = seed
        self.events = events
        if initial_mapping is None:
            initial_mapping = self.default_mapping()
        self.initial_mapping = initial_mapping

    def default_mapping(self) -> Mapping:
        """Greedy mapping from nominal speeds (availability assumed 1.0)."""
        snap = self.grid.snapshot(0.0)
        # Nominal view: a static scheduler plans with catalogue speeds, not
        # the (unknowable) availability at run time.
        nominal = snap.__class__(
            time=0.0,
            speed=snap.speed,
            availability={pid: 1.0 for pid in snap.speed},
            effective_speed=dict(snap.speed),
            links=snap.links,
        )
        ctx = ModelContext(
            stage_costs=self.pipeline.stage_costs(),
            view=snapshot_view(nominal),
            source_pid=self.source_pid,
            sink_pid=self.sink_pid,
            input_bytes=self.pipeline.input_bytes,
        )
        return greedy_mapping(ctx).mapping

    # ------------------------------------------------------------------ run
    def run(self, n_items: int, *, until: float | None = None) -> RunResult:
        """Process ``n_items`` to completion (or simulated time ``until``)."""
        sim = Simulator()
        engine = SimPipelineEngine(
            sim,
            self.grid,
            self.pipeline,
            self.initial_mapping,
            n_items=n_items,
            source_pid=self.source_pid,
            sink_pid=self.sink_pid,
            buffer_capacity=self.buffer_capacity,
            link_contention=self.link_contention,
            seed=self.seed,
            events=self.events,
        )
        events: list[AdaptationEvent] = []
        monitor: ResourceMonitor | None = None
        if self.policy is not None:
            if self.view_source == "monitor":
                monitor = ResourceMonitor(
                    sim,
                    self.grid,
                    period=self.monitor_period,
                    noise_std=self.monitor_noise,
                    rng=derive_rng(self.seed, "monitor-noise"),
                )

                # The monitor samples forever; without this the event heap
                # never drains and sim.run() would spin past the workload.
                def _stop_monitor(mon: ResourceMonitor):
                    yield engine.done
                    mon.stop()

                sim.process(_stop_monitor(monitor), name="monitor-stopper")
            sim.process(
                self._controller(sim, engine, monitor, n_items, events),
                name="adaptation-controller",
            )
        sim.run(until=until)
        return RunResult(
            n_items=n_items,
            completion_times=engine.completion_times(),
            latencies=engine.latencies(),
            adaptation_events=events,
            mapping_history=list(engine.mapping_history),
            end_time=sim.now,
            output_seqs=engine.output_seqs(),
        )

    # ------------------------------------------------------------------ controller
    def _controller(
        self,
        sim: Simulator,
        engine: SimPipelineEngine,
        monitor: ResourceMonitor | None,
        n_items: int,
        events: list[AdaptationEvent],
    ):
        assert self.policy is not None and self.config is not None
        cfg = self.config
        policy = self.policy
        nominal_speeds = {p.pid: p.speed for p in self.grid.processors}
        last_action = -math.inf
        try:
            while not engine.done.triggered:
                # Sleep one interval, but wake immediately when the run ends.
                which, _ = yield AnyOf([sim.timeout(cfg.interval), engine.done])
                if which == 1 or engine.done.triggered:
                    return
                remaining = n_items - engine.items_completed
                if monitor is not None:
                    view = estimates_view(monitor.estimates(), nominal_speeds)
                else:  # oracle: ground truth at decision time
                    view = snapshot_view(self.grid.snapshot(sim.now))
                decision = policy.decide(
                    now=sim.now,
                    current=engine.mapping,
                    snapshots=engine.instrumentation.snapshots(),
                    view=view,
                    source_pid=self.source_pid,
                    sink_pid=self.sink_pid,
                    remaining_items=remaining,
                    last_action_time=last_action,
                )
                self.events.emit(
                    "adapt.decide",
                    decision.reason,
                    at=sim.now,
                    acts=decision.acts,
                    reason=decision.reason,
                )
                if not decision.acts:
                    continue
                assert decision.new_mapping is not None
                before_tp = engine.instrumentation.recent_throughput(
                    sim.now, horizon=max(cfg.interval, 2.0)
                )
                old_mapping = engine.mapping
                engine.reconfigure(decision.new_mapping, decision.migration_cost)
                last_action = sim.now
                kind = (
                    "replicate" if decision.new_mapping.is_replicated() else "remap"
                )
                events.append(
                    AdaptationEvent(
                        time=sim.now,
                        kind=kind,
                        mapping_before=old_mapping,
                        mapping_after=decision.new_mapping,
                        reason=decision.reason,
                        predicted_gain=decision.predicted_gain,
                        throughput_before=before_tp,
                    )
                )
                # Post-action validation: wait one settle_time for in-flight
                # items started on the *old* replicas to drain (an item
                # caught mid-service on a degraded node can stall the
                # in-order output for a full degraded service time), then
                # measure over a second settle_time window that reflects the
                # new mapping only.  Regression beyond tolerance rolls back.
                which, _ = yield AnyOf([sim.timeout(2 * cfg.settle_time), engine.done])
                if which == 1 or engine.done.triggered:
                    return
                after_tp = engine.instrumentation.recent_throughput(
                    sim.now, horizon=cfg.settle_time
                )
                if (
                    not math.isnan(before_tp)
                    and not math.isnan(after_tp)
                    and after_tp < before_tp * cfg.rollback_tolerance
                ):
                    engine.reconfigure(old_mapping, decision.migration_cost)
                    self.events.emit(
                        "adapt.rollback",
                        f"measured {after_tp:.3f}/s < "
                        f"{cfg.rollback_tolerance:.2f} x {before_tp:.3f}/s",
                        at=sim.now,
                    )
                    events.append(
                        AdaptationEvent(
                            time=sim.now,
                            kind="rollback",
                            mapping_before=decision.new_mapping,
                            mapping_after=old_mapping,
                            reason=(
                                f"measured {after_tp:.3f}/s < "
                                f"{cfg.rollback_tolerance:.2f} x {before_tp:.3f}/s"
                            ),
                            predicted_gain=1.0,
                            throughput_before=after_tp,
                        )
                    )
                    # Double cooldown after a failed action: the model was
                    # wrong here; demand stronger evidence before retrying.
                    last_action = sim.now + cfg.cooldown
        except Interrupt:
            return


def run_static(
    pipeline: PipelineSpec,
    grid: GridSystem,
    n_items: int,
    *,
    mapping: Mapping | None = None,
    until: float | None = None,
    **kwargs,
) -> RunResult:
    """Run the pipeline with adaptation disabled (the baseline).

    Accepts the same keyword arguments as :class:`AdaptivePipeline` except
    ``config`` (forced to ``None``).
    """
    runner = AdaptivePipeline(
        pipeline, grid, config=None, initial_mapping=mapping, **kwargs
    )
    return runner.run(n_items, until=until)
