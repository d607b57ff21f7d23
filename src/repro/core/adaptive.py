"""The user-facing adaptive pipeline runner: the adaptation loop in simulated time.

:class:`AdaptivePipeline` assembles the whole pattern around one run:

* a fresh :class:`~repro.gridsim.engine.Simulator`,
* a :class:`~repro.monitor.resource_monitor.ResourceMonitor` (observe,
  resource side),
* a :class:`~repro.core.executor_sim.SimPipelineEngine` whose built-in
  instrumentation is the observe, application side,
* the :class:`~repro.core.policy.Controller` — the one the live runner
  (:mod:`repro.backend.runner`) drives on the wall clock — woken every
  ``interval`` simulated seconds to decide and act through
  :meth:`~repro.core.executor_sim.SimPipelineEngine.reconfigure`, and
  ``2 x settle_time`` after an action to validate it: a regression below
  ``rollback_tolerance`` x the pre-action throughput reverts the mapping
  and doubles the cooldown.

``run_static`` executes the same machinery with the controller disabled —
the baseline every experiment compares against.
"""

from __future__ import annotations

from repro.core.events import AdaptationEvent, RunResult
from repro.core.executor_sim import SimPipelineEngine
from repro.core.pipeline import PipelineSpec
from repro.core.policy import AdaptationConfig, Controller, resolve_policy
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
    monitor_noise:
        Resource-monitor measurement noise (it samples once per simulated
        second).
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
        self.policy, self.config = resolve_policy(pipeline, config, policy)
        self.view_source = view_source
        self.source_pid = grid.pids[0] if source_pid is None else source_pid
        self.sink_pid = grid.pids[0] if sink_pid is None else sink_pid
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
        self, sim: Simulator, engine: SimPipelineEngine, monitor: ResourceMonitor | None,
        n_items: int, events: list[AdaptationEvent],
    ):
        """Drive the :class:`Controller` in simulated time."""
        cfg = self.config

        def act(mapping: Mapping, migration_s: float) -> Mapping:
            engine.reconfigure(mapping, migration_s)
            return mapping

        ctl = Controller(
            self.policy, engine.mapping, act, clock=lambda: sim.now,
            throughput=lambda h: engine.instrumentation.recent_throughput(sim.now, horizon=h),
            horizon=max(cfg.interval, 2.0), events=self.events, log=events,
        )
        nominal_speeds = {p.pid: p.speed for p in self.grid.processors}
        try:
            while True:
                # Sleep one interval (two settle windows while an action awaits
                # its verdict), but wake immediately when the run ends.
                wait = 2 * cfg.settle_time if ctl.pending else cfg.interval
                which, _ = yield AnyOf([sim.timeout(wait), engine.done])
                if which == 1 or engine.done.triggered:
                    return
                if ctl.pending:
                    ctl.validate()
                    continue
                if monitor is not None:
                    view = estimates_view(monitor.estimates(), nominal_speeds)
                else:  # oracle: ground truth at decision time
                    view = snapshot_view(self.grid.snapshot(sim.now))
                ctl.step(
                    snapshots=engine.instrumentation.snapshots(), view=view,
                    source_pid=self.source_pid, sink_pid=self.sink_pid,
                    remaining=n_items - engine.items_completed,
                )
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
