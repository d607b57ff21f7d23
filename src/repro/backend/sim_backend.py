"""Simulator adapter: the discrete-event grid engine behind the port.

The simulator *measures* (simulated seconds, adaptation events on a
modelled grid) rather than computing; when every stage carries a real
callable the adapter additionally applies the stages sequentially so
``outputs`` obeys the same ``Pipeline1for1`` contract as the real
backends — handy for apples-to-apples benchmark tables.

Live ``reconfigure`` is deliberately unsupported: inside the simulation the
observe→decide→act loop is owned by
:class:`~repro.core.adaptive.AdaptivePipeline`'s controller process (enable
it with ``adaptive=``); wall-clock controllers like
:class:`~repro.backend.runner.RuntimeAdaptiveRunner` have no purchase on
simulated time.
"""

from __future__ import annotations

from typing import Any

from repro.backend.base import Backend, Session, register_backend
from repro.core.adaptive import AdaptivePipeline
from repro.core.events import RunResult
from repro.core.pipeline import PipelineSpec
from repro.core.policy import AdaptationConfig
from repro.gridsim.grid import GridSystem
from repro.gridsim.spec import uniform_grid
from repro.model.mapping import Mapping

__all__ = ["SimBackend"]


class _SimSession(Session):
    """Batch-emulation shim: buffer submits, simulate the stream at drain.

    The discrete-event engine has no wall-clock midpoint to stream results
    at, so the session buffers the whole stream and runs one simulation
    when the stream ends — the inverse of the real executors, where the
    batch path wraps the streaming one.  Several sequential streams on one
    session emulate back-to-back bounded streams (each is its own sim run).
    ``batching=`` is accepted and ignored: the simulator models per-item
    service, so ``supports_batching`` stays False and nothing coalesces.
    """

    def __init__(self, backend: Backend, **config) -> None:
        super().__init__(backend, **config)
        self._items: list = []  # the open stream's, taken when it ends

    def _submit_one(self, seq: int, item: Any) -> None:
        self._items.append(item)

    def _end_stream(self, stream: int) -> None:
        backend: SimBackend = self.backend  # type: ignore[assignment]
        items, self._items = self._items, []
        outputs = backend._simulate(items)
        self.produces_outputs = outputs is not None
        self._sim_elapsed = (
            backend.last_run.end_time if backend.last_run is not None else 0.0
        )
        self._deliver_items(outputs if outputs is not None else [None] * len(items))

    def _finalize_stream(self, wall_elapsed: float) -> float:
        return self._sim_elapsed  # the simulator's clock, not the wall's

    def service_means(self) -> list[float]:
        return [c.work for c in self.backend.pipeline.stage_costs()]


class SimBackend(Backend):
    """Runs pipelines on the simulated grid (timing model, not wall clock).

    Parameters
    ----------
    pipeline:
        Stage specs; ``fn`` optional (needed only for real ``outputs``).
    grid:
        Target :class:`GridSystem`; default one uniform processor per stage.
    adaptive:
        ``False`` (static), ``True`` (default :class:`AdaptationConfig`) or
        a config instance — forwarded to the in-sim controller.
    mapping:
        Initial stage→processor mapping (default: model's greedy choice).
    replicas, capacity:
        API-uniformity parameters shared with the real backends.
        ``capacity`` maps onto the simulated inter-stage buffer capacity;
        ``replicas`` has no direct simulated analogue (replication lives in
        the ``mapping``), so requesting ``replicas[i] > 1`` raises — use
        ``mapping=`` or :func:`repro.skel.api.simulate_farm` instead.
    """

    name = "sim"
    supports_live_reconfigure = False
    executes_callables = False
    session_class = _SimSession

    def __init__(
        self,
        pipeline: PipelineSpec,
        *,
        grid: GridSystem | None = None,
        adaptive: bool | AdaptationConfig = False,
        mapping: Mapping | None = None,
        seed: int = 0,
        replicas: list[int] | None = None,
        capacity: int | None = None,
    ) -> None:
        if replicas is not None and any(r > 1 for r in replicas):
            raise ValueError(
                "the sim backend expresses replication through mapping=, "
                "not replicas; use mapping= or skel.api.simulate_farm"
            )
        super().__init__(
            pipeline, replicas=replicas, capacity=4 if capacity is None else capacity
        )
        self.grid = grid if grid is not None else uniform_grid(pipeline.n_stages)
        if adaptive is True:
            self.config: AdaptationConfig | None = AdaptationConfig()
        elif adaptive is False:
            self.config = None
        else:
            self.config = adaptive
        self.mapping = mapping
        self.seed = seed
        self.last_run: RunResult | None = None

    def _simulate(self, items: list[Any]) -> list[Any] | None:
        """One simulated stream; returns computed outputs when fns exist."""
        if all(s.fn is not None for s in self.pipeline.stages):
            outputs = []
            for item in items:
                for spec in self.pipeline.stages:
                    assert spec.fn is not None
                    item = spec.fn(item)
                outputs.append(item)
        else:
            outputs = None
        runner = AdaptivePipeline(
            self.pipeline,
            self.grid,
            config=self.config,
            initial_mapping=self.mapping,
            buffer_capacity=self.capacity,
            seed=self.seed,
            events=self.events,  # the session's bus, stamped in simulated seconds
        )
        self.last_run = runner.run(len(items))
        return outputs

    def items_completed(self) -> int:
        return self.last_run.items_completed if self.last_run else 0

    def replica_counts(self) -> list[int]:
        if self.last_run is None:
            return [1] * self.pipeline.n_stages
        return [
            len(self.last_run.final_mapping.replicas(i))
            for i in range(self.pipeline.n_stages)
        ]


register_backend("sim", SimBackend)
