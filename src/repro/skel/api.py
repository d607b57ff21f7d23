"""Skeleton entry points (the public face a downstream user starts from)."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

from repro.backend.base import Backend, Session, make_backend
from repro.core.pipeline import PipelineSpec
from repro.core.stage import StageSpec

if TYPE_CHECKING:
    from repro.core.events import RunResult
    from repro.core.policy import AdaptationConfig
    from repro.gridsim.grid import GridSystem
    from repro.model.mapping import Mapping

__all__ = [
    "pipeline_1for1",
    "open_pipeline",
    "farm",
    "simulate_pipeline",
    "simulate_farm",
]


def _backend_for(
    pipe: PipelineSpec,
    backend: str | Backend,
    replicas: Sequence[int] | None,
    capacity: int | None,
    **backend_kwargs,
) -> tuple[Backend, bool]:
    """Resolve ``backend`` for ``pipe``: ``(backend, whether it was built here)``."""
    if isinstance(backend, str):
        # capacity=None lets every adapter keep its own documented default
        # (8 for the real executors, the simulator's 4 for "sim").
        replicas = list(replicas) if replicas is not None else None
        kwargs = dict(replicas=replicas, capacity=capacity, **backend_kwargs)
        return make_backend(backend, pipe, **kwargs), True
    # A Backend instance arrives fully configured: shape kwargs would be
    # silently ignored — reject them loudly; make_backend validates that
    # the instance runs the same stage callables as ``stages``.
    if replicas is not None or capacity is not None or backend_kwargs:
        raise ValueError(
            "replicas/capacity/backend kwargs only apply when selecting "
            "a backend by name; a Backend instance is already configured"
        )
    return make_backend(backend, pipe), False


def _run_on_backend(
    pipe: PipelineSpec,
    inputs: Iterable[Any],
    backend: str | Backend,
    adaptive: bool | AdaptationConfig,
    replicas: Sequence[int] | None,
    capacity: int | None,
    **backend_kwargs,
) -> list[Any]:
    """Execute ``pipe`` on the chosen backend, optionally under adaptation."""
    # The simulator's adaptation loop runs inside simulated time — hand the
    # flag to its in-sim controller, not the wall-clock runner (which has
    # no purchase on a simulated backend).
    in_sim = bool(adaptive) and backend == "sim"
    if in_sim:
        backend_kwargs["adaptive"] = adaptive
    b, owns = _backend_for(pipe, backend, replicas, capacity, **backend_kwargs)
    use_runner = bool(adaptive) and b.supports_live_reconfigure
    if adaptive and not use_runner and not in_sim:
        if owns:
            b.close()  # don't leak warm resources on a refused request
        raise ValueError(
            f"backend {b.name!r} cannot adapt live; for the simulator, "
            "configure adaptation on the SimBackend instance (adaptive=)"
        )
    try:
        if use_runner:
            outputs = _live_controller(b, adaptive).run(inputs).outputs
        else:
            outputs = b.run(inputs).outputs
    finally:
        if owns:
            b.close()
    if outputs is None:
        raise ValueError(
            f"backend {b.name!r} produced no outputs (stages without fn?)"
        )
    return outputs


def _live_controller(b: Backend, adaptive: bool | AdaptationConfig):
    """The wall-clock control loop for ``b`` (``adaptive=True``: local defaults).

    Imported here, not at the top: the planner, the model's optimisers and
    the grid it plans against are a controller's cost, not a pipeline's.
    """
    from repro.backend.runner import RuntimeAdaptiveRunner, local_config
    from repro.core.policy import AdaptationConfig

    config = adaptive if isinstance(adaptive, AdaptationConfig) else local_config()
    return RuntimeAdaptiveRunner(b.pipeline, b, config=config)


def _as_pipeline(stages: Sequence[Callable[[Any], Any] | StageSpec]) -> PipelineSpec:
    specs: list[StageSpec] = []
    for i, s in enumerate(stages):
        if isinstance(s, StageSpec):
            specs.append(s)
        elif callable(s):
            name = getattr(s, "__name__", f"stage{i}")
            if name == "<lambda>":
                name = f"stage{i}"
            specs.append(StageSpec(name=f"{i}:{name}", fn=s))
        else:
            raise TypeError(f"stage {i} is neither callable nor StageSpec: {s!r}")
    return PipelineSpec(tuple(specs))


def pipeline_1for1(
    stages: Sequence[Callable[[Any], Any] | StageSpec],
    inputs: Iterable[Any],
    *,
    replicas: Sequence[int] | None = None,
    capacity: int | None = None,
    backend: str | Backend = "threads",
    adaptive: bool | AdaptationConfig = False,
    **backend_kwargs,
) -> list[Any]:
    """Run ``inputs`` through a local pipeline of ``stages``.

    Each stage consumes one item and produces one item (``Pipeline1for1``
    semantics); the result list is in input order regardless of backend.
    ``replicas[i] > 1`` farms out stage ``i`` over several workers
    (stateless stages only — pass :class:`StageSpec` with
    ``replicable=False`` to forbid it).

    ``backend`` selects the execution substrate: ``"threads"`` (default),
    ``"processes"`` (warm process pools — use for CPU-bound pure-Python
    stages), ``"asyncio"`` (the thread fabric by its I/O name: an ``async def``
    stage runs as worker coroutines on one event-loop thread), ``"distributed"``
    (TCP-socket workers on this or other hosts — stage fns must be
    picklable module-level functions; pass ``spawn_workers=`` for local
    workers or start remote ones with ``python -m
    repro.backend.distributed.worker``), ``"sim"`` (the grid
    simulator; timing is simulated), or any
    :class:`~repro.backend.base.Backend` instance (which must already be
    configured — ``replicas``/``capacity`` then may not be given).
    ``adaptive=True`` (or an :class:`AdaptationConfig`) runs the
    observe→decide→act loop: live on backends with
    ``supports_live_reconfigure``, via the in-sim controller on
    ``backend="sim"``.  Backend-specific knobs pass through — e.g.
    ``transport="shm"`` selects the payload codec on the process and
    distributed backends (see ``docs/transport.md``).

    >>> pipeline_1for1([lambda x: x + 1, lambda x: x * 2], [1, 2, 3])
    [4, 6, 8]
    """
    pipe = _as_pipeline(stages)
    return _run_on_backend(pipe, inputs, backend, adaptive, replicas, capacity, **backend_kwargs)


def open_pipeline(
    stages: Sequence[Callable[[Any], Any] | StageSpec],
    *,
    replicas: Sequence[int] | None = None,
    capacity: int | None = None,
    backend: str | Backend = "threads",
    adaptive: bool | AdaptationConfig = False,
    max_inflight: int | None = None,
    telemetry=None,
    batching=None,
    **backend_kwargs,
) -> Session:
    """Open a resident streaming pipeline of ``stages`` and return its session.

    The streaming entry point: where :func:`pipeline_1for1` runs one
    bounded batch, this keeps the pipeline warm and hands back a
    :class:`~repro.backend.base.Session` — ``submit(item)`` admits work as
    it arrives (backpressure via the ``max_inflight`` admission window:
    None or a positive int, which also sizes the executor's lanes unless
    ``capacity`` is given), ``results()`` yields ordered outputs *as items
    complete*, ``drain()`` bounds the current stream, and the next
    ``submit`` starts a fresh stream on the same warm executor.
    ``backend`` and per-backend knobs are as in :func:`pipeline_1for1`.

    ``adaptive=True`` (or an :class:`AdaptationConfig`) attaches a
    :class:`~repro.backend.RuntimeAdaptiveRunner` control loop to the live
    session: it keeps observing and reconfiguring across stream boundaries
    for as long as the session lives.  The simulator backend cannot adapt a
    live session (its controller runs inside simulated time), so
    ``backend="sim"`` with ``adaptive`` is rejected here.

    ``telemetry=`` opts the session into the observability layer
    (:mod:`repro.obs`): pass a :class:`~repro.obs.Telemetry` for a JSONL
    event journal and/or a Prometheus snapshot file, or a plain path for
    the common case of a journal alone.  The session
    closes the telemetry (flushing the journal and writing any snapshot)
    when it closes.

    ``batching=`` turns on transparent micro-batching on the real
    executors: the session coalesces admitted items into batch frames on
    the hot path and delivers them as per-item results on egress —
    ``submit``/``results``/``Ticket`` semantics and per-item ordering are
    unchanged.  Pass ``True`` or ``"auto"`` (64 items, fewer when the
    stages declare millisecond ``work``) or a positive int (items per
    batch); a batch is also cut at 1 MiB of payload and 2 ms after its
    first item.  The simulator ignores it.

    Closing the session also detaches the controller and closes the
    backend when it was built here from a name; a :class:`Backend`
    instance passed in stays open for further sessions.

    >>> session = open_pipeline([lambda x: x + 1])
    >>> session.submit(1), session.submit(2)  # doctest: +ELLIPSIS
    (Ticket(...), Ticket(...))
    >>> session.drain()
    [2, 3]
    >>> session.close()
    """
    b, owns = _backend_for(_as_pipeline(stages), backend, replicas, capacity, **backend_kwargs)
    if adaptive and not b.supports_live_reconfigure:
        if owns:
            b.close()
        raise ValueError(
            f"backend {b.name!r} cannot adapt a live session; open it "
            "without adaptive=, or use pipeline_1for1 for in-sim adaptation"
        )
    try:
        session = b.open(
            max_inflight=max_inflight, telemetry=telemetry, batching=batching
        )
    except BaseException:
        if owns:
            b.close()
        raise
    if adaptive:
        runner = _live_controller(b, adaptive)
        runner.attach(session)
        session.add_close_callback(runner.detach)
    if owns:
        session.add_close_callback(b.close)
    return session


def farm(
    worker: Callable[[Any], Any],
    inputs: Iterable[Any],
    *,
    workers: int = 4,
    capacity: int | None = None,
    backend: str | Backend = "threads",
    adaptive: bool | AdaptationConfig = False,
    **backend_kwargs,
) -> list[Any]:
    """Task-farm ``worker`` over ``inputs`` with ``workers`` replicas.

    A farm is a one-stage replicated pipeline; outputs are in input order.
    ``backend`` picks the substrate by name and ``adaptive`` enables the
    live loop, both as in :func:`pipeline_1for1`; a pre-configured
    :class:`Backend` instance carries its own worker count, so combine
    instances with :func:`pipeline_1for1` instead.
    """
    if not isinstance(backend, str):
        raise ValueError(
            "farm() configures workers itself, so it takes a backend name; "
            "for a pre-configured Backend instance use pipeline_1for1()"
        )
    pipe = _as_pipeline([worker])
    return _run_on_backend(
        pipe, inputs, backend, adaptive, [workers], capacity, **backend_kwargs
    )


def simulate_pipeline(
    pipeline: PipelineSpec,
    grid: GridSystem,
    n_items: int,
    *,
    adaptive: bool | AdaptationConfig = True,
    mapping: Mapping | None = None,
    seed: int = 0,
    **runner_kwargs,
) -> RunResult:
    """Run ``pipeline`` on the simulated ``grid``.

    ``adaptive=True`` uses the default :class:`AdaptationConfig`; pass a
    config instance to tune it, or ``False`` for the static baseline.
    """
    from repro.core.adaptive import AdaptivePipeline
    from repro.core.policy import AdaptationConfig

    if adaptive is True:
        config: AdaptationConfig | None = AdaptationConfig()
    elif adaptive is False:
        config = None
    else:
        config = adaptive
    runner = AdaptivePipeline(
        pipeline, grid, config=config, initial_mapping=mapping, seed=seed, **runner_kwargs
    )
    return runner.run(n_items)


def simulate_farm(
    work: float,
    grid: GridSystem,
    n_items: int,
    *,
    workers: int | None = None,
    out_bytes: float = 0.0,
    seed: int = 0,
    **runner_kwargs,
) -> RunResult:
    """Simulate a task farm: one replicable stage spread over ``workers``.

    ``workers=None`` uses every processor in the grid.
    """
    from repro.core.adaptive import AdaptivePipeline
    from repro.model.mapping import Mapping

    pids = grid.pids if workers is None else grid.pids[:workers]
    if not pids:
        raise ValueError("farm needs at least one processor")
    pipe = PipelineSpec(
        (StageSpec(name="farm-worker", work=work, out_bytes=out_bytes),)
    )
    mapping = Mapping((tuple(pids),))
    runner = AdaptivePipeline(
        pipe, grid, config=None, initial_mapping=mapping, seed=seed, **runner_kwargs
    )
    return runner.run(n_items)
