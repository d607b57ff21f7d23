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

__all__ = ["open_pipeline", "pipeline_1for1", "simulate_pipeline"]


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
    **options: Any,
) -> list[Any]:
    """Run ``inputs`` through a pipeline of ``stages``; outputs in input order.

    Each stage consumes one item and produces one item (``Pipeline1for1``
    semantics).  ``replicas[i] > 1`` farms out stage ``i`` over several
    workers (stateless stages only — pass :class:`StageSpec` with
    ``replicable=False`` to forbid it), so a task farm is
    ``pipeline_1for1([fn], inputs, replicas=[n])``.  ``options`` are
    :func:`open_pipeline`'s: this is one bounded stream on such a session,
    which closes when the call returns.

    >>> pipeline_1for1([lambda x: x + 1, lambda x: x * 2], [1, 2, 3])
    [4, 6, 8]
    """
    with open_pipeline(stages, **options) as session:
        for item in inputs:
            session.submit(item)
        return session.drain()


def open_pipeline(
    stages: Sequence[Callable[[Any], Any] | StageSpec],
    *,
    replicas: Sequence[int] | None = None,
    capacity: int | None = None,
    backend: str | Backend = "threads",
    adaptive: bool | AdaptationConfig = False,
    max_inflight: int | None = None,
    telemetry=None,
    batching: int | None = None,
    **backend_kwargs,
) -> Session:
    """Open a resident streaming pipeline of ``stages`` and return its session.

    The one way in to every executor: :func:`pipeline_1for1` is one
    bounded stream on this.  The session keeps the pipeline warm —
    ``submit(item)`` admits work as it arrives (backpressure via the
    ``max_inflight`` admission window: None or a positive int, which also
    sizes the executor's lanes unless ``capacity`` is given), ``results()``
    yields ordered outputs *as items complete*, ``drain()`` bounds the
    current stream, and the next ``submit`` starts a fresh stream on the
    same warm executor.

    ``backend`` selects the execution substrate: ``"threads"`` (default),
    ``"processes"`` (warm process pools — use for CPU-bound pure-Python
    stages), ``"asyncio"`` (the thread fabric by its I/O name: an ``async def``
    stage runs as worker coroutines on one event-loop thread), ``"distributed"``
    (TCP-socket workers on this or other hosts — stage fns must be
    picklable module-level functions; pass ``spawn_workers=`` for local
    workers or start remote ones with ``python -m
    repro.backend.distributed.worker``), or a :class:`Backend` instance
    built for the same stage callables.  An instance is already
    configured: ``replicas``, ``capacity`` and backend knobs then raise.
    Backend-specific knobs pass through by name — e.g. ``transport="shm"``
    selects the payload codec on the process and distributed backends (see
    ``docs/transport.md``).

    ``adaptive=True`` (or an :class:`AdaptationConfig`) gives the session
    its :class:`~repro.backend.RuntimeAdaptiveRunner` controller: it
    observes and reconfigures on wall-clock measurements, across stream
    boundaries, for as long as the session lives (``adapt.*`` records on
    ``session.events``).  One that raises poisons the session with its own
    error.  Simulated time is :func:`simulate_pipeline`'s.

    ``telemetry=`` opts the session into the observability layer
    (:mod:`repro.obs`): pass a :class:`~repro.obs.Telemetry` for a JSONL
    event journal and/or a Prometheus snapshot file, or a plain path for
    the common case of a journal alone.  The session
    closes the telemetry (flushing the journal and writing any snapshot)
    when it closes.

    ``batching=`` (None, or a positive int: items per batch) turns on
    transparent micro-batching: the session coalesces admitted items into
    batch frames on the hot path and delivers them as per-item results on
    egress — ``submit``/``results``/``Ticket`` semantics and per-item
    ordering are unchanged.  A batch is also cut at 1 MiB of payload and
    2 ms after its first item; 64 amortises the per-item hop of sub-ms
    stages.

    Closing the session also stops the controller and closes the
    backend when it was built here from a name; a :class:`Backend`
    instance passed in stays open for further sessions.

    >>> session = open_pipeline([lambda x: x + 1])
    >>> session.submit(1), session.submit(2)  # doctest: +ELLIPSIS
    (Ticket(...), Ticket(...))
    >>> session.drain()
    [2, 3]
    >>> session.close()
    """
    # Only the shape given passes on: an instance refuses any, and a name
    # builds with each adapter's own defaults for what is not given.
    shape = {k: v for k, v in (("replicas", replicas), ("capacity", capacity)) if v is not None}
    b = make_backend(backend, _as_pipeline(stages), **shape, **backend_kwargs)
    owns = isinstance(backend, str)
    try:
        session = b.open(
            max_inflight=max_inflight, telemetry=telemetry, batching=batching
        )
    except BaseException:
        if owns:
            b.close()
        raise
    if adaptive:
        # Imported here, not at the top: the planner, the model's optimisers
        # and the grid it plans against are a controller's cost, not a pipeline's.
        from repro.backend.runner import RuntimeAdaptiveRunner
        from repro.core.policy import AdaptationConfig

        config = adaptive if isinstance(adaptive, AdaptationConfig) else None  # local_config()
        RuntimeAdaptiveRunner(session, config=config)
    if owns:
        session.add_close_callback(b.close)
    return session


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
    config instance to tune it, or ``False`` for the static baseline.  A
    task farm is a one-stage pipeline whose ``mapping`` lists its
    processors, e.g. ``Mapping((tuple(grid.pids),))``.
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
