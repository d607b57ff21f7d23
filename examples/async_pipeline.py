#!/usr/bin/env python
"""Real execution: an I/O-bound service pipeline with coroutine stages.

The fetch→parse→store pipeline simulates a production service whose costs
are *waits* — a network fetch, a storage write — with the middle ``parse``
stage a plain callable.  On the thread fabric (``"asyncio"`` is its I/O
name) the two ``async def`` stages run as worker coroutines on one
event-loop thread and ``parse`` gets a thread worker of its own, so it
cannot stall the loop.  An injected slow fetch (high simulated latency)
bottlenecks the pipeline; an adaptive session's controller observes the
wall-clock service times, asks the model-driven policy where the bottleneck
is, and widens that stage's coroutine pool live — ``reconfigure`` just
spawns worker coroutines (or retires them), so adaptation touches no
in-flight request.

Run:  python examples/async_pipeline.py
"""

from repro import open_pipeline
from repro.backend import ThreadBackend, local_config
from repro.util.tables import render_table
from repro.workloads.apps import fetch_pipeline, make_requests

LATENCY = 0.05  # injected fetch latency: the bottleneck to adapt away


def main() -> None:
    pipeline = fetch_pipeline(latency=LATENCY, asynchronous=True)
    print(f"pipeline: {pipeline}")
    print(f"injected fetch latency: {LATENCY}s per request (simulated I/O)\n")

    rows = []
    for replicas in ([1, 1, 1], [4, 1, 2], [16, 1, 8]):
        with ThreadBackend(pipeline, replicas=replicas, max_replicas=16) as b:
            res = b.run(make_requests(48))
        assert res.outputs is not None and len(res.outputs) == 48
        rows.append(
            [
                str(replicas),
                f"{res.elapsed:.2f}",
                f"{res.throughput:.1f}",
                " ".join(f"{m:.3f}" for m in res.service_means),
            ]
        )
    print(
        render_table(
            ["concurrency limits", "elapsed(s)", "req/s", "stage service means (s)"],
            rows,
            title="manual concurrency limits (worker coroutines per stage)",
        )
    )

    print("\nlive adaptation (policy spawns worker coroutines mid-run):")
    backend = ThreadBackend(pipeline, max_replicas=8)
    acts = []
    try:
        session = open_pipeline(
            pipeline.stages,
            backend=backend,
            adaptive=local_config(
                interval=0.1, cooldown=0.2, min_improvement=1.05, rollback_tolerance=0.0
            ),
        )
        session.events.subscribe(acts.append, kinds=("adapt.act",))
        result = backend.run(make_requests(160))
    finally:
        backend.close()
    assert result.outputs is not None and len(result.outputs) == 160
    print(f"  items: {result.items}  elapsed: {result.elapsed:.2f}s")
    for act in acts:
        print(f"  event @ {act.time:.2f}s: {act.fields['action']} {act.fields['reason']}")
    history = [a.fields["replicas_before"] for a in acts[:1]]
    print(f"  replica history: {history + [a.fields['replicas_after'] for a in acts]}")
    print(f"  final concurrency limits per stage: {result.replica_counts}")
    print("\nnote: every fetch/store 'replica' here is a worker coroutine, not a")
    print("thread — both run on one event-loop thread; the plain-callable parse")
    print("stage has a thread worker of its own on the same stage queues.")


if __name__ == "__main__":
    main()
