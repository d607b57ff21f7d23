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
        with ThreadBackend(pipeline, replicas=replicas, max_replicas=16) as b, b.open() as s:
            for request in make_requests(48):
                s.submit(request)
            assert len(s.drain()) == 48
            elapsed = s.last_stream_elapsed
            rows.append(
                [
                    str(replicas),
                    f"{elapsed:.2f}",
                    f"{48 / elapsed:.1f}",
                    " ".join(f"{m:.3f}" for m in s.service_means()),
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
        for request in make_requests(160):
            session.submit(request)
        outputs = session.drain()
        elapsed, final = session.last_stream_elapsed, backend.replica_counts()
    finally:
        backend.close()
    assert len(outputs) == 160
    print(f"  items: {len(outputs)}  elapsed: {elapsed:.2f}s")
    for act in acts:
        print(f"  event @ {act.time:.2f}s: {act.fields['action']} {act.fields['reason']}")
    history = [a.fields["replicas_before"] for a in acts[:1]]
    print(f"  replica history: {history + [a.fields['replicas_after'] for a in acts]}")
    print(f"  final concurrency limits per stage: {final}")
    print("\nnote: every fetch/store 'replica' here is a worker coroutine, not a")
    print("thread — both run on one event-loop thread; the plain-callable parse")
    print("stage has a thread worker of its own on the same stage queues.")


if __name__ == "__main__":
    main()
