"""E15 (table): threads vs asyncio on a high-latency I/O pipeline.

Claim: for I/O-bound stages the replica knob is *concurrent waits*, not
cores.  Threads and coroutines are interchangeable while the fan-out is
modest — at equal replica counts both saturate the latency-bound ideal of
``R / latency``.  But the thread backend pays an OS thread per replica
(spawn time, stacks, scheduler churn), so at production-scale fan-out
(hundreds to thousands of in-flight requests) the asyncio backend keeps
scaling where threads fall away — same ``PipelineSpec`` shape, same ordered
outputs, same replica counts, one event-loop thread.
"""

import json

from repro.backend import ThreadBackend
from repro.reporting.quick import quick_mode, scaled
from repro.reporting.render import experiment_header
from repro.util.tables import render_table
from repro.workloads.apps import fetch_pipeline, make_requests

LATENCY = 0.1  # simulated per-request fetch latency (s)
FANOUTS = scaled([64, 256, 1024], [8, 32])  # fetch-stage replica counts
ITEMS_PER_REPLICA = 4
CAPACITY = 32
PARSE_REPLICAS = 4


def _replicas(fanout: int) -> list[int]:
    # store waits half the fetch latency, so half the replicas balance it.
    return [fanout, PARSE_REPLICAS, max(1, fanout // 2)]


def run_experiment():
    rows = []
    for fanout in FANOUTS:
        inputs = make_requests(ITEMS_PER_REPLICA * fanout)
        outputs = {}
        # One fabric under both names: only the stage kind differs.
        for name, asynchronous in (("threads", False), ("asyncio", True)):
            pipe = fetch_pipeline(latency=LATENCY, asynchronous=asynchronous)
            with ThreadBackend(
                pipe,
                replicas=_replicas(fanout),
                max_replicas=fanout,
                capacity=CAPACITY,
            ) as b, b.open() as s:
                for item in inputs:
                    s.submit(item)
                outputs[name] = s.drain()
                elapsed = s.last_stream_elapsed
            rows.append(
                {
                    "backend": name,
                    "replicas": fanout,
                    "items": len(outputs[name]),
                    "elapsed_s": elapsed,
                    "throughput_items_s": len(outputs[name]) / elapsed,
                    "ideal_items_s": fanout / LATENCY,
                }
            )
        assert outputs["threads"] == outputs["asyncio"]
    return rows


def test_e15_async_io(benchmark, report):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    for row in rows:
        assert row["items"] == ITEMS_PER_REPLICA * row["replicas"], row
        assert row["elapsed_s"] > 0, row
    if not quick_mode():
        # At the largest fan-out the event loop must beat the OS threads at
        # equal replica counts — the regime the asyncio adapter exists for.
        by_backend = {
            (r["backend"], r["replicas"]): r["throughput_items_s"] for r in rows
        }
        top = FANOUTS[-1]
        assert by_backend[("asyncio", top)] > 1.1 * by_backend[("threads", top)], rows

    report(
        "\n".join(
            [
                experiment_header(
                    "E15",
                    "threads vs asyncio on a high-latency I/O pipeline (table)",
                    "equal at modest fan-out; the event loop keeps scaling "
                    "where per-replica OS threads fall away",
                ),
                render_table(
                    ["backend", "replicas", "items", "elapsed(s)", "items/s", "ideal/s"],
                    [
                        [
                            r["backend"],
                            r["replicas"],
                            r["items"],
                            r["elapsed_s"],
                            r["throughput_items_s"],
                            r["ideal_items_s"],
                        ]
                        for r in rows
                    ],
                ),
                f"(fetch latency {LATENCY}s simulated; store waits half that; "
                "equal replica counts per row pair)",
                "json: " + json.dumps(rows),
            ]
        )
    )
