"""E21 (table): micro-batched vs per-item hot path on all four executors.

Claim: for sub-millisecond stages the pipeline's cost is dominated by the
fixed per-item framework tax — queue hops, reorderer transactions, pickle
framing, wire round trips — and coalescing admitted items into batch
frames (``batching=64``) amortizes that tax across the batch without
changing any per-item semantics.  The acceptance bar from the issue:
``batched_tp / unbatched_tp >= 5`` on the thread and process executors;
asyncio and distributed ride along as supporting evidence.

Per backend the harness streams the same bounded workload through one
warm backend twice — a per-item session, then a batched session — and
also times the batched path's first result under the default linger, so
the latency cost of waiting for batch peers stays visible next to the
throughput win.
"""

import json
import statistics
import threading
import time

from repro.backend import make_backend
from repro.reporting.quick import quick_mode, scaled
from repro.reporting.render import experiment_header
from repro.util.tables import render_table

BACKENDS = ["threads", "processes", "asyncio", "distributed"]
N_ITEMS = scaled(3000, 600)
N_STREAMS = 3
MIN_SPEEDUP = 5.0  # threads + processes acceptance bar (full mode)


def _stage_a(x):
    return x + 1


def _stage_b(x):
    return x * 2


def _pipeline():
    from repro.core.pipeline import PipelineSpec
    from repro.core.stage import StageSpec

    return PipelineSpec(
        (
            StageSpec(name="prep", work=1e-6, fn=_stage_a),
            StageSpec(name="work", work=1e-6, fn=_stage_b, replicable=True),
        )
    )


def _expected(n):
    return [(x + 1) * 2 for x in range(n)]


def _measure_throughput(session, n):
    """Median items/sec of N_STREAMS back-to-back bounded streams."""
    times = []
    for _ in range(N_STREAMS):
        t0 = time.perf_counter()
        for i in range(n):
            session.submit(i)
        outputs = session.drain()
        times.append(time.perf_counter() - t0)
        assert outputs == _expected(n)
    return n / statistics.median(times)


def _measure_first_result(session, n):
    """First-result latency (s) of one stream with a live consumer."""
    got = []
    first = {}
    t0 = time.perf_counter()

    def consume():
        for value in session.results():
            if not got:
                first["latency"] = time.perf_counter() - t0
            got.append(value)

    consumer = threading.Thread(target=consume, daemon=True)
    consumer.start()
    for i in range(n):
        session.submit(i)
    leftovers = session.drain()
    elapsed = time.perf_counter() - t0
    consumer.join(timeout=10.0)
    assert got + leftovers == _expected(n)
    return first.get("latency", elapsed)


def _backend_kwargs(name):
    if name == "distributed":
        return {"spawn_workers": 2}
    return {"replicas": [1, 2], "max_replicas": 2}


def run_experiment():
    rows = []
    for name in BACKENDS:
        with make_backend(name, _pipeline(), **_backend_kwargs(name)) as b:
            # First-result probes use a short stream: the point is batch
            # assembly + one round trip, not a 3000-item submit storm
            # starving the consumer thread of the GIL.
            n_first = min(N_ITEMS, 256)

            # Per-item baseline on a warm session (one throwaway warm-up
            # stream first, so pool/link spin-up never counts).
            session = b.open()
            _measure_first_result(session, n_first)
            plain_tp = _measure_throughput(session, N_ITEMS)
            plain_first_s = _measure_first_result(session, n_first)
            session.close()

            # Batched session on the SAME warm backend.
            session = b.open(batching=64)
            batch_items = session._batch_items
            _measure_first_result(session, n_first)
            batch_tp = _measure_throughput(session, N_ITEMS)
            first_s = _measure_first_result(session, n_first)
            session.close()
        rows.append(
            {
                "backend": name,
                "items": N_ITEMS,
                "batch_items": batch_items,
                "plain_tp": plain_tp,
                "batch_tp": batch_tp,
                "batch_ratio": batch_tp / plain_tp,
                "plain_first_ms": plain_first_s * 1e3,
                "first_ms": first_s * 1e3,
            }
        )
    return rows


def test_e21_microbatch(benchmark, report):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    for row in rows:
        # Direction holds everywhere, machine-independent: batching must
        # never cost throughput on sub-ms stages.
        assert row["batch_ratio"] > 1.0, row
        # The first batched result arrives promptly under the default
        # linger (2 ms deadline + one batch's service, not a drain wait).
        assert row["first_ms"] < 500.0, row
        if not quick_mode() and row["backend"] in ("threads", "processes"):
            # The issue's acceptance bar, on unloaded full-mode runs.
            assert row["batch_ratio"] >= MIN_SPEEDUP, row

    report(
        "\n".join(
            [
                experiment_header(
                    "E21",
                    "micro-batched vs per-item hot path (all four executors)",
                    "sub-ms stages; batch frames amortize the per-item tax",
                ),
                render_table(
                    [
                        "backend",
                        "items",
                        "batch",
                        "plain it/s",
                        "batched it/s",
                        "speedup",
                        "first(ms) plain",
                        "first(ms) batched",
                    ],
                    [
                        [
                            r["backend"],
                            r["items"],
                            r["batch_items"],
                            f"{r['plain_tp']:.0f}",
                            f"{r['batch_tp']:.0f}",
                            f"x{r['batch_ratio']:.1f}",
                            f"{r['plain_first_ms']:.1f}",
                            f"{r['first_ms']:.1f}",
                        ]
                        for r in rows
                    ],
                ),
                "",
                *[f"json: {json.dumps({'experiment': 'E21', **r})}" for r in rows],
            ]
        )
    )
