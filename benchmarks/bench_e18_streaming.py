"""E18 (table): streaming sessions vs one-shot batches on warm executors.

Claim: the session refactor turns a "batch" into a bounded stream over a
resident executor, which buys two things a batch consumer (submit every
item, then wait out ``drain()``) cannot have:

* **first-result latency far below batch-drain time** — ``results()``
  yields the first output as soon as it completes, while a batch consumer
  waits for the full drain;
* **no throughput cost** — back-to-back streams on one warm session match
  (or beat, by skipping per-run teardown) the classic batch path that E14
  and E16 measured, on both the thread and the process backends.

Per backend the harness runs that classic batch as the baseline, then
three back-to-back streams on the same warm session with a live consumer
thread timing the first result.  ``stream_tp/batch_tp`` near (or above)
1.0 is the no-regression acceptance; ``first_ms`` against ``drain_ms``
quantifies the latency win.
"""

import json
import statistics
import threading
import time

from repro.backend import make_backend
from repro.reporting.quick import quick_mode, scaled
from repro.reporting.render import experiment_header
from repro.util.tables import render_table

BACKENDS = ["threads", "processes"]
N_ITEMS = scaled(200, 40)
N_STREAMS = 3
STAGE_SLEEP = 0.002


def _stage_a(x):
    return x + 1


def _stage_b(x):
    time.sleep(STAGE_SLEEP)
    return x * 2


def _pipeline():
    from repro.core.pipeline import PipelineSpec
    from repro.core.stage import StageSpec

    return PipelineSpec(
        (
            StageSpec(name="prep", work=0.0001, fn=_stage_a),
            StageSpec(name="work", work=STAGE_SLEEP, fn=_stage_b, replicable=True),
        )
    )


def _expected(n):
    return [(x + 1) * 2 for x in range(n)]


def _batch(session, n):
    """The classic batch: submit every item, then wait out the drain."""
    for i in range(n):
        session.submit(i)
    return session.drain()


def _measure_stream(session, n):
    """One bounded stream with a live consumer; returns timing + outputs."""
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
    return got + leftovers, first.get("latency", elapsed), elapsed


def run_experiment():
    rows = []
    for name in BACKENDS:
        pipe = _pipeline()
        with make_backend(name, pipe, replicas=[1, 2], max_replicas=2) as b:
            session = b.open()
            # Warm up pools/threads, then the classic batch baseline.
            _batch(session, N_ITEMS)
            t0 = time.perf_counter()
            outputs = _batch(session, N_ITEMS)
            batch_s = time.perf_counter() - t0
            assert outputs == _expected(N_ITEMS)

            # Back-to-back bounded streams on the same warm session.
            first_latencies, stream_times = [], []
            for _ in range(N_STREAMS):
                outputs, first_s, elapsed = _measure_stream(session, N_ITEMS)
                assert outputs == _expected(N_ITEMS)
                first_latencies.append(first_s)
                stream_times.append(elapsed)
            stats = session.stats()
            assert stats.streams_completed >= N_STREAMS + 2  # warm-up + batch
        stream_s = statistics.median(stream_times)
        rows.append(
            {
                "backend": name,
                "items": N_ITEMS,
                "batch_s": batch_s,
                "stream_s": stream_s,
                "first_ms": min(first_latencies) * 1e3,
                "drain_ms": batch_s * 1e3,
                "batch_tp": N_ITEMS / batch_s,
                "stream_tp": N_ITEMS / stream_s,
            }
        )
    return rows


def test_e18_streaming(benchmark, report):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    for row in rows:
        # First-result latency must sit well below waiting out the batch
        # drain — the streaming acceptance criterion.  The margin is what
        # varies by machine, not the direction; quick mode still checks it.
        assert row["first_ms"] < 0.5 * row["drain_ms"], row
        if not quick_mode():
            # No throughput regression vs the batch path (same warm
            # executor, so the stream should be within noise of it).
            assert row["stream_tp"] > 0.7 * row["batch_tp"], row

    report(
        "\n".join(
            [
                experiment_header(
                    "E18",
                    "streaming sessions vs one-shot batches (threads, processes)",
                    "warm back-to-back streams; first result long before drain",
                ),
                render_table(
                    [
                        "backend",
                        "items",
                        "batch(s)",
                        "stream(s)",
                        "first-result(ms)",
                        "batch-drain(ms)",
                        "stream/batch tp",
                    ],
                    [
                        [
                            r["backend"],
                            r["items"],
                            f"{r['batch_s']:.3f}",
                            f"{r['stream_s']:.3f}",
                            f"{r['first_ms']:.1f}",
                            f"{r['drain_ms']:.0f}",
                            f"x{r['stream_tp'] / r['batch_tp']:.2f}",
                        ]
                        for r in rows
                    ],
                ),
                "",
                *[f"json: {json.dumps({'experiment': 'E18', **r})}" for r in rows],
            ]
        )
    )
