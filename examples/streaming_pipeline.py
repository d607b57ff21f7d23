#!/usr/bin/env python
"""Streaming execution sessions: a resident pipeline serving live traffic.

The batch entry points hand the executor a finished list; a real service
never has one.  ``skel.api.open_pipeline`` instead returns a long-lived
:class:`~repro.backend.base.Session`: a **producer thread** submits items
as they "arrive" (backpressure via the bounded admission window) while the
main thread consumes ordered results *as items complete* — the first
result lands long before the stream is bounded.  The
session's own :class:`~repro.backend.RuntimeAdaptiveRunner` control loop
(``adaptive=``) widens the bottleneck stage's worker pool while
items flow, then keeps its measurement window across the stream boundary
into a second, back-to-back stream on the same warm workers.

Run:  python examples/streaming_pipeline.py

Set ``REPRO_OBS_JOURNAL=/path/to/events.jsonl`` to journal the session's
structured event stream (see docs/observability.md); inspect it live with
``python -m repro.obs.top /path/to/events.jsonl``.
"""

import os
import threading
import time

from repro.backend import local_config
from repro.skel.api import open_pipeline

N_ITEMS = 120


def parse(x: int) -> int:
    return x + 1


def transform(x: int) -> int:
    time.sleep(0.01)  # the bottleneck stage: I/O or heavy compute
    return x * 2


def render(x: int) -> int:
    return x - 3


def produce(session, n: int, label: str) -> None:
    for i in range(n):
        session.submit(i)  # blocks only when the admission window is full
    print(f"  [{label}] producer: {n} items submitted")


def main() -> None:
    session = open_pipeline(
        [parse, transform, render],
        backend="threads",
        adaptive=local_config(interval=0.1, cooldown=0.2, settle_time=0.1),
        max_replicas=4,
        max_inflight=64,
        telemetry=os.environ.get("REPRO_OBS_JOURNAL"),  # optional JSONL journal
    )
    try:
        for stream in range(2):
            label = f"stream {stream}"
            t0 = time.perf_counter()
            producer = threading.Thread(
                target=produce, args=(session, N_ITEMS, label), daemon=True
            )
            producer.start()

            first_latency = None
            consumed = 0
            for value in session.results():
                if first_latency is None:
                    first_latency = time.perf_counter() - t0
                expected = consumed + 1
                assert value == expected * 2 - 3, (value, consumed)
                consumed += 1
                if consumed == N_ITEMS:
                    break
            producer.join()
            leftovers = session.drain()
            elapsed = time.perf_counter() - t0
            assert consumed + len(leftovers) == N_ITEMS
            print(
                f"  [{label}] {consumed} results consumed live in {elapsed:.2f}s; "
                f"first result after {first_latency * 1e3:.0f} ms; "
                f"replicas now {session.backend.replica_counts()}"
            )
        stats = session.stats()
        print(
            f"\nsession served {stats.streams_completed} streams, "
            f"{stats.items_total} items, on one warm worker fabric"
        )
        assert stats.streams_completed == 2
        assert stats.items_total == 2 * N_ITEMS
    finally:
        session.close()
    print("streaming session: submit while consuming, adapt while flowing.")


if __name__ == "__main__":
    main()
