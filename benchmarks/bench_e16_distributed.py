"""E16 (table): distributed socket backend vs warm process pools.

Claim: the distributed backend runs the same CPU-bound k-mer pipeline as
the process backend behind the identical ``Backend`` port, sharded over 3
localhost socket workers — one of them behind an injected 3 ms link delay,
standing in for a grid's slow site.  The coordinator *measures* per-link
transfer times instead of simulating them, and the adaptive scenario shows
an adaptive session's controller replicating the bottleneck stage across
workers (a cross-worker reconfiguration) with placement steered by the
measured link costs.

Localhost workers share the host's cores, so the distributed rows pay real
socket+pickle overhead without gaining hardware — the point is contract
parity and measured (not modelled) link costs, not a speedup on one box.
"""

import json

from repro import open_pipeline
from repro.backend import DistributedBackend, local_config, make_backend
from repro.reporting.render import experiment_header
from repro.reporting.quick import quick_mode, scaled
from repro.util.tables import render_table
from repro.workloads.apps import kmer_pipeline, make_sequences

N_ITEMS = scaled(24, 8)
SEQ_LEN = scaled(6_000, 1_500)
REPLICAS = [1, 2, 1]  # farm the dominant k-mer stage
LINK_DELAY_S = 0.003  # injected on the third worker: the slow site
# The adaptive scenario needs a run long enough for the control loop to
# observe, decide and act (several intervals), so it gets more and heavier
# items than the head-to-head rows.
ADAPT_ITEMS = scaled(96, 8)
ADAPT_SEQ_LEN = scaled(20_000, 1_500)


def run_experiment():
    pipeline = kmer_pipeline()
    inputs = make_sequences(N_ITEMS, length=SEQ_LEN, seed=16)
    rows = []
    outputs = {}

    with make_backend("processes", pipeline, replicas=list(REPLICAS)) as b:
        outputs["processes"], cols = _stream(b.open(), inputs)
    rows.append(_row("processes", cols, link_ms=0.0))

    with DistributedBackend(
        pipeline,
        replicas=list(REPLICAS),
        spawn_workers=3,
        max_replicas=3,
        worker_link_delays=[0.0, 0.0, LINK_DELAY_S],
    ) as b:
        outputs["distributed"], cols = _stream(b.open(), inputs)
        links = [w["link_s"] for w in b.alive_workers()]
    rows.append(_row("distributed", cols, link_ms=1e3 * max(links)))

    # Adaptive scenario: start the bottleneck at 1 replica and let the
    # runner grow it across workers using measured speeds and links.
    adapt_inputs = make_sequences(ADAPT_ITEMS, length=ADAPT_SEQ_LEN, seed=17)
    backend = DistributedBackend(
        pipeline,
        spawn_workers=3,
        max_replicas=3,
        worker_link_delays=[0.0, 0.0, LINK_DELAY_S],
    )
    acts = []
    try:
        session = open_pipeline(
            pipeline.stages, backend=backend,
            adaptive=local_config(
                interval=0.1, cooldown=0.2, min_improvement=1.05, rollback_tolerance=0.0
            ),
        )
        session.events.subscribe(acts.append, kinds=("adapt.act",))
        outputs["distributed-adaptive"], cols = _stream(session, adapt_inputs)
        placement = backend.replica_placement()
        links = [w["link_s"] for w in backend.alive_workers()]
    finally:
        backend.close()
    expected = []
    for item in adapt_inputs:
        for spec in pipeline.stages:
            item = spec.fn(item)
        expected.append(item)
    outputs["adaptive-expected"] = expected
    rows.append(
        {
            **_row("distributed-adaptive", cols, link_ms=1e3 * max(links)),
            "events": len(acts),
            # Widest cross-worker spread any stage's replica set reached —
            # >= 2 means a reconfiguration crossed host boundaries.
            "max_stage_spread": max(len(p) for p in placement),
        }
    )
    return rows, outputs


def _stream(session, inputs):
    """One bounded stream on ``session``: its outputs, and its row's items,
    elapsed, items/s and replica columns."""
    for item in inputs:
        session.submit(item)
    outputs = session.drain()
    elapsed = session.last_stream_elapsed
    return outputs, {
        "items": len(outputs),
        "elapsed_s": elapsed,
        "throughput_items_s": len(outputs) / elapsed,
        "replicas": session.backend.replica_counts(),
    }


def _row(name, cols, link_ms):
    return {
        "backend": name,
        **cols,
        "max_link_ms": link_ms,
        "events": 0,
        "max_stage_spread": 0,
    }


def test_e16_distributed(benchmark, report):
    rows, outputs = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    # Contract parity: identical ordered outputs across substrates.
    assert outputs["distributed"] == outputs["processes"]
    assert outputs["distributed-adaptive"] == outputs["adaptive-expected"]
    assert rows[0]["items"] == rows[1]["items"] == N_ITEMS
    assert rows[2]["items"] == ADAPT_ITEMS
    # The injected slow link must be *measured*, not assumed.
    assert rows[1]["max_link_ms"] >= 1.0
    if not quick_mode():
        # Acceptance: the runner performed at least one cross-worker
        # reconfiguration — some stage grew and its replica set spans more
        # than one worker.  Which stage wins the growth depends on noisy
        # single-host measurements (usually k-mers, the heaviest), so the
        # assertion is on the cross-worker spread, not the stage index.
        # (Quick mode's 8 items can finish before the loop earns enough
        # samples to act.)
        adaptive = rows[2]
        assert adaptive["events"] >= 1, adaptive
        assert sum(adaptive["replicas"]) > 3, adaptive
        assert adaptive["max_stage_spread"] >= 2, adaptive

    report(
        "\n".join(
            [
                experiment_header(
                    "E16",
                    "distributed socket workers vs process pools (table)",
                    "same outputs over TCP; link costs measured; adaptation crosses workers",
                ),
                render_table(
                    ["backend", "items", "elapsed(s)", "items/s", "replicas",
                     "max link(ms)", "events"],
                    [
                        [
                            r["backend"],
                            r["items"],
                            r["elapsed_s"],
                            r["throughput_items_s"],
                            str(r["replicas"]),
                            r["max_link_ms"],
                            r["events"],
                        ]
                        for r in rows
                    ],
                ),
                "(3 localhost workers; worker 2 behind an injected "
                f"{1e3 * LINK_DELAY_S:.0f} ms link delay)",
                "json: " + json.dumps(rows),
            ]
        )
    )
