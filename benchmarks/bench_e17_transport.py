"""E17 (table): transport codecs — pickle vs shared memory vs auto.

Claim: on large payloads, per-item cost is dominated by how bytes cross
execution boundaries, and the ``shm``/``auto`` codecs remove that cost by
shipping shared-memory descriptors instead of payload bytes.  Three parts:

1. **Process backend sweep** — the array pipeline at several payload
   sizes under each codec.  Pickle wins below the ``auto`` threshold
   (a segment round trip costs more than a small copy); shared memory
   wins at megabyte payloads; ``auto`` picks per item and tracks the
   better of the two at both ends.
2. **Distributed backend** — the same head-to-head over socket workers,
   where the negotiated frame format keeps bulk bytes off the sockets
   entirely (descriptors cross, segments do not).
3. **Adaptive scenario** — three workers, one behind an injected
   bandwidth-starved link (cost grows with payload size).  The
   coordinator's size-stratified samples fit a per-link latency+bandwidth
   model (replacing the old constant-bandwidth assumption in
   ``resource_view``), and the runner grows the bulk-forwarding stages
   only on the healthy workers.

Serialization-audit note (per-item overhead, measured below): the legacy
process-backend path pickled each item at the *default* protocol and then
re-pickled the resulting bytes through the mp.Queue, paying two extra
copies per hop; the frame path encodes once at protocol 5 and, for large
payloads, moves only a descriptor through the queue.
"""

import json
import pickle
import time

from repro import transport
from repro import open_pipeline
from repro.backend import DistributedBackend, local_config, make_backend
from repro.reporting.render import experiment_header
from repro.reporting.quick import quick_mode, scaled
from repro.util.tables import render_table
from repro.workloads.payloads import array_pipeline, make_arrays

SIZES_MB = scaled([0.25, 1.0, 4.0], [0.25, 4.0])
CODECS = ["pickle", "shm", "auto"]
N_ITEMS = scaled(32, 10)
DIST_ITEMS = scaled(24, 8)
ADAPT_ITEMS = scaled(64, 12)
ADAPT_MIX = [0.1, 2.0]  # MB; shuffled mixed-size stream for the fit
#: Injected bandwidth of the starved worker's link (bytes/s): a 2 MB item
#: pays 100 ms to cross it, a 0.1 MB item 5 ms.
STARVED_BW = 2e7


def _audit_rows(mbytes: float = 4.0) -> list[dict]:
    """Per-item serialization overhead: legacy double-pickle vs frames."""
    value = make_arrays(1, mbytes=mbytes, seed=170)[0]
    reps = 5

    def per_item(fn) -> float:
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        return (time.perf_counter() - t0) / reps

    def legacy():
        # What the backend did per hop before the codec: default-protocol
        # dumps, then the mp.Queue pickles the bytes payload again.
        payload = pickle.dumps(value)
        wire = pickle.dumps((0, payload), protocol=pickle.HIGHEST_PROTOCOL)
        pickle.loads(pickle.loads(wire)[1])

    rows = [{"path": "legacy pickle+queue", "per_item_ms": 1e3 * per_item(legacy)}]
    for name in CODECS:
        codec = transport.get(name)
        try:

            def framed():
                frame = codec.encode(value)
                wire = pickle.dumps((0, frame), protocol=pickle.HIGHEST_PROTOCOL)
                out = codec.decode(pickle.loads(wire)[1])
                codec.release(frame)
                return out

            rows.append({"path": f"frame[{name}]", "per_item_ms": 1e3 * per_item(framed)})
        finally:
            codec.close()
    return rows


def run_experiment():
    rows = []
    outputs = {}

    # -- part 1: process backend across payload sizes ----------------------
    for mb in SIZES_MB:
        pipeline = array_pipeline(mbytes=mb)
        inputs = make_arrays(N_ITEMS, mbytes=mb, seed=17)
        for codec in CODECS:
            with make_backend(
                "processes", pipeline, replicas=[1, 1, 1], transport=codec
            ) as b:
                outputs[("processes", mb, codec)], cols = _stream(b.open(), inputs)
            rows.append({"backend": "processes", "payload_mb": mb, "codec": codec, **cols})

    # -- part 2: distributed backend head-to-head --------------------------
    mb = SIZES_MB[-1]
    pipeline = array_pipeline(mbytes=mb)
    inputs = make_arrays(DIST_ITEMS, mbytes=mb, seed=17)
    for codec in ("pickle", "auto"):
        with DistributedBackend(
            pipeline, replicas=[1, 1, 1], spawn_workers=2, transport=codec
        ) as b:
            outputs[("distributed", mb, codec)], cols = _stream(b.open(), inputs)
        rows.append({"backend": "distributed", "payload_mb": mb, "codec": codec, **cols})

    # -- part 3: adaptation around a bandwidth-starved link ----------------
    pipeline = array_pipeline(mbytes=max(ADAPT_MIX))
    adapt_inputs = make_arrays(ADAPT_ITEMS, mix=ADAPT_MIX, seed=18)
    backend = DistributedBackend(
        pipeline,
        spawn_workers=3,
        max_replicas=3,
        capacity=3,
        worker_link_bandwidths=[0.0, 0.0, STARVED_BW],
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
        outputs[("adaptive", "outputs")], cols = _stream(session, adapt_inputs)
        replicas = backend.replica_counts()
        workers = backend.alive_workers()
        placement = backend.replica_placement()
        view = backend.resource_view(3)
    finally:
        backend.close()
    outputs[("adaptive", "expected")] = [
        pipeline.stages[-1].fn(
            pipeline.stages[1].fn(pipeline.stages[0].fn(item))
        )
        for item in adapt_inputs
    ]
    links = [
        {
            "worker": w["name"],
            "latency_ms": 1e3 * w["link_s"],
            "bandwidth_Bps": w["bandwidth_Bps"],
            "fitted": w["link_fitted"],
            "shm_ok": w["shm_ok"],
            # Replicas of the two bulk-forwarding stages hosted here.
            "bulk_replicas": sum(p.get(w["id"], 0) for p in placement[:2]),
        }
        for w in workers
    ]
    adaptive = {
        **cols,
        "events": len(acts),
        "replicas": replicas,
        "links": links,
        # The planner's own view of one cross-worker link pair per worker:
        # fitted values, not the old _WIRE_BANDWIDTH constant.
        "view_links": [list(view.link(a, b)) for a, b in ((0, 1), (0, 2), (1, 2))],
    }
    return rows, outputs, adaptive, _audit_rows(SIZES_MB[-1])


def _stream(session, inputs):
    """One bounded stream on ``session``: its outputs, and its row's items,
    elapsed and items/s columns."""
    for item in inputs:
        session.submit(item)
    outputs = session.drain()
    elapsed = session.last_stream_elapsed
    return outputs, {
        "items": len(outputs), "elapsed_s": elapsed, "throughput_items_s": len(outputs) / elapsed
    }


def _tp(rows, backend, mb, codec):
    return next(
        r["throughput_items_s"]
        for r in rows
        if r["backend"] == backend and r["payload_mb"] == mb and r["codec"] == codec
    )


def test_e17_transport(benchmark, report):
    rows, outputs, adaptive, audit = benchmark.pedantic(
        run_experiment, rounds=1, iterations=1
    )

    # The 1-for-1 contract holds under every codec: identical ordered
    # outputs (the checksum stage reduces arrays to comparable dicts).
    for mb in SIZES_MB:
        base = outputs[("processes", mb, "pickle")]
        for codec in CODECS[1:]:
            assert outputs[("processes", mb, codec)] == base, (mb, codec)
    big = SIZES_MB[-1]
    assert outputs[("distributed", big, "auto")] == outputs[("distributed", big, "pickle")]
    assert outputs[("adaptive", "outputs")] == outputs[("adaptive", "expected")]

    # Acceptance: shared memory beats pickle on >= 1 MB payloads, on both
    # heavy backends (quick mode included — the margin at 4 MB is ~2x).
    assert big >= 1.0
    assert _tp(rows, "processes", big, "shm") > _tp(rows, "processes", big, "pickle")
    assert _tp(rows, "distributed", big, "auto") > _tp(rows, "distributed", big, "pickle")

    # Acceptance: resource_view links carry *fitted* (latency, bandwidth).
    assert any(link["fitted"] for link in adaptive["links"])
    # Registration order is a race between the forked workers; pick the
    # starved one by its spawn name (local-2 got worker_link_bandwidths[2]).
    starved = next(k for k in adaptive["links"] if k["worker"] == "local-2")
    healthy = [k for k in adaptive["links"] if k["worker"] != "local-2"]
    if not quick_mode():
        # The starved link's fitted cost for a 2 MB transfer dwarfs the
        # healthy links', and the runner kept the bulk-stage growth off it.
        def cost_2mb(link):
            return link["latency_ms"] / 1e3 + 2e6 / link["bandwidth_Bps"]

        assert all(cost_2mb(starved) > 5 * cost_2mb(h) for h in healthy), adaptive
        assert adaptive["events"] >= 1, adaptive
        assert all(
            starved["bulk_replicas"] <= h["bulk_replicas"] for h in healthy
        ), adaptive
        # Frame-path encoding beats the legacy double-pickle per item.
        legacy_ms = audit[0]["per_item_ms"]
        shm_ms = next(r["per_item_ms"] for r in audit if r["path"] == "frame[shm]")
        assert shm_ms < legacy_ms, audit

    report(
        "\n".join(
            [
                experiment_header(
                    "E17",
                    "payload transport: pickle vs shm vs auto (table)",
                    "shm descriptors beat pickle at MB payloads; links get fitted (latency, bandwidth)",
                ),
                render_table(
                    ["backend", "payload(MB)", "codec", "items", "elapsed(s)", "items/s"],
                    [
                        [
                            r["backend"],
                            r["payload_mb"],
                            r["codec"],
                            r["items"],
                            r["elapsed_s"],
                            r["throughput_items_s"],
                        ]
                        for r in rows
                    ],
                ),
                render_table(
                    ["serialization path", "per-item (ms)"],
                    [[r["path"], r["per_item_ms"]] for r in audit],
                ),
                "adaptive run (worker 2 behind a %.0f MB/s link):" % (STARVED_BW / 1e6),
                render_table(
                    ["worker", "fitted latency(ms)", "fitted bw(B/s)", "fitted",
                     "shm", "bulk replicas"],
                    [
                        [
                            link["worker"],
                            link["latency_ms"],
                            link["bandwidth_Bps"],
                            str(link["fitted"]),
                            str(link["shm_ok"]),
                            link["bulk_replicas"],
                        ]
                        for link in adaptive["links"]
                    ],
                ),
                "resource_view cross-worker links (latency_s, bandwidth_Bps): "
                + ", ".join(
                    "(%.4f, %.3g)" % tuple(pair) for pair in adaptive["view_links"]
                ),
                "json: " + json.dumps(rows),
                "json: " + json.dumps({"e17_adaptive": adaptive, "e17_audit": audit}),
            ]
        )
    )
