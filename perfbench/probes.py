"""Layer probes: one module's public functions, timed on inputs shaped like
the workloads'.

Each probe reports the median of ``REPEATS`` timings of a fixed number of
calls.  The counts are sized so that all probes together stay within a few
seconds: the driver's time cap leaves no room for 20k-call probes on every
traced run.
"""

from __future__ import annotations

import multiprocessing as mp
import socket
import threading
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

from perfbench import harness as h
from perfbench.stats import median

REPEATS = 5
Metric = tuple[float, str]


def _us_per_call(body: Callable[[], None], calls: int) -> float:
    """Median over REPEATS of (time of one ``body()``) / ``calls``, in us."""
    times = []
    for _ in range(REPEATS):
        t0 = perf_counter()
        body()
        times.append(perf_counter() - t0)
    return median(times) / calls * 1e6


# --- runtime.threads -------------------------------------------------------------
def threads_queue_hop() -> dict[str, Metric]:
    from repro.runtime.threads import _CountedQueue

    calls = 3_000
    there = _CountedQueue(8, producers=1, consumers=1)
    back = _CountedQueue(8, producers=1, consumers=1)

    def echo():
        while (item := there.get()) is not None:
            back.put(item)

    thread = threading.Thread(target=echo, daemon=True)
    thread.start()

    def body():
        for i in range(calls):
            there.put(i)
            back.get()

    try:
        rtt = _us_per_call(body, calls)
    finally:
        there.put(None)
        thread.join()
    return {"threads.queue_hop_us": (rtt / 2.0, "us")}  # one hop = half a round trip


# --- backend.process_backend -----------------------------------------------------
def _mp_echo(there, back):
    while (item := there.get()) is not None:
        back.put(item)


def process_mpqueue_hop() -> dict[str, Metric]:
    ctx = mp.get_context("fork")  # the process executor's own start method
    there, back = ctx.Queue(), ctx.Queue()
    child = ctx.Process(target=_mp_echo, args=(there, back), daemon=True)
    child.start()
    out = {}
    try:
        for label, payload, calls in (("64b", b"x" * 64, 400), ("1m", b"x" * (1 << 20), 12)):

            def body():
                for _ in range(calls):
                    there.put(payload)
                    back.get()

            body()  # first use starts the feeder threads
            out[f"process.mpqueue_hop_us.{label}"] = (_us_per_call(body, calls) / 2.0, "us")
    finally:
        there.put(None)
        child.join(timeout=5.0)
        for q in (there, back):
            q.close()
            q.join_thread()
    return out


# --- util.ordering / util.batching -----------------------------------------------
def ordering_and_batching(rng: np.random.Generator) -> dict[str, Metric]:
    from repro.util.batching import Batch, map_batch
    from repro.util.ordering import SequenceReorderer

    from perfbench.stages import prep

    calls = 12_800
    # Shuffled within windows of 64: what replicated workers hand a router.
    shuffled = np.concatenate(
        [base + rng.permutation(64) for base in range(0, calls, 64)]
    ).tolist()
    chunk = list(range(64))

    def inorder():
        r = SequenceReorderer()
        for seq in range(calls):
            for _ in r.push(seq, seq):
                pass

    def windowed():
        r = SequenceReorderer()
        for seq in shuffled:
            for _ in r.push(seq, seq):
                pass

    def ranges():
        r = SequenceReorderer()
        for start in range(0, calls, 64):
            for _ in r.push_range(start, chunk):
                pass

    def batches():
        for start in range(0, calls, 64):
            batch = map_batch(prep, Batch(chunk, start, start, start // 64))
            for _ in batch.items:  # the split back into per-item results
                pass

    return {
        "ordering.push_inorder_us": (_us_per_call(inorder, calls), "us"),
        "ordering.push_shuffled_us": (_us_per_call(windowed, calls), "us"),
        "ordering.push_range_us_per_item": (_us_per_call(ranges, calls), "us"),
        "batching.assemble_split_us_per_item": (_us_per_call(batches, calls), "us"),
    }


# --- transport ---------------------------------------------------------------------
def transport_codecs(rng: np.random.Generator) -> dict[str, Metric]:
    from repro import transport

    sizes = {"1k": 1 << 10, "64k": 1 << 16, "1m": 1 << 20, "4m": 1 << 22}
    arrays = {label: rng.random(nbytes // 8) for label, nbytes in sizes.items()}
    out = {}
    for name, labels in (("pickle", ("1k", "64k", "1m", "4m")), ("shm", ("64k", "1m", "4m"))):
        codec = transport.get(name)
        try:
            for label in labels:
                array = arrays[label]
                calls = max(4, min(400, (1 << 22) // sizes[label]))

                def body():
                    for _ in range(calls):
                        frame = codec.encode(array)
                        codec.decode(frame)
                        codec.release(frame)

                out[f"transport.{name}_rt_us.{label}"] = (_us_per_call(body, calls), "us")
        finally:
            codec.close()
    threshold = transport.calibrated_auto_threshold() or transport.AUTO_THRESHOLD
    out["transport.auto_threshold_bytes"] = (float(threshold), "bytes")
    return out


# --- backend.distributed.protocol --------------------------------------------------
def protocol_frames() -> dict[str, Metric]:
    from repro.backend.distributed.protocol import recv_frame, send_frame

    server = socket.create_server(("127.0.0.1", 0))
    client = socket.create_connection(server.getsockname())
    peer, _ = server.accept()
    for sock in (client, peer):
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def echo():
        while (message := recv_frame(peer)) is not None:
            send_frame(peer, message)

    thread = threading.Thread(target=echo, daemon=True)
    thread.start()
    out = {}
    try:
        for label, payload, calls in (("64b", b"x" * 64, 400), ("1m", b"x" * (1 << 20), 12)):

            def body():
                for _ in range(calls):
                    send_frame(client, payload)
                    recv_frame(client)

            out[f"protocol.frame_rt_us.{label}"] = (_us_per_call(body, calls), "us")
    finally:
        client.close()
        thread.join(timeout=5.0)
        peer.close()
        server.close()
    return out


# --- obs / monitor -------------------------------------------------------------------
def obs_and_monitor(scratch: Path) -> dict[str, Metric]:
    from repro.monitor.instrument import StageMetrics
    from repro.obs.events import EventBus
    from repro.obs.journal import JsonlJournal

    calls = 10_000

    def emitter(bus):
        def body():
            for seq in range(calls):
                bus.emit("item.submit", stream=0, seq=seq, gseq=seq)

        return body

    out = {"obs.emit_us.nosub": (_us_per_call(emitter(EventBus(clock=perf_counter)), calls), "us")}
    bus = EventBus(clock=perf_counter)
    bus.subscribe(lambda ev: None)
    out["obs.emit_us.1sub"] = (_us_per_call(emitter(bus), calls), "us")

    journal_path = scratch / "probe_journal.jsonl"
    journal = JsonlJournal(journal_path)
    bus = EventBus(clock=perf_counter)
    bus.subscribe(journal)
    try:
        out["obs.journal_emit_us"] = (_us_per_call(emitter(bus), calls), "us")
    finally:
        journal.close()
        for path in scratch.glob("probe_journal.jsonl*"):
            path.unlink()

    metrics = StageMetrics(0)

    def record():
        for seq in range(calls):
            metrics.record_service(1e-6, 1.0, seq=seq, worker=0)

    out["monitor.record_service_us"] = (_us_per_call(record, calls), "us")
    return out


def journal_throughput_ratio(scratch: Path, seed: int) -> dict[str, Metric]:
    """One tiny_threads stream with a journal attached / one without."""
    from perfbench import measure
    from perfbench.workloads import WORKLOADS

    wl = WORKLOADS["tiny_threads"]
    rng = measure.rng_for(wl, seed)
    journal_path = scratch / "probe_session.jsonl"
    rates = []
    tally = h.Tally()
    for extra in ({}, {"telemetry": str(journal_path)}):
        session, consumer = measure.open_session(wl, rng, 4_000, tally, **extra)
        try:
            items, expected = wl.generate(rng, 4_000, "saturation")
            run = h.closed_stream(session, consumer, items, expected, tally, "saturation")
            rates.append(run.items_per_s)
        finally:
            measure.close_session(session, consumer)
    if tally.failed:
        raise RuntimeError(f"journal probe: {tally.notes}")
    for path in scratch.glob("probe_session.jsonl*"):
        path.unlink()
    return {"obs.journal_tp_ratio": (rates[1] / rates[0], "ratio")}


# --- model / gridsim -----------------------------------------------------------------
def model_and_sim() -> dict[str, Metric]:
    from repro.core.adaptive import AdaptivePipeline, run_static
    from repro.core.policy import AdaptationConfig
    from repro.core.stage import StageSpec
    from repro.gridsim.spec import uniform_grid
    from repro.model.mapping import Mapping
    from repro.model.throughput import ModelContext, fn_view, predict
    from repro.workloads.scenarios import load_step
    from repro.workloads.synthetic import balanced_pipeline

    # model: one predict() on a 3-stage mapping with a replicated middle stage
    costs = tuple(StageSpec(name=f"s{i}", work=w).cost() for i, w in enumerate((0.01, 0.08, 0.01)))
    ctx = ModelContext(
        stage_costs=costs,
        view=fn_view(lambda pid: 1.0, lambda a, b: (1e-4, 1e8), list(range(6))),
        source_pid=0,
        sink_pid=0,
    )
    mapping = Mapping(((0,), (1, 2, 3, 4), (5,)))
    calls = 400

    def body():
        for _ in range(calls):
            predict(mapping, ctx)

    out = {"model.predict_us": (_us_per_call(body, calls), "us")}

    # gridsim: E1's load-step scenario, static against adaptive, seed 1
    n_items = 1_200

    def grid():
        g = uniform_grid(4)
        load_step(1, at=20.0, availability=0.1).apply(g)
        return g

    pipeline = balanced_pipeline(3, work=0.1)
    single = Mapping.single([0, 1, 2])
    t0 = perf_counter()
    static = run_static(pipeline, grid(), n_items, mapping=single, seed=1)
    adaptive = AdaptivePipeline(
        pipeline, grid(), config=AdaptationConfig(interval=3.0, cooldown=5.0),
        initial_mapping=single, seed=1,
    ).run(n_items)
    wall = perf_counter() - t0
    out["gridsim.sim_items_per_s"] = (2 * n_items / wall, "items/s")
    out["sim.adaptive_gain"] = (static.makespan / adaptive.makespan, "ratio")
    return out


def run_all(seed: int, scratch: Path) -> dict[str, Metric]:
    rng = np.random.default_rng(seed)
    scratch.mkdir(parents=True, exist_ok=True)
    out: dict[str, Metric] = {}
    out.update(process_mpqueue_hop())  # forks: before this process grows threads
    out.update(threads_queue_hop())
    out.update(ordering_and_batching(rng))
    out.update(transport_codecs(rng))
    out.update(protocol_frames())
    out.update(obs_and_monitor(scratch))
    out.update(journal_throughput_ratio(scratch, seed))
    out.update(model_and_sim())
    return out
