"""The traced run of one workload: every per-layer metric.

Stage functions are swapped for their traced twins (``stages.traced``) and
spans are recorded around the benchmark's own calls into ``Session``; per
item the spans ``[lag,] submit, ingress, service.i, hop.i, egress`` share
the id ``(stream, seq)`` and tile the item's latency.  End-to-end metrics
never come from here: tracing costs throughput (``trace.overhead_ratio``).
"""

from __future__ import annotations

import asyncio
import inspect
import json
from time import perf_counter

import numpy as np

from perfbench import harness as h
from perfbench import probes
from perfbench.measure import Plan, close_session, open_session, rng_for
from perfbench.stats import median, percentile
from perfbench.workloads import SLOW_S, WORKLOADS, Workload

RESULTS = h.HERE / "results"
TRACE_FILE_ITEMS = 2_000  # items per phase written to the trace file

#: Which probes add up to one stage-to-stage hop on each executor:
#: (probe, how many times a hop pays it).
HOP_RECIPE = {
    "threads": [  # worker -> dispatcher queue, reorder, dispatcher -> worker queue
        ("threads.queue_hop_us", 2), ("ordering.push_inorder_us", 1),
        ("monitor.record_service_us", 1), ("obs.emit_us.nosub", 2),
    ],
    "processes": [  # result queue to the router, reorder, task queue to a worker
        ("process.mpqueue_hop_us.64b", 2), ("transport.pickle_rt_us.1k", 1),
        ("ordering.push_inorder_us", 1), ("monitor.record_service_us", 1),
    ],
    "distributed": [  # result frame in, reorder, task frame out: one round trip
        ("protocol.frame_rt_us.64b", 1), ("transport.pickle_rt_us.1k", 1),
        ("ordering.push_inorder_us", 1), ("monitor.record_service_us", 1),
    ],
    "asyncio": [
        ("ordering.push_inorder_us", 1), ("monitor.record_service_us", 1),
        ("obs.emit_us.nosub", 2),
    ],
}


# --- spans -------------------------------------------------------------------------
class Spans:
    """Cursor-tiled spans of one traced stream, as an [items x spans] array."""

    def __init__(self, run: h.StreamRun, n_stages: int) -> None:
        names = ["submit", "ingress"]
        for i in range(n_stages):
            names += [f"service.{i}"] if i == 0 else [f"hop.{i}", f"service.{i}"]
        names.append("egress")
        if run.due is not None:
            names.insert(0, "lag")
        self.names = names
        complete = [k for k, marks in enumerate(run.sink.stamps) if len(marks) == 2 * n_stages]
        rows = []
        for k in complete:
            called, returned = run.submits[k]
            first = [called, returned] if run.due is None else [run.due[k], called, returned]
            rows.append([*first, *run.sink.stamps[k], run.sink.times[k]])
        bounds = np.array(rows).reshape(len(rows), len(names) + 1)
        self.start = bounds[:, 0].copy()
        # The cursor: a boundary that lies before the previous one (a worker
        # that started before submit() returned) gives a zero-length span.
        self.dur = np.diff(np.maximum.accumulate(bounds, axis=1), axis=1)
        self.ids = complete
        starts = run.due if run.due is not None else [s[0] for s in run.submits]
        latency = sum(t - s for t, s in zip(run.sink.times, starts))
        self.attributed_share = float(self.dur.sum() / latency) if latency > 0 else 0.0

    def column(self, name: str) -> np.ndarray:
        return self.dur[:, self.names.index(name)]

    def pooled(self, prefix: str) -> np.ndarray:
        cols = [k for k, name in enumerate(self.names) if name.startswith(prefix)]
        return self.dur[:, cols].ravel()

    def latency(self) -> np.ndarray:
        return self.dur.sum(axis=1)

    def write(self, fh, stream: int, limit: int) -> None:
        ends = self.start[:, None] + np.cumsum(self.dur, axis=1)
        for row, seq in enumerate(self.ids[:limit]):
            ident = f"{stream}:{seq}"
            begin = float(self.start[row])
            fh.write(json.dumps({"id": ident, "name": "item", "start": begin,
                                 "end": float(ends[row, -1]), "parent": None}) + "\n")
            for k, name in enumerate(self.names):
                fh.write(json.dumps({"id": ident, "name": name, "start": begin,
                                     "end": float(ends[row, k]), "parent": "item"}) + "\n")
                begin = float(ends[row, k])


def _us(values, p: float) -> float:
    return float(np.percentile(values, p)) * 1e6


# --- pieces of the traced run --------------------------------------------------------
def traced_stream(wl: Workload, rng, n: int, tally: h.Tally):
    """One traced closed-loop stream on a fresh traced session, with the
    20 Hz sampler running; returns the still-open session too."""
    session, consumer = open_session(wl, rng, n, tally, traced=True)
    try:
        children = h.descendants()
        items, expected = wl.generate(rng, n, "saturation")
        sampler = h.Sampler(session)
        try:
            run = h.closed_stream(
                session, consumer, items, expected, tally, "saturation",
                children=children, traced=True,
            )
        finally:
            samples = sampler.stop()
    except BaseException:
        close_session(session, consumer)
        raise
    return run, items, samples, session, consumer


def untraced_reference(wl: Workload, rng, plan: Plan, tally: h.Tally):
    """The same session untraced: the saturation rate that is the base of
    ``trace.overhead_ratio`` (median of three streams on a warm session, one
    where every stream needs a fresh one) and the open-loop paced segments."""
    session, consumer = open_session(wl, rng, plan.n, tally)
    try:
        rates = []
        for _ in range(1 if wl.fresh_sessions else 3):
            items, expected = wl.generate(rng, plan.n, "saturation")
            run = h.closed_stream(session, consumer, items, expected, tally, "saturation")
            rates.append(run.items_per_s)
        segments = []
        for _ in range(wl.segments):
            items, expected = wl.generate(rng, plan.segment_n, "paced")
            segments.append(
                h.paced_segment(session, consumer, items, expected, wl.rate, tally, "paced")
            )
        # The rate is unsustainable when most segments end with the backlog
        # still growing (a single one is a stall of the host, not of the
        # program); every item of those segments then counts as failed.
        growing = [seg for seg in segments if seg.backlog_growing]
        if 2 * len(growing) > len(segments):
            tally.fail_all(
                "paced", sum(seg.n for seg in growing),
                f"unsustainable at {wl.rate}/s: backlog growing in {len(growing)} segments",
            )
        return median(rates), segments
    finally:
        close_session(session, consumer)


def paced_latency(segments: list[h.StreamRun]) -> dict:
    """Latency from each item's due time: the median over the segments of
    each segment's percentile, as measured (timer wake-ups and all)."""
    lat = [h.latencies(seg) for seg in segments]
    out = {
        f"paced.latency_p{p}_ms": (1e3 * median(percentile(x, p) for x in lat), "ms")
        for p in (50, 95, 99)
    }
    out["gen.lag_p99_ms"] = (h.lag_p99_ms(segments), "ms")
    return out


def adaptation(run: h.StreamRun, items: list, samples: list, final: list[int]) -> dict:
    """How the live controller met the slowed node of a perturbed stream."""
    slow_from = next(k for k, item in enumerate(items) if item[1] == SLOW_S)
    perturbed_at = run.submits[slow_from][0]
    end = run.t0 + run.wall
    shapes = [counts for _, _, counts in samples]
    changes = [  # sample times at which the replica counts differ from the sample before
        t for (t, _, now), before in zip(samples[1:], shapes) if now != before
    ]
    # A change that lands before the slowed item even reached `transform`
    # was decided on the old service time: it is no reaction to the new one.
    seen_at = run.sink.stamps[slow_from][2]
    reacted = [t for t in changes if t > seen_at]
    static_rate = run.n / sum(item[1] for item in items)  # one replica, sleeps only
    return {
        # never changed: the whole rest of the stream counts as reaction time
        "runner.reaction_s": ((reacted[0] if reacted else end) - perturbed_at, "s"),
        "runner.reconfigs": (float(len(changes)), "count"),
        "runner.final_replicas": (float(final[1]), "count"),
        "runner.adapt_gain": (run.items_per_s / static_rate, "ratio"),
    }


def inline_rate(wl: Workload, rng) -> float:
    """The same job in a plain single-threaded loop (no framework at all)."""
    fns = [spec.fn for spec in wl.stages()]
    items, expected = wl.generate(rng, wl.inline_n, "paced")

    async def run_async():
        outs = []
        for value in items:
            for fn in fns:
                value = fn(value)
                if inspect.isawaitable(value):
                    value = await value
            outs.append(value)
        return outs

    t0 = perf_counter()
    if any(inspect.iscoroutinefunction(fn) for fn in fns):
        outs = asyncio.run(run_async())
    else:
        outs = []
        for value in items:
            for fn in fns:
                value = fn(value)
            outs.append(value)
    wall = perf_counter() - t0
    if [wl.digest(out) for out in outs] != expected:
        raise RuntimeError(f"{wl.name}: the inline loop disagrees with the reference")
    return len(items) / wall


# --- the run -----------------------------------------------------------------------
def per_layer(wl: Workload, seed: int, seconds: float) -> tuple[dict, h.Tally]:
    rng = rng_for(wl, seed)
    plan = Plan.of(wl, seconds)
    tally = h.Tally()
    shm_before = h.shm_segments()
    spin_before = h.spin_mops()
    cold = h.cold_starts(wl.name, seed, plan.colds)
    n_stages = len(wl.stages())

    sat, sat_items, samples, session, consumer = traced_stream(wl, rng, plan.n, tally)
    try:
        replicas = list(session.backend.replica_counts())
        items, expected = wl.generate(rng, plan.segment_n, "paced")
        seg = h.paced_segment(
            session, consumer, items, expected, wl.rate, tally, "paced", traced=True
        )
    finally:
        close_session(session, consumer)
    reference_rate, segments = untraced_reference(wl, rng, plan, tally)
    for leak in h.leaks(shm_before):
        tally.fail_all("close", 1, f"leaked {leak}")

    sat_spans, seg_spans = Spans(sat, n_stages), Spans(seg, n_stages)
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / f"trace_{wl.name}.jsonl", "w") as fh:
        sat_spans.write(fh, 0, TRACE_FILE_ITEMS)
        seg_spans.write(fh, 1, TRACE_FILE_ITEMS)
    share = min(sat_spans.attributed_share, seg_spans.attributed_share)
    if share < 0.98:
        tally.fail_all("trace", 1, f"spans cover only {share:.3f} of item latency")

    service = [seg_spans.column(f"service.{i}") for i in range(n_stages)]
    service_p50 = [float(np.median(col)) for col in service]
    busy = [float(sat_spans.column(f"service.{i}").sum()) / replicas[i] for i in range(n_stages)]
    submit = sat_spans.column("submit")
    latency_p50_us = _us(seg_spans.latency(), 50)
    hop_us = _us(seg_spans.pooled("hop."), 50)

    m: dict[str, tuple[float, str]] = {
        "session.submit_us": (_us(submit, 50), "us"),
        "session.submit_blocked_share": (float((submit > 1e-3).mean()), "ratio"),
        "session.backlog_mean": (
            float(np.mean([b for _, b, _ in samples])) if samples else float(wl.window), "items"
        ),
        "fabric.ingress_us": (_us(seg_spans.column("ingress"), 50), "us"),
        "fabric.hop_us": (hop_us, "us"),
        "fabric.egress_us": (_us(seg_spans.column("egress"), 50), "us"),
        "fabric.hop_p99_us": (_us(seg_spans.pooled("hop."), 99), "us"),
        "fabric.egress_p99_us": (_us(seg_spans.column("egress"), 99), "us"),
        "stage.service_us": (sum(service_p50) * 1e6, "us"),
        "stage.bottleneck_busy_share": (max(busy) / sat.wall, "ratio"),
        "baseline.inline_items_per_s": (inline_rate(wl, rng), "items/s"),
        "overhead.latency_us": (latency_p50_us - sum(service_p50) * 1e6, "us"),
        "overhead.period_us": (
            1e6 / reference_rate - max(s / r for s, r in zip(service_p50, replicas)) * 1e6, "us"
        ),
    }

    layer = probes.run_all(seed, RESULTS)
    explained = sum(layer[name][0] * times for name, times in HOP_RECIPE[wl.executor])
    m["budget.explained_us"] = (explained, "us")
    m["budget.unexplained_us"] = (hop_us - explained, "us")
    if abs(hop_us - explained) > 0.25 * hop_us:
        tally.notes.append(
            f"finding: {hop_us - explained:+.1f} us of the {hop_us:.1f} us hop is not "
            "explained by the layer probes"
        )
    m.update(layer)

    if wl.fresh_sessions:  # the traced stream above *was* the perturbed stream
        m.update(adaptation(sat, sat_items, samples, replicas))
    else:
        perturbed = WORKLOADS["perturbed_threads"]
        n = Plan.of(perturbed, seconds).n
        run, items, watched, session, consumer = traced_stream(perturbed, rng, n, tally)
        final = list(session.backend.replica_counts())
        close_session(session, consumer)
        m.update(adaptation(run, items, watched, final))

    for key in ("lifecycle.import_ms", "lifecycle.warm_open_ms", "lifecycle.teardown_ms"):
        m[key] = (cold[key], "ms")
    m.update(paced_latency(segments))
    m["trace.attributed_share"] = (share, "ratio")
    m["trace.overhead_ratio"] = (sat.items_per_s / reference_rate, "ratio")
    m["host.spin_mops"] = (min(spin_before, h.spin_mops()), "Mops")
    return m, tally
