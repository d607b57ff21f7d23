"""The eight workloads: what runs, on which executor, with which inputs.

Item counts, windows and rates are fixed constants (scaled only by
``--seconds``), never derived from a measured speed, so both sides of a
comparison receive identical load.  ``generate`` turns the seed's random
stream into items *and* the outputs a single-threaded reference computes
for them; the program under test receives only the items.

Seeds move *which* items are slow, never *how much* work a stream holds:
the heavy-tail draws are a shuffle of a fixed 90/9/1 block, so every seed
gives the same total service demand.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable

import numpy as np

from repro.backend import local_config
from repro.core.stage import StageSpec
from repro.skel.api import open_pipeline
from repro.workloads.apps import fetch_pipeline

from perfbench import stages as st

def _identity(value):
    return value


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    executor: str
    why: str
    n: int  # items per saturation stream at --seconds 10
    window: int  # admission window W (max_inflight)
    rate: int  # paced phase, items/s
    stages: Callable[[], list[StageSpec]]
    options: Callable[[], dict]  # executor shape handed to open_pipeline
    #: (rng, n, phase) -> (items, reference outputs); phase is one of
    #: "warmup", "saturation", "paced", "cycles"
    generate: Callable[[np.random.Generator, int, str], tuple[list, list]]
    digest: Callable[[Any], Any] = _identity  # output -> hashable, comparable
    rounds: int = 5  # of [saturation stream, first-result cycles]
    cycles: int = 40  # first-result cycles per run at --seconds 10
    segments: int = 5  # paced segments of the layered run
    fresh_sessions: bool = False  # every round opens a new session
    cpu_bound: bool = True  # no stage ever waits: wall time is CPU time
    inline_n: int = 2000  # items of the plain-loop baseline

    def open(self, *, traced: bool = False, **extra):
        specs = self.stages()
        if traced:
            specs = [dataclasses.replace(s, fn=st.traced(s.fn)) for s in specs]
        return open_pipeline(
            specs,
            backend=self.executor,
            max_inflight=self.window,
            **self.options(),
            **extra,
        )


# --- tiny pipeline -----------------------------------------------------------
def _tiny_stages():
    return [
        StageSpec(name="prep", work=1e-6, fn=st.prep),
        StageSpec(name="work", work=1e-6, fn=st.work),
    ]


def _tiny_items(rng, n, phase):
    xs = rng.integers(0, 1 << 30, size=n).tolist()
    return xs, [(x + 1) * 2 for x in xs]


# --- 1 MiB payloads ------------------------------------------------------------
_POOL = 24  # distinct arrays; more than the window, so any in-flight swap shows


def _payload_stages():
    return [
        StageSpec(name="add", work=1e-4, fn=st.add_one),
        StageSpec(name="scale", work=1e-4, fn=st.times_two),
    ]


def _payload_digest(a):
    return (a.shape, float(a[0, 0]), float(a[-1, -1]), float(a.sum()))


def _payload_items(rng, n, phase):
    pool = [rng.random((128, 1024)) for _ in range(_POOL)]
    want = [_payload_digest((a + 1.0) * 2.0) for a in pool]
    return [pool[k % _POOL] for k in range(n)], [want[k % _POOL] for k in range(n)]


# --- sleeping pipelines --------------------------------------------------------
_TAIL_BLOCK = np.array([0.001] * 90 + [0.005] * 9 + [0.040])
SLOW_S = 0.008  # the perturbed node's service time (nominal: FAST_S)
FAST_S = 0.002


def _sleep_reference(xs):
    return [(x + 1) * 2 + 3 for x in xs]


def _heavytail_stages():
    return [
        StageSpec(name="parse", work=1e-6, fn=st.parse),
        StageSpec(name="tail", work=0.00175, fn=st.dwell),
        StageSpec(name="store", work=st.STORE_S, fn=st.store),
    ]


def _heavytail_items(rng, n, phase):
    xs = rng.integers(0, 1 << 30, size=n).tolist()
    blocks = [rng.permutation(_TAIL_BLOCK) for _ in range(-(-n // len(_TAIL_BLOCK)))]
    sleeps = np.concatenate(blocks)[:n].tolist()
    return list(zip(xs, sleeps)), _sleep_reference(xs)


def _perturbed_stages():
    return [
        StageSpec(name="parse", work=1e-6, fn=st.parse),
        StageSpec(name="transform", work=FAST_S, fn=st.dwell),
        StageSpec(name="render", work=1e-6, fn=st.render),
    ]


def _perturbed_items(rng, n, phase):
    xs = rng.integers(0, 1 << 30, size=n).tolist()
    jitter = int(rng.integers(-(n // 50), n // 50 + 1))  # drawn in every phase
    # A saturation stream slows down a quarter of the way in; the later
    # phases run on the adapted session and see the slowed node only.
    slow_from = n // 4 + jitter if phase in ("warmup", "saturation") else 0
    sleeps = [FAST_S if k < slow_from else SLOW_S for k in range(n)]
    return list(zip(xs, sleeps)), _sleep_reference(xs)


# --- fetch -> parse -> store on the event loop ---------------------------------
def _fetch_stages():
    return list(fetch_pipeline(latency=0.01, jitter=0.25, asynchronous=True).stages)


def _fetch_digest(record):
    return (record["id"], record["digits"], record["stored"])


def _fetch_items(rng, n, phase):
    # Latency is a function of the request id with period 1000, so any run
    # of consecutive ids holds the same mix whatever the base.
    base = int(rng.integers(0, 900_000))
    rids = list(range(base, base + n))
    return rids, [(rid, 8 * len(f"{rid:06d}"), True) for rid in rids]


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="tiny_threads",
            executor="threads",
            why="sub-ms stages, per item: the thread fabric (queue hops, per-stage "
            "dispatcher, reorderer, admission/deliver) is nearly all of the cost",
            n=12_000, window=256, rate=2_000, rounds=8, cycles=200,
            stages=_tiny_stages, generate=_tiny_items,
            options=lambda: {"replicas": [1, 2]},
        ),
        Workload(
            name="batched_threads",
            executor="threads",
            why="same layers, batching=64: fabric and reorderer are paid once per 64 "
            "items, leaving submit assembly/split; a per-item fabric win must not move it",
            n=60_000, window=4_096, rate=5_000, rounds=8, cycles=200,
            stages=_tiny_stages, generate=_tiny_items,
            options=lambda: {"replicas": [1, 2], "batching": 64},
        ),
        Workload(
            name="tiny_processes",
            executor="processes",
            why="per-item cost is the mp.Queue hop, the pickle frame and the router in "
            "process_backend; the thread fabric is bypassed",
            n=3_000, window=256, rate=800, rounds=8, cycles=200,
            stages=_tiny_stages, generate=_tiny_items,
            options=lambda: {"replicas": [1, 2]},
        ),
        Workload(
            name="tiny_distributed",
            executor="distributed",
            why="protocol framing, coordinator dispatch/reorder and worker.py over "
            "loopback TCP do the work; worker start-up shows in setup_s",
            n=3_000, window=256, rate=800, rounds=8, cycles=200,
            stages=_tiny_stages, generate=_tiny_items,
            options=lambda: {"spawn_workers": 2},
        ),
        Workload(
            name="payload_processes",
            executor="processes",
            why="1 MiB float64 arrays, transport=auto: shm encode, decode copy-out and "
            "release dominate; the per-item hop is noise here",
            n=100, window=16, rate=60, rounds=8,
            stages=_payload_stages, generate=_payload_items, digest=_payload_digest,
            options=lambda: {"replicas": [1, 2], "transport": "auto"},
            inline_n=100,
        ),
        Workload(
            name="heavytail_threads",
            executor="threads",
            why="service-dominated (1/5/40 ms tail, replicas 1,4,4): per-stage reordering "
            "head-of-line blocks store behind each slow item; hot-path savings must not move it",
            n=1_500, window=256, rate=600,
            stages=_heavytail_stages, generate=_heavytail_items,
            options=lambda: {"replicas": [1, 4, 4]},
            cpu_bound=False, inline_n=100,
        ),
        Workload(
            name="fetch_asyncio",
            executor="asyncio",
            why="I/O waits on 32-wide coroutine pools: framework share is small, so this "
            "is the bypass row for fabric work and the sensitive row for event-loop changes",
            n=2_000, window=256, rate=500,
            stages=_fetch_stages, generate=_fetch_items, digest=_fetch_digest,
            options=lambda: {"replicas": [32, 1, 32]},
            cpu_bound=False, inline_n=20,
        ),
        Workload(
            name="perturbed_threads",
            executor="threads",
            why="a node slows from 2 to 8 ms a quarter into each stream and the live "
            "controller must widen it: only reaction time and decision quality move it",
            n=1_000, window=64, rate=300,
            stages=_perturbed_stages, generate=_perturbed_items,
            options=lambda: {"adaptive": local_config(), "max_replicas": 8},
            rounds=3, segments=3, fresh_sessions=True,
            cpu_bound=False, inline_n=100,
        ),
    )
}
