"""The untraced run of one workload: every end-to-end metric.

Cold starts first; then, on one warm session (unless the workload asks for
fresh ones) and after a discarded warm-up stream, ``rounds`` rounds of
[closed-loop saturation stream, first-result cycles]; then close and the
leak checks.  The two phases alternate, not run as blocks, so that each
metric's median draws on the whole run: this host's speed wanders on a
scale of seconds, and samples spread over the run disagree less than the
same number taken back to back.

The open-loop paced phase is not here: latency from a due time rides on
timer wake-ups, which on this host are late by whatever the neighbours
make them, so it cannot hold a bound and is reported, unbounded, by the
layered run (``layers.py``).
"""

from __future__ import annotations

import dataclasses
import json
import zlib

import numpy as np

from perfbench import harness as h
from perfbench.stats import median
from perfbench.workloads import Workload

@dataclasses.dataclass(frozen=True)
class Plan:
    """Phase sizes: the workload's constants scaled by ``--seconds / 10``."""

    n: int  # items per saturation stream
    segment_n: int  # items per paced segment (one second's worth at 10 s)
    cycles: int  # first-result cycles per round
    colds: int  # throw-away interpreters of the cold phase

    @classmethod
    def of(cls, wl: Workload, seconds: float) -> "Plan":
        scale = seconds / 10.0
        return cls(
            n=max(64, round(wl.n * scale)),
            segment_n=max(32, round(wl.rate * scale)),
            cycles=max(2, round(wl.cycles * scale / wl.rounds)),
            colds=3 if scale >= 0.5 else 1,
        )


def rng_for(wl: Workload, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(wl.name.encode())])


def open_session(wl: Workload, rng, n: int, tally: h.Tally, *, traced: bool = False, **extra):
    """Open the workload's pipeline and its consumer, and warm it up.

    The warm-up is one full stream of ``n`` items, thrown away (first
    streams are slower); a workload that measures from a fresh session
    (``fresh_sessions``) gets none.
    """
    session = wl.open(traced=traced, **extra)
    consumer = h.Consumer(session, wl.digest)
    if not wl.fresh_sessions:
        items, expected = wl.generate(rng, n, "warmup")
        h.closed_stream(session, consumer, items, expected, tally, "warmup", traced=traced)
    return session, consumer


def close_session(session, consumer) -> None:
    session.close()
    consumer.join(timeout=5.0)


@dataclasses.dataclass
class Round:
    stream: h.StreamRun
    firsts: list[float]  # seconds, one per cycle
    spins: list[float]  # host speed before, between and after the two phases


def run_rounds(wl: Workload, rng, plan: Plan, tally: h.Tally) -> tuple[list[Round], float]:
    """All rounds of one run, and the process tree's peak RSS at their end."""
    done: list[Round] = []
    session = consumer = None
    try:
        for _ in range(wl.rounds):
            if session is None or wl.fresh_sessions:
                if session is not None:
                    close_session(session, consumer)
                session, consumer = open_session(wl, rng, plan.n, tally)
                children = h.descendants()
            items, expected = wl.generate(rng, plan.n, "saturation")
            spins = [h.spin_mops(h.SPIN_S)]
            stream = h.closed_stream(
                session, consumer, items, expected, tally, "saturation", children=children
            )
            spins.append(h.spin_mops(h.SPIN_S))
            firsts = h.first_results(session, consumer, wl, rng, tally, plan.cycles)
            spins.append(h.spin_mops(h.SPIN_S))
            done.append(Round(stream, firsts, spins))
        rss = h.tree_peak_rss_mb()
    finally:
        if session is not None:
            close_session(session, consumer)
    return done, rss


def end_to_end(wl: Workload, seed: int, seconds: float) -> tuple[dict, h.Tally]:
    rng = rng_for(wl, seed)
    plan = Plan.of(wl, seconds)
    tally = h.Tally()
    shm_before = h.shm_segments()
    cold = h.cold_starts(wl.name, seed, plan.colds)
    rounds, rss = run_rounds(wl, rng, plan, tally)
    for leak in h.leaks(shm_before):
        tally.fail_all("close", 1, f"leaked {leak}")

    def report(scaled: bool) -> dict[str, tuple[float, str]]:
        """Every metric as the median over the run's rounds.

        ``scaled``: CPU-bound timings at the reference host speed (see
        ``harness.speed_factor``).  CPU time per item and set-up are CPU
        work on every workload; a stream's wall time and the time to the
        first result are CPU work only where no stage ever waits
        (``wl.cpu_bound``), and are left as measured elsewhere.
        """
        tp, first, cpu = [], [], []
        for r in rounds:
            before = h.speed_factor(r.spins[:2]) if scaled else 1.0
            after = h.speed_factor(r.spins[1:]) if scaled else 1.0
            cpu.append(r.stream.cpu_us_per_item * before)
            if not wl.cpu_bound:
                before = after = 1.0
            tp.append(r.stream.items_per_s / before)
            first += [f * after for f in r.firsts]
        return {
            "setup_s": (cold["setup_s" if scaled else "setup_s.as_measured"], "s"),
            "items_per_s": (median(tp), "items/s"),
            "first_result_ms": (1e3 * median(first), "ms"),
            "cpu_us_per_item": (median(cpu), "us"),
            "peak_rss_mb": (rss, "MiB"),
        }

    spins = [s for r in rounds for s in r.spins]
    print(f"# {wl.name}: host speed {min(spins):.0f}..{max(spins):.0f} Mops "
          f"(reference {h.REFERENCE_MOPS:.0f}); as measured: "
          + json.dumps({key: value for key, (value, _) in report(False).items()}))
    return report(True), tally
