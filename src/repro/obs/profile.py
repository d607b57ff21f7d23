"""Critical-path profiler: attribute each item's latency to named phases.

The adaptation policy decides *where* to add replicas from throughput
measurements; this module answers the complementary question — *where did
one item's wall-clock time actually go?* — in the causal-profiling spirit
of Coz: optimizing a phase only helps if that phase is on the item's
critical path.

Given a journal, each completed item's submit→yield latency is tiled into
named phases:

``admit_wait``
    time blocked in ``submit()`` on the bounded-admission window — spent
    *before* the item's latency starts, so it is reported separately and
    not part of the latency tiling;
``coord_queue``
    coordinator-side residence (distributed): back-pressure slot waits
    (stage 0's are spent inside ``submit()``) and inter-stage routing gaps;
``encode``
    payload encoding, both coordinator-side (``frame.encode`` with
    ``seconds``) and worker-side (a distributed hop's ``encode``);
``wire_out`` / ``wire_back``
    task frame out to the worker / result frame back, from a distributed
    hop's decomposition (clock-fit mapped, error bounded by rtt/2);
``worker_queue``
    in the replica's task queue on the worker (in-process: see below);
``service``
    the stage callable itself;
``reorder_hold``
    completed out of order, held for earlier sequence numbers.

Per-stage aggregates and a **bottleneck verdict** (the dominant phase,
located to a stage when it is service- or queue-shaped) come out
comparable against the adaptation policy's own decisions: the report says
whether the policy's last ``adapt.act`` targeted the stage the measured
critical path blames.

Offline report::

    python -m repro.obs.profile /tmp/pipeline.jsonl
    python -m repro.obs.profile /tmp/pipeline.jsonl --slowest 5 --json

One pass over the journal groups its records per item
(:func:`join_records`): ``item.submit``/``item.complete`` by the item's
ticket, every other record by the session-wide ``gseq`` its ``seq`` names.
Every executor journals one ``stage.service`` per hop, and one loop tiles
them all.  The distributed hop carries its decomposition (``wire_out``,
``worker_queue``, ``encode``, ``wire_back``), so the gap before it is
coordinator residence.  The in-process executors (threads, processes,
asyncio) measure only the service, so the gap before each (less any
measured encode) is that stage's own ``worker_queue``: coarser, but a
saturated stage's input wait blames that stage, not the coordinator, and
the service-vs-overhead split stays honest.

Micro-batched sessions emit one batch-covering record per hop
(``items=N``, durations = batch totals), which joins all N member
items.  Per item, only ``seconds / N`` of the service was
*this* item's own work; the rest of the batch's service window — time the
item spent waiting on its batchmates — tiles into ``worker_queue``, so
per-item latency coverage stays complete without service time being
counted N times across the batch.  Stage aggregates divide every batch
duration by N (amortised per-item cost).
"""

from __future__ import annotations

import argparse
import json
import math
import os
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable

from repro.obs.events import Event

__all__ = [
    "PHASES",
    "ItemProfile",
    "StageAggregate",
    "ProfileReport",
    "join_records",
    "profile_events",
    "profile_journal",
    "render_report",
    "main",
]

#: Phase names in timeline order (``admit_wait`` excluded: it precedes the
#: latency and is reported separately).
PHASES = (
    "coord_queue",
    "encode",
    "wire_out",
    "worker_queue",
    "service",
    "wire_back",
    "reorder_hold",
)

_VERDICT_LABEL = {
    "service": "service-bound",
    "worker_queue": "replica-starved (worker queue)",
    "coord_queue": "coordinator-bound",
    "encode": "encode-bound",
    "wire_out": "wire-bound (outbound)",
    "wire_back": "wire-bound (return)",
    "reorder_hold": "straggler-bound (reorder hold)",
}


@dataclass
class ItemProfile:
    """One completed item's latency, tiled into named phases."""

    stream: int
    seq: int
    latency: float
    admit_wait: float
    phases: dict[str, float]
    redispatched: bool = False
    #: in-process executors: stage -> the ``worker_queue`` tiled before it
    queued: dict[int, float] = field(default_factory=dict)

    @property
    def attributed(self) -> float:
        return sum(self.phases.values())

    @property
    def coverage(self) -> float:
        """Fraction of the latency the named phases account for (≤ 1)."""
        if self.latency <= 0:
            return 1.0
        return min(1.0, self.attributed / self.latency)


@dataclass
class StageAggregate:
    """Per-stage sums across all profiled items."""

    stage: int
    name: str = ""
    items: int = 0
    service: float = 0.0
    worker_queue: float = 0.0
    wire: float = 0.0
    encode: float = 0.0


@dataclass
class ProfileReport:
    """The profiler's output: per-item tilings, aggregates, and verdict."""

    items: list[ItemProfile] = field(default_factory=list)
    stages: dict[int, StageAggregate] = field(default_factory=dict)
    backend: str = "?"
    #: (t, before, after, reason) of every ``adapt.act`` in the journal.
    decisions: list[tuple[float, list, list, str]] = field(default_factory=list)
    #: worker id -> last ``clock.sync`` fields (offset, drift, err, n).
    clocks: dict[int, dict] = field(default_factory=dict)
    #: the stage names ``session.open`` carried.
    stage_names: list[str] = field(default_factory=list)

    # ------------------------------------------------------------ aggregates
    @property
    def phase_totals(self) -> dict[str, float]:
        totals = {p: 0.0 for p in PHASES}
        for item in self.items:
            for p, v in item.phases.items():
                totals[p] = totals.get(p, 0.0) + v
        return totals

    @property
    def admit_wait_total(self) -> float:
        return sum(i.admit_wait for i in self.items)

    @property
    def mean_coverage(self) -> float:
        if not self.items:
            return math.nan
        return sum(i.coverage for i in self.items) / len(self.items)

    @property
    def min_coverage(self) -> float:
        if not self.items:
            return math.nan
        return min(i.coverage for i in self.items)

    # --------------------------------------------------------------- verdict
    @property
    def bottleneck_phase(self) -> str | None:
        totals = self.phase_totals
        if not self.items or not any(totals.values()):
            return None
        return max(totals, key=lambda p: totals[p])

    @property
    def bottleneck_stage(self) -> int | None:
        """The stage the dominant phase points at (None when stage-less)."""
        phase = self.bottleneck_phase
        if phase is None or not self.stages:
            return None
        key = {"wire_out": "wire", "wire_back": "wire"}.get(phase, phase)
        if key not in ("service", "worker_queue", "encode", "wire"):
            return None  # coord_queue / reorder_hold are cross-stage
        return max(self.stages, key=lambda s: getattr(self.stages[s], key))

    @property
    def verdict(self) -> str:
        phase = self.bottleneck_phase
        if phase is None:
            return "no completed items profiled"
        label = _VERDICT_LABEL.get(phase, phase)
        totals = self.phase_totals
        share = totals[phase] / max(sum(totals.values()), 1e-12)
        stage = self.bottleneck_stage
        where = ""
        if stage is not None:
            agg = self.stages[stage]
            name = f" ({agg.name!r})" if agg.name else ""
            where = f" at stage {stage}{name}"
        return f"{label}{where} — {share:.0%} of attributed time"

    def agreement(self) -> str:
        """Does the adaptation policy's last action target the same stage?"""
        stage = self.bottleneck_stage
        phase = self.bottleneck_phase
        if not self.decisions:
            return "no adaptation decisions in journal"
        if stage is None or phase not in ("service", "worker_queue"):
            return "verdict is not replica-shaped; no comparison"
        _, before, after, reason = self.decisions[-1]
        try:
            grew = [i for i in range(len(after)) if after[i] > before[i]]
        except (TypeError, IndexError):
            return f"last adapt.act unparseable ({reason!r})"
        if stage in grew:
            return f"agrees: last adapt.act grew stage {stage} ({reason!r})"
        if grew:
            return (
                f"disagrees: critical path blames stage {stage}, "
                f"last adapt.act grew {grew} ({reason!r})"
            )
        return f"last adapt.act grew nothing ({reason!r})"

    def to_dict(self) -> dict:
        """JSON-ready summary (items collapsed to aggregates)."""
        totals = self.phase_totals
        return {
            "backend": self.backend,
            "items": len(self.items),
            "phase_totals_s": {p: round(v, 6) for p, v in totals.items()},
            "admit_wait_total_s": round(self.admit_wait_total, 6),
            "mean_coverage": round(self.mean_coverage, 4) if self.items else None,
            "min_coverage": round(self.min_coverage, 4) if self.items else None,
            "verdict": self.verdict,
            "bottleneck_phase": self.bottleneck_phase,
            "bottleneck_stage": self.bottleneck_stage,
            "agreement": self.agreement(),
            "stages": {
                s: {
                    "name": a.name,
                    "items": a.items,
                    "service_s": round(a.service, 6),
                    "worker_queue_s": round(a.worker_queue, 6),
                    "wire_s": round(a.wire, 6),
                    "encode_s": round(a.encode, 6),
                }
                for s, a in sorted(self.stages.items())
            },
            "clocks": {
                str(w): {k: info.get(k) for k in ("offset", "drift", "err", "n")}
                for w, info in sorted(self.clocks.items())
            },
        }


# ------------------------------------------------------------------ the join
def join_records(
    events: Iterable[Event], report: ProfileReport
) -> dict[tuple[int, int], list[Event]]:
    """Group ``events`` per item in one pass, oldest first.

    ``item.submit``/``item.complete`` name an item by its ticket ``(stream,
    seq)``, and ``item.submit`` carries the session-wide ``gseq`` that every
    other record's ``seq`` names it by (``stage.service``, ``frame.*``,
    ``worker.redispatch``, ``batch.assemble``); a record with ``items=N``
    joins the N items from its ``seq``, and one whose ``seq`` no submit
    carried joins nothing.  The session's metadata (``session.open``,
    ``adapt.act``, ``clock.sync``) goes into ``report`` on the same pass.
    """
    items: dict[tuple[int, int], list[Event]] = {}
    by_gseq: dict[int, list[Event]] = {}
    for ev in events:
        kind, f = ev.kind, ev.fields
        if kind in ("item.submit", "item.complete"):
            if "stream" in f and "seq" in f:
                records = items.setdefault((int(f["stream"]), int(f["seq"])), [])
                if "gseq" in f:
                    by_gseq[int(f["gseq"])] = records
                records.append(ev)
        elif kind == "session.open":
            report.backend = f.get("backend", report.backend)
            report.stage_names = list(f.get("stages", []))
        elif kind == "adapt.act":
            report.decisions.append((
                ev.time,
                f.get("replicas_before", []),
                f.get("replicas_after", []),
                str(f.get("reason", ev.message)),
            ))
        elif kind == "clock.sync":
            report.clocks[f.get("worker", -1)] = {
                k: f.get(k) for k in ("offset", "drift", "err", "n")
            }
        elif f.get("seq") is not None:
            for gseq in range(int(f["seq"]), int(f["seq"]) + int(f.get("items", 1))):
                if gseq in by_gseq:
                    by_gseq[gseq].append(ev)
    return items


# --------------------------------------------------------------- per-item core
def _first(records: list[Event], kind: str) -> Event | None:
    return next((e for e in records if e.kind == kind), None)


def _profile_item(key: tuple[int, int], records: list[Event]) -> ItemProfile | None:
    """Tile one item's latency into phases (None if it did not complete)."""
    sub = _first(records, "item.submit")
    done = _first(records, "item.complete")
    if sub is None or done is None:
        return None
    latency = max(0.0, done.time - sub.time)
    phases: dict[str, float] = defaultdict(float)
    enc_by_stage: dict[int, float] = defaultdict(float)
    queued: dict[int, float] = {}
    for e in records:
        if e.kind == "frame.encode" and "seconds" in e.fields:
            enc_by_stage[e.fields.get("stage", 0)] += e.fields["seconds"]
    # Each stage.service ends at its ``time``, after its service ``seconds``
    # and, on a distributed hop, the ``worker_queue`` and ``wire_out`` before
    # them and the ``encode`` and ``wire_back`` after.  The gap before a hop
    # (less any measured encode into it) is coordinator residence when the
    # hop carries its wire time, else the stage's own queue.
    cursor = sub.time
    for e in sorted(
        (e for e in records if e.kind == "stage.service"), key=lambda e: e.time
    ):
        f = e.fields
        sec, stage = f.get("seconds", 0.0), f.get("stage", 0)
        wait, out = f.get("worker_queue", 0.0), f.get("wire_out", 0.0)
        gap = max(0.0, e.time - sec - wait - out - cursor)
        enc = min(enc_by_stage.pop(stage, 0.0), gap)
        phases["encode"] += enc + f.get("encode", 0.0)
        if "wire_out" in f:
            phases["coord_queue"] += gap - enc
        else:
            phases["worker_queue"] += gap - enc
            queued[stage] = queued.get(stage, 0.0) + gap - enc
        phases["wire_out"] += out
        # A batch-covering record (items=N, durations = batch totals): the
        # item's own service is seconds/N, the remainder is in-batch wait on
        # batchmates (queue-shaped) — coverage stays complete without
        # N-counting service across the batch.
        n = max(int(f.get("items", 1)), 1)
        phases["service"] += sec / n
        phases["worker_queue"] += wait + (sec - sec / n)
        phases["wire_back"] += f.get("wire_back", 0.0)
        cursor = max(cursor, e.time + f.get("encode", 0.0) + f.get("wire_back", 0.0))
    phases["reorder_hold"] = max(0.0, done.time - cursor)
    return ItemProfile(
        stream=key[0],
        seq=key[1],
        latency=latency,
        admit_wait=sub.fields.get("wait", 0.0),
        phases=dict(phases),
        redispatched=any(e.kind == "worker.redispatch" for e in records),
        queued=queued,
    )


def _fold_stage_aggregates(report: ProfileReport, records: list[Event], item: ItemProfile) -> None:
    for stage, wait in item.queued.items():
        report.stages.setdefault(int(stage), StageAggregate(int(stage))).worker_queue += wait
    for e in records:
        f = e.fields
        stage = f.get("stage")
        if stage is None:
            continue
        agg = report.stages.setdefault(int(stage), StageAggregate(int(stage)))
        # A batch-covering record joins all N member items with batch-total
        # durations: fold 1/N per item so the aggregate is the amortised
        # per-item cost and sums stay equal to wall time.
        n = max(int(f.get("items", 1)), 1)
        if e.kind == "stage.service":
            agg.items += 1
            agg.service += f.get("seconds", 0.0) / n
            agg.worker_queue += f.get("worker_queue", 0.0) / n
            agg.wire += (f.get("wire_out", 0.0) + f.get("wire_back", 0.0)) / n
            agg.encode += f.get("encode", 0.0) / n
        elif e.kind == "frame.encode" and "seconds" in f:
            agg.encode += f["seconds"] / n


# ------------------------------------------------------------------- frontends
def profile_events(events: Iterable[Event]) -> ProfileReport:
    """Profile a session's events, oldest first (one pass over them)."""
    report = ProfileReport()
    items = join_records(events, report)
    for key in sorted(items):
        item = _profile_item(key, items[key])
        if item is None:
            continue
        report.items.append(item)
        _fold_stage_aggregates(report, items[key], item)
    for s, agg in report.stages.items():
        if s < len(report.stage_names):
            agg.name = report.stage_names[s]
    return report


def profile_journal(path: str | os.PathLike) -> ProfileReport:
    """Profile a JSONL journal written by :class:`~repro.obs.JsonlJournal`."""
    from repro.obs.journal import read_journal, to_event

    return profile_events(to_event(rec) for rec in read_journal(path))


# --------------------------------------------------------------------- report
def render_report(report: ProfileReport, *, slowest: int = 0) -> str:
    """The human-readable profile report (one string, no ANSI)."""
    out = [
        f"critical-path profile  backend={report.backend}  "
        f"items={len(report.items)}"
    ]
    if not report.items:
        out.append("(no completed items in the journal — nothing to attribute)")
        return "\n".join(out)
    totals = report.phase_totals
    grand = max(sum(totals.values()), 1e-12)
    n = len(report.items)
    out.append("")
    out.append(f"{'phase':<14} {'mean/item':>12} {'total':>12} {'share':>7}")
    for p in PHASES:
        v = totals.get(p, 0.0)
        out.append(
            f"{p:<14} {v / n * 1e3:>10.3f}ms {v * 1e3:>10.1f}ms {v / grand:>6.1%}"
        )
    if report.admit_wait_total:
        out.append(
            f"{'admit_wait':<14} {report.admit_wait_total / n * 1e3:>10.3f}ms "
            f"{report.admit_wait_total * 1e3:>10.1f}ms (before span; not tiled)"
        )
    out.append("")
    out.append(
        f"coverage: mean {report.mean_coverage:.1%}, "
        f"min {report.min_coverage:.1%} of per-item latency attributed"
    )
    if report.stages:
        out.append("")
        out.append(
            f"{'stage':<24} {'hops':>6} {'service':>10} {'wk queue':>10} "
            f"{'wire':>10} {'encode':>10}"
        )
        for s in sorted(report.stages):
            a = report.stages[s]
            label = f"{s}" + (f" ({a.name})" if a.name else "")
            out.append(
                f"{label[:24]:<24} {a.items:>6} {a.service * 1e3:>8.1f}ms "
                f"{a.worker_queue * 1e3:>8.1f}ms {a.wire * 1e3:>8.1f}ms "
                f"{a.encode * 1e3:>8.1f}ms"
            )
    out.append("")
    out.append(f"verdict: {report.verdict}")
    out.append(f"adaptation: {report.agreement()}")
    if report.clocks:
        out.append("")
        out.append("worker clock fits (offset ± err, drift, samples):")
        for w in sorted(report.clocks):
            c = report.clocks[w]
            off = c.get("offset")
            err = c.get("err")
            out.append(
                f"  worker {w}: "
                f"{(off or 0.0) * 1e3:+.3f}ms ± {(err or 0.0) * 1e3:.3f}ms, "
                f"drift {c.get('drift') or 0.0:+.2e}, n={c.get('n') or 0}"
            )
    redis = sum(1 for i in report.items if i.redispatched)
    if redis:
        out.append(f"note: {redis} item(s) were re-dispatched after a worker death")
    if slowest:
        out.append("")
        out.append(f"slowest {slowest} item(s):")
        for item in sorted(report.items, key=lambda i: -i.latency)[:slowest]:
            top = sorted(item.phases.items(), key=lambda kv: -kv[1])[:3]
            tops = ", ".join(f"{p}={v * 1e3:.2f}ms" for p, v in top if v > 0)
            out.append(
                f"  ({item.stream},{item.seq}) {item.latency * 1e3:.2f}ms "
                f"[{item.coverage:.0%} attributed] {tops}"
            )
    return "\n".join(out)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.profile",
        description="Attribute per-item pipeline latency to named phases.",
    )
    parser.add_argument("journal", help="JSONL journal path a session wrote")
    parser.add_argument(
        "--slowest", type=int, default=0, metavar="N",
        help="also list the N slowest items with their top phases",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the machine-readable summary"
    )
    args = parser.parse_args(argv)
    report = profile_journal(args.journal)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(render_report(report, slowest=args.slowest))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
