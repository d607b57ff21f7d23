"""``python -m repro.obs.top`` — live terminal view of a running pipeline.

Tails a JSONL journal (the one a session writes when opened with
``telemetry=``) and renders per-stage throughput, mean service time, queue
depth and replica counts, the last N adaptation decisions and — on the
distributed backend — a per-hop latency breakdown with worker clock fits;
a curses-free ``top`` for the streaming stack, attachable to any running
session whose journal path you know::

    python -m repro.obs.top /tmp/pipeline.jsonl
    python -m repro.obs.top /tmp/pipeline.jsonl --interval 0.5 --decisions 8
    python -m repro.obs.top /tmp/pipeline.jsonl --once   # one frame, no ANSI

Each record goes through the same :class:`~repro.obs.metrics.MetricsRecorder`
fold the Prometheus snapshot is made of, so the two report one set of
numbers.  Rates are computed from the wall-clock stamps the journal adds per
line, over a trailing ``--window`` seconds, so the view stays honest even
when the emitting session's own clock is relative.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import deque
from pathlib import Path

from repro.obs.journal import to_event
from repro.obs.metrics import Log2Histogram, MetricsRecorder

__all__ = ["TopState", "main", "render"]

_CLEAR = "\x1b[H\x1b[2J"
_PHASES = ("wire_out", "worker_queue", "service", "encode", "wire_back")


class TopState:
    """A journal's event stream as ``top`` shows it (one consumer).

    The numbers live in :attr:`registry`, folded by a
    :class:`~repro.obs.metrics.MetricsRecorder`; the state keeps only what no
    registry family holds: session metadata, the last N decisions and the
    wall stamps of the rate window.
    """

    def __init__(self, *, window: float = 5.0, decisions: int = 10) -> None:
        self.window = window
        self._fold = MetricsRecorder()
        self.registry = self._fold.registry
        self.backend = "?"
        self.stage_names: list[str] = []
        self.session_open = False
        self.last_t = 0.0
        self.first_wall = float("inf")
        self.closed_wall: float | None = None
        self.decisions: deque[tuple[float, str, str]] = deque(maxlen=decisions)
        # stage -> (wall, items) of its stage.service records in the window
        self.recent: dict[int, deque[tuple[float, int]]] = {}

    def feed(self, rec: dict) -> None:
        ev = to_event(rec)
        self._fold(ev)
        kind, f = ev.kind, ev.fields
        wall = rec.get("wall", time.time())
        self.last_t = max(self.last_t, ev.time)
        self.first_wall = min(self.first_wall, wall)
        if kind == "session.open":
            self.session_open = True
            self.closed_wall = None
            self.backend = f.get("backend", "?")
            self.stage_names = list(f.get("stages", []))
        elif kind == "session.close":
            self.session_open = False
            self.closed_wall = wall
        elif kind == "stage.service":
            self.recent.setdefault(int(f["stage"]), deque()).append((wall, f.get("items", 1)))
        elif kind in ("adapt.decide", "adapt.act", "adapt.rollback"):
            reason = f.get("reason", ev.message)
            self.decisions.append((ev.time, kind, str(reason)))

    # ------------------------------------------------------------ reading
    def _by(self, name: str, label: str) -> dict:
        return {dict(k)[label]: inst for k, inst in self.registry.family(name).items()}

    def total(self, name: str) -> float:
        """A label-free family's value: a counter's count or a histogram's sum."""
        inst = self.registry.family(name).get(())
        if inst is None:
            return 0.0
        return inst.sum if isinstance(inst, Log2Histogram) else inst.value

    def stages(self) -> dict[int, dict]:
        """Per stage: items served, mean service seconds, queue and replicas."""
        items = self._by("stage_items_total", "stage")
        service = self._by("stage_service_seconds", "stage")
        queue = self._by("stage_queue_length", "stage")
        replicas = self._by("stage_replicas", "stage")
        rows = {}
        for s in items.keys() | replicas.keys():
            h = service.get(s)
            rows[int(s)] = {
                "items": int(items[s].value) if s in items else 0,
                "service": h.sum / h.count if h is not None and h.count else 0.0,
                "queue": queue[s].value if s in queue else 0.0,
                "replicas": int(replicas[s].value) if s in replicas else 1,
            }
        return rows

    def workers_alive(self) -> int:
        kinds = self._by("worker_events_total", "kind")
        joined, died = (int(kinds[k].value) if k in kinds else 0 for k in ("join", "death"))
        return max(0, joined - died)

    def phases(self) -> tuple[int, dict[str, float]]:
        """Item-hops decomposed, and the seconds of each phase over them."""
        hops, sums = 0, dict.fromkeys(_PHASES, 0.0)
        for key, h in self.registry.family("span_phase_seconds").items():
            phase = dict(key)["phase"]
            sums[phase] += h.sum
            hops += h.count if phase == "service" else 0  # one service per hop
        return hops, sums

    def clocks(self) -> dict[int, tuple[float, float]]:
        """worker -> (offset, err) of its latest ``clock.sync``."""
        err = self._by("worker_clock_error_seconds", "worker")
        return {
            int(w): (g.value, err[w].value)
            for w, g in self._by("worker_clock_offset_seconds", "worker").items()
        }

    def rate(self, stage: int, now: float) -> float:
        """Items/s of ``stage`` over the window ending ``now`` (at the close,
        once closed), which never reaches back past the journal's start."""
        end = now if self.closed_wall is None else min(now, self.closed_wall)
        cutoff = end - self.window
        recent = self.recent.setdefault(stage, deque())
        while recent and recent[0][0] < cutoff:
            recent.popleft()
        span = end - max(cutoff, self.first_wall)
        return sum(n for _, n in recent) / span if span > 0 else 0.0


def render(state: TopState, now: float | None = None) -> str:
    """One frame of the view as plain text (no ANSI)."""
    now = time.time() if now is None else now
    status = "live" if state.session_open else "closed"
    submitted = int(state.total("items_submitted_total"))
    completed = int(state.total("items_completed_total"))
    workers = state.workers_alive()
    out = [
        f"repro.obs.top  backend={state.backend}  [{status}]  "
        f"t={state.last_t:.2f}s  streams={int(state.total('streams_opened_total'))}  "
        f"items {completed}/{submitted}  backlog {submitted - completed}"
        + (f"  workers {workers}" if workers else ""),
        "",
        f"{'stage':<24} {'items':>8} {'rate/s':>8} {'svc ms':>8} "
        f"{'queue':>7} {'repl':>5}",
    ]
    stages = state.stages()
    for i, s in sorted(stages.items()):
        name = state.stage_names[i] if i < len(state.stage_names) else str(i)
        out.append(
            f"{name[:24]:<24} {s['items']:>8} {state.rate(i, now):>8.1f} "
            f"{s['service'] * 1e3:>8.2f} {s['queue']:>7.1f} {s['replicas']:>5}"
        )
    if not stages:
        out.append("(no stage activity yet)")
    hops, sums = state.phases()
    if hops:
        # Per-hop latency breakdown (distributed trace propagation on).
        total = max(sum(sums.values()), 1e-12)
        parts = "  ".join(
            f"{p}={sums[p] / hops * 1e3:.2f}ms({sums[p] / total:.0%})" for p in _PHASES
        )
        out.append("")
        out.append(f"latency breakdown ({hops} hops, mean/hop): {parts}")
        admit_wait = state.total("admit_wait_seconds")
        if admit_wait:
            out.append(f"  admit wait total: {admit_wait * 1e3:.1f}ms")
        clocks = state.clocks()
        if clocks:
            fits = "  ".join(
                f"w{w}:{off * 1e3:+.2f}±{err * 1e3:.2f}ms"
                for w, (off, err) in sorted(clocks.items())
            )
            out.append(f"  worker clocks: {fits}")
    out.append("")
    out.append(f"last {state.decisions.maxlen} adaptation decisions:")
    if state.decisions:
        for t, kind, reason in state.decisions:
            out.append(f"  [{t:9.3f}] {kind:<14} {reason}")
    else:
        out.append("  (none)")
    return "\n".join(out)


def _tail(path: Path, state: TopState, pos: int) -> int:
    """Feed journal lines appended since ``pos``; returns the new offset."""
    try:
        size = path.stat().st_size
    except OSError:
        return pos
    if size < pos:  # rotated under us: start over on the fresh file
        pos = 0
    if size == pos:
        return pos
    with open(path, "r", encoding="utf-8") as fh:
        fh.seek(pos)
        for line in fh:
            if not line.endswith("\n"):
                break  # partial write: re-read next round
            pos += len(line.encode("utf-8"))
            line = line.strip()
            if not line:
                continue
            try:
                state.feed(json.loads(line))
            except json.JSONDecodeError:
                continue
    return pos


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.top", description=__doc__.split("\n")[0]
    )
    parser.add_argument("journal", help="JSONL journal path a session writes to")
    parser.add_argument("--interval", type=float, default=1.0, help="refresh seconds")
    parser.add_argument(
        "--window", type=float, default=5.0, help="throughput window (seconds)"
    )
    parser.add_argument(
        "--decisions", type=int, default=10, help="adaptation decisions to keep"
    )
    parser.add_argument(
        "--once", action="store_true",
        help="read the whole journal, print one frame, exit (no ANSI)",
    )
    args = parser.parse_args(argv)
    path = Path(args.journal)
    state = TopState(window=args.window, decisions=args.decisions)
    if args.once:
        _tail(path, state, 0)
        print(render(state))
        return 0
    pos = 0
    try:
        while True:
            pos = _tail(path, state, pos)
            sys.stdout.write(_CLEAR + render(state) + "\n")
            sys.stdout.flush()
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
