"""CPU time and parks per item of every thread that runs one perfbench workload.

    python3 tools/threadcpu.py --workload tiny_distributed [--seed N] [--items N] [--streams K]

Opens the workload's session the way ``perfbench/run.py`` does (a fresh
interpreter with ``PYTHONHASHSEED=0``, this checkout's sources, pinned to one
CPU, one thrown-away warm-up stream), then runs ``--streams`` saturation
streams of ``--items`` items and reads each thread's CPU time before and
after them: this process's threads by name, each child process's by
``pid:tid`` (and its ``comm``).  It prints one row per thread that ran,
busiest first, in CPU microseconds per item and voluntary context switches
per item (a thread that blocked: each wait that parked it), and a total.
Exits 1 if any output is missing or wrong.

Thread CPU comes from ``/proc/<pid>/task/<tid>/sched`` (nanoseconds) where
the kernel has it, else from ``stat`` (clock ticks); context switches from
``status`` (``voluntary_ctxt_switches``).
"""

from __future__ import annotations

import argparse
import os
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _bootstrap() -> None:
    """The perfbench protocol: fixed hash seed, this checkout's sources."""
    paths = [str(ROOT / "src"), str(ROOT)]
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=os.pathsep.join(paths))
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    sys.path[:0] = paths


_TICK = 1.0 / os.sysconf("SC_CLK_TCK")


def _cpu_s(pid: int, tid: int) -> "float | None":
    """CPU seconds thread ``tid`` of ``pid`` has run, or None once it is gone."""
    task = f"/proc/{pid}/task/{tid}"
    try:
        with open(f"{task}/sched") as f:
            for line in f:
                if line.startswith("se.sum_exec_runtime"):
                    return float(line.split(":")[1]) / 1e3  # milliseconds
    except FileNotFoundError:
        pass
    except OSError:
        return None
    try:
        with open(f"{task}/stat") as f:
            fields = f.read().rpartition(")")[2].split()
    except OSError:
        return None
    return (int(fields[11]) + int(fields[12])) * _TICK  # utime, stime


def _parks(pid: int, tid: int) -> int:
    """Voluntary context switches of thread ``tid`` of ``pid`` (0 once it is gone)."""
    try:
        with open(f"/proc/{pid}/task/{tid}/status") as f:
            for line in f:
                if line.startswith("voluntary_ctxt_switches"):
                    return int(line.split(":")[1])
    except OSError:
        pass
    return 0


def _comm(pid: int, tid: int) -> str:
    try:
        with open(f"/proc/{pid}/task/{tid}/comm") as f:
            return f.read().strip()
    except OSError:
        return "?"


def _threads(children: list[int]) -> "dict[str, tuple[float, int]]":
    """Label -> (CPU seconds, voluntary context switches) of every live
    thread of this process and ``children``."""
    me = os.getpid()
    names = {t.native_id: t.name for t in threading.enumerate()}
    out = {}
    for pid in [me, *children]:
        try:
            tids = [int(t) for t in os.listdir(f"/proc/{pid}/task")]
        except OSError:
            continue
        for tid in tids:
            cpu = _cpu_s(pid, tid)
            if cpu is None:
                continue
            if pid == me:
                label = names.get(tid) or f"{tid} ({_comm(pid, tid)})"
            else:
                label = f"{pid}:{tid} ({_comm(pid, tid)})"
            out[label] = (cpu, _parks(pid, tid))
    return out


def main(argv: list[str]) -> int:
    _bootstrap()
    from perfbench import harness as h
    from perfbench.measure import close_session, open_session, rng_for
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--items", type=int, default=3000, help="items per stream")
    parser.add_argument("--streams", type=int, default=4)
    args = parser.parse_args(argv)

    wl = WORKLOADS[args.workload]
    cpu = h.pin_to_one_cpu()
    rng, tally = rng_for(wl, args.seed), h.Tally()
    session = consumer = None
    try:
        session, consumer = open_session(wl, rng, args.items, tally)
        children = h.descendants()
        streams = [wl.generate(rng, args.items, "saturation") for _ in range(args.streams)]
        before, t0 = _threads(children), time.perf_counter()
        for items, expected in streams:
            h.closed_stream(session, consumer, items, expected, tally, "saturation")
        wall, after = time.perf_counter() - t0, _threads(children)
    finally:
        if session is not None:
            close_session(session, consumer)
        h.kill_descendants()
    n = args.items * args.streams
    rows = sorted(
        (
            (after[k][0] - before.get(k, (0.0, 0))[0]) / n * 1e6,
            (after[k][1] - before.get(k, (0.0, 0))[1]) / n,
            k,
        )
        for k in after
    )
    print(f"# {wl.name}: {n} items in {wall:.2f} s ({n / wall:,.0f} items/s), pinned to CPU {cpu}")
    print(f"{'thread':48s} {'cpu_us_per_item':>16s} {'parks_per_item':>15s}")
    for us, parks, label in reversed(rows):
        if us > 0.0:
            print(f"{label:48s} {us:16.2f} {parks:15.3f}")
    total_us, total_parks = sum(r[0] for r in rows), sum(r[1] for r in rows)
    print(f"{'total':48s} {total_us:16.2f} {total_parks:15.3f}")
    for note in tally.notes:
        print(f"# {wl.name}: {note}")
    if tally.failed or tally.attempted != n + args.items:
        print(f"# {wl.name}: {tally.failed} of {tally.attempted} outputs missing or wrong")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
