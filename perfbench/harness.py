"""The load generator and the measurements around it.

One submitter (the calling thread) and one consumer thread drive a
:class:`~repro.backend.base.Session` through its public surface only:
``submit`` / ``results`` / ``drain`` / ``close`` / ``backlog`` and
``session.backend.replica_counts``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import subprocess
import sys
import threading
import time
from pathlib import Path
from time import perf_counter, sleep

from repro.transport import SHM_PREFIX

from perfbench.stats import count_failures, median, percentile

HERE = Path(__file__).resolve().parent
_TICK = 1.0 / os.sysconf("SC_CLK_TCK")
_SETTLE_S = 10.0  # bound on every wait for the consumer to catch up


def pin_to_one_cpu() -> int:
    """Pin this process (and every child it starts) to its lowest CPU.

    On a small VM a cross-CPU wake-up costs more than the sub-ms work it
    hands over, and which threads share a core changes from launch to
    launch: unpinned, tiny_threads reads ~36k items/s or ~12k items/s
    depending on placement.  One CPU makes every run take the same path;
    what it hides is multi-core speed-up, which no workload here relies on.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def spin_mops(seconds: float = 0.25) -> float:
    """Pure-Python loop speed, in million iterations/s: the host-speed probe.

    The median over ~0.25 ms chunks, so that a stall (the vCPU descheduled
    for milliseconds) costs a few chunks and not the reading.
    """
    chunk, speeds = 20_000, []
    start = t0 = perf_counter()
    while t0 - start < seconds:
        for _ in range(chunk):
            pass
        t1 = perf_counter()
        speeds.append(chunk / (t1 - t0))
        t0 = t1
    return median(speeds) / 1e6


#: The spin speed this VM class shows most often (CPython 3.11).
REFERENCE_MOPS = 80.0

#: Length of the spins taken between the phases of a run.
SPIN_S = 0.08


def speed_factor(spins: list[float]) -> float:
    """Host speed around one timing, relative to the reference host.

    This VM's CPU speed wanders by tens of percent over minutes (other
    tenants), which reads as a regression or a gain of every CPU-bound
    metric.  A CPU-bound timing multiplied by this factor is what the
    reference host would have taken: CPU time stretches when the host
    slows down; sleeping, blocking and timer waits do not, so timings of
    waiting are never rescaled.
    """
    return sum(spins) / len(spins) / REFERENCE_MOPS


# --- the process tree ----------------------------------------------------------
def _stat_fields(pid: int) -> list[str] | None:
    try:
        with open(f"/proc/{pid}/stat") as f:
            # comm may hold spaces and parentheses: split after the last ')'
            return f.read().rpartition(")")[2].split()
    except OSError:
        return None


def descendants(root: int | None = None) -> list[int]:
    """Live (non-zombie) processes below ``root`` (default: this process)."""
    root = os.getpid() if root is None else root
    parent_of: dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            if fields and fields[0] != "Z":
                parent_of[int(entry)] = int(fields[1])
    found, frontier = [], [root]
    while frontier:
        parent = frontier.pop()
        kids = [pid for pid, ppid in parent_of.items() if ppid == parent]
        found += kids
        frontier += kids
    return found


def tree_cpu_seconds(children: list[int]) -> float:
    """user+sys CPU of this process plus the given live children."""
    total = time.process_time()
    for pid in children:
        fields = _stat_fields(pid)
        if fields:
            total += (int(fields[11]) + int(fields[12])) * _TICK  # utime, stime
    return total


def tree_peak_rss_mb() -> float:
    """Sum of VmHWM over this process and its live descendants, in MiB."""
    total_kb = 0
    for pid in [os.getpid(), *descendants()]:
        try:
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            pass
    return total_kb / 1024.0


def _cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return f.read().replace(b"\0", b" ").decode(errors="replace")
    except OSError:
        return ""


def shm_segments() -> set[str]:
    try:
        return {e for e in os.listdir("/dev/shm") if e.startswith(SHM_PREFIX)}
    except OSError:
        return set()


def leaks(shm_before: set[str], grace_s: float = 1.0) -> list[str]:
    """What a closed session left behind: segments, children, threads.

    A child that is on its way out is not a leak: children get ``grace_s``
    to disappear before they count.
    """
    deadline = perf_counter() + grace_s
    while True:
        # CPython's own resource tracker lives until interpreter exit.
        children = [
            f"child process {pid}: {cmd[:80]}"
            for pid in descendants()
            if "resource_tracker" not in (cmd := _cmdline(pid))
        ]
        if not children or perf_counter() >= deadline:
            break
        sleep(0.02)
    found = [f"shm segment {name}" for name in sorted(shm_segments() - shm_before)] + children
    for t in threading.enumerate():
        if t is not threading.main_thread() and not t.daemon and t.is_alive():
            found.append(f"non-daemon thread {t.name}")
    return found


# --- consumer side -------------------------------------------------------------
class Sink:
    """Where the consumer puts one stream's outputs (digested on arrival)."""

    def __init__(self, digest, *, timed: bool, traced: bool) -> None:
        self.vals: list = []
        self.times: list[float] = []
        self.stamps: list[tuple] = []
        vals, times, stamps = self.vals.append, self.times.append, self.stamps.append

        if traced:

            def put(out):
                times(perf_counter())
                value, marks = out
                stamps(marks)
                vals(digest(value))

        elif timed:

            def put(out):
                times(perf_counter())
                vals(digest(out))

        else:

            def put(out):
                vals(digest(out))

        self.put = put


class Consumer(threading.Thread):
    """Reads ``session.results()`` for stream after stream until close.

    ``results()`` binds to the running stream (or the next to open), so a
    loop around it sees every stream; a stream that is delivered and
    drained before the loop re-binds hands its outputs to ``drain()``
    instead, and :func:`closed_stream` appends those leftovers.
    """

    def __init__(self, session, digest) -> None:
        super().__init__(name="perfbench-consumer", daemon=True)
        self.session = session
        self.digest = digest
        self.error: BaseException | None = None
        self._put = lambda out: None
        self.start()

    def begin(self, *, timed: bool = False, traced: bool = False) -> Sink:
        sink = Sink(self.digest, timed=timed, traced=traced)
        self._put = sink.put
        return sink

    def run(self) -> None:
        session = self.session
        try:
            while not session.closed:
                for out in session.results():
                    self._put(out)
        except BaseException as err:  # noqa: BLE001 - reported by the submitter
            self.error = err

    def settle(self, sink: Sink, n: int) -> None:
        """Wait until the consumer has stored the ``n`` outputs it took."""
        deadline = perf_counter() + _SETTLE_S
        while len(sink.vals) < n and self.error is None and perf_counter() < deadline:
            sleep(0.0005)


class Sampler(threading.Thread):
    """20 Hz samples of backlog and replica counts (traced runs only)."""

    def __init__(self, session) -> None:
        super().__init__(name="perfbench-sampler", daemon=True)
        self.session = session
        self.samples: list[tuple[float, int, tuple[int, ...]]] = []
        self._halt = threading.Event()
        self.start()

    def run(self) -> None:
        backend = self.session.backend
        while not self._halt.wait(0.05):
            self.samples.append(
                (perf_counter(), self.session.backlog, tuple(backend.replica_counts()))
            )

    def stop(self) -> list:
        self._halt.set()
        self.join()
        return self.samples


class Tally:
    """Items attempted and failed over every phase of a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, phase: str, got: list, expected: list) -> None:
        self.attempted += len(expected)
        kinds = count_failures(got, expected)
        bad = sum(kinds.values())
        if bad:
            self.failed += min(bad, len(expected))
            self.notes.append(f"{phase}: {kinds}")

    def fail_all(self, phase: str, n: int, why: str) -> None:
        self.failed += n
        self.notes.append(f"{phase}: {why}")


# --- phases ----------------------------------------------------------------------
@dataclasses.dataclass
class StreamRun:
    n: int
    t0: float  # first submit
    wall: float  # first submit -> drain returned
    cpu: float  # CPU seconds of this process and the given children over the same interval
    sink: Sink
    submits: list[tuple[float, float]]  # (call, return) per item; empty on untraced closed loops
    due: list[float] | None = None  # paced only
    backlog_growing: bool = False  # paced only: see paced_segment

    @property
    def items_per_s(self) -> float:
        return self.n / self.wall

    @property
    def cpu_us_per_item(self) -> float:
        return self.cpu / self.n * 1e6


def _finish(session, consumer, sink, n, t0, cpu0, children, expected, tally, phase):
    leftovers = session.drain()
    wall = perf_counter() - t0
    cpu = tree_cpu_seconds(children) - cpu0
    consumer.settle(sink, n - len(leftovers))
    if consumer.error is not None:
        raise consumer.error
    for out in leftovers:
        sink.put(out)
    tally.check(phase, sink.vals, expected)
    return wall, cpu


def closed_stream(
    session, consumer, items, expected, tally, phase, *, children=(), timed=False, traced=False
) -> StreamRun:
    """Closed loop: submit as fast as the admission window allows, then drain."""
    sink = consumer.begin(timed=timed, traced=traced)
    submit = session.submit
    submits: list[tuple[float, float]] = []
    cpu0 = tree_cpu_seconds(children)
    t0 = perf_counter()
    if traced:
        for item in items:
            called = perf_counter()
            submit((item, ()))
            submits.append((called, perf_counter()))
    else:
        for item in items:
            submit(item)
    wall, cpu = _finish(
        session, consumer, sink, len(items), t0, cpu0, children, expected, tally, phase
    )
    return StreamRun(len(items), t0, wall, cpu, sink, submits)


def paced_segment(
    session, consumer, items, expected, rate, tally, phase, *, traced=False
) -> StreamRun:
    """Open loop: item k is due at t0 + k/rate, rounded up to the 1 ms tick,
    whatever the system does.

    The generator sleeps to the next tick that has items due and submits
    them; a stall in ``submit`` makes later items late, and their latency
    still runs from their due time.
    """
    n = len(items)
    sink = consumer.begin(timed=True, traced=traced)
    submit = session.submit
    submits: list[tuple[float, float]] = []
    cpu0 = tree_cpu_seconds(())
    t0 = perf_counter() + 0.002
    due = [t0 + math.ceil(k * 1000.0 / rate) / 1000.0 for k in range(n)]
    backlog_mid = 0
    k = 0
    while k < n:
        wait = due[k] - perf_counter()
        if wait > 0:
            sleep(wait)
        now = perf_counter()
        while k < n and due[k] <= now:
            called = perf_counter()
            submit((items[k], ()) if traced else items[k])
            submits.append((called, perf_counter()))
            k += 1
            if k == n // 2:
                backlog_mid = session.backlog
    backlog_end = session.backlog
    wall, cpu = _finish(session, consumer, sink, n, t0, cpu0, (), expected, tally, phase)
    # Backlog still growing at the end: it at least doubled over the second
    # half and holds more than 100 ms of input.  One such segment can be a
    # stall of the host; the caller fails the phase when most segments agree.
    growing = backlog_end > 2 * backlog_mid and backlog_end > 0.1 * rate
    return StreamRun(n, t0, wall, cpu, sink, submits, due, growing)


def first_results(session, consumer, wl, rng, tally, cycles: int, k: int = 8) -> list[float]:
    """Short streams of ``k`` items: seconds from the first ``submit`` to the
    first result out, one per cycle."""
    firsts = []
    for _ in range(cycles):
        items, expected = wl.generate(rng, k, "cycles")
        run = closed_stream(session, consumer, items, expected, tally, "cycles", timed=True)
        firsts.append(run.sink.times[0] - run.t0)
    return firsts


def latencies(run: StreamRun) -> list[float]:
    """Seconds from each item's due time to the moment results() yielded it."""
    return [t - d for t, d in zip(run.sink.times, run.due)]


def lag_p99_ms(runs: list[StreamRun]) -> float:
    """How late the generator ran: p99 of (submit called - due)."""
    return percentile(
        [(s[0] - d) * 1e3 for run in runs for s, d in zip(run.submits, run.due)], 99
    )


# --- cold phase ------------------------------------------------------------------
def cold_starts(workload: str, seed: int, repeats: int) -> dict[str, float]:
    """Throw-away interpreters: import -> open -> one item -> close.

    Returns the median of each lifecycle number; ``setup_s`` runs from the
    spawn of the child to its first result, at the reference host speed.
    """
    rows = []
    for _ in range(repeats):
        spin = spin_mops(SPIN_S)
        spawned = perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "cold.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        factor = speed_factor([spin, spin_mops(SPIN_S)])
        t = json.loads(proc.stdout.strip().splitlines()[-1])
        setup = t["first"] - spawned
        rows.append(
            {
                "setup_s": setup * factor,  # import, build and open are CPU work
                "setup_s.as_measured": setup,
                "lifecycle.import_ms": (t["imported"] - t["start"]) * 1e3,
                "lifecycle.warm_open_ms": (t["first"] - t["imported"]) * 1e3,
                "lifecycle.teardown_ms": (t["closed"] - t["first"]) * 1e3,
            }
        )
    return {key: median(r[key] for r in rows) for key in rows[0]}


def kill_descendants(grace_s: float = 2.0) -> None:
    """Stop whatever this run still has running below it, and wait for it."""
    import signal

    for sig in (signal.SIGTERM, signal.SIGKILL):
        pids = descendants()
        if not pids:
            return
        for pid in pids:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        deadline = perf_counter() + grace_s
        while perf_counter() < deadline:
            try:  # reap direct children so they stop counting as live
                while os.waitpid(-1, os.WNOHANG)[0]:
                    pass
            except ChildProcessError:
                pass
            if not descendants():
                return
            sleep(0.01)
