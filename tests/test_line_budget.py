"""The size of every package is a tracked number (ROADMAP aim 2).

``src/repro/backend`` + ``src/repro/runtime`` may only shrink: a simplicity
PR lowers ``CEILING`` to its result (rounded up to the next 10); nothing
raises it silently.  Every other package has a ceiling of its own in
``PACKAGE_CEILINGS``, kept by the same rule.  Moving code to another package
to get under the line is not a reduction — say where the lines went in
CHANGES.md.
"""

import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
# PR 13: 6,223 -> 5,789; PR 14: -> 5,768; PR 16: -> 5,724;
# PR 19 (the port owns in/out/fail/shape/run): -> 5,528
# PR 23 raises it by 75, the shortfall exactly (5,530 -> 5,605): the
# worker-written pipe queue and the router's poll/wake/sentinel wait live
# beside the lane that uses them (process_backend.py +89 lines) and bought
# x1.45 items_per_s on tiny_processes (10 alternating pairs, CHANGES.md);
# the death scan, the entered/left census, the tolerant unpacking and the
# second item.submit emit they made unnecessary paid 11 back.
# Raised by 4, the shortfall exactly (5,605 -> 5,609), for one in-flight
# bound: the window-derived lane depth (Session._lane_depth, the named
# window ceiling, the given-capacity flag, the process pools' re-warm for a
# new depth, each backend's capacity docstring) and the notifies that let
# distributed's dispatch wait untimed came to +23; distributed's two
# replica censuses reading replica_placement() and Ticket.wait's two wait
# branches becoming one paid 11 back.
# Raised by 32, the shortfall exactly (5,609 -> 5,641), for the session port's
# bells.  The wake-all primitive lives in util/handoff.py (Bell, beside
# Credits and Handoff, outside this count).  What stays in base.py: the tuple
# Ticket (+14: its equality, hash, repr and docstring, with wait() 5 lines
# shorter), the rings at each event, the parked-only rings on the per-item
# sites and the begun check (+8), the two bells and two imports (+4), the
# docstrings saying what the lock guards and what rings (+9); results()' two
# early returns becoming one paid 3 back.  Bought x1.52 items_per_s on
# batched_threads and x1.19 on tiny_threads (10/10 pairs each, CHANGES.md).
# Raised by 13, the shortfall exactly (5,641 -> 5,654), for distributed's
# drain-time placement under the window: the finish-time score, the cold
# exception and the re-probe in _reserve_slot (+3 over the count key it
# replaced) with the docstring that states the rule (+8), the drain estimate
# in _accept and its two replica fields (+7), the cached link term (+2), the
# session's depth, the welcome's inbox and the capacity docstring (+4) came
# to +24; the WorkerAgent(capacity=) knob (-5), the sliced registration wait
# becoming one wait_for (-4) and the retired flag that only mirrored
# `not active` (-2) paid 11 back.  Bought x1.32 items_per_s on
# tiny_distributed (10/10 pairs, CHANGES.md) and about twice the old
# default's items/s on E16's slow-link shape.
# Lowered to the count, rounded up (5,654 -> 5,430), by deleting what no
# workload, experiment or example reached: the auto admission window, the
# bottleneck-growth policy, live replica moves and the per-worker link-model
# copy (CHANGES.md has the audit).
# Lowered to the count, rounded up (5,430 -> 5,410), by giving every item one
# number below the port: the per-stream rebase and the second batch counter
# went (CHANGES.md).
# Raised by 53, the shortfall exactly (5,410 -> 5,463), for distributed's
# one outbox writer and one buffered reader per connection: protocol.py went
# 142 -> 207 (the Outbox class and its writer, 49; the preamble; the framing
# split into encode_frame / read_frame with the reader's one-read fast path;
# its docstring).  The coordinator's handshake moved onto each connection's
# own thread (_register, the pending set that close() wakes).  What the
# outbox made redundant paid back: send_frame's lock= parameter, the two
# _send_lock send paths (_WorkerConn.send with its locked slot counter, the
# worker's _send) and close()'s per-socket close, so coordinator.py went
# 1,245 -> 1,239 and worker.py 490 -> 485.  Bought x1.23 items_per_s and
# -18 % cpu_us_per_item on tiny_distributed (11/11 pairs, CHANGES.md).
# Lowered to the count, rounded up (5,463 -> 5,300), by deleting worker-side
# tracing: the worker's bus, trace buffer, trace toggle and four emits went
# (worker.py 485 -> 385), and the coordinator lost its trace toggles and
# re-emitter, derives the wk.* points from the result's stamps, and hands
# each frame to the router as sent (coordinator.py 1,239 -> 1,178).  The
# calibrate_transport= option left both backends.  Nothing moved elsewhere.
# Lowered to the count, rounded up (5,300 -> 5,240), by one framed byte lane
# under both heavy executors: the framing, read_frame and Outbox moved out of
# protocol.py (203 -> 91) into transport/lane.py, which also holds the new
# FrameReader and the socket/pipe outbox constructors (transport 1,032 ->
# 1,256, its ceiling raised to 1,260).  process_backend.py went 485 -> 535:
# mp.Queue, the timed _put and the timed pipe put went; the outbox feed, the
# abort-woken send, the stop-pill post, the forwarded park token and the
# router's frame-whole read came.  Net over backend/ + runtime/ +
# transport/: +165 (CHANGES.md).
CEILING = 5240

#: Every other package (``"."``: the top-level modules), set at its count
#: after the reachability audit, rounded up to the next 10, and lowered the
#: same way since.
PACKAGE_CEILINGS = {
    ".": 110,
    "core": 1400,
    "gridsim": 1430,
    "model": 800,
    "monitor": 970,
    "obs": 2100,
    "reporting": 170,
    "skel": 360,
    "transport": 1260,
    "util": 810,
    "workloads": 830,
}


def _lines(files) -> int:
    return sum(len(f.read_text().splitlines()) for f in files)


def _sources():
    files = [*SRC.glob("backend/**/*.py"), *SRC.glob("runtime/**/*.py")]
    assert files, f"no sources found under {SRC}"
    return files


def test_backend_and_runtime_stay_under_the_ceiling():
    total = _lines(_sources())
    assert total <= CEILING, (
        f"backend/ + runtime/ is {total} lines, over the {CEILING} ceiling: "
        "delete before you add, or justify raising CEILING in this PR"
    )


def test_every_package_has_a_ceiling():
    packages = {p.name for p in SRC.iterdir() if (p / "__init__.py").is_file()}
    assert packages == PACKAGE_CEILINGS.keys() - {"."} | {"backend", "runtime"}


@pytest.mark.parametrize("package, ceiling", sorted(PACKAGE_CEILINGS.items()))
def test_each_package_stays_under_its_ceiling(package, ceiling):
    files = list(SRC.glob("*.py") if package == "." else SRC.glob(f"{package}/**/*.py"))
    assert files, f"no sources found for {package!r}"
    total = _lines(files)
    assert total <= ceiling, (
        f"src/repro/{package} is {total} lines, over its {ceiling} ceiling: "
        "delete before you add, or justify raising it in the same change"
    )


def test_no_python_level_queue_or_semaphore_on_the_execution_layer():
    """Threads hand items over through ``repro.util.handoff`` and nothing else.

    ``queue.Queue`` and ``threading.(Bounded)Semaphore`` take a Python-level
    lock per operation; the hand-off they were replaced by stays in C.  (The
    process lane's ``ctx.Semaphore``s are OS semaphores between processes,
    not this.)
    """
    banned = ("queue.Queue(", "threading.Semaphore(", "BoundedSemaphore(")
    hits = [
        f"{f.relative_to(SRC)}:{n}: {line.strip()}"
        for f in _sources()
        for n, line in enumerate(f.read_text().splitlines(), 1)
        for call in banned
        if call in line and "ctx." + call not in line
    ]
    assert not hits, "use repro.util.handoff (Handoff / Credits):\n" + "\n".join(hits)


def test_the_session_port_neither_polls_nor_takes_a_condition():
    """``base.py`` waits on ``Bell``s under one plain lock, never on a clock."""
    text = (SRC / "backend" / "base.py").read_text()
    assert "threading.Condition(" not in text
    assert ".wait(0." not in text, "a port wait must wake on an event, not poll"
