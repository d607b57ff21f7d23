"""The shared-memory slot pool: recycling never confuses two frames.

``SharedMemoryCodec`` places buffers in recyclable slots (one pool per
process, free/busy read from a generation header in the slot itself).  The
properties here hold for any interleaving of encode / decode / release /
duplicate release / stale decode / sweep, with part of the decodes and
releases done by a second process — the shape the backends use, where the
releaser of a frame is rarely the process that created its slot.
"""

import gc
import hashlib
import multiprocessing as mp
import os
import pickle
import subprocess
import sys
import threading
import uuid

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.transport import (
    Codec,
    SharedMemoryCodec,
    TransportError,
    busy_segments,
    decode_frame,
    session_segments,
)

_HEADER = 16  # slot file size = header + power-of-two size class

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="needs a /dev/shm namespace to inspect"
)


def _digest(obj) -> tuple:
    if isinstance(obj, np.ndarray):
        data = np.ascontiguousarray(obj).tobytes()
        return ("nd", obj.shape, obj.dtype.str, hashlib.blake2b(data).hexdigest())
    if isinstance(obj, (bytes, bytearray)):
        return ("b", len(obj), hashlib.blake2b(bytes(obj)).hexdigest())
    return ("l", tuple(_digest(part) for part in obj))


def _payload(kind: str, nbytes: int, k: int):
    """A payload of about ``nbytes`` whose content is unique to ``k``."""
    if kind == "array":
        return np.arange(nbytes // 8, dtype=np.float64) + k
    if kind == "strided":  # non-contiguous: pickle copies it in-band
        return (np.arange(nbytes // 4, dtype=np.float64) + k)[::2]
    if kind == "bytes":  # rides the pickle stream, which then earns a slot
        return k.to_bytes(4, "little") * (nbytes // 4)
    return [np.full(nbytes // 16, float(k)), k.to_bytes(2, "little") * (nbytes // 4)]


# ----------------------------------------------------------- second process
def _consumer_main(conn) -> None:
    codec = Codec()  # decode/release are codec-agnostic
    while True:
        msg = conn.recv()
        if msg is None:
            return
        op, arg = msg
        try:
            if op == "decode":
                conn.send(("ok", _digest(decode_frame(arg))))
            else:
                codec.release(arg)
                conn.send(("ok", None))
        except TransportError as err:
            conn.send(("transport-error", repr(err)))


@pytest.fixture(scope="module")
def consumer():
    ctx = mp.get_context("fork")
    ours, theirs = ctx.Pipe()
    proc = ctx.Process(target=_consumer_main, args=(theirs,), daemon=True)
    proc.start()

    def call(op, arg):
        ours.send((op, arg))
        assert ours.poll(30.0), "consumer process is stuck"
        return ours.recv()

    yield call
    ours.send(None)
    proc.join(timeout=5.0)
    assert not proc.is_alive()


# ----------------------------------------------------------------- property
# Few distinct sizes, so frames keep landing in each other's size class and
# released slots really are re-issued; arbitrary sizes cover the rest.
SIZES = st.one_of(
    st.sampled_from([4096, 70_000, 1024 * 1024]),
    st.integers(4096, 2 * 1024 * 1024),
)
PICK = st.integers(0, 63)
OPS = st.one_of(
    st.tuples(
        st.just("encode"),
        st.sampled_from(["array", "strided", "bytes", "mixed"]),
        SIZES,
    ),
    st.tuples(st.just("encode"), st.just("array"), SIZES),
    st.tuples(st.just("decode"), PICK, st.booleans()),
    st.tuples(st.just("release"), PICK, st.booleans()),
    st.tuples(st.just("release-again"), PICK, st.booleans()),
    st.tuples(st.just("decode-released"), PICK, st.booleans()),
    st.tuples(st.just("sweep")),
)


def _classes(frame) -> list[int]:
    return [
        os.stat(os.path.join("/dev/shm", ref.name)).st_size - _HEADER
        for ref in frame.segment_refs()
    ]


@settings(max_examples=100, deadline=None)
@given(ops=st.lists(OPS, min_size=1, max_size=40))
def test_any_interleaving_keeps_frames_apart(consumer, ops):
    codec = SharedMemoryCodec(threshold=4096)
    session = codec.session
    live: list[tuple] = []  # (frame, digest of its payload)
    released: list = []
    peak: dict[int, int] = {}  # size class -> most slots of it ever live at once

    def decode(frame, remote):
        if remote:
            status, out = consumer("decode", frame)
            if status != "ok":
                raise TransportError(out)
            return out
        return _digest(codec.decode(frame))

    def release(frame, remote):
        if remote:
            assert consumer("release", frame) == ("ok", None)
        else:
            codec.release(frame)

    try:
        for k, (op, *args) in enumerate(ops):
            if op == "encode":
                kind, nbytes = args
                value = _payload(kind, nbytes, k)
                frame = codec.encode(value)
                assert frame.segment_refs()
                live.append((frame, _digest(value)))
                in_use: dict[int, int] = {}
                for held, _ in live:
                    for klass in _classes(held):
                        in_use[klass] = in_use.get(klass, 0) + 1
                for klass, n in in_use.items():
                    peak[klass] = max(peak.get(klass, 0), n)
            elif op == "decode" and live:
                frame, want = live[args[0] % len(live)]
                assert decode(frame, args[1]) == want
            elif op == "release" and live:
                frame, _ = live.pop(args[0] % len(live))
                release(frame, args[1])
                released.append(frame)
            elif op == "release-again" and released:
                # Its slot may since have been re-issued to a live frame —
                # which the stale release must leave alone (checked below).
                release(released[args[0] % len(released)], args[1])
            elif op == "decode-released" and released:
                with pytest.raises(TransportError):
                    decode(released[args[0] % len(released)], args[1])
            elif op == "sweep":
                codec.sweep()
                assert session_segments(session) == []
                released.extend(frame for frame, _ in live)
                live.clear()
                peak.clear()

            # No two live frames share a slot, and each still holds its own
            # payload however often its neighbours were recycled.
            names = [ref.name for frame, _ in live for ref in frame.segment_refs()]
            assert len(names) == len(set(names))
            assert sorted(busy_segments(session)) == sorted(names)
            for frame, want in live:
                assert _digest(codec.decode(frame)) == want
            # The pool never outgrows the most frames that were alive at once.
            sizes: dict[int, int] = {}
            for name in session_segments(session):
                klass = os.stat(os.path.join("/dev/shm", name)).st_size - _HEADER
                sizes[klass] = sizes.get(klass, 0) + 1
            assert all(n <= peak[klass] for klass, n in sizes.items()), (sizes, peak)
    finally:
        codec.close()
    assert session_segments(session) == []


# ------------------------------------------------------------ the contract
def test_stale_references_to_a_reissued_slot_are_harmless():
    codec = SharedMemoryCodec()
    try:
        first = codec.encode(np.full(20_000, 1.0))
        codec.release(first)
        second = codec.encode(np.full(20_000, 2.0))
        # Lowest-index-first: the new frame took over the old one's slots.
        assert len(second.segment_refs()) == 2
        assert [r.name for r in second.segment_refs()] == [
            r.name for r in first.segment_refs()
        ]
        assert second.buffers[0].gen != first.buffers[0].gen
        with pytest.raises(TransportError, match="generation"):
            codec.decode(first)  # never the new frame's bytes
        codec.release(first)  # late duplicate: must not free the re-issued slot
        assert codec.decode(second)[0] == 2.0
        assert len(session_segments(codec.session)) == 2
        third = codec.encode(np.full(20_000, 3.0))
        # ...so the next frame had to grow the pool.
        assert len(session_segments(codec.session)) == 4
        assert codec.decode(second)[0] == 2.0 and codec.decode(third)[0] == 3.0
    finally:
        codec.close()
    assert session_segments(codec.session) == []


# -------------------------------------------------------------- boundedness
def test_ten_thousand_cycles_hold_descriptors_and_slots_constant():
    codec = SharedMemoryCodec()
    payload = np.arange(8192, dtype=np.float64)  # a 64 KiB buffer + its stream

    def cycle():
        frame = codec.encode(payload)
        assert codec.decode(frame)[-1] == 8191.0
        codec.release(frame)

    try:
        cycle()
        fds = len(os.listdir("/proc/self/fd"))
        slots = session_segments(codec.session)
        assert len(slots) == 2
        for _ in range(10_000):
            cycle()
        assert len(os.listdir("/proc/self/fd")) == fds
        assert session_segments(codec.session) == slots
    finally:
        codec.close()
    assert session_segments(codec.session) == []
    assert len(os.listdir("/proc/self/fd")) == fds


def test_live_frames_hold_no_descriptors():
    # Slots are opened per operation: holding many frames alive (more slots
    # than the CI step's `ulimit -n 128` has descriptors) costs none.
    codec = SharedMemoryCodec()
    try:
        fds = len(os.listdir("/proc/self/fd"))
        held = [codec.encode(np.full(2_000, float(i))) for i in range(100)]
        assert len(session_segments(codec.session)) == 200
        assert [codec.decode(f)[0] for f in held] == [float(i) for i in range(100)]
        for frame in held[::2]:
            codec.release(frame)
        again = [codec.encode(np.full(2_000, -1.0)) for _ in range(50)]
        assert len(session_segments(codec.session)) == 200  # all of them recycled
        assert [codec.decode(f)[0] for f in again] == [-1.0] * 50
        assert [codec.decode(f)[0] for f in held[1::2]] == [float(i) for i in range(1, 100, 2)]
        assert len(os.listdir("/proc/self/fd")) == fds
    finally:
        codec.close()
    assert session_segments(codec.session) == []


def test_racing_threads_never_claim_the_same_slot():
    # One codec is shared by all of a distributed worker's replica threads.
    # More threads than cores and a short switch interval: a lost update in
    # the pool's claim would hand two frames one slot, and one of them would
    # then decode to the other's bytes or fail its generation check.
    codec = SharedMemoryCodec()
    errors: list = []

    def churn(tid: int) -> None:
        try:
            for i in range(150):
                value = np.full(3000, tid * 1000.0 + i)
                frame = codec.encode(value)
                out = codec.decode(frame)
                codec.release(frame)
                assert out[0] == out[-1] == value[0], (tid, i, out[0])
        except BaseException as err:  # noqa: BLE001 - collected for the assert
            errors.append(err)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=churn, args=(t,)) for t in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert busy_segments(codec.session) == []
        assert len(session_segments(codec.session)) <= 2 * len(threads)
    finally:
        sys.setswitchinterval(interval)
        codec.close()
    assert session_segments(codec.session) == []


# ---------------------------------------------------------------- finalizer
_NEVER_CLOSED = """
import pickle
import numpy as np
from repro.transport import SharedMemoryCodec, session_segments
codec = SharedMemoryCodec(session={session!r})
done = codec.encode(np.arange(50_000))
assert codec.decode(done)[-1] == 49_999
codec.release(done)
kept = {kept}
print(len(session_segments({session!r})), pickle.dumps(kept).hex())
"""


def _run_script(session: str, kept: str = "None"):
    """Run a script that never closes its codec: (segments it saw, ``kept``)."""
    proc = subprocess.run(
        [sys.executable, "-c", _NEVER_CLOSED.format(session=session, kept=kept)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    seen, kept_hex = proc.stdout.split()
    return int(seen), pickle.loads(bytes.fromhex(kept_hex))


def test_codec_that_is_never_closed_unlinks_its_free_slots_at_exit():
    # release() hands slots back without unlinking them, so a script that
    # never calls close() relies on the codec's finalizer for a clean
    # /dev/shm — which must touch only the slots its own process created.
    bystander = SharedMemoryCodec()
    session = bystander.session
    try:
        theirs = bystander.encode(np.arange(10_000))
        assert _run_script(session)[0] == 2 + len(theirs.segment_refs())
        assert session_segments(session) == sorted(
            ref.name for ref in theirs.segment_refs()
        )
        assert bystander.decode(theirs)[-1] == 9_999
    finally:
        bystander.close()
    assert session_segments(session) == []


def test_frame_that_outlives_its_codec_is_unlinked_by_its_release():
    # A frame nobody released yet is still owed to its consumer (a producer
    # that exits, or drops its codec, after handing the frame on): the
    # finalizer leaves it readable, and its release — with no pool left to
    # recycle the slots — unlinks them.
    session = uuid.uuid4().hex[:12]
    try:
        seen, frame = _run_script(session, kept="codec.encode(np.arange(20_000))")
        assert seen == 3  # the kept frame's stream recycled the released one's slot
        names = sorted(ref.name for ref in frame.segment_refs())
        assert len(names) == 2
        assert session_segments(session) == busy_segments(session) == names
        assert decode_frame(frame)[-1] == 19_999
        Codec().release(frame)
        assert session_segments(session) == []
        # The same within one process: the codec is collected, not exited.
        frame = SharedMemoryCodec(session=session).encode(np.arange(20_000))
        gc.collect()
        assert decode_frame(frame)[-1] == 19_999
        Codec().release(frame)
        Codec().release(frame)  # duplicate: the names are gone, still a no-op
    finally:
        assert Codec(session=session).sweep() == []
