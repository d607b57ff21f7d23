"""Codec/frame unit tests: roundtrips, placement policy, the codec table."""

import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

from repro import transport
from repro.transport import (
    AUTO_THRESHOLD,
    SHM_PREFIX,
    Frame,
    SegmentRef,
    SharedMemoryCodec,
    TransportError,
    busy_segments,
    decode_frame,
    materialize,
    session_segments,
    wire_nbytes,
)

PAYLOADS = [
    42,
    "plain string",
    {"nested": [1, 2.5, None], "t": ("x", b"y")},
    np.arange(10_000, dtype=np.float64),
    b"\x00" * 300_000,
    [np.ones((64, 64)), {"tail": np.zeros(5)}],
]


@pytest.mark.parametrize("name", ["pickle", "shm", "auto"])
@pytest.mark.parametrize("payload", PAYLOADS, ids=[str(i) for i in range(len(PAYLOADS))])
def test_roundtrip_equivalence(name, payload):
    codec = transport.get(name)
    try:
        frame = codec.encode(payload)
        out = codec.decode(frame)
        codec.release(frame)
        np.testing.assert_equal(out, payload)
    finally:
        codec.close()
    assert session_segments(codec.session) == []


def test_frame_nbytes_tracks_payload_size():
    codec = transport.get("pickle")
    small = codec.encode(1)
    big = codec.encode(np.zeros(1_000_000))
    assert wire_nbytes(big) > 8_000_000 > wire_nbytes(small)
    # shm counts the same logical bytes even though they leave the frame.
    shm = transport.get("shm")
    try:
        frame = shm.encode(np.zeros(1_000_000))
        assert abs(frame.nbytes - wire_nbytes(big)) < 4096
        shm.release(frame)
    finally:
        shm.close()


def test_auto_threshold_places_per_item():
    codec = transport.get("auto")
    try:
        inline = codec.encode(np.zeros(16))  # far below AUTO_THRESHOLD
        assert type(inline) is bytes  # self-contained: the stream is the wire
        large = codec.encode(np.zeros(AUTO_THRESHOLD))  # 8x the threshold
        assert isinstance(large, Frame) and large.segment_refs()
        codec.release(inline)
        codec.release(large)
    finally:
        codec.close()


def test_shm_codec_forces_segments_and_decode_is_repeatable():
    codec = SharedMemoryCodec()
    try:
        frame = codec.encode({"a": 1})
        assert frame.segment_refs()  # even tiny payloads: the stream moves out
        # Decode takes no ownership: it can run any number of times.
        assert codec.decode(frame) == {"a": 1}
        assert codec.decode(frame) == {"a": 1}
        codec.release(frame)
    finally:
        codec.close()


def test_decoded_numpy_arrays_are_writable():
    codec = SharedMemoryCodec()
    try:
        frame = codec.encode(np.arange(100_000, dtype=np.float64))
        out = codec.decode(frame)
        out[0] = -1.0  # a read-only view here would break in-place stages
        codec.release(frame)
    finally:
        codec.close()


def test_duplicate_release_is_noop_and_decode_after_release_raises():
    codec = SharedMemoryCodec()
    try:
        frame = codec.encode(np.zeros(50_000))
        assert frame.segment_refs()
        codec.release(frame)
        codec.release(frame)  # second release: silently nothing to do
        with pytest.raises(TransportError):
            codec.decode(frame)
    finally:
        codec.close()


def test_materialized_arrays_stay_writable():
    # The remote-worker path: a descriptor frame materialized inline must
    # still decode to mutable arrays (same contract as the segment path).
    codec = SharedMemoryCodec()
    try:
        frame = codec.encode(np.arange(50_000, dtype=np.float64))
        out = decode_frame(materialize(frame))
        out *= 2.0
    finally:
        codec.close()


def test_materialize_yields_equivalent_inline_frame():
    codec = SharedMemoryCodec()
    try:
        payload = [np.arange(40_000), "tail"]
        frame = codec.encode(payload)
        inline = materialize(frame)
        assert not inline.segment_refs() and inline.nbytes == frame.nbytes
        np.testing.assert_equal(decode_frame(inline), payload)
        # materialize released the source slots: they stay, free, to be
        # recycled; close() is what unlinks them.
        assert busy_segments(codec.session) == []
    finally:
        codec.close()
    assert session_segments(codec.session) == []


def test_sweep_reclaims_unreleased_segments():
    codec = SharedMemoryCodec()
    frames = [codec.encode(np.zeros(10_000)) for _ in range(3)]
    expected = sum(len(f.segment_refs()) for f in frames)
    assert expected >= 3
    assert len(session_segments(codec.session)) == expected
    removed = codec.sweep()
    assert len(removed) == expected
    assert session_segments(codec.session) == []
    for frame in frames:
        codec.release(frame)  # after a sweep: still a no-op, not an error


def test_unpicklable_payload_raises_transport_error_without_leaking():
    codec = SharedMemoryCodec()
    try:
        with pytest.raises(TransportError):
            codec.encode(lambda x: x)  # lambdas don't pickle
        assert session_segments(codec.session) == []
    finally:
        codec.close()


def test_frames_survive_pickling():
    # Frames ride inside mp.Queue / socket messages, which pickle them.
    codec = SharedMemoryCodec()
    try:
        frame = codec.encode(np.arange(30_000))
        clone = pickle.loads(pickle.dumps(frame))
        assert clone == frame
        np.testing.assert_equal(decode_frame(clone), np.arange(30_000))
        codec.release(frame)
    finally:
        codec.close()


def test_concurrent_encode_on_shared_codec_is_safe():
    # Distributed workers share one codec across replica threads: racing
    # encodes must never collide on a segment name (FileExistsError).
    import threading

    codec = SharedMemoryCodec()
    payload = np.arange(20_000)
    errors = []
    frames = []
    lock = threading.Lock()

    def encode_some():
        try:
            for _ in range(20):
                frame = codec.encode(payload)
                with lock:
                    frames.append(frame)
        except Exception as err:  # noqa: BLE001 - collected for the assert
            errors.append(err)

    threads = [threading.Thread(target=encode_some) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    try:
        assert errors == []
        names = [ref.name for f in frames for ref in f.segment_refs()]
        assert len(names) == len(set(names))
    finally:
        codec.close()
    assert session_segments(codec.session) == []


def test_leakcheck_cli_reports_clean():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.transport.leakcheck"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode in (0, 1)  # 1 only if another suite leaked
    assert "shared-memory" in proc.stdout + proc.stderr


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="no /dev/shm to list")
def test_leakcheck_cli_finds_a_leak():
    from repro.transport.frames import _shm_open

    codec = SharedMemoryCodec()  # a fresh session: nobody else names its segments
    name = f"{SHM_PREFIX}{codec.session}-x"
    os.close(_shm_open(name, os.O_CREAT | os.O_EXCL | os.O_RDWR))  # no pool knows it
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "repro.transport.leakcheck"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert name in proc.stderr
    finally:
        codec.sweep()
    assert name not in session_segments()


@pytest.mark.parametrize(
    "name, threshold", [("pickle", None), ("shm", 1), ("auto", AUTO_THRESHOLD)]
)
def test_codec_table_and_specs(name, threshold):
    codec = transport.get(name)
    assert codec.name == name and getattr(codec, "threshold", None) == threshold
    rebuilt = transport.from_spec(transport.spec_of(codec))
    assert type(rebuilt) is type(codec) and rebuilt.name == name
    assert rebuilt.session == codec.session
    assert getattr(rebuilt, "threshold", None) == threshold
    if threshold is not None:  # a placement threshold travels with the spec
        moved = transport.get(name, threshold=123)
        assert transport.from_spec(transport.spec_of(moved)).threshold == 123
    with pytest.raises(ValueError, match="unknown codec 'carrier-pigeon'; available: pickle, shm, auto"):
        transport.get("carrier-pigeon")


def test_frame_segment_refs():
    ref = SegmentRef(name="x", size=3)
    frame = Frame(codec="shm", stream=b"s", buffers=(b"a", ref), nbytes=5)
    assert frame.segment_refs() == [ref]
    assert Frame(codec="pickle", stream=b"s", nbytes=1).segment_refs() == []


def test_calibrated_auto_threshold_probe():
    from repro.transport.codecs import (
        _THRESHOLD_MAX,
        _THRESHOLD_MIN,
        calibrated_auto_threshold,
    )

    fitted = calibrated_auto_threshold(_cache=False)
    # shm may legitimately never win on a given host (then None keeps the
    # static default); a fitted value must sit inside the clamp band.
    if fitted is not None:
        assert _THRESHOLD_MIN <= fitted <= _THRESHOLD_MAX
    # The per-process cache path returns a stable answer.
    assert calibrated_auto_threshold() == calibrated_auto_threshold()


def test_calibration_leaves_no_segments_behind():
    import os

    from repro.transport import SHM_PREFIX
    from repro.transport.codecs import calibrated_auto_threshold

    try:
        before = {e for e in os.listdir("/dev/shm") if e.startswith(SHM_PREFIX)}
    except OSError:
        pytest.skip("/dev/shm not available")
    calibrated_auto_threshold(_cache=False)
    after = {e for e in os.listdir("/dev/shm") if e.startswith(SHM_PREFIX)}
    assert after <= before  # the probe sweeps its own session
