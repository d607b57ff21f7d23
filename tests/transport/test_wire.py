"""The flat wire envelope: what a frame looks like while it crosses a lane.

``to_wire`` flattens an inline, bufferless frame to its pickle stream (plain
``bytes``: five times cheaper to pickle again than the frozen dataclass)
and passes everything else through; ``from_wire`` rebuilds the frame on the
other side, which knows the lane's codec.  Nothing may be lost either way.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import transport
from repro.transport import Frame, SegmentRef, from_wire, materialize, to_wire

_payloads = st.one_of(
    st.integers(),
    st.text(max_size=40),
    st.binary(max_size=6000),
    st.lists(st.floats(allow_nan=False), max_size=30),
    st.tuples(st.integers(), st.binary(max_size=200)),
    st.integers(1, 3000).map(lambda n: np.arange(n, dtype=np.float64)),
    st.integers(1, 3000).map(lambda n: [np.full(n, 2.0), b"x" * n]),
)


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, list):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a == b


@settings(max_examples=60, deadline=None)
@given(payload=_payloads, name=st.sampled_from(["pickle", "shm", "auto"]),
       threshold=st.sampled_from([1, 512, 1 << 20]))
def test_wire_round_trip_loses_nothing(payload, name, threshold):
    codec = transport.get(name)
    if name != "pickle":
        codec.threshold = threshold  # small: segments; huge: everything inline
    try:
        frame = codec.encode(payload)
        wire = to_wire(frame)
        if frame.inline and not frame.buffers:
            # The envelope is the stream itself, and pickles as bare bytes.
            assert wire is frame.stream and type(wire) is bytes
            assert len(pickle.dumps(wire, protocol=5)) < len(pickle.dumps(frame, protocol=5))
        else:
            assert wire is frame  # descriptors travel as the Frame they are
        back = from_wire(pickle.loads(pickle.dumps(wire, protocol=5)), frame.codec)
        assert back == frame and back.nbytes == frame.nbytes and back.codec == frame.codec
        assert _same(codec.decode(back), payload)
        codec.release(back)
    finally:
        codec.close()


def test_frames_with_a_segment_stream_or_buffers_pass_through_untouched():
    ref = SegmentRef("repro-shm-x-1-1", 10, gen=7)
    for frame in (
        Frame("shm", ref, (), 10),  # the stream itself lives in a slot
        Frame("shm", b"head", (ref,), 14),
        Frame("shm", b"head", (bytearray(b"inline buffer"),), 17),  # a materialized frame
    ):
        assert to_wire(frame) is frame
        assert from_wire(frame, "pickle") is frame  # the codec name is the frame's own


def test_materialized_bufferless_frame_flattens_and_keeps_its_size():
    codec = transport.get("shm")  # threshold 1: even the stream earns a slot
    try:
        frame = materialize(codec.encode(b"payload"))
        assert frame.inline and not frame.buffers
        assert from_wire(to_wire(frame), "shm") == frame
    finally:
        codec.close()


@pytest.mark.parametrize("wire", [b"", b"\x80\x05N."])
def test_from_wire_sizes_a_flat_frame_by_its_stream(wire):
    frame = from_wire(wire, "auto")
    assert (frame.codec, frame.stream, frame.buffers, frame.nbytes) == ("auto", wire, (), len(wire))
