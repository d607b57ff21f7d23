"""The wire form: what a codec's ``encode`` returns and a lane carries.

A self-contained pickle stream is its own wire form (plain ``bytes``: five
times cheaper to pickle again than a frozen dataclass around it); anything
with an out-of-band buffer or a shared-memory segment is a ``Frame``.
``decode`` and ``release`` take either form, ``wire_nbytes`` sizes either,
and nothing may be lost on the way.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import transport
from repro.transport import (
    Frame,
    SegmentRef,
    TransportError,
    materialize,
    wire_nbytes,
)

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


def _part_size(part) -> int:
    return part.size if isinstance(part, SegmentRef) else len(part)


@settings(max_examples=60, deadline=None)
@given(payload=_payloads, name=st.sampled_from(["pickle", "shm", "auto"]),
       threshold=st.sampled_from([1, 512, 1 << 20]))
def test_wire_round_trip_loses_nothing(payload, name, threshold):
    codec = transport.get(name)
    if name != "pickle":
        codec.threshold = threshold  # small: segments; huge: everything inline
    try:
        wire = codec.encode(payload)
        if type(wire) is bytes:
            # The stream is the wire, and pickles as bare bytes.
            envelope = Frame(codec.name, wire, (), len(wire))
            assert len(pickle.dumps(wire, protocol=5)) < len(pickle.dumps(envelope, protocol=5))
            assert wire_nbytes(wire) == len(wire)
        else:
            # A codec builds a frame only around what it placed in a segment.
            assert isinstance(wire, Frame) and wire.segment_refs() and wire.codec == codec.name
            parts = (wire.stream, *wire.buffers)
            assert wire_nbytes(wire) == wire.nbytes == sum(_part_size(p) for p in parts)
        back = pickle.loads(pickle.dumps(wire, protocol=5))
        assert type(back) is type(wire) and back == wire
        assert wire_nbytes(back) == wire_nbytes(wire)
        assert _same(codec.decode(back), payload)
        codec.release(back)
    finally:
        codec.close()


def test_frames_with_a_segment_stream_or_buffers_travel_as_themselves():
    ref = SegmentRef("repro-shm-x-1-1", 10, gen=7)
    for frame in (
        Frame("shm", ref, (), 10),  # the stream itself lives in a slot
        Frame("shm", b"head", (ref,), 14),
        Frame("shm", b"head", (bytearray(b"inline buffer"),), 17),  # a materialized frame
    ):
        back = pickle.loads(pickle.dumps(frame, protocol=5))
        assert back == frame and back.codec == "shm"  # the codec name is the frame's own
        assert wire_nbytes(frame) == frame.nbytes
    inline = Frame("shm", b"head", (bytearray(b"inline buffer"),), 17)
    assert materialize(inline) is inline  # nothing left to copy in


def test_materialized_bufferless_frame_flattens_and_keeps_its_size():
    codec = transport.get("shm")  # threshold 1: even the stream earns a slot
    try:
        frame = codec.encode(b"payload")
        assert isinstance(frame, Frame) and frame.segment_refs()
        wire = materialize(frame)
        assert type(wire) is bytes and wire_nbytes(wire) == frame.nbytes
        assert codec.decode(wire) == b"payload"
        assert materialize(wire) is wire  # a stream passes through
    finally:
        codec.close()


@pytest.mark.parametrize("wire", [b"", b"\x80\x05N."])
def test_wire_nbytes_sizes_a_stream_by_its_length(wire):
    assert wire_nbytes(wire) == len(wire)


class TestCodecPort:
    @pytest.mark.parametrize("name", ["pickle", "shm", "auto"])
    @pytest.mark.parametrize("garbage", [b"", b"\x80\x05", b"not a pickle"])
    def test_decode_of_garbage_bytes_raises_transport_error(self, name, garbage):
        codec = transport.get(name)
        try:
            with pytest.raises(TransportError, match="undecodable stream"):
                codec.decode(garbage)
        finally:
            codec.close()

    @pytest.mark.parametrize("name", ["pickle", "auto"])
    def test_release_of_a_stream_is_a_no_op(self, name):
        codec = transport.get(name)
        try:
            wire = codec.encode({"small": 1})
            assert type(wire) is bytes
            assert codec.release(wire) is None
            codec.release(wire)  # twice: still nothing to give back
            assert codec.decode(wire) == {"small": 1}
            assert transport.busy_segments(codec.session) == []
        finally:
            codec.close()

    def test_a_mebibyte_array_under_auto_still_rides_a_segment(self):
        codec = transport.get("auto")
        try:
            payload = np.arange(1 << 17, dtype=np.float64)  # 1 MiB
            frame = codec.encode(payload)
            assert isinstance(frame, Frame)
            refs = frame.segment_refs()
            assert refs and all(isinstance(r, SegmentRef) for r in refs)
            assert frame.nbytes >= payload.nbytes
            np.testing.assert_array_equal(codec.decode(frame), payload)
            codec.release(frame)
            assert transport.busy_segments(codec.session) == []
        finally:
            codec.close()

    @pytest.mark.parametrize(
        "leaf", [7, -(1 << 70), 2.5, 1j, True, None, "small", b"small"], ids=repr
    )
    def test_a_small_leaf_under_auto_is_the_stream_pickle_makes(self, leaf):
        # The leaf path skips buffer_callback: the bytes must not change.
        auto, plain = transport.get("auto"), transport.get("pickle")
        try:
            assert auto.encode(leaf) == plain.encode(leaf)
            assert type(auto.encode(leaf)) is bytes
        finally:
            auto.close()
            plain.close()

    @pytest.mark.parametrize("leaf", [b"x" * (1 << 20), "y" * (1 << 20)], ids=["bytes", "str"])
    def test_a_large_leaf_under_auto_still_moves_its_stream_to_a_segment(self, leaf):
        codec = transport.get("auto")
        try:
            frame = codec.encode(leaf)
            assert isinstance(frame, Frame) and isinstance(frame.stream, SegmentRef)
            assert frame.buffers == () and frame.nbytes == len(pickle.dumps(leaf, protocol=5))
            assert codec.decode(frame) == leaf
            codec.release(frame)
            assert transport.busy_segments(codec.session) == []
        finally:
            codec.close()
