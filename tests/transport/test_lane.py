"""The byte lane both heavy executors stand on (``repro.transport.lane``).

Each case runs over a connected socket pair and over an ``os.pipe``: the
framing, the outbox and both readers must not care which stream carries
the bytes.
"""

import multiprocessing as mp
import os
import pickle
import select
import socket
import sys
import threading

import pytest

from repro.transport import lane
from repro.transport.lane import (
    MAX_FRAME,
    FrameReader,
    Outbox,
    ProtocolError,
    encode_frame,
    pipe_outbox,
    read_frame,
    socket_outbox,
)


@pytest.fixture(params=["socket", "pipe"])
def stream(request):
    """Make fresh ``(read end, write end)`` pairs of one kind; all closed after."""
    made = []

    def make():
        if request.param == "socket":
            write_end, read_end = socket.socketpair()
        else:
            r, w = os.pipe()
            read_end, write_end = open(r, "rb", buffering=0), open(w, "wb", buffering=0)
        made.extend((read_end, write_end))
        return read_end, write_end

    yield make
    for end in made:
        end.close()


def _write(end, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(end.fileno(), view):]


def _buffered(end):
    """A buffered reader over ``end`` that leaves ``end`` open."""
    return open(end.fileno(), "rb", buffering=1 << 16, closefd=False)


class _Gated:
    """A stream end whose first write waits for ``gate``; it records each
    write and a ``shutdown``, and passes everything on to ``end``."""

    def __init__(self, end):
        self.end, self.writes, self.shut = end, [], False
        self.entered, self.gate = threading.Event(), threading.Event()

    def sendall(self, data):
        self.entered.set()
        assert self.gate.wait(timeout=5.0)
        self.writes.append(data)
        _write(self.end, data)

    def shutdown(self, how):
        self.shut = True
        self.end.shutdown(how)

    def close(self):
        self.end.close()


def _outbox(end, on_error) -> Outbox:
    if isinstance(end, socket.socket):
        return socket_outbox(end, "test-send", on_error)
    return pipe_outbox(end, "test-send", on_error)


def _raw_read(end, most=None):
    """A ``read`` straight off ``end``, at most ``most`` bytes a call, and the
    list of sizes it was asked for."""
    asked = []

    def read(n):
        asked.append(n)
        return os.read(end.fileno(), n if most is None else min(n, most))

    return read, asked


class TestBufferedReader:
    """``read_frame`` through a buffered reader: the distributed receive loops."""

    def test_a_burst_written_at_once_reads_back_in_order(self, stream):
        msgs = [("task", 1, 0, 2, k, b"x" * k, 0.0) for k in range(200)]
        data = b"".join(map(encode_frame, msgs))
        assert len(data) < 1 << 16  # within a pipe's buffer: one write, nobody reading
        read_end, write_end = stream()
        _write(write_end, data)
        write_end.close()
        with _buffered(read_end) as reader:
            assert list(iter(lambda: read_frame(reader.read), None)) == msgs

    def test_a_frame_delivered_one_byte_at_a_time_is_reassembled(self, stream):
        msg = ("result", 1, 0, 2, 3, True, b"payload" * 20)
        data = encode_frame(msg)
        read_end, write_end = stream()
        _write(write_end, data)
        write_end.close()
        read, asked = _raw_read(read_end, most=1)
        assert read_frame(read) == msg and read_frame(read) is None
        assert len(asked) == len(data) + 1  # one call per byte, then EOF

    def test_eof_at_a_boundary_is_none_and_mid_frame_is_an_error(self, stream):
        whole = encode_frame(("heartbeat", 0.5))
        cuts = ((len(whole), None), (2, "mid-frame"), (4, "between header"),
                (len(whole) - 1, "mid-frame"))
        for cut, match in cuts:
            read_end, write_end = stream()
            _write(write_end, whole[:cut])
            write_end.close()
            with _buffered(read_end) as reader:
                if match is None:
                    assert read_frame(reader.read) is not None
                    assert read_frame(reader.read) is None
                else:
                    with pytest.raises(ProtocolError, match=match):
                        read_frame(reader.read)

    def test_an_oversized_header_is_refused_before_any_allocation(self, stream):
        read_end, write_end = stream()
        _write(write_end, (MAX_FRAME + 1).to_bytes(4, "big") + b"x" * 64)
        read, asked = _raw_read(read_end)
        with pytest.raises(ProtocolError, match="announced"):
            read_frame(read)
        assert asked == [4]  # the payload was never asked for


class TestFrameReader:
    """The process routers' reader: non-blocking, a burst per read, whole frames only."""

    def test_one_read_yields_every_whole_frame_and_a_cut_frame_waits(self, stream):
        read_end, write_end = stream()
        reader = FrameReader(read_end.fileno())
        msgs = [("result", k, b"x" * k) for k in range(50)]
        last = ("result", 50, b"y" * 100)
        tail = encode_frame(last)
        _write(write_end, b"".join(map(encode_frame, msgs)) + tail[:7])
        assert reader.fill() == 50 and list(reader.frames) == msgs
        assert reader.fill() == 0  # nothing to read: no block, no frame
        _write(write_end, tail[7:])
        assert reader.fill() == 1 and reader.frames[-1] == last

    def test_a_300_kb_frame_split_across_reads_arrives_whole_and_in_order(self, stream):
        read_end, write_end = stream()
        reader = FrameReader(read_end.fileno())
        msgs = [("result", 0, b"a"), ("result", 1, bytes(range(256)) * 1200), ("result", 2, b"c")]
        data = b"".join(map(encode_frame, msgs))
        writer = threading.Thread(target=_write, args=(write_end, data))
        writer.start()  # more than a buffer holds: it writes as the reader reads
        fills = []
        while len(reader.frames) < len(msgs):
            assert select.select([read_end], [], [], 10.0)[0], "the reader starved"
            fills.append(reader.fill())
        writer.join(timeout=10.0)
        assert list(reader.frames) == msgs
        # Reads that held only part of the big frame completed nothing.
        assert sum(fills) == 3 and fills.count(0) >= 3

    def test_a_closed_stream_is_an_error(self, stream):
        read_end, write_end = stream()
        reader = FrameReader(read_end.fileno())
        _write(write_end, b"\x00\x00")  # half a header, then the writer is gone
        write_end.close()
        assert reader.fill() == 0
        with pytest.raises(ProtocolError, match="lane closed"):
            reader.fill()

    def test_frames_past_max_frame_and_in_the_long_form_are_read(self, stream, monkeypatch):
        monkeypatch.setattr(lane, "MAX_FRAME", 64)  # a network peer would refuse all three
        monkeypatch.setattr(lane, "_SHORT_MAX", 200)  # past it: Connection's 12-byte header
        msgs = [("result", k, b"x" * 100 * k) for k in (1, 2, 3)]
        frames = [encode_frame(m, bounded=False) for m in msgs]
        assert [f[:4] == b"\xff" * 4 for f in frames] == [False, True, True]
        read_end, write_end = stream()
        reader = FrameReader(read_end.fileno())
        data = b"".join(frames)
        for k in range(len(data)):  # a byte at a time: a cut long header waits too
            _write(write_end, data[k:k + 1])
            reader.fill()
        assert list(reader.frames) == msgs


def test_frames_cross_to_and_from_multiprocessing_connections(monkeypatch):
    """The header is the one ``Connection.send_bytes`` writes, both ways, and
    a pipe outbox's long form is the one ``recv_bytes`` reads."""
    monkeypatch.setattr(lane, "MAX_FRAME", 64)
    monkeypatch.setattr(lane, "_SHORT_MAX", 200)
    big = ("task", 4, b"z" * 500)
    to_reader, from_conn = mp.Pipe(duplex=False)
    to_conn, from_outbox = mp.Pipe(duplex=False)
    try:
        from_conn.send_bytes(pickle.dumps(("result", 1)))
        reader = FrameReader(to_reader.fileno())
        assert reader.fill() == 1 and reader.frames.popleft() == ("result", 1)
        outbox = pipe_outbox(from_outbox, "test-send", on_error=lambda: None)
        assert outbox.send(("task", 2)) and outbox.send(big) and outbox.send(("task", 3))
        got = [pickle.loads(to_conn.recv_bytes()) for _ in range(3)]
        assert got == [("task", 2), big, ("task", 3)]
        outbox.close()
        outbox.thread.join(timeout=5.0)
        assert from_outbox.closed  # the writer closed its end when it stopped
    finally:
        for end in (to_reader, from_conn, to_conn, from_outbox):
            end.close()


def test_only_a_socket_outbox_refuses_a_frame_past_max_frame(monkeypatch):
    monkeypatch.setattr(lane, "MAX_FRAME", 64)
    big = ("task", b"x" * 100)
    with pytest.raises(ProtocolError, match="exceeds MAX_FRAME"):
        encode_frame(big)
    a, b = socket.socketpair()
    r, w = os.pipe()
    pipe_end = open(w, "wb", buffering=0)
    try:
        with pytest.raises(ProtocolError, match="exceeds MAX_FRAME"):
            socket_outbox(a, "test-send", lambda: None).send(big)
        assert pipe_outbox(pipe_end, "test-send", lambda: None).send(big)
        assert os.read(r, 4096) == encode_frame(big, bounded=False)  # one atomic write
    finally:
        for end in (a, b, pipe_end):
            end.close()
        os.close(r)


class TestOutbox:
    def test_a_lone_frame_is_one_write_and_a_burst_behind_it_is_one_more(self, stream):
        read_end, write_end = stream()
        end = _Gated(write_end)
        if isinstance(write_end, socket.socket):
            outbox = socket_outbox(end, "test-send", on_error=lambda: None)
        else:  # pipe_outbox writes with os.write: gate the write-all instead
            outbox = Outbox(end.sendall, "test-send", lambda: None, end.close, bounded=False)
        outbox.send(("lone",))
        assert end.entered.wait(timeout=5.0)  # the writer took it alone, at once
        burst = [("task", k) for k in range(20)]
        for msg in burst:
            outbox.send(msg)
        end.gate.set()
        outbox.close()
        outbox.thread.join(timeout=5.0)
        assert not outbox.thread.is_alive()
        assert end.writes == [encode_frame(("lone",)), b"".join(map(encode_frame, burst))]
        with _buffered(read_end) as reader:  # the writer closed its end: EOF after them
            assert list(iter(lambda: read_frame(reader.read), None)) == [("lone",), *burst]
        assert end.shut == isinstance(write_end, socket.socket)  # a socket is shut down
        assert outbox.send(("late",)) is False

    def test_a_socket_writer_stopping_wakes_a_reader_of_its_own_socket(self):
        # A distributed worker reads ``sock.makefile("rb")``, which keeps the
        # descriptor open past close(): only the writer's shutdown ends its loop.
        mine, peer = socket.socketpair()
        reader, got = mine.makefile("rb"), []
        receiving = threading.Thread(target=lambda: got.append(read_frame(reader.read)))
        receiving.start()
        try:
            socket_outbox(mine, "test-send", on_error=lambda: None).close()
            receiving.join(timeout=5.0)
            assert not receiving.is_alive() and got == [None]
        finally:
            peer.close()  # frees a reader the writer left blocked
            receiving.join(timeout=5.0)
            reader.close()

    def test_each_senders_order_survives_four_concurrent_senders(self, stream):
        # More senders than cores, switching every few bytecodes: a frame
        # queued out of its sender's order (``place`` behind ``task``) shows.
        read_end, write_end = stream()
        outbox = _outbox(write_end, on_error=lambda: None)
        n, got, refused = 500, [], []

        def receiver():
            with _buffered(read_end) as reader:
                got.extend(iter(lambda: read_frame(reader.read), None))

        def sender(tid):
            for k in range(n):
                if not outbox.send(("place" if k % 2 == 0 else "task", tid, k)):
                    refused.append((tid, k))

        reading = threading.Thread(target=receiver)
        threads = [threading.Thread(target=sender, args=(tid,)) for tid in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            reading.start()
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10.0)
            outbox.close()  # flushes, then closes its end: the reader sees EOF
            reading.join(timeout=10.0)
            outbox.thread.join(timeout=10.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in (*threads, reading, outbox.thread))
        assert refused == [] and len(got) == 4 * n
        for tid in range(4):
            assert [k for _, t, k in got if t == tid] == list(range(n))

    def test_a_write_to_a_closed_peer_reports_once_and_refuses_later_sends(self, stream):
        read_end, write_end = stream()
        read_end.close()
        errors = []
        outbox = _outbox(write_end, on_error=lambda: errors.append(1))
        for k in range(5):
            outbox.send(("task", k))
        outbox.thread.join(timeout=5.0)
        assert not outbox.thread.is_alive() and errors == [1]
        assert outbox.send(("task", 5)) is False
        assert errors == [1]
