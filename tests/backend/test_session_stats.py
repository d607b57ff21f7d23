"""Session.stats() and byte accounting across every real executor.

The port promises uniform observation: per-stream vs session-cumulative
counters from :meth:`Session.stats`, and :class:`StageSnapshot`
``bytes_in``/``bytes_out`` — populated where payloads actually cross a
serialisation boundary (processes, distributed) and zero where they do not
(threads, asyncio).
"""

import numpy as np
import pytest

from repro.skel.api import open_pipeline

REAL_BACKENDS = ["threads", "asyncio", "processes"]


def _payload(x):
    return np.zeros(256, dtype=np.uint8)


def _grow(a):
    return np.concatenate([a, a])


def _double(x):
    return x * 2


class TestSessionStats:
    @pytest.mark.parametrize("backend", REAL_BACKENDS)
    def test_counters_across_streams(self, backend):
        session = open_pipeline([lambda x: x + 1], backend=backend)
        try:
            st = session.stats()
            assert (st.streams_completed, st.items_total) == (0, 0)
            for i in range(4):
                session.submit(i)
            assert session.drain() == [1, 2, 3, 4]
            st = session.stats()
            assert st.streams_completed == 1
            assert st.items_total == 4
            assert st.stream_submitted == st.stream_delivered == 4
            assert st.backlog == 0
            # second stream on the same warm session: per-stream counters
            # rebase, the cumulative ones keep counting
            for i in range(2):
                session.submit(i)
            session.drain()
            st = session.stats()
            assert st.streams_completed == 2
            assert st.items_total == 6
            assert st.stream_submitted == 2
        finally:
            session.close()

    def test_counters_on_distributed(self):
        session = open_pipeline(
            [_double], backend="distributed", spawn_workers=1
        )
        try:
            for i in range(3):
                session.submit(i)
            assert session.drain() == [0, 2, 4]
            st = session.stats()
            assert st.streams_completed == 1
            assert st.items_total == 3
        finally:
            session.close()


class TestStageBytes:
    @pytest.mark.parametrize("backend", ["threads", "asyncio"])
    def test_in_process_backends_record_no_bytes(self, backend):
        session = open_pipeline([_payload, _grow], backend=backend)
        try:
            for i in range(4):
                session.submit(i)
            session.drain()
            for snap in session.snapshots():
                assert snap.bytes_in == 0.0
                assert snap.bytes_out == 0.0
        finally:
            session.close()

    def test_process_backend_records_frame_bytes(self):
        session = open_pipeline([_payload, _grow], backend="processes")
        try:
            for i in range(4):
                session.submit(i)
            session.drain()
            snaps = session.snapshots()
            assert snaps[0].bytes_in > 0  # encoded input frames
            assert snaps[0].bytes_out > 0  # 256-byte arrays out
            # stage 1 doubles the payload: measurably more bytes out than in
            assert snaps[1].bytes_out > snaps[1].bytes_in
        finally:
            session.close()

    def test_distributed_backend_records_frame_bytes(self):
        session = open_pipeline(
            [_payload, _grow], backend="distributed", spawn_workers=1
        )
        try:
            for i in range(4):
                session.submit(i)
            session.drain()
            snaps = session.snapshots()
            assert snaps[0].bytes_in > 0
            assert snaps[1].bytes_out > snaps[1].bytes_in
        finally:
            session.close()


class TestFrameEventParity:
    """The routed executors share one emit site for frame events."""

    KINDS = ("frame.encode", "frame.release")

    def _field_names(self, backend, batching, **kwargs):
        session = open_pipeline([_double], backend=backend, batching=batching, **kwargs)
        seen: dict[str, set] = {}
        session.events.subscribe(
            lambda ev: seen.setdefault(ev.kind, set()).update(ev.fields),
            kinds=self.KINDS,
        )
        try:
            for i in range(8):
                session.submit(i)
            assert session.drain() == [2 * i for i in range(8)]
        finally:
            session.close()
        return seen

    @pytest.mark.parametrize("batching", [None, 4], ids=["per-item", "batched"])
    def test_same_kinds_and_fields_on_both_executors(self, batching):
        procs = self._field_names("processes", batching)
        dist = self._field_names("distributed", batching, spawn_workers=1)
        assert procs == dist
        assert procs["frame.encode"] >= {
            "stage", "seq", "nbytes", "inline", "seconds", "recycled"
        }
        assert procs["frame.release"] >= {"stage", "seq", "nbytes"}
        # A batch's frame is one record naming its first item and its count.
        assert ("items" in procs["frame.encode"]) == ("items" in procs["frame.release"]) == bool(
            batching
        )

    @pytest.mark.parametrize(
        "backend, kwargs", [("processes", {}), ("distributed", {"spawn_workers": 1})]
    )
    def test_recycled_and_pool_footprint_show_slot_reuse(self, backend, kwargs):
        # Segment-sized payloads through a window of 1: the first encode
        # creates its slots (recycled 0.0), every later one is served from
        # the slots the previous item handed back (1.0), and stats() reads
        # the session's footprint — bounded by the window, idle after drain.
        # The window is 1 because a frame's two segments are claimed and
        # released one at a time: under a wider window an encode can overlap
        # the previous frame's release and find one slot free and the other
        # not yet, a legitimately half-recycled frame (0.5).  One item in
        # flight orders every release before the next encode.
        session = open_pipeline(
            [_double], backend=backend, transport="shm", max_inflight=1, **kwargs
        )
        shares = []
        session.events.subscribe(
            lambda ev: shares.append(ev.fields["recycled"]), kinds=("frame.encode",)
        )
        try:
            for i in range(12):
                session.submit(np.full(40_000, float(i)))
            out = session.drain()
            assert [a[0] for a in out] == [2.0 * i for i in range(12)]
            pool = session.stats().pool
        finally:
            session.close()
        assert shares[0] == 0.0 and shares[-1] == 1.0
        assert set(shares) <= {0.0, 1.0} and shares.count(0.0) <= 3
        assert shares == [0.0] + [1.0] * 11
        probe = backend == "distributed"  # its negotiation segment stays held
        assert pool.busy == probe
        # parent + one worker, 2 segments per frame, one frame live per side
        assert pool.slots - probe == 4
        assert pool.nbytes >= 2 * 320_000  # a payload slot on each side, at least


def test_in_process_sessions_report_no_pool():
    session = open_pipeline([_double], backend="threads")
    try:
        assert session.stats().pool is None
    finally:
        session.close()
