"""Micro-batched hot path acceptance tests (ISSUE 10).

The load-bearing claims: coalescing admitted items into batch frames is
*transparent* — per-item submit/results/Ticket semantics, stream ordering,
mid-stream reconfiguration and exactly-once re-dispatch are unchanged —
while the linger deadline bounds the latency a partial batch can add under
trickle arrivals.

Distributed/process stage functions live at module level: they are pickled
by reference and resolved inside forked worker processes.
"""

import threading
import time

import pytest

from repro.backend import (
    DistributedBackend,
    ProcessPoolBackend,
    ThreadBackend,
)
from repro.core.pipeline import PipelineSpec
from repro.core.stage import StageSpec
from repro.skel.api import open_pipeline
from repro.util.batching import (
    Batch,
    BatchingConfig,
    approx_nbytes,
    map_batch,
    normalize_batching,
)
from repro.util.ordering import SequenceReorderer


def spec(fns):
    return PipelineSpec(
        tuple(
            StageSpec(name=f"s{i}", work=0.01, fn=f, replicable=True)
            for i, f in enumerate(fns)
        )
    )


def _inc(x):
    return x + 1


def _jitter_square(x):
    time.sleep((x % 3) * 0.002)
    return x * x


def _slow_square(x):
    time.sleep(0.01)
    return x * x


# ---------------------------------------------------------------- unit layer
class TestBatchUnit:
    def test_map_batch_preserves_metadata(self):
        b = Batch([1, 2, 3], base_seq=7, gbase=42, bseq=3)
        out = map_batch(lambda x: x * 2, b)
        assert out.items == [2, 4, 6]
        assert (out.base_seq, out.gbase, out.bseq) == (7, 42, 3)
        assert len(out) == 3

    def test_normalize_batching_forms(self):
        assert normalize_batching(None) is None
        assert normalize_batching(False) is None
        cfg = BatchingConfig(max_items=8)
        assert normalize_batching(cfg) is cfg
        assert normalize_batching(16).max_items == 16
        auto = normalize_batching(True)
        assert 4 <= auto.max_items <= 64
        assert normalize_batching("auto").max_items == auto.max_items
        d = normalize_batching({"max_items": 4, "linger_s": 0.5})
        assert (d.max_items, d.linger_s) == (4, 0.5)
        assert 4 <= normalize_batching({"linger_s": 0.1}).max_items <= 64
        with pytest.raises(TypeError):
            normalize_batching(3.5)
        with pytest.raises(ValueError):
            BatchingConfig(max_items=0)

    def test_approx_nbytes(self):
        assert approx_nbytes(b"x" * 100) == 100
        assert approx_nbytes(bytearray(50)) == 50
        assert approx_nbytes(object()) > 0

    def test_auto_sizing_respects_stage_work_hints(self):
        from repro.util.batching import calibrated_batch_items

        # Sub-microsecond stages: hop cost dominates, full count bound.
        fast = calibrated_batch_items(work_hint_s=1e-6)
        assert 4 <= fast <= 64
        assert fast == calibrated_batch_items()
        # Millisecond stages: a batch's service would hold the first
        # result past the linger budget — auto degenerates to per-item.
        assert calibrated_batch_items(work_hint_s=0.002) == 1
        # In between: clamped so max_items x work stays within a linger.
        assert calibrated_batch_items(work_hint_s=0.0005) == min(fast, 4)
        assert normalize_batching("auto", work_hint_s=0.002).max_items == 1

    def test_auto_calibration_times_the_hand_off_the_fabric_makes(self, monkeypatch):
        from repro.util import batching, handoff

        calls = {"put": 0, "get": 0}

        class Counted(handoff.Handoff):
            def put(self, item, abort=None):
                calls["put"] += 1
                return super().put(item, abort)

            def get(self):
                calls["get"] += 1
                return super().get()

        monkeypatch.setattr(batching, "Handoff", Counted)
        sized = batching.calibrated_batch_items(repeats=3, _cache=False)
        assert calls == {"put": 3 * 128, "get": 3 * 128}
        # A hop of ~1 us puts 2 ms / hop far above the clamp, as the
        # ``queue.Queue`` probe's ~3 us did: the calibrated size did not move.
        assert sized == 64

    def test_auto_session_sees_declared_work(self):
        pipe = PipelineSpec(
            (
                StageSpec(name="a", work=0.001, fn=_inc),
                StageSpec(name="b", work=0.002, fn=_inc),
            )
        )
        with ThreadBackend(pipe) as b:
            session = b.open(batching="auto")
            try:
                # 3ms of declared per-item service: batching can only add
                # latency, so the calibrated count bound collapses to 1.
                assert session._bcfg.max_items == 1
            finally:
                session.close()

    def test_push_range_in_order_releases_run(self):
        r = SequenceReorderer()
        assert list(r.push_range(0, ["a", "b", "c"])) == [
            (0, "a"), (1, "b"), (2, "c")
        ]
        assert list(r.push_range(3, ["d"])) == [(3, "d")]

    def test_push_range_buffers_out_of_order(self):
        r = SequenceReorderer()
        assert list(r.push_range(2, ["c", "d"])) == []
        assert list(r.push_range(0, ["a", "b"])) == [
            (0, "a"), (1, "b"), (2, "c"), (3, "d")
        ]

    def test_push_range_rejects_stale_and_duplicate_untouched(self):
        r = SequenceReorderer()
        assert list(r.push_range(0, ["a"])) == [(0, "a")]
        with pytest.raises(ValueError):
            r.push_range(0, ["again"])
        assert list(r.push_range(3, ["d"])) == []
        with pytest.raises(ValueError):
            r.push_range(2, ["c", "dup"])  # 3 already pending
        # The bad range left the reorderer untouched: the gap still fills.
        assert list(r.push_range(1, ["b", "c"])) == [
            (1, "b"), (2, "c"), (3, "d")
        ]


# ------------------------------------------------------------ ordering layer
class TestBatchedStreams:
    def test_ordering_across_batch_boundaries_threads(self):
        # 61 items / batches of 4: a partial tail batch is cut at drain,
        # and jittered services finish batches out of order on purpose.
        with ThreadBackend(spec([_jitter_square]), max_replicas=4) as b:
            session = b.open(batching=4)
            for i in range(61):
                session.submit(i)
            assert session.drain() == [x * x for x in range(61)]

    def test_ordering_across_batch_boundaries_processes(self):
        with ProcessPoolBackend(spec([_inc, _jitter_square])) as b:
            session = b.open(batching=4)
            for i in range(45):
                session.submit(i)
            assert session.drain() == [(x + 1) * (x + 1) for x in range(45)]

    def test_results_stream_while_submitting(self):
        session = open_pipeline([_inc], batching=8)
        try:
            got = []
            consumer = threading.Thread(
                target=lambda: got.extend(session.results()), daemon=True
            )
            consumer.start()
            for i in range(50):
                session.submit(i)
            leftovers = session.drain()
            consumer.join(timeout=5.0)
            assert got + leftovers == [x + 1 for x in range(50)]
        finally:
            session.close()

    def test_back_to_back_streams_on_one_batched_session(self):
        with ThreadBackend(spec([_inc])) as b:
            session = b.open(batching=8)
            for _ in range(3):
                for i in range(20):
                    session.submit(i)
                assert session.drain() == [x + 1 for x in range(20)]

    def test_window_smaller_than_batch_cannot_deadlock(self):
        # With max_inflight < max_items the only admitted items sit in the
        # assembly buffer; the window-full guard must cut the partial batch
        # or admission would never reopen.
        with ThreadBackend(spec([_inc])) as b:
            session = b.open(max_inflight=4, batching=32)
            for i in range(20):
                session.submit(i)
            assert session.drain() == [x + 1 for x in range(20)]

    def test_batched_matches_unbatched_outputs(self):
        inputs = list(range(40))
        want = [x * x for x in inputs]
        for batching in (None, 8, "auto"):
            with ThreadBackend(spec([_jitter_square])) as b:
                session = b.open(batching=batching)
                for x in inputs:
                    session.submit(x)
                assert session.drain() == want, f"batching={batching!r}"

    def test_sim_session_ignores_batching(self):
        session = open_pipeline([_inc], backend="sim", batching=8)
        try:
            for i in range(10):
                session.submit(i)
            assert session.drain() == [x + 1 for x in range(10)]
        finally:
            session.close()


# -------------------------------------------------------------- ticket layer
class TestTicketCompletion:
    def test_ticket_done_and_wait(self):
        with ThreadBackend(spec([_slow_square])) as b:
            session = b.open(batching=4)
            tickets = [session.submit(i) for i in range(8)]
            assert tickets[0].wait(timeout=5.0)
            assert tickets[0].done()
            session.drain()
            assert all(t.done() for t in tickets)
            assert all(t.wait(timeout=0.1) for t in tickets)
            # Tickets from a drained stream stay done on the next stream.
            session.submit(0)
            assert tickets[-1].done()
            session.drain()

    def test_linger_flushes_partial_batch_under_trickle(self):
        # Lone items against a 64-item bound, each after an idle gap: only
        # the linger deadline can flush them, and each resolves within it
        # plus a little slack — the first item of an empty buffer wakes the
        # idle flusher, which then waits out exactly that item's deadline.
        # A host stall may make one or two items late; a flusher that misses
        # the ring makes every item late, so 8 of 10 on time still fails it.
        linger, slack = 0.005, 0.01
        with ThreadBackend(spec([_inc])) as b:
            session = b.open(batching={"max_items": 64, "linger_s": linger})
            took = []
            for x in range(10):
                time.sleep(0.02 + 0.003 * x)  # idle, and in no phase with any clock
                t0 = time.perf_counter()
                assert session.submit(x).wait(timeout=5.0)
                took.append(time.perf_counter() - t0)
            on_time = sum(t < linger + slack for t in took)
            assert on_time >= 8, [f"{t * 1e3:.1f} ms" for t in took]
            assert session.drain() == [x + 1 for x in range(10)]

    def test_wait_timeout_returns_false(self):
        with ThreadBackend(spec([_inc])) as b:
            session = b.open(batching={"max_items": 64, "linger_s": 5.0})
            ticket = session.submit(1)
            # Buffered behind a long linger: a short wait must time out.
            assert not ticket.wait(timeout=0.05)
            assert not ticket.done()
            assert session.drain() == [2]
            assert ticket.done()


# ----------------------------------------------------------- adaptive layer
class TestBatchedReconfigure:
    def test_mid_stream_reconfigure_with_batches_in_flight(self):
        with ThreadBackend(spec([_jitter_square]), max_replicas=4) as b:
            session = b.open(batching=4)
            for i in range(15):
                session.submit(i)
            b.reconfigure(0, 4)  # grow the pool with batches in flight
            for i in range(15, 40):
                session.submit(i)
            assert session.drain() == [x * x for x in range(40)]
            assert b.replica_counts() == [4]
            # The adapted shape serves the next batched stream warm.
            for i in range(10):
                session.submit(i)
            assert session.drain() == [x * x for x in range(10)]


# -------------------------------------------------------- distributed layer
class TestBatchedDistributed:
    def test_killed_worker_with_batch_in_flight_exactly_once(self):
        pipe = PipelineSpec(
            (StageSpec(name="square", work=0.01, fn=_slow_square,
                       replicable=True),)
        )
        n = 80
        b = DistributedBackend(
            pipe, spawn_workers=3, replicas=[3], max_replicas=3
        )
        try:
            session = b.open(batching=8)
            for i in range(n // 2):
                session.submit(i)
            # Kill one worker while whole batch frames are outstanding on
            # it: the coordinator re-dispatches each lost frame once, so
            # every member item is delivered exactly once.
            b.worker_processes[0].kill()
            for i in range(n // 2, n):
                session.submit(i)
            assert session.drain() == [x * x for x in range(n)]
            assert len(b.alive_workers()) == 2
            # The survivor pool keeps serving the next batched stream.
            for i in range(10):
                session.submit(i)
            assert session.drain() == [x * x for x in range(10)]
        finally:
            b.close()


# -------------------------------------------------------------- event layer
class TestBatchEvents:
    def test_journal_carries_batch_lifecycle(self, tmp_path):
        from repro.obs import read_journal

        path = tmp_path / "batched.jsonl"
        session = open_pipeline([_inc], batching=8, telemetry=path)
        try:
            for i in range(32):
                session.submit(i)
            assert session.drain() == [x + 1 for x in range(32)]
        finally:
            session.close()
        recs = list(read_journal(path))
        asm = [r for r in recs if r["kind"] == "batch.assemble"]
        split = [r for r in recs if r["kind"] == "batch.split"]
        done = [r for r in recs if r["kind"] == "item.complete"]
        assert asm and split
        assert sum(r["items"] for r in asm) == 32
        assert sum(r["items"] for r in split) == 32
        # The per-item timeline is preserved: one completion per item, in
        # delivery order, with real item seqs (not batch seqs).
        assert [r["seq"] for r in done] == list(range(32))
