"""Micro-batched hot path acceptance tests (ISSUE 10).

The load-bearing claims: coalescing admitted items into batch frames is
*transparent* — per-item submit/results/Ticket semantics, stream ordering,
mid-stream reconfiguration and exactly-once re-dispatch are unchanged —
while the linger deadline bounds the latency a partial batch can add under
trickle arrivals.

Distributed/process stage functions live at module level: they are pickled
by reference and resolved inside forked worker processes.
"""

import sys
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
from repro.util import batching
from repro.util.batching import (
    Batch,
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
        assert normalize_batching(16) == 16
        assert normalize_batching(True) == normalize_batching("auto") == 64
        for bad in ({"max_items": 4}, 0, -3, 3.5, "fast"):
            with pytest.raises(ValueError, match=r"None or False .* 'auto' .* positive int"):
                normalize_batching(bad)

    @pytest.mark.parametrize("backend", ["threads", "processes"])
    def test_open_rejects_what_is_not_a_batch_size(self, backend):
        # A bad value fails before any executor machinery starts.
        for bad in ({"max_items": 4}, 0, -1):
            with pytest.raises(ValueError, match="positive int"):
                open_pipeline([_inc], backend=backend, batching=bad)

    def test_approx_nbytes(self):
        assert approx_nbytes(b"x" * 100) == 100
        assert approx_nbytes(bytearray(50)) == 50
        assert approx_nbytes(object()) > 0

    def test_auto_sizing_respects_stage_work_hints(self):
        # No declared work, or sub-microsecond stages: the full 64.
        # Millisecond stages: a batch's service would hold the first result
        # past the linger — auto degenerates to per-item.  In between: as
        # many items as one linger's worth of declared service.
        sizes = {w: normalize_batching("auto", work_hint_s=w) for w in (0, 1e-6, 5e-4, 2e-3)}
        assert sizes == {0: 64, 1e-6: 64, 5e-4: 4, 2e-3: 1}

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
                assert session._batch_items == 1
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

    @pytest.mark.parametrize("backend", ["threads", "processes"])
    def test_a_full_window_submits_its_partial_batch(self, monkeypatch, backend):
        # With max_inflight < batch size the only admitted items sit in the
        # assembly buffer; the submitter that finds the window full must cut
        # and submit them, or admission reopens only at the linger, which
        # is pushed out of reach here.
        monkeypatch.setattr(batching, "LINGER_S", 5.0)
        with open_pipeline([_inc], backend=backend, max_inflight=4, batching=32) as session:
            t0 = time.perf_counter()
            for i in range(20):
                session.submit(i)
            assert session.drain() == [x + 1 for x in range(20)]
            assert time.perf_counter() - t0 < 1.0

    def test_concurrent_submitters_race_their_window_cuts(self):
        # Four producers share a window of 3 and batches of 8, with a short
        # switch interval: submitters that find the window full cut and
        # submit the buffer while others admit, and the flusher cuts at
        # the linger.  Each item still comes out once, at its ticket's seq.
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadBackend(spec([_inc]), replicas=[2], max_replicas=2) as b:
                session = b.open(max_inflight=3, batching=8)
                tickets = {}

                def produce(k):
                    for x in range(100 * k, 100 * (k + 1)):
                        tickets[x] = session.submit(x)

                producers = [threading.Thread(target=produce, args=(k,)) for k in range(4)]
                for t in producers:
                    t.start()
                for t in producers:
                    t.join(timeout=20.0)
                assert not any(t.is_alive() for t in producers)
                out = session.drain()
                assert sorted(t.seq for t in tickets.values()) == list(range(400))
                assert all(out[t.seq] == x + 1 for x, t in tickets.items())
        finally:
            sys.setswitchinterval(old)

    def test_batched_matches_unbatched_outputs(self):
        inputs = list(range(40))
        want = [x * x for x in inputs]
        for batching in (None, 8, "auto"):
            with ThreadBackend(spec([_jitter_square])) as b:
                session = b.open(batching=batching)
                for x in inputs:
                    session.submit(x)
                assert session.drain() == want, f"batching={batching!r}"


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
        linger, slack = batching.LINGER_S, 0.01
        with ThreadBackend(spec([_inc])) as b:
            session = b.open(batching=64)
            took = []
            for x in range(10):
                time.sleep(0.02 + 0.003 * x)  # idle, and in no phase with any clock
                t0 = time.perf_counter()
                assert session.submit(x).wait(timeout=5.0)
                took.append(time.perf_counter() - t0)
            on_time = sum(t < linger + slack for t in took)
            assert on_time >= 8, [f"{t * 1e3:.1f} ms" for t in took]
            assert session.drain() == [x + 1 for x in range(10)]

    def test_wait_timeout_returns_false(self, monkeypatch):
        monkeypatch.setattr(batching, "LINGER_S", 5.0)
        with ThreadBackend(spec([_inc])) as b:
            session = b.open(batching=64)
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


# ----------------------------------------------------------- delivery layer
class TestBatchedDelivery:
    def test_a_burst_of_ready_batches_is_delivered_in_one_round(self):
        # Batch 0 is held at its first item while batch 1 finishes on the
        # other replica and waits in the egress reorderer; releasing batch 0
        # frees both in one collector burst, which is one delivery run.
        gate, recorded = threading.Event(), threading.Event()

        def held(x):
            if x == 0:
                gate.wait(5.0)
            return x + 1

        with ThreadBackend(spec([held]), replicas=[2], max_replicas=2) as b:
            session = b.open(batching=4)
            runs, completed = [], []
            complete, record = session._complete_run, session._record_trails

            def complete_spy(batches):
                runs.append(sum(len(batch.items) for batch in batches))
                complete(batches)

            def record_spy(burst, speed=None):
                record(burst, speed)
                recorded.set()

            session._complete_run, session._record_trails = complete_spy, record_spy
            session.events.subscribe(lambda ev: completed.append(ev.fields["seq"]),
                                     kinds=("item.complete",))
            for i in range(8):
                session.submit(i)
            assert recorded.wait(5.0)  # batch 1 reached the collector first
            gate.set()
            assert session.drain() == [x + 1 for x in range(8)]
            assert runs == [8]
            assert completed == list(range(8))


# -------------------------------------------------------------- event layer
class TestBatchEvents:
    @pytest.mark.parametrize("backend", ["threads", "processes"])
    def test_journal_carries_batch_lifecycle(self, tmp_path, backend):
        from repro.obs import read_journal

        path = tmp_path / "batched.jsonl"
        session = open_pipeline([_inc], backend=backend, batching=8, telemetry=path)
        try:
            for i in range(32):
                session.submit(i)
            assert session.drain() == [x + 1 for x in range(32)]
        finally:
            session.close()
        recs = list(read_journal(path))
        kinds = {r["kind"] for r in recs}
        asm = [r for r in recs if r["kind"] == "batch.assemble"]
        done = [r for r in recs if r["kind"] == "item.complete"]
        # Each cut names its members in item space: gseqs seq..seq+items-1.
        members = sorted(g for r in asm for g in range(r["seq"], r["seq"] + r["items"]))
        assert members == list(range(32))
        # A cut is the one batch record: delivery and encoding are told by
        # item.complete and frame.encode, which already carry the items.
        assert not kinds & {"batch.split", "batch.encode"}
        # The per-item timeline is preserved: one completion per item, in
        # delivery order, with real item seqs (not batch seqs).
        assert [r["seq"] for r in done] == list(range(32))

    @pytest.mark.parametrize("heard", [False, True], ids=["unheard", "heard"])
    def test_a_cut_builds_its_record_only_when_heard(self, heard):
        # A cut asks the bus first: with nobody listening for batch.assemble
        # it builds no record at all, not one the bus then drops.
        session = open_pipeline([_inc], backend="threads", batching=8)
        built, heard_asm = [], []
        with session:
            emit = session.events.emit
            session.events.emit = lambda kind, *a, **f: (built.append(kind), emit(kind, *a, **f))
            session.events.subscribe(lambda ev: None, kinds=["item.complete"])
            if heard:
                session.events.subscribe(heard_asm.append, kinds=["batch.assemble"])
            for i in range(32):
                session.submit(i)
            assert session.drain() == [x + 1 for x in range(32)]
        assert "item.complete" in built
        assert built.count("batch.assemble") == len(heard_asm)
        assert sum(ev.fields["items"] for ev in heard_asm) == (32 if heard else 0)
