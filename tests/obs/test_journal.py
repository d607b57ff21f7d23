"""Tests for the JSONL journal and its reader."""

import json
import os
import threading
import time
import warnings

import pytest

from repro.obs.events import Event, EventBus
from repro.obs.journal import JsonlJournal, read_journal, to_event


class TestJsonlJournal:
    def test_writes_one_line_per_event(self, tmp_path):
        path = tmp_path / "j.jsonl"
        j = JsonlJournal(path)
        j(Event(1.0, "stream.begin", fields={"stream": 1}))
        j(Event(2.0, "item.submit", "hello", {"stream": 1, "seq": 0}))
        j.close()
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        rec = json.loads(lines[1])
        assert rec["t"] == 2.0
        assert rec["kind"] == "item.submit"
        assert rec["msg"] == "hello"
        assert rec["seq"] == 0
        assert "wall" in rec

    def test_reserved_field_names_are_prefixed(self, tmp_path):
        path = tmp_path / "j.jsonl"
        j = JsonlJournal(path)
        j(Event(0.0, "stage.service", fields={"t": 9, "kind": "x", "stage": 1}))
        j.close()
        rec = json.loads(path.read_text())
        assert rec["f_t"] == 9
        assert rec["f_kind"] == "x"
        assert rec["stage"] == 1
        assert rec["kind"] == "stage.service"

    def test_non_json_values_repr(self, tmp_path):
        path = tmp_path / "j.jsonl"
        j = JsonlJournal(path)
        j(Event(0.0, "session.error", fields={"error": ValueError("boom")}))
        j.close()
        rec = json.loads(path.read_text())
        assert "boom" in rec["error"]

    def test_rotation_bounded(self, tmp_path):
        path = tmp_path / "j.jsonl"
        j = JsonlJournal(path, rotate_bytes=200, max_files=2)
        for i in range(100):
            j(Event(float(i), "item.submit", fields={"stream": 1, "seq": i}))
        j.close()
        siblings = sorted(p.name for p in tmp_path.iterdir())
        assert siblings == ["j.jsonl", "j.jsonl.1"]
        assert path.stat().st_size <= 200

    def test_read_journal_spans_rotated_files_oldest_first(self, tmp_path):
        path = tmp_path / "j.jsonl"
        j = JsonlJournal(path, rotate_bytes=150, max_files=3)
        for i in range(12):
            j(Event(float(i), "item.submit", fields={"seq": i}))
        j.close()
        seqs = [r["seq"] for r in read_journal(path)]
        assert seqs == sorted(seqs)
        assert seqs[-1] == 11

    def test_concurrent_emit_during_rotation(self, tmp_path):
        # Many threads force rotations mid-write: every surviving line must
        # be intact JSON (no interleaved or torn lines), the sibling count
        # must stay bounded, and the newest records must survive.
        path = tmp_path / "j.jsonl"
        j = JsonlJournal(path, rotate_bytes=500, max_files=3)
        n_threads, per_thread = 8, 50

        def emitter(tid):
            for i in range(per_thread):
                j(Event(float(i), "item.submit",
                        fields={"stream": tid, "seq": i}))

        threads = [
            threading.Thread(target=emitter, args=(t,)) for t in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        j.close()
        siblings = [p for p in tmp_path.iterdir() if p.name.startswith("j.jsonl")]
        assert len(siblings) <= 3
        recs = list(read_journal(path))  # json.loads on a torn line raises
        assert recs, "rotation lost everything"
        assert all(r["kind"] == "item.submit" for r in recs)
        # Per-stream order is preserved (rotation drops whole oldest files,
        # never middles), and the globally-last write survives.
        by_stream: dict[int, list[int]] = {}
        for r in recs:
            by_stream.setdefault(r["stream"], []).append(r["seq"])
        for seqs in by_stream.values():
            assert seqs == sorted(seqs)
        assert recs[-1]["seq"] == per_thread - 1

    def test_concurrent_emit_no_rotation_loses_nothing(self, tmp_path):
        path = tmp_path / "j.jsonl"
        j = JsonlJournal(path)  # default 32MiB: no rotation
        def emitter(tid):
            for i in range(100):
                j(Event(float(i), "item.submit", fields={"stream": tid, "seq": i}))
        threads = [threading.Thread(target=emitter, args=(t,)) for t in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        j.close()
        assert len(list(read_journal(path))) == 600

    def test_close_idempotent_and_write_after_close_noop(self, tmp_path):
        path = tmp_path / "j.jsonl"
        j = JsonlJournal(path)
        j.close()
        j.close()
        j(Event(0.0, "stream.begin"))  # silently dropped
        assert path.read_text() == ""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_a_failed_write_stops_the_writer_warns_once_and_refuses_records(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            j = JsonlJournal("/dev/full")
            for i in range(20_000):
                j(Event(float(i), "item.submit", fields={"seq": i}))
            deadline = time.monotonic() + 5.0
            while not j.closed and time.monotonic() < deadline:
                time.sleep(0.01)
            assert j.closed, "the writer never noticed the failed write"
            queued = j._outbox._queue.qsize()
            for i in range(1_000):
                j(Event(float(i), "item.submit", fields={"seq": i}))
            assert j._outbox._queue.qsize() == queued  # refused, not queued
            t0 = time.monotonic()
            j.close()
            assert time.monotonic() - t0 < 1.0
            assert not j._outbox.thread.is_alive()
        warned = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert len(warned) == 1 and "/dev/full" in str(warned[0].message)

    def test_a_record_that_fails_to_serialise_stops_the_writer_like_a_failed_write(
        self, tmp_path
    ):
        class Unprintable:
            def __repr__(self):
                raise RuntimeError("no repr")

        path = tmp_path / "j.jsonl"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            j = JsonlJournal(path)
            j(Event(0.0, "item.submit", fields={"payload": Unprintable()}))
            deadline = time.monotonic() + 5.0
            while not j.closed and time.monotonic() < deadline:
                time.sleep(0.01)
            assert j.closed, "the writer died without closing the journal"
            queued = j._outbox._queue.qsize()
            for i in range(1_000):
                j(Event(float(i), "item.submit", fields={"seq": i}))
            assert j._outbox._queue.qsize() == queued  # refused, not queued
            t0 = time.monotonic()
            j.close()
            assert time.monotonic() - t0 < 1.0
            assert not j._outbox.thread.is_alive()
        warned = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert len(warned) == 1 and str(path) in str(warned[0].message)
        assert "no repr" in str(warned[0].message)

    def test_as_bus_subscriber(self, tmp_path):
        path = tmp_path / "j.jsonl"
        bus = EventBus(clock=lambda: 1.0)
        j = JsonlJournal(path)
        bus.subscribe(j, kinds=("adapt.decide",))
        bus.emit("item.submit", stream=1, seq=0)
        bus.emit("adapt.decide", "why", reason="why")
        j.close()
        recs = list(read_journal(path))
        assert [r["kind"] for r in recs] == ["adapt.decide"]
        assert recs[0]["reason"] == "why"


class TestToEvent:
    def test_inverts_the_record(self, tmp_path):
        path = tmp_path / "j.jsonl"
        j = JsonlJournal(path)
        sent = [
            Event(1.5, "item.submit", "hi", {"stream": 1, "seq": 0, "gseq": 7}),
            Event(2.0, "stage.service", fields={"t": 9, "wall": 3, "f_x": 1, "stage": 0}),
        ]
        for ev in sent:
            j(ev)
        j.close()
        assert [to_event(r) for r in read_journal(path)] == sent
