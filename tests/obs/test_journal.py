"""Tests for the JSONL journal and its reader."""

import json
import threading
import time

from repro.obs.events import Event, EventBus
from repro.obs.journal import JsonlJournal, read_journal, to_event


class _SpyCondition:
    """A ``Condition`` that records the arguments of every ``wait`` made by
    a thread other than the journal's writer."""

    def __init__(self, inner):
        self.inner, self.waits = inner, []

    def __enter__(self):
        return self.inner.__enter__()

    def __exit__(self, *exc):
        return self.inner.__exit__(*exc)

    def wait(self, *args, **kwargs):
        if threading.current_thread().name != "jsonl-journal":
            self.waits.append((args, kwargs))
        return self.inner.wait(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self.inner, name)


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

    def test_flush_puts_every_record_on_disk_while_open(self, tmp_path):
        path = tmp_path / "j.jsonl"
        j = JsonlJournal(path)
        for i in range(50):
            j(Event(float(i), "item.submit", fields={"seq": i}))
        j.flush()
        assert not j.closed
        assert [r["seq"] for r in read_journal(path)] == list(range(50))
        j.close()
        assert j.closed
        j.flush()  # nothing left to wait for: returns at once

    def test_a_parked_flush_wakes_on_the_writer_and_never_polls(self, tmp_path):
        j = JsonlJournal(tmp_path / "j.jsonl")
        j._cv = spy = _SpyCondition(j._cv)
        flushed = threading.Event()
        with j._io:  # the writer takes the batch, then stalls on the file
            j(Event(0.0, "item.submit", fields={"seq": 0}))
            flusher = threading.Thread(target=lambda: (j.flush(), flushed.set()), daemon=True)
            flusher.start()
            deadline = time.perf_counter() + 2.0
            while not spy.waits and time.perf_counter() < deadline:
                time.sleep(0.005)
            assert spy.waits, "flush never parked"
            time.sleep(0.3)  # no clock wakes a parked flush
            assert not flushed.is_set() and spy.waits == [((), {})]
        assert flushed.wait(2.0), "the writer's drain never woke the flush"
        assert [r["seq"] for r in read_journal(j.path)] == [0]
        assert not [call for call in spy.waits if call != ((), {})]  # untimed, every one
        j.close()

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
