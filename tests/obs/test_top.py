"""Tests for the live top view (state fold + --once rendering)."""

import json
import re

import pytest

from repro.obs import Telemetry, read_journal
from repro.obs.top import TopState, _tail, main, render
from repro.skel.api import open_pipeline


def _feed(state, *recs):
    for rec in recs:
        state.feed(rec)


class TestTopState:
    def test_folds_lifecycle(self):
        s = TopState()
        _feed(
            s,
            {"kind": "session.open", "t": 0.0, "backend": "threads",
             "stages": ["a", "b"]},
            {"kind": "stream.begin", "t": 0.1, "stream": 1},
            {"kind": "item.submit", "t": 0.1},
            {"kind": "stage.service", "t": 0.2, "stage": 0, "seconds": 0.05,
             "queue": 3, "wall": 100.0},
            {"kind": "item.complete", "t": 0.3},
            {"kind": "replica.add", "t": 0.4, "stage": 0, "n": 2},
            {"kind": "adapt.decide", "t": 0.5, "reason": "bottleneck stage 0"},
        )
        assert s.backend == "threads"
        assert s.stage_names == ["a", "b"]
        assert s.total("items_submitted_total") == 1
        assert s.total("items_completed_total") == 1
        assert s.total("streams_opened_total") == 1
        assert s.stages()[0] == {"items": 1, "service": 0.05, "queue": 3, "replicas": 2}
        assert list(s.decisions)[0][1] == "adapt.decide"

    def test_numbers_come_from_the_recorder_registry(self):
        # A batched record counts its items, and the service mean is per
        # item: the fold is the recorder's, so top reads what Prometheus does.
        s = TopState()
        _feed(
            s,
            {"kind": "stage.service", "t": 0.1, "stage": 1, "seconds": 0.4,
             "items": 4, "wall": 100.0},
            {"kind": "stage.service", "t": 0.2, "stage": 1, "seconds": 0.1,
             "wall": 100.0},
        )
        assert s.registry.counter("stage_items_total", {"stage": "1"}).value == 5
        assert s.stages()[1]["items"] == 5
        assert s.stages()[1]["service"] == pytest.approx(0.1)
        assert s.stages()[1]["replicas"] == 1  # no replica record: one
        # The journal starts at 100.0: a whole window later, it spans the window.
        assert s.rate(1, now=100.0 + s.window) == 5 / s.window

    def test_a_replica_record_alone_shows_its_stage(self):
        s = TopState()
        s.feed({"kind": "replica.add", "t": 0.0, "stage": 2, "n": 3})
        assert s.stages() == {2: {"items": 0, "service": 0.0, "queue": 0.0, "replicas": 3}}
        assert s.rate(2, now=0.0) == 0.0

    def test_rate_over_window(self):
        s = TopState(window=10.0)
        for wall in (99.0, 101.0, 109.0):
            s.feed({"kind": "stage.service", "t": 0.0, "stage": 0,
                    "seconds": 0.01, "wall": wall})
        assert s.rate(0, now=110.0) == 2 / 10.0  # 99.0 aged out

    def test_a_journal_shorter_than_the_window_is_divided_by_its_span(self):
        # 200 items over a 0.2 s session: read 5 s of window, it is 40/s;
        # read over the span the journal covers, 1,000/s.
        s = TopState(window=5.0)
        s.feed({"kind": "session.open", "t": 0.0, "wall": 100.0, "stages": ["a"]})
        for k in range(200):
            s.feed({"kind": "stage.service", "t": 0.0, "stage": 0, "seconds": 0.001,
                    "wall": 100.0 + (k + 1) * 0.001})
        assert s.rate(0, now=100.2) == pytest.approx(200 / 0.2)  # live: up to now
        s.feed({"kind": "session.close", "t": 0.2, "wall": 100.2})
        # Closed: the window ends at the close, however late it is read.
        assert s.rate(0, now=160.0) == pytest.approx(200 / 0.2)
        assert s.rate(0, now=100.0) == 0.0  # nothing is covered before the journal

    def test_worker_membership(self):
        s = TopState()
        _feed(
            s,
            {"kind": "worker.join", "t": 0.0, "worker": 0},
            {"kind": "worker.join", "t": 0.0, "worker": 1},
            {"kind": "worker.death", "t": 1.0, "worker": 0},
        )
        assert s.workers_alive() == 1

    def test_folds_trace_records(self):
        s = TopState()
        _feed(
            s,
            {"kind": "item.submit", "t": 0.0, "wait": 0.1},
            {"kind": "stage.service", "t": 0.5, "seq": 0, "stage": 0,
             "wire_out": 0.01, "worker_queue": 0.02, "seconds": 0.3,
             "encode": 0.001, "wire_back": 0.01},
            {"kind": "stage.service", "t": 0.6, "seq": 1, "stage": 0,
             "wire_out": 0.01, "worker_queue": 0.02, "seconds": 0.3,
             "encode": 0.001, "wire_back": 0.01},
            {"kind": "clock.sync", "t": 0.7, "worker": 1, "offset": 2e-4,
             "err": 5e-5, "drift": 0.0, "n": 4},
        )
        hops, sums = s.phases()
        assert hops == 2
        assert sums["service"] == pytest.approx(0.6)
        assert s.total("admit_wait_seconds") == 0.1
        assert s.clocks() == {1: (2e-4, 5e-5)}

    def test_a_batched_hop_weighs_as_its_items(self):
        s = TopState()
        s.feed({"kind": "stage.service", "t": 0.5, "seq": 0, "stage": 0, "items": 4,
                "wire_out": 0.04, "worker_queue": 0.0, "seconds": 0.4,
                "encode": 0.0, "wire_back": 0.0, "nbytes": 64})
        hops, sums = s.phases()
        assert hops == 4 and sums["service"] == pytest.approx(0.4)


class TestRender:
    def test_render_empty(self):
        text = render(TopState(), now=0.0)
        assert "no stage activity" in text
        assert "(none)" in text

    def test_render_with_stages_and_decisions(self):
        s = TopState()
        _feed(
            s,
            {"kind": "session.open", "t": 0.0, "backend": "threads",
             "stages": ["work"]},
            {"kind": "stage.service", "t": 0.2, "stage": 0, "seconds": 0.05,
             "wall": 100.0},
            {"kind": "adapt.act", "t": 0.5, "reason": "replicate stage 0"},
        )
        text = render(s, now=100.0)
        assert "backend=threads" in text
        assert "work" in text
        assert "adapt.act" in text
        assert "replicate stage 0" in text

    def test_breakdown_pane_only_with_phase_data(self):
        s = TopState()
        assert "latency breakdown" not in render(s, now=0.0)
        _feed(
            s,
            {"kind": "stage.service", "t": 0.5, "seq": 0, "stage": 0,
             "wire_out": 0.01, "worker_queue": 0.02, "seconds": 0.3,
             "encode": 0.001, "wire_back": 0.01},
            {"kind": "clock.sync", "t": 0.7, "worker": 0, "offset": 1e-4,
             "err": 5e-5, "drift": 0.0, "n": 3},
        )
        text = render(s, now=1.0)
        assert "latency breakdown (1 hops" in text
        assert "service=300.00ms" in text
        assert "worker clocks" in text


class TestTailRotation:
    def _write(self, path, recs, mode="a"):
        with open(path, mode, encoding="utf-8") as fh:
            for rec in recs:
                fh.write(json.dumps(rec) + "\n")

    def test_tail_restarts_after_rotation(self, tmp_path):
        # The journal rotates under the tailer: the active file shrinks.
        # _tail must notice (size < pos) and restart from offset 0 instead
        # of silently waiting for the file to regrow past the stale offset.
        path = tmp_path / "j.jsonl"
        s = TopState()
        self._write(path, [{"kind": "item.submit", "t": float(i)}
                           for i in range(10)])
        pos = _tail(path, s, 0)
        assert s.total("items_submitted_total") == 10
        assert pos == path.stat().st_size
        # Rotate: current file moves aside, a smaller fresh one appears.
        path.rename(tmp_path / "j.jsonl.1")
        self._write(path, [{"kind": "item.complete", "t": 11.0}], mode="w")
        pos = _tail(path, s, pos)
        assert s.total("items_completed_total") == 1  # the post-rotation record was seen
        assert pos == path.stat().st_size

    def test_tail_skips_partial_trailing_line(self, tmp_path):
        path = tmp_path / "j.jsonl"
        s = TopState()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"kind": "item.submit", "t": 0.0}) + "\n")
            fh.write('{"kind": "item.subm')  # torn mid-write
        pos = _tail(path, s, 0)
        assert s.total("items_submitted_total") == 1
        # Offset stops before the partial line so the next round rereads it.
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('it", "t": 1.0}\n')
        pos = _tail(path, s, pos)
        assert s.total("items_submitted_total") == 2
        assert pos == path.stat().st_size


class TestMainOnce:
    def test_once_renders_real_journal(self, tmp_path, capsys):
        path = tmp_path / "j.jsonl"
        session = open_pipeline([lambda x: x + 1], telemetry=path)
        for i in range(5):
            session.submit(i)
        session.drain()
        session.close()
        assert main([str(path), "--once"]) == 0
        out = capsys.readouterr().out
        assert "backend=threads" in out
        assert "items 5/5" in out


class TestOneFold:
    def test_top_reads_what_the_prometheus_snapshot_says(self, tmp_path):
        # One session, journal + Prometheus, micro-batched: top's per-stage
        # items and service mean, folded from the journal, equal the
        # snapshot's stage families, folded live from the bus.
        path, prom, n = tmp_path / "j.jsonl", tmp_path / "m.prom", 320
        telemetry = Telemetry(journal=path, prometheus=prom)
        with open_pipeline([abs, abs], batching=16, telemetry=telemetry) as session:
            for x in range(n):
                session.submit(x)
            assert session.drain() == list(range(n))
        text = prom.read_text()

        def family(name):
            return {
                int(stage): float(v)
                for stage, v in re.findall(rf'^repro_{name}\{{stage="(\d+)"\}} (\S+)$', text, re.M)
            }

        items = family("stage_items_total")
        sums, counts = family("stage_service_seconds_sum"), family("stage_service_seconds_count")
        assert items == {0: n, 1: n} and counts == items
        state = TopState()
        for rec in read_journal(path):
            state.feed(rec)
        rows = state.stages()
        assert {s: row["items"] for s, row in rows.items()} == items
        for s, row in rows.items():
            assert row["service"] == pytest.approx(sums[s] / counts[s], rel=1e-5, abs=1e-9)
