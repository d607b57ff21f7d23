"""End-to-end telemetry: open_pipeline(..., telemetry=...) across executors."""

import inspect

import pytest

from repro.obs import (
    JsonlJournal,
    MetricsRegistry,
    Telemetry,
    as_telemetry,
    read_journal,
)
from repro.obs.exporters import render_prometheus
from repro.obs.journal import to_event
from repro.obs.profile import ProfileReport, join_records, profile_journal
from repro.skel.api import open_pipeline


def _run(session, n=6):
    for i in range(n):
        session.submit(i)
    out = session.drain()
    session.close()
    return out


class TestAsTelemetry:
    def test_path_is_journal_shorthand(self, tmp_path):
        t = as_telemetry(tmp_path / "j.jsonl")
        assert t.journal is not None
        assert t.recorder is None  # metrics stay off unless asked for
        t.close()

    def test_passthrough_and_rejection(self):
        t = Telemetry()
        assert as_telemetry(t) is t
        with pytest.raises(TypeError):
            as_telemetry(42)


class TestOptions:
    def test_a_journal_and_a_snapshot_are_the_only_settings(self):
        params = inspect.signature(Telemetry).parameters
        assert list(params) == ["journal", "prometheus"]
        assert list(inspect.signature(JsonlJournal).parameters) == [
            "path", "rotate_bytes", "max_files",
        ]

    def test_the_recorder_exists_exactly_when_a_snapshot_path_is_set(self, tmp_path):
        assert Telemetry().recorder is None
        assert Telemetry(prometheus=tmp_path / "m.prom").recorder is not None

    def test_a_configured_journal_is_used_as_given(self, tmp_path):
        journal = JsonlJournal(tmp_path / "j.jsonl", rotate_bytes=300, max_files=2)
        t = Telemetry(journal=journal)
        assert t.journal is journal
        session = open_pipeline([lambda x: x + 1], telemetry=t)
        assert _run(session, 20) == list(range(1, 21))
        assert journal.closed  # closed with the session
        siblings = sorted(p.name for p in tmp_path.iterdir())
        assert siblings == ["j.jsonl", "j.jsonl.1"]  # its own rotation policy held


class TestOneSessionPerTelemetry:
    def test_a_closed_telemetry_refuses_a_second_session(self, tmp_path):
        # The first session's close closes the journal and writes the
        # snapshot: a second session on the same bundle would journal and
        # count nothing, so attaching it must fail loudly.
        path, prom = tmp_path / "j.jsonl", tmp_path / "m.prom"
        t = Telemetry(journal=path, prometheus=prom)
        assert _run(open_pipeline([lambda x: x + 1], telemetry=t), 5) == [1, 2, 3, 4, 5]
        with pytest.raises(RuntimeError, match="closed"):
            open_pipeline([lambda x: x + 1], telemetry=t)
        kinds = [r["kind"] for r in read_journal(path)]
        assert kinds.count("session.open") == 1 and kinds.count("item.submit") == 5
        assert "repro_items_completed_total 5" in prom.read_text()

    def test_each_session_gets_its_own_bundle(self, tmp_path):
        for run in range(2):
            path = tmp_path / f"j{run}.jsonl"
            assert _run(open_pipeline([abs], telemetry=Telemetry(journal=path)), 3) == [0, 1, 2]
            assert [r["kind"] for r in read_journal(path)].count("item.submit") == 3


class TestJournalEndToEnd:
    @pytest.mark.parametrize("backend", ["threads", "asyncio", "sim"])
    def test_lifecycle_events_journalled(self, tmp_path, backend):
        path = tmp_path / "j.jsonl"
        session = open_pipeline(
            [lambda x: x + 1, lambda x: x * 2], backend=backend, telemetry=path
        )
        assert _run(session) == [2, 4, 6, 8, 10, 12]
        kinds = {r["kind"] for r in read_journal(path)}
        assert {
            "session.open", "stream.begin", "item.submit",
            "item.complete", "stream.drain", "session.close",
        } <= kinds

    def test_processes_journal_includes_frames(self, tmp_path):
        path = tmp_path / "j.jsonl"
        session = open_pipeline(
            [lambda x: x + 1], backend="processes", telemetry=path
        )
        assert _run(session, 4) == [1, 2, 3, 4]
        recs = list(read_journal(path))
        kinds = {r["kind"] for r in recs}
        assert {"frame.encode", "frame.release", "stage.service"} <= kinds
        encoded = [r for r in recs if r["kind"] == "frame.encode"]
        assert all(r["nbytes"] > 0 for r in encoded)

    def test_journal_order_open_first_close_last(self, tmp_path):
        path = tmp_path / "j.jsonl"
        session = open_pipeline([lambda x: x], telemetry=path)
        _run(session, 2)
        kinds = [r["kind"] for r in read_journal(path)]
        assert kinds[0] == "session.open"
        assert "session.close" in kinds


class TestMetricsAndPrometheus:
    def test_full_bundle(self, tmp_path):
        prom = tmp_path / "metrics.prom"
        t = Telemetry(journal=tmp_path / "j.jsonl", prometheus=prom)
        session = open_pipeline([lambda x: x + 1, lambda x: x * 2], telemetry=t)
        _run(session)
        # close() wrote the snapshot
        text = prom.read_text()
        assert "# TYPE repro_items_completed_total counter" in text
        assert "repro_items_completed_total 6" in text
        assert 'repro_stage_items_total{stage="0"} 6' in text
        assert "repro_stage_service_seconds_bucket" in text
        reg = t.recorder.registry
        assert reg.counter("streams_opened_total").value == 1

    def test_the_journal_profiles_every_item(self, tmp_path):
        path = tmp_path / "j.jsonl"
        session = open_pipeline([lambda x: x + 1], telemetry=path)
        _run(session, 3)
        items = profile_journal(path).items
        assert [(i.stream, i.seq) for i in items] == [(0, 0), (0, 1), (0, 2)]
        assert all(i.latency >= 0 for i in items)
        assert all(i.phases["service"] > 0 for i in items)

    def test_the_journal_joins_what_the_live_bus_carried(self, tmp_path):
        # The journal is the one per-item store: what the profiler joins
        # from it is what it would join from the live bus, event for event.
        path = tmp_path / "j.jsonl"
        session = open_pipeline([lambda x: x + 1, abs], telemetry=path, batching=2)
        live = []
        session.events.subscribe(live.append)
        _run(session, 4)
        read = join_records((to_event(r) for r in read_journal(path)), ProfileReport())
        assert len(read) == 4
        assert all(any(e.kind == "item.complete" for e in rs) for rs in read.values())

        def timeline(records):
            return [(e.kind, round(e.time, 6), e.fields) for e in records]

        joined = join_records(live, ProfileReport())
        assert [timeline(read[k]) for k in sorted(read)] == [
            timeline(joined[k]) for k in sorted(joined)
        ]

    def test_render_prometheus_empty_registry(self):
        assert render_prometheus(MetricsRegistry()) == ""

    def test_histogram_percentile_gauges_rendered(self):
        reg = MetricsRegistry()
        for stage in ("0", "1"):
            h = reg.histogram("stage_service_seconds", {"stage": stage})
            for v in (0.001, 0.002, 0.004, 0.01):
                h.observe(v)
        reg.histogram("empty_hist", {"stage": "9"})  # no data: no percentiles
        text = render_prometheus(reg)
        for suffix in ("_p50", "_p95", "_p99"):
            assert f"# TYPE repro_stage_service_seconds{suffix} gauge" in text
            for stage in ("0", "1"):
                assert (
                    f"repro_stage_service_seconds{suffix}{{stage=\"{stage}\"}}"
                    in text
                )
        assert "repro_empty_hist_p50" not in text
        # Exposition format: every family's samples stay contiguous under
        # one TYPE header (no interleaving of percentile families).
        lines = text.splitlines()
        seen_types = [ln.split()[2] for ln in lines if ln.startswith("# TYPE")]
        assert len(seen_types) == len(set(seen_types))

    def test_percentiles_ordered_and_bracket_the_data(self):
        h = MetricsRegistry().histogram("lat", {})
        for v in [0.001] * 90 + [0.1] * 10:
            h.observe(v)
        p50, p95, p99 = (h.quantile(q) for q in (0.5, 0.95, 0.99))
        assert p50 <= p95 <= p99
        assert p50 <= 0.002  # log2 bucket ceiling of the 1ms mass
        assert p99 >= 0.05  # tail lands in the 100ms bucket


class TestSessionErrorJournalled:
    def test_error_event_recorded(self, tmp_path):
        path = tmp_path / "j.jsonl"

        def boom(x):
            raise ValueError("kaboom")

        session = open_pipeline([boom], telemetry=path)
        session.submit(1)
        with pytest.raises(Exception):
            session.drain()
        session.close()
        errors = [r for r in read_journal(path) if r["kind"] == "session.error"]
        assert len(errors) == 1
        assert "kaboom" in errors[0]["error"]


class TestAdaptationJournalled:
    def test_adaptive_threads_session_emits_decisions(self, tmp_path):
        import time

        path = tmp_path / "j.jsonl"
        session = open_pipeline(
            [lambda x: x, lambda x: (time.sleep(0.01), x)[1]],
            backend="threads",
            adaptive=True,
            telemetry=path,
        )
        for i in range(120):
            session.submit(i)
        session.drain()
        session.close()
        kinds = {r["kind"] for r in read_journal(path)}
        # The policy saw a clear bottleneck: decide must appear, and any
        # realized action also journals replica changes.
        assert "adapt.decide" in kinds
        if "adapt.act" in kinds:
            assert "replica.add" in kinds
