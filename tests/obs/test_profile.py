"""Tests for the critical-path profiler."""

import json

import pytest

from repro.obs.events import Event, EventBus
from repro.obs.journal import JsonlJournal
from repro.obs.profile import (
    PHASES,
    main,
    profile_events,
    profile_journal,
    render_report,
)


def _collect(*emits):
    """The events ``(kind, at, fields)`` triples emit on a bus."""
    bus, events = EventBus(clock=lambda: 0.0), []
    bus.subscribe(events.append)
    for kind, at, fields in emits:
        bus.emit(kind, at=at, **fields)
    return events


def _distributed_item(*, submit=1.0, service_end=1.48, done=1.6, **hop):
    """One item with a single distributed hop of known decomposition: its
    stage.service ends with the service, before the encode and wire_back."""
    hop.setdefault("stage", 0)
    hop.setdefault("wire_out", 0.01)
    hop.setdefault("worker_queue", 0.02)
    hop.setdefault("seconds", 0.1)
    hop.setdefault("encode", 0.005)
    hop.setdefault("wire_back", 0.015)
    return [
        ("stream.begin", submit, {"stream": 0}),
        ("item.submit", submit, {"stream": 0, "seq": 0, "gseq": 0}),
        ("stage.service", service_end, {"seq": 0, **hop}),
        ("item.complete", done, {"stream": 0, "seq": 0}),
    ]


class TestItemTiling:
    def test_hop_phases_plus_gaps_cover_latency(self):
        # submit at 1.0; hop spans [1.35, 1.5] (known = 0.15), its service
        # ending at 1.48; done at 1.6.
        report = profile_events(_collect(*_distributed_item()))
        assert len(report.items) == 1
        item = report.items[0]
        assert item.latency == pytest.approx(0.6)
        p = item.phases
        assert p["wire_out"] == 0.01
        assert p["worker_queue"] == 0.02
        assert p["service"] == 0.1
        assert p["encode"] == 0.005
        assert p["wire_back"] == 0.015
        # Gap before the hop window is coordinator residence; the tail
        # after the hop (result received → yielded) is reorder hold.
        assert p["coord_queue"] == pytest.approx(0.35)
        assert p["reorder_hold"] == pytest.approx(0.1)
        assert item.coverage == pytest.approx(1.0)

    def test_measured_encode_carved_out_of_coord_gap(self):
        emits = _distributed_item()
        emits.insert(2, ("frame.encode", 1.1, {"stage": 0, "seq": 0,
                                               "seconds": 0.05, "nbytes": 64}))
        item = profile_events(_collect(*emits)).items[0]
        # Worker-side encode (0.005) plus coordinator-side (0.05).
        assert item.phases["encode"] == pytest.approx(0.055)
        assert item.phases["coord_queue"] == pytest.approx(0.30)
        assert item.coverage == pytest.approx(1.0)

    def test_admit_wait_reported_separately(self):
        emits = _distributed_item()
        emits[1][2]["wait"] = 0.25
        report = profile_events(_collect(*emits))
        assert report.items[0].admit_wait == 0.25
        assert report.admit_wait_total == 0.25
        assert "admit_wait" not in report.items[0].phases

    def test_incomplete_item_skipped(self):
        report = profile_events(_collect(
            ("item.submit", 1.0, {"stream": 0, "seq": 0, "gseq": 0}),
        ))
        assert report.items == []
        assert report.verdict == "no completed items profiled"

    def test_stage_service_fallback_for_inprocess_backends(self):
        # Hops without a decomposition: stage.service end-stamps tile the
        # timeline.
        report = profile_events(_collect(
            ("stream.begin", 0.0, {"stream": 0}),
            ("item.submit", 0.0, {"stream": 0, "seq": 0, "gseq": 0}),
            ("stage.service", 0.3, {"stage": 0, "seconds": 0.1, "seq": 0}),
            ("stage.service", 0.6, {"stage": 1, "seconds": 0.2, "seq": 0}),
            ("item.complete", 0.7, {"stream": 0, "seq": 0}),
        ))
        p = report.items[0].phases
        assert p["service"] == pytest.approx(0.3)
        # The wait before each service is that stage's own queue: 0.2 pre
        # stage 0 + 0.1 between; nothing is the coordinator's.
        assert p["worker_queue"] == pytest.approx(0.3)
        assert "coord_queue" not in p
        assert report.items[0].queued == pytest.approx({0: 0.2, 1: 0.1})
        assert report.stages[0].worker_queue == pytest.approx(0.2)
        assert report.stages[1].worker_queue == pytest.approx(0.1)
        assert p["reorder_hold"] == pytest.approx(0.1)
        assert report.items[0].coverage == pytest.approx(1.0)

    def test_inprocess_encode_carved_out_of_stage_zero_wait(self):
        report = profile_events(_collect(
            ("stream.begin", 0.0, {"stream": 0}),
            ("item.submit", 0.0, {"stream": 0, "seq": 0, "gseq": 0}),
            ("frame.encode", 0.05, {"stage": 0, "seq": 0, "seconds": 0.05, "nbytes": 64}),
            ("stage.service", 0.3, {"stage": 0, "seconds": 0.1, "seq": 0}),
            ("item.complete", 0.3, {"stream": 0, "seq": 0}),
        ))
        item = report.items[0]
        assert item.phases["encode"] == pytest.approx(0.05)
        assert item.phases["worker_queue"] == pytest.approx(0.15)
        assert item.queued == pytest.approx({0: 0.15})
        assert item.coverage == pytest.approx(1.0)


class TestVerdict:
    def test_service_bound_names_the_hot_stage(self):
        events = _collect(
            ("stream.begin", 0.0, {"stream": 0}),
            ("item.submit", 0.0, {"stream": 0, "seq": 0, "gseq": 0}),
            ("stage.service", 0.499, {"seq": 0, "stage": 1, "wire_out": 0.001,
                                      "worker_queue": 0.001, "seconds": 0.45,
                                      "encode": 0.0, "wire_back": 0.001}),
            ("item.complete", 0.5, {"stream": 0, "seq": 0}),
        )
        report = profile_events(events)
        assert report.bottleneck_phase == "service"
        assert report.bottleneck_stage == 1
        assert "service-bound" in report.verdict
        assert "stage 1" in report.verdict

    def test_agreement_with_adaptation_decision(self):
        events = _collect(
            ("stream.begin", 0.0, {"stream": 0}),
            ("item.submit", 0.0, {"stream": 0, "seq": 0, "gseq": 0}),
            ("stage.service", 0.5, {"seq": 0, "stage": 0, "wire_out": 0.0,
                                    "worker_queue": 0.4, "seconds": 0.05,
                                    "encode": 0.0, "wire_back": 0.0}),
            ("item.complete", 0.5, {"stream": 0, "seq": 0}),
        )
        report = profile_events(events)
        assert report.bottleneck_phase == "worker_queue"
        report.decisions.append((1.0, [1, 1], [2, 1], "grow 0"))
        assert report.agreement().startswith("agrees")
        report.decisions.append((2.0, [2, 1], [2, 2], "grow 1"))
        assert report.agreement().startswith("disagrees")

    def test_a_saturated_inprocess_stage_is_blamed_for_its_input_wait(self):
        # Threads, stage 1 the bottleneck: each item waits ever longer for
        # one of stage 1's replicas.  That wait is stage 1's, not the
        # coordinator's, and the verdict names the stage.
        emits = [("stream.begin", 0.0, {"stream": 0})]
        for seq in range(8):
            t0 = 0.01 * seq
            end1 = 0.1 * (seq + 1)  # stage 1 serves one item per 0.1 s
            emits += [
                ("item.submit", t0, {"stream": 0, "seq": seq, "gseq": seq}),
                ("stage.service", t0 + 0.002, {"stage": 0, "seconds": 0.001, "seq": seq}),
                ("stage.service", end1, {"stage": 1, "seconds": 0.09, "seq": seq}),
                ("item.complete", end1, {"stream": 0, "seq": seq}),
            ]
        report = profile_events(_collect(*emits))
        assert len(report.items) == 8
        assert report.bottleneck_phase == "worker_queue"
        assert report.bottleneck_stage == 1
        assert report.verdict.startswith("replica-starved (worker queue) at stage 1")
        assert report.phase_totals["coord_queue"] == 0.0
        assert report.stages[1].worker_queue > report.stages[0].worker_queue
        report.decisions.append((1.0, [1, 1], [1, 4], "grow 1"))
        assert report.agreement().startswith("agrees")

    def test_coord_bound_has_no_stage(self):
        report = profile_events(_collect(*_distributed_item()))
        assert report.bottleneck_phase == "coord_queue"
        assert report.bottleneck_stage is None


class TestJournalFrontend:
    def _write_journal(self, path):
        j = JsonlJournal(path)
        j(Event(0.0, "session.open", fields={
            "backend": "distributed", "stages": ["inc", "triple"],
            "n_stages": 2, "session_id": "abc123",
        }))
        j(Event(0.1, "stream.begin", fields={"stream": 0}))
        j(Event(0.1, "item.submit", fields={"stream": 0, "seq": 0, "gseq": 0,
                                            "trace": "abc123:0:0"}))
        j(Event(0.49, "stage.service", fields={
            "seq": 0, "stage": 1, "wire_out": 0.01, "worker_queue": 0.02,
            "seconds": 0.3, "encode": 0.0, "wire_back": 0.01,
        }))
        j(Event(0.55, "clock.sync", fields={
            "worker": 0, "offset": 1e-4, "drift": 0.0, "err": 5e-5, "n": 9,
        }))
        j(Event(0.6, "item.complete", fields={"stream": 0, "seq": 0}))
        j(Event(0.7, "adapt.act", fields={"replicas_before": [1, 1],
                                          "replicas_after": [1, 2],
                                          "reason": "grow slow stage"}))
        j.close()

    def test_profile_journal_reads_names_clocks_decisions(self, tmp_path):
        path = tmp_path / "j.jsonl"
        self._write_journal(path)
        report = profile_journal(path)
        assert report.backend == "distributed"
        assert len(report.items) == 1
        assert report.stages[1].name == "triple"
        assert report.clocks[0]["err"] == 5e-5
        assert report.bottleneck_stage == 1
        assert report.agreement().startswith("agrees")

    def test_a_controller_journal_yields_replica_counts(self, tmp_path):
        # The simulator's controller on E1's load step writes the journal;
        # the profiler reads each act's counts under the schema's names.
        from repro.core.adaptive import AdaptivePipeline
        from repro.core.policy import AdaptationConfig
        from repro.gridsim.spec import uniform_grid
        from repro.model.mapping import Mapping
        from repro.workloads.scenarios import load_step
        from repro.workloads.synthetic import balanced_pipeline

        grid = uniform_grid(4)
        load_step(1, at=20.0, availability=0.1).apply(grid)
        path = tmp_path / "sim.jsonl"
        bus = EventBus()
        journal = JsonlJournal(path)
        bus.subscribe(journal)
        res = AdaptivePipeline(
            balanced_pipeline(3, work=0.1), grid,
            config=AdaptationConfig(interval=3.0, cooldown=5.0),
            initial_mapping=Mapping.single([0, 1, 2]), seed=1, events=bus,
        ).run(300)
        journal.close()
        report = profile_journal(path)
        assert len(report.decisions) == len(res.adaptation_events) >= 1
        for (t, before, after, reason), event in zip(report.decisions, res.adaptation_events):
            assert (t, reason) == (event.time, event.reason)
            assert before == [len(r) for r in event.mapping_before.stages]
            assert after == [len(r) for r in event.mapping_after.stages]

    def test_cli_text_and_json(self, tmp_path, capsys):
        path = tmp_path / "j.jsonl"
        self._write_journal(path)
        assert main([str(path), "--slowest", "2"]) == 0
        out = capsys.readouterr().out
        assert "critical-path profile" in out
        assert "verdict:" in out
        assert "slowest" in out
        assert main([str(path), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["items"] == 1
        assert set(data["phase_totals_s"]) == set(PHASES)
        assert data["stages"]["1"]["name"] == "triple"

    def test_profile_journal_reads_its_file_once(self, tmp_path, monkeypatch):
        # One pass joins the items and reads the session's metadata: the
        # journal is opened once and each of its lines read once.
        from repro.obs import journal

        path = tmp_path / "j.jsonl"
        self._write_journal(path)
        calls, records = [], []
        read_journal = journal.read_journal

        def counting(p):
            calls.append(p)
            for rec in read_journal(p):
                records.append(rec["kind"])
                yield rec

        monkeypatch.setattr(journal, "read_journal", counting)
        report = profile_journal(path)
        assert calls == [path]
        assert len(records) == len(path.read_text().splitlines()) == 7
        assert (report.backend, len(report.items), len(report.decisions)) == (
            "distributed", 1, 1,
        )
        assert report.stages[1].name == "triple" and report.clocks[0]["n"] == 9

    def test_render_report_empty(self):
        text = render_report(profile_events([]))
        assert "nothing to attribute" in text
