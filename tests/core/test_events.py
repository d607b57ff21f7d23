"""Tests for RunResult metrics and adaptation event records."""

import math

import pytest

from repro.core.events import AdaptationEvent, Decision, RunResult
from repro.model.mapping import Mapping


def make_result(completions, n_items=None, end=None, seqs=None):
    n = n_items if n_items is not None else len(completions)
    return RunResult(
        n_items=n,
        completion_times=list(completions),
        latencies=[0.5] * len(completions),
        adaptation_events=[],
        mapping_history=[(0.0, Mapping.single([0]))],
        end_time=end if end is not None else (completions[-1] if completions else 0.0),
        output_seqs=seqs if seqs is not None else list(range(len(completions))),
    )


class TestRunResult:
    def test_basic_accounting(self):
        r = make_result([1.0, 2.0, 3.0, 4.0])
        assert r.items_completed == 4
        assert r.completed_all
        assert r.makespan == 4.0
        assert r.throughput() == pytest.approx(1.0)

    def test_incomplete_run(self):
        r = make_result([1.0], n_items=10)
        assert not r.completed_all

    def test_empty_run(self):
        r = make_result([], n_items=5)
        assert math.isnan(r.makespan)
        assert r.throughput() == 0.0

    def test_steady_throughput_skips_fill(self):
        # Slow fill (1 item/s), then steady 10 items/s.
        times = [1.0, 2.0, 3.0, 4.0] + [4.0 + 0.1 * i for i in range(1, 37)]
        r = make_result(times)
        assert r.steady_throughput(skip_fraction=0.25) == pytest.approx(10.0, rel=0.05)
        # Naive overall throughput is dragged down by the fill.
        assert r.throughput() < r.steady_throughput()

    def test_steady_throughput_invalid_fraction(self):
        r = make_result([1.0, 2.0])
        with pytest.raises(ValueError):
            r.steady_throughput(skip_fraction=1.0)

    def test_throughput_series_windows(self):
        r = make_result([0.5, 1.5, 2.5, 3.5], end=4.0)
        ts, series = r.throughput_series(dt=2.0)
        assert ts == [2.0, 4.0]
        assert series == [1.0, 1.0]

    def test_throughput_series_invalid_dt(self):
        with pytest.raises(ValueError):
            make_result([1.0]).throughput_series(dt=0.0)

    def test_in_order(self):
        assert make_result([1.0, 2.0], seqs=[0, 1]).in_order()
        assert not make_result([1.0, 2.0], seqs=[1, 0]).in_order()

    def test_final_mapping(self):
        r = make_result([1.0])
        assert r.final_mapping == Mapping.single([0])


class TestDecision:
    def test_noop(self):
        d = Decision(None, reason="cooldown")
        assert not d.acts
        assert d.predicted_gain == 1.0

    def test_action(self):
        d = Decision(Mapping.single([1]), reason="move", predicted_gain=2.0)
        assert d.acts


class TestAdaptationEvent:
    def test_str_rendering(self):
        e = AdaptationEvent(
            time=12.5,
            kind="remap",
            mapping_before=Mapping.single([0, 1]),
            mapping_after=Mapping.single([2, 1]),
            reason="bottleneck",
            predicted_gain=1.8,
            throughput_before=5.0,
        )
        s = str(e)
        assert "t=12.50" in s
        assert "(0,1)" in s and "(2,1)" in s
        assert "x1.80" in s
