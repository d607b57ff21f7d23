"""Tests for stage instrumentation."""

import math
import threading
from array import array
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.monitor.instrument import (
    PipelineInstrumentation,
    ServiceWatch,
    StageMetrics,
    StageSnapshot,
)


class TestStageMetrics:
    def test_service_recording(self):
        m = StageMetrics(0)
        m.record_service(0.5, effective_speed=2.0)
        m.record_service(0.7, effective_speed=2.0)
        snap = m.snapshot()
        assert snap.items_processed == 2
        assert snap.service_time == pytest.approx(0.6)
        # work = service x speed
        assert snap.work_estimate == pytest.approx(1.2)

    def test_window_forgets_old_behaviour(self):
        m = StageMetrics(0, window=4)
        for _ in range(10):
            m.record_service(1.0, 1.0)
        for _ in range(4):
            m.record_service(5.0, 1.0)
        assert m.snapshot().service_time == pytest.approx(5.0)

    def test_empty_snapshot(self):
        snap = StageMetrics(0).snapshot()
        assert snap.items_processed == 0
        assert math.isnan(snap.service_time)
        assert snap.bytes_in == 0.0

    def test_snapshot_carries_what_the_policies_read(self):
        # Queue lengths and transfer times live in the event stream and the
        # link fit; the snapshot holds the six fields a decision reads.
        assert [f.name for f in fields(StageSnapshot)] == [
            "stage_index", "items_processed", "service_time",
            "work_estimate", "bytes_in", "bytes_out",
        ]

    def test_constant_service_has_no_whole_run_spread(self):
        # The ServiceWatch takes its noise level from the whole-run stats.
        m = StageMetrics(0)
        for _ in range(5):
            m.record_service(0.3, 1.0)
        assert m.total.n == 5
        assert m.total.std == pytest.approx(0.0, abs=1e-12)

    def test_a_batch_counts_each_item_at_its_mean(self):
        m = StageMetrics(0)
        m.record_service(0.4, 2.0, items=4)
        snap = m.snapshot()
        assert snap.items_processed == 4 and m.total.n == 4
        assert snap.service_time == pytest.approx(0.1)
        assert snap.work_estimate == pytest.approx(0.2)


class TestPipelineInstrumentation:
    def test_requires_stages(self):
        with pytest.raises(ValueError):
            PipelineInstrumentation(0)

    def test_completion_accounting(self):
        pi = PipelineInstrumentation(2)
        assert pi.items_completed == 0
        for t in (1.0, 2.0, 3.0):
            pi.record_completion(t)
        pi.record_completion(4.0, items=5)
        assert pi.items_completed == 8

    def test_a_run_counts_every_item_at_its_delivery_time(self):
        pi = PipelineInstrumentation(1)
        pi.record_completion(1.0, items=3)
        pi.record_completion(9.5, items=4)
        assert pi.recent_throughput(now=10.0, horizon=1.0) == pytest.approx(4.0)
        assert pi.recent_throughput(now=10.0, horizon=9.0) == pytest.approx(7 / 9)

    def test_a_count_without_its_time_yet_reads_correctly(self):
        # record_completion appends the running count before the time.  A
        # reader on another thread (the controller reads without a lock) may
        # land in between: there it sees the new count in items_completed,
        # and recent_throughput reads only the records that have a time.
        pi = PipelineInstrumentation(1)
        pi.record_completion(1.0, items=2)
        pi.record_completion(2.0, items=3)
        seen = []

        class Watched(array):
            def append(self, x):
                super().append(x)
                seen.append((pi.items_completed, pi.recent_throughput(3.0, 2.5)))

        pi._counts, pi._times = Watched("q", pi._counts), Watched("d", pi._times)
        pi.record_completion(3.0, items=4)
        # After the count: 9 items, the throughput of the first two runs
        # ((2 + 3) / 2.5); after the time: the new run counts too.
        assert seen == [(9, pytest.approx(2.0)), (9, pytest.approx(3.6))]

    def test_recent_throughput_windows(self):
        pi = PipelineInstrumentation(1)
        for t in (1.0, 2.0, 9.0, 10.0):
            pi.record_completion(t)
        assert pi.recent_throughput(now=10.0, horizon=2.0) == pytest.approx(1.0)

    def test_recent_throughput_nan_when_no_data(self):
        pi = PipelineInstrumentation(1)
        assert math.isnan(pi.recent_throughput(now=10.0, horizon=2.0))

    @given(
        gaps=st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, 3.0]), max_size=40),
        now=st.sampled_from([0.0, 1.0, 2.5, 7.0, 40.0]),
        horizon=st.sampled_from([0.25, 1.0, 2.0, 10.0]),
    )
    def test_recent_throughput_counts_what_a_scan_counts(self, gaps, now, horizon):
        # Monotone times with ties and exact window edges: the bisection
        # counts exactly the completions at or after now - horizon.
        pi = PipelineInstrumentation(1)
        t, times = 0.0, []
        for gap in gaps:
            t += gap
            times.append(t)
            pi.record_completion(t)
        brute = sum(1 for c in times if c >= now - horizon)
        got = pi.recent_throughput(now=now, horizon=horizon)
        if brute:
            assert got == brute / horizon
        else:
            assert math.isnan(got)

    def test_recent_throughput_invalid_horizon(self):
        pi = PipelineInstrumentation(1)
        with pytest.raises(ValueError):
            pi.recent_throughput(now=1.0, horizon=0.0)


class TestPayloadByteAccounting:
    def test_snapshot_defaults_to_zero_bytes(self):
        m = StageMetrics(0)
        m.record_service(0.1, 1.0)
        snap = m.snapshot()
        assert snap.bytes_in == 0.0 and snap.bytes_out == 0.0

    def test_window_means(self):
        m = StageMetrics(0)
        for n in (100, 300):
            m.record_bytes_in(n)
            m.record_service(0.1, 1.0, nbytes=2 * n)
        snap = m.snapshot()
        assert snap.bytes_in == pytest.approx(200.0)
        assert snap.bytes_out == pytest.approx(400.0)

    def test_size_windows_keep_only_the_newest(self):
        m = StageMetrics(0, window=2)
        for n in (1_000, 10, 30):
            m.record_bytes_in(n)
            m.record_service(0.1, 1.0, nbytes=n)
        snap = m.snapshot()
        assert snap.bytes_in == pytest.approx(20.0)
        assert snap.bytes_out == pytest.approx(20.0)

    def test_bytes_out_leaves_bytes_in_alone(self):
        # Stage k+1's input is stage k's output: recording what leaves a
        # stage measures nothing about what entered it.
        m = StageMetrics(1)
        m.record_hops([(k, 1, 1, "w", 0.01, n, 0, None, 1.0, None) for k, n in enumerate((512, 256))])
        snap = m.snapshot()
        assert snap.bytes_out == pytest.approx(384.0)
        assert snap.bytes_in == 0.0

    def test_a_hop_without_a_size_records_no_bytes(self):
        # A thread hop measures no payload (its nbytes_out is None).
        m = StageMetrics(0)
        m.record_hops([(k, 1, 0, 0, 0.01, None, 0, None, 1.0, None) for k in range(3)])
        snap = m.snapshot()
        assert snap.items_processed == 3
        assert snap.bytes_out == 0.0


def watched(n_stages=2, window=32, min_samples=2, ratio=1.1, locks=None):
    stages = [StageMetrics(i, window=window) for i in range(n_stages)]
    wakes = []
    watch = ServiceWatch(
        stages,
        lambda: wakes.append(1),
        locks=locks or [threading.Lock() for _ in stages],
        min_samples=min_samples,
        ratio=ratio,
    )
    return stages, watch, wakes


def feed(stage, seconds, n=1):
    for _ in range(n):
        stage.record_service(seconds, 1.0)


class TestServiceWatch:
    def test_unwatched_by_default_and_after_close(self):
        assert StageMetrics(0)._watch is None
        stages, watch, _ = watched()
        assert all(s._watch is not None for s in stages)
        watch.close()
        assert all(s._watch is None for s in stages)

    def test_evidence_fires_when_every_stage_has_min_samples(self):
        (a, b), watch, wakes = watched()
        feed(a, 0.002, 5)
        feed(b, 0.002, 1)
        assert not wakes and watch.take() is None
        feed(b, 0.002, 1)
        assert wakes and watch.take() == ("evidence",)
        assert watch.take() is None
        feed(a, 0.002, 5)  # fired stages stay silent until armed
        assert len(wakes) == 1

    def test_idle_rearm_repeats_the_evidence(self):
        # The controller took the firing but could not decide (backlog 0):
        # arm() without centres makes the next sample announce it again.
        (a,), watch, wakes = watched(1)
        feed(a, 0.002, 2)
        assert watch.take() == ("evidence",)
        watch.arm()
        feed(a, 0.002)
        assert watch.take() == ("evidence",)

    def test_in_band_samples_never_wake(self):
        (a,), watch, wakes = watched(1)
        feed(a, 0.002, 2)
        watch.take()
        watch.arm([0.002])
        for k in range(200):
            feed(a, 0.002 * (1.0 + 0.05 * (-1) ** k))
        assert len(wakes) == 1 and watch.take() is None

    def test_step_wakes_after_min_samples_and_cuts_the_window(self):
        (a,), watch, wakes = watched(1)
        feed(a, 0.002, 40)
        watch.take()
        watch.arm([a.snapshot().service_time])
        feed(a, 0.008)
        assert watch.take() is None  # one far sample may be an outlier
        a.record_service(0.008, 0.5)
        kind, stage, before, after, stepped = watch.take()
        assert (kind, stage) == ("shift", 0)
        assert before == pytest.approx(0.002) and after == pytest.approx(0.008)
        # The decision reads the new level, not a 30:2 mixture with the old.
        snap = a.snapshot()
        assert snap.service_time == pytest.approx(0.008)
        assert snap.work_estimate == pytest.approx(0.006)  # (0.008 + 0.004) / 2
        assert snap.items_processed == 42

    def test_single_outlier_is_reported_as_it_is(self):
        (a,), watch, wakes = watched(1)
        feed(a, 0.002, 40)
        watch.take()
        watch.arm([0.002])
        feed(a, 0.040)  # drags the window mean to 3.2 ms, alone
        assert watch.take() is None  # ... and might be the start of a step
        feed(a, 0.002)
        # It was not: the mean did leave the band, and is reported whole.
        assert watch.take() == ("shift", 0, 0.002, pytest.approx(0.0031875), False)
        assert len(a._service_win) == 32  # nothing was cut

    def test_drift_of_a_full_window_wakes(self):
        (a,), watch, wakes = watched(1)
        feed(a, 0.002, 40)
        watch.take()
        watch.arm([0.002])
        x = 0.002
        while watch.fired is None and x < 0.004:
            x *= 1.01
            feed(a, x)
        kind, _, before, after, _ = watch.take()
        assert kind == "shift" and after > 1.1 * before
        assert after == pytest.approx(a.snapshot().service_time)

    def test_noisy_stage_is_not_mistaken_for_a_step(self):
        rng = np.random.default_rng(7)
        (a,), watch, wakes = watched(1)
        samples = 0.002 * rng.lognormal(0.0, 0.5, size=2000)
        for x in samples[:40]:
            feed(a, x)
        watch.take()
        watch.arm([a.snapshot().service_time])
        cuts = 0
        for x in samples[40:]:
            feed(a, x)
            if watch.take() is not None:
                watch.arm([a.snapshot().service_time])
            cuts += len(a._service_win) < 24
        # Cut back to a few samples at most a handful of times in 2,000.
        assert cuts <= 32

    def test_stage_far_below_the_period_is_unheard(self):
        (fast, slow), watch, wakes = watched()
        feed(fast, 1e-6, 40)
        feed(slow, 0.005, 40)
        watch.take()
        watch.arm([1e-6, 0.005], replicas=[1, 2])
        feed(fast, 5e-6, 40)  # five times slower, still nowhere near 2.5 ms
        feed(fast, 1e-7, 40)
        assert watch.take() is None
        feed(fast, 0.003, 32)  # now it would set the period
        kind, stage, _, after, stepped = watch.take()
        assert (kind, stage) == ("shift", 0)
        assert after == pytest.approx(0.003)  # cut back to the new level

    def test_bottleneck_speeding_up_wakes(self):
        (fast, slow), watch, wakes = watched()
        feed(fast, 1e-6, 40)
        feed(slow, 0.005, 40)
        watch.take()
        watch.arm([1e-6, 0.005], replicas=[1, 1])
        feed(slow, 0.002, 4)
        assert watch.take() is None  # the window mean is still within 10 %
        feed(slow, 0.002)
        kind, stage, _, after, stepped = watch.take()
        assert (kind, stage) == ("shift", 1) and after == pytest.approx(0.002)

    def test_rolling_mean_is_the_window_mean(self):
        rng = np.random.default_rng(3)
        (a,), watch, _ = watched(1, window=8)
        feed(a, 0.002, 2)
        watch.take()
        watch.arm([0.002])
        watch.stages[0].limits = (0.0, math.inf)  # never recalibrate again
        for x in rng.uniform(0.001, 0.01, size=500):
            feed(a, x)
            sw = watch.stages[0]
            assert sw.total / len(a._service_win) == pytest.approx(a._service_win.mean, rel=1e-9)

    def test_arm_waits_for_the_stage_lock(self):
        # The stage lock serialises every sample's band check: arm() must not
        # rewrite a band under a recording thread's feet.
        locks = [threading.Lock(), threading.Lock()]
        (a, b), watch, _ = watched(locks=locks)
        feed(a, 0.002, 2)
        feed(b, 0.004, 2)
        watch.take()
        with locks[1]:  # a recorder of stage 1 is mid-sample
            armer = threading.Thread(target=watch.arm, args=([0.002, 0.004],))
            armer.start()
            armer.join(0.2)
            assert armer.is_alive()
            assert watch.stages[1].centre is None  # untouched while held
        armer.join(5.0)
        assert not armer.is_alive()
        assert [s.centre for s in watch.stages] == [0.002, 0.004]
