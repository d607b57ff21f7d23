"""Tests for the thread fabric, driven through a ``ThreadBackend`` session."""

import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import ThreadBackend
from repro.core.pipeline import PipelineSpec
from repro.core.stage import StageSpec
from repro.backend.runner import propose_growth
from repro.runtime.threads import StageError


def spec(fns, replicable=None):
    replicable = replicable or [True] * len(fns)
    return PipelineSpec(
        tuple(
            StageSpec(name=f"s{i}", work=0.01, fn=f, replicable=r)
            for i, (f, r) in enumerate(zip(fns, replicable))
        )
    )


def run(pipe, inputs, **shape):
    """One bounded stream through a fresh thread-backend session."""
    with ThreadBackend(pipe, **shape).open() as session:
        for item in inputs:
            session.submit(item)
        return session.drain()


class TestThreadPipeline:
    def test_results_equal_sequential_composition(self):
        pipe = spec([lambda x: x + 1, lambda x: x * 2, lambda x: x - 3])
        out = run(pipe, range(20))
        assert out == [(x + 1) * 2 - 3 for x in range(20)]

    def test_order_preserved_with_replicas(self):
        import random

        def jitter(x):
            time.sleep(random.random() * 0.003)
            return x * x

        pipe = spec([jitter])
        out = run(pipe, range(40), replicas=[4])
        assert out == [x * x for x in range(40)]

    def test_order_preserved_replicated_middle_stage(self):
        import random

        def slow(x):
            time.sleep(random.random() * 0.002)
            return x + 100

        pipe = spec([lambda x: x * 2, slow, lambda x: x - 1])
        out = run(pipe, range(30), replicas=[1, 3, 1])
        assert out == [x * 2 + 100 - 1 for x in range(30)]

    def test_empty_input(self):
        pipe = spec([lambda x: x])
        assert run(pipe, []) == []

    def test_single_item(self):
        pipe = spec([lambda x: x + 1])
        assert run(pipe, [41]) == [42]

    def test_stats_populated(self):
        def work(x):
            time.sleep(0.001)
            return x

        pipe = spec([work])
        with ThreadBackend(pipe).open() as session:
            for item in range(10):
                session.submit(item)
            assert len(session.drain()) == 10
            assert session.last_stream_elapsed > 0
            service = session.instrumentation.stages[0].total  # whole-run accumulator
        assert service.n == 10
        assert service.mean >= 0.001

    def test_stage_exception_propagates_with_name(self):
        def boom(x):
            if x == 5:
                raise ValueError("bad item")
            return x

        pipe = spec([boom])
        with pytest.raises(RuntimeError, match="s0"):
            run(pipe, range(10))

    def test_stateful_stage_cannot_be_replicated(self):
        pipe = spec([lambda x: x], replicable=[False])
        with pytest.raises(ValueError, match="stateful"):
            ThreadBackend(pipe, replicas=[2])

    def test_missing_fn_rejected(self):
        pipe = PipelineSpec((StageSpec(name="nofn", work=0.1),))
        with pytest.raises(ValueError, match="no fn"):
            ThreadBackend(pipe)

    def test_replicas_length_mismatch(self):
        pipe = spec([lambda x: x])
        with pytest.raises(ValueError):
            ThreadBackend(pipe, replicas=[1, 2])

    def test_invalid_replica_count(self):
        pipe = spec([lambda x: x])
        with pytest.raises(ValueError):
            ThreadBackend(pipe, replicas=[0])

    def test_backpressure_small_capacity(self):
        # Tiny queues must not deadlock or reorder.
        pipe = spec([lambda x: x + 1, lambda x: x * 3])
        out = run(pipe, range(50), capacity=1)
        assert out == [(x + 1) * 3 for x in range(50)]

    def test_stateful_stage_sees_items_in_order(self):
        seen = []
        lock = threading.Lock()

        def record(x):
            with lock:
                seen.append(x)
            return x

        import random

        def jitter(x):
            time.sleep(random.random() * 0.002)
            return x

        # Upstream replicated stage may finish out of order; a stage that
        # declares itself stateful (replicable=False) must still start items
        # in input order.
        pipe = spec([jitter, record], replicable=[True, False])
        run(pipe, range(30), replicas=[4, 1])
        assert seen == list(range(30))

    @settings(deadline=None, max_examples=15)
    @given(
        n_items=st.integers(min_value=0, max_value=60),
        replicas=st.integers(min_value=1, max_value=4),
        capacity=st.integers(min_value=1, max_value=8),
    )
    def test_property_conservation(self, n_items, replicas, capacity):
        pipe = spec([lambda x: x + 1, lambda x: x * 2])
        out = run(pipe, range(n_items), replicas=[replicas, 1], capacity=capacity)
        assert out == [(x + 1) * 2 for x in range(n_items)]


class TestReplicatedStageErrors:
    def test_replicated_stage_error_mid_batch_propagates(self):
        def boom(x):
            time.sleep(0.001)
            if x == 25:
                raise ValueError("bad item mid-batch")
            return x

        pipe = spec([lambda x: x, boom, lambda x: x])
        with pytest.raises(StageError, match="s1") as excinfo:
            run(pipe, range(60), replicas=[1, 3, 1])
        assert isinstance(excinfo.value.original, ValueError)

    def test_error_does_not_deadlock_with_tiny_buffers(self):
        # The erroring worker's siblings and the up/downstream threads must
        # all drain and exit even when every queue is capacity-1 full.
        def boom(x):
            if x == 10:
                raise ValueError("boom")
            time.sleep(0.001)
            return x

        pipe = spec([lambda x: x + 1, boom])
        with pytest.raises(StageError, match="s1"):
            run(pipe, range(200), replicas=[1, 2], capacity=1)


class TestProposeGrowth:
    """The growth decision, isolated from threading."""

    def test_picks_bottleneck(self):
        assert (
            propose_growth(
                [0.01, 0.08, 0.01],
                [1, 1, 1],
                [True, True, True],
                max_workers=4,
                imbalance_threshold=1.5,
            )
            == 1
        )

    def test_tie_below_threshold_stays_put(self):
        # Two stages within the threshold of each other: growing either
        # would not relieve a dominant bottleneck.
        assert (
            propose_growth(
                [0.05, 0.049],
                [1, 1],
                [True, True],
                max_workers=4,
                imbalance_threshold=1.5,
            )
            is None
        )

    def test_exact_threshold_boundary_grows(self):
        assert (
            propose_growth(
                [0.06, 0.04],
                [1, 1],
                [True, True],
                max_workers=4,
                imbalance_threshold=1.5,
            )
            == 0
        )

    def test_threshold_one_grows_on_exact_tie_lowest_index(self):
        # imbalance_threshold=1.0 accepts ties; stable sort keeps the
        # earliest stage first, so stage 0 wins a dead heat.
        assert (
            propose_growth(
                [0.05, 0.05],
                [1, 1],
                [True, True],
                max_workers=4,
                imbalance_threshold=1.0,
            )
            == 0
        )

    def test_single_stage_has_no_runner_up(self):
        # runner_up == 0.0 means "no contender": always grow.
        assert (
            propose_growth(
                [0.05], [1], [True], max_workers=4, imbalance_threshold=1.5
            )
            == 0
        )

    def test_per_worker_normalisation_shifts_bottleneck(self):
        # Stage 0 is slower in absolute terms but already has 4 workers;
        # per-worker it is cheap, so the decision must target stage 1.
        assert (
            propose_growth(
                [0.08 / 4, 0.05],
                [4, 1],
                [True, True],
                max_workers=4,
                imbalance_threshold=1.5,
            )
            == 1
        )

    def test_respects_max_workers_cap(self):
        assert (
            propose_growth(
                [0.08, 0.01],
                [4, 1],
                [True, True],
                max_workers=4,
                imbalance_threshold=1.5,
            )
            is None
        )

    def test_stateful_bottleneck_never_grows(self):
        # The decision targets the bottleneck only; a stateful bottleneck
        # means no growth at all (not growth of the runner-up).
        assert (
            propose_growth(
                [0.08, 0.01],
                [1, 1],
                [False, True],
                max_workers=4,
                imbalance_threshold=1.5,
            )
            is None
        )

    def test_all_idle_stays_put(self):
        assert (
            propose_growth(
                [0.0, 0.0], [1, 1], [True, True], max_workers=4, imbalance_threshold=1.5
            )
            is None
        )
