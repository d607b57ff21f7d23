"""Tests for the backend port and its table of executors."""

import threading

import pytest

from repro.backend import (
    BackendResult,
    ProcessPoolBackend,
    ThreadBackend,
    available_backends,
    make_backend,
)
from repro.core.pipeline import PipelineSpec
from repro.core.stage import StageSpec


def pipe():
    return PipelineSpec((StageSpec(name="inc", work=0.01, fn=lambda x: x + 1),))


def _inc(x):
    return x + 1


#: Every live executor name.  Distributed ships its stage functions over
#: sockets, so its pipeline runs the picklable builtin ``abs``.
LIVE = ["threads", "asyncio", "processes", "distributed"]


def _live(name, stages=1, **kwargs):
    """``(backend, fn)``: executor ``name`` over ``stages`` copies of ``fn``;
    with two or more, the last copy is a stateful stage."""
    fn = abs if name == "distributed" else _inc
    if name == "distributed":
        kwargs.setdefault("spawn_workers", 1)
    specs = [StageSpec(name=f"s{i}", work=0.01, fn=fn) for i in range(stages)]
    if stages > 1:
        specs[-1] = StageSpec(name="tail", work=0.01, fn=fn, replicable=False)
    return make_backend(name, PipelineSpec(tuple(specs)), **kwargs), fn


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert available_backends() == ["asyncio", "distributed", "processes", "threads"]

    def test_make_backend_by_name(self):
        b = make_backend("threads", pipe())
        assert isinstance(b, ThreadBackend)
        b2 = make_backend("asyncio", pipe())
        assert isinstance(b2, ThreadBackend)
        b2.close()

    def test_make_backend_passthrough_instance(self):
        b = ThreadBackend(pipe())
        assert make_backend(b) is b
        assert make_backend(b, b.pipeline) is b  # same callables: fine

    def test_make_backend_instance_pipeline_mismatch(self):
        b = ThreadBackend(pipe())
        other = PipelineSpec(
            (StageSpec(name="dbl", work=0.01, fn=lambda x: x * 2),)
        )
        with pytest.raises(ValueError, match="does not run the given stages"):
            make_backend(b, other)

    def test_instance_with_kwargs_rejected(self):
        with pytest.raises(ValueError, match="unexpected kwargs"):
            make_backend(ThreadBackend(pipe()), capacity=4)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown backend"):
            make_backend("gpu", pipe())

    def test_unknown_name_error_lists_available_sorted(self):
        # The message must name every registered backend, in sorted order,
        # so a typo is self-correcting from the traceback alone.
        with pytest.raises(ValueError) as excinfo:
            make_backend("treads", pipe())
        message = str(excinfo.value)
        for name in available_backends():
            assert name in message
        listed = message.split("available: ", 1)[1].split(", ")
        assert listed == sorted(listed)

    def test_name_requires_pipeline(self):
        with pytest.raises(ValueError, match="PipelineSpec"):
            make_backend("threads")


class TestPortContract:
    def test_factories_accept_common_kwargs(self):
        # Every adapter must tolerate the skel-level kwargs (replicas,
        # capacity) so callers can switch backends without special cases.
        for name in LIVE:
            b, _ = _live(name, replicas=[1], capacity=4)
            b.close()

    @pytest.mark.parametrize("name", LIVE)
    def test_run_returns_the_outputs_list(self, name):
        b, fn = _live(name, stages=2)
        with b:
            res = b.run(range(-3, 5))
        assert res.outputs == [fn(fn(x)) for x in range(-3, 5)]
        assert res.items == 8 and res.elapsed > 0

    @pytest.mark.parametrize("name", LIVE)
    def test_reconfigure_is_honoured_and_clamps_a_stateful_stage(self, name):
        b, fn = _live(name, stages=2, max_replicas=2)
        with b:
            b.reconfigure(1, 3)  # stateful: clamps to 1
            assert b.replica_counts() == [1, 1]
            assert b.run(range(6)).outputs == [fn(fn(x)) for x in range(6)]
            b.reconfigure(0, 2)  # live, on the warm executor
            assert b.run(range(6)).outputs == [fn(fn(x)) for x in range(6)]
            assert b.replica_counts() == [2, 1]
            with pytest.raises(ValueError, match=">= 1"):
                b.reconfigure(0, 0)

    @pytest.mark.parametrize("name", LIVE)
    def test_snapshots_after_a_stream(self, name):
        b, _ = _live(name, stages=2)
        with b:
            assert b.snapshots() == []  # no session yet
            b.run(range(6))
            snaps = b.snapshots()
            assert [s.stage_index for s in snaps] == [0, 1]
            assert b.items_completed() == 6

    @pytest.mark.parametrize("name", LIVE)
    def test_stream_id_opens_lazily_and_counts_streams(self, name):
        b, fn = _live(name)
        with b, b.open() as session:
            assert session.stream == -1  # nothing submitted yet
            for i in range(3):
                session.submit(i)
            assert session.stream == 0
            assert session.drain() == [fn(i) for i in range(3)]
            assert session.stream == 0  # a drain ends the stream, it opens none
            session.submit(9)
            assert session.stream == 1
            assert session.drain() == [fn(9)]

    @pytest.mark.parametrize("name", LIVE)
    def test_stream_begin_precedes_every_submit_of_concurrent_openers(self, name):
        # Four submitters race to open each stream: whichever opens it, the
        # journal has one stream.begin, ahead of every item.submit of it.
        b, _ = _live(name)
        with b, b.open() as session:
            journal = []
            session.events.subscribe(journal.append, kinds=("stream.begin", "item.submit"))
            for stream in range(2):
                start = threading.Barrier(4)

                def submit(k):
                    start.wait()
                    for i in range(25):
                        session.submit(100 * k + i)

                threads = [threading.Thread(target=submit, args=(k,)) for k in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
                assert len(session.drain()) == 100
                kinds = [e.kind for e in journal if e.fields.get("stream") == stream]
                assert kinds == ["stream.begin"] + ["item.submit"] * 100

    def test_default_resource_view_is_none(self):
        with ProcessPoolBackend(pipe()) as b:
            assert b.resource_view(4) is None

    def test_result_throughput(self):
        r = BackendResult(backend="x", outputs=[1], items=10, elapsed=2.0)
        assert r.throughput == 5.0
        assert BackendResult(backend="x", outputs=[], items=0, elapsed=0.0).throughput == 0.0

    def test_run_drives_the_stream_on_the_callers_thread(self):
        # run() is open -> submit* -> drain right here: no `*-batch` driver
        # thread, and the stage's own thread is the only one it needs.
        before = set(threading.enumerate())
        with ThreadBackend(pipe()) as backend:
            assert backend.run(range(5)).outputs == [1, 2, 3, 4, 5]
            started = {t.name for t in set(threading.enumerate()) - before}
            assert started == {"session-stage[0].0", "session-collector"}
            empty = backend.run([])
            assert (empty.outputs, empty.items, empty.elapsed) == ([], 0, 0.0)
