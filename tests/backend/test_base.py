"""Tests for the backend port and registry."""

import threading

import pytest

from repro.backend import (
    AsyncioBackend,
    BackendCapabilityError,
    BackendResult,
    ProcessPoolBackend,
    SimBackend,
    ThreadBackend,
    available_backends,
    capability_error,
    make_backend,
    register_backend,
)
from repro.backend.base import _REGISTRY
from repro.core.pipeline import PipelineSpec
from repro.core.stage import StageSpec


def pipe():
    return PipelineSpec((StageSpec(name="inc", work=0.01, fn=lambda x: x + 1),))


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert {"sim", "threads", "processes", "asyncio", "distributed"} <= set(
            available_backends()
        )

    def test_make_backend_by_name(self):
        b = make_backend("threads", pipe())
        assert isinstance(b, ThreadBackend)
        b2 = make_backend("asyncio", pipe())
        assert isinstance(b2, AsyncioBackend)
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

    def test_double_registration_leaves_original_intact(self):
        class Impostor(ThreadBackend):
            name = "impostor-test"

        register_backend("impostor-test", Impostor)
        try:
            with pytest.raises(ValueError, match="already registered"):
                register_backend("impostor-test", ThreadBackend)
            # The failed re-registration must not have clobbered the entry.
            assert isinstance(make_backend("impostor-test", pipe()), Impostor)
        finally:
            _REGISTRY.pop("impostor-test", None)

    def test_name_requires_pipeline(self):
        with pytest.raises(ValueError, match="PipelineSpec"):
            make_backend("threads")

    def test_register_custom_and_duplicate(self):
        class Custom(ThreadBackend):
            name = "custom-test"

        register_backend("custom-test", Custom)
        try:
            assert "custom-test" in available_backends()
            with pytest.raises(ValueError, match="already registered"):
                register_backend("custom-test", Custom)
            register_backend("custom-test", Custom, overwrite=True)
            assert isinstance(make_backend("custom-test", pipe()), Custom)
        finally:
            _REGISTRY.pop("custom-test", None)


class TestPortContract:
    def test_factories_accept_common_kwargs(self):
        # Every adapter must tolerate the skel-level kwargs (replicas,
        # capacity) so callers can switch backends without special cases.
        for name in ("sim", "threads", "processes", "asyncio"):
            b = make_backend(name, pipe(), replicas=[1], capacity=4)
            b.close()
        # The distributed adapter too — but it ships fns over sockets, so
        # the stage must be picklable (abs, not this file's lambda).
        dist_pipe = PipelineSpec((StageSpec(name="abs", work=0.01, fn=abs),))
        b = make_backend("distributed", dist_pipe, replicas=[1], capacity=4)
        b.close()

    def test_sim_emits_on_the_session_bus_in_simulated_time(self):
        b = SimBackend(pipe())
        with b.open() as session:
            seen = []
            session.events.subscribe(seen.append, kinds=("item.complete",))
            for i in range(5):
                session.submit(i)
            assert session.drain() == [1, 2, 3, 4, 5]
        simulated = [e for e in seen if "stream" not in e.fields]  # the engine's own
        assert [e.fields["seq"] for e in simulated] == list(range(5))
        assert [e.time for e in simulated] == b.last_run.completion_times
        b.close()

    @pytest.mark.parametrize("name", ["sim", "threads"])
    def test_stream_id_opens_lazily_and_counts_streams(self, name):
        b = make_backend(name, pipe())
        with b.open() as session:
            assert session.stream == -1  # nothing submitted yet
            for i in range(3):
                session.submit(i)
            assert session.stream == 0
            assert session.drain() == [1, 2, 3]
            assert session.stream == 0  # a drain ends the stream, it opens none
            session.submit(9)
            assert session.stream == 1
            assert session.drain() == [10]
        b.close()

    @pytest.mark.parametrize("name", ["sim", "threads"])
    def test_stream_begin_precedes_every_submit_of_concurrent_openers(self, name):
        # Four submitters race to open each stream: whichever opens it, the
        # journal has one stream.begin, ahead of every item.submit of it.
        b = make_backend(name, pipe())
        with b.open() as session:
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
                # (the simulator's engine emits its own, with no stream)
                kinds = [e.kind for e in journal if e.fields.get("stream") == stream]
                assert kinds == ["stream.begin"] + ["item.submit"] * 100
        b.close()

    def test_sim_rejects_live_reconfigure(self):
        b = SimBackend(pipe())
        assert not b.supports_live_reconfigure
        # The refusal must name the backend: a traceback from deep inside
        # the adaptation loop has no other clue which adapter was selected.
        with pytest.raises(BackendCapabilityError, match="'sim'"):
            b.reconfigure(0, 2)

    def test_capability_error_names_backend(self):
        err = capability_error(SimBackend(pipe()), "reconfigure()")
        assert "'sim'" in str(err) and "reconfigure()" in str(err)
        assert "'frob'" in str(capability_error("frob", "live migration"))

    def test_default_resource_view_is_none(self):
        assert SimBackend(pipe()).resource_view(4) is None

    def test_live_backends_advertise_reconfigure(self):
        assert ThreadBackend(pipe()).supports_live_reconfigure
        for b in (ProcessPoolBackend(pipe()), AsyncioBackend(pipe())):
            assert b.supports_live_reconfigure
            b.close()

    def test_result_throughput(self):
        r = BackendResult(backend="x", outputs=[1], items=10, elapsed=2.0)
        assert r.throughput == 5.0
        assert BackendResult(backend="x", outputs=None, items=0, elapsed=0.0).throughput == 0.0

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
