"""A small item crosses both heavy lanes as its pickle stream.

The codec's wire form for a self-contained stream is the ``bytes`` itself:
no :class:`~repro.transport.Frame` is built around it at submit, at any
worker hop or at egress.  Frame construction is counted in a counter the
forked workers share, from the first submit to the end of the stream.

Opening a heavy backend runs no transport probe either: ``"auto"`` keeps
its fixed threshold.
"""

import multiprocessing as mp

import pytest

from repro.skel.api import open_pipeline
from repro.transport import Frame

_ITEMS = 200


def _inc(x):
    return x + 1


def _double(x):
    return 2 * x


@pytest.fixture
def frames_built(monkeypatch):
    built = mp.get_context("fork").Value("i", 0)  # workers fork after the patch
    init = Frame.__init__

    def counting(self, *args, **kwargs):
        with built.get_lock():
            built.value += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Frame, "__init__", counting)
    return built


@pytest.mark.parametrize("transport", ["pickle", "auto"])
@pytest.mark.parametrize(
    "backend, options",
    [("processes", {}), ("distributed", {"spawn_workers": 2})],
    ids=["processes", "distributed"],
)
def test_a_small_item_stream_builds_no_frame(frames_built, backend, options, transport):
    with open_pipeline(
        [_inc, _double], backend=backend, transport=transport, **options
    ) as session:
        frames_built.value = 0  # the stream's frames only
        for x in range(_ITEMS):
            session.submit(x)
        assert session.drain() == [2 * (x + 1) for x in range(_ITEMS)]
        assert frames_built.value == 0


def test_the_counter_sees_a_frame_a_worker_builds(frames_built):
    # The guard's own check: a payload over the threshold is placed in a
    # segment, so its frames are built in the workers and counted here.
    big = b"x" * (1 << 20)
    with open_pipeline(
        [bytes, bytes], backend="processes", transport="shm", replicas=[1, 1]
    ) as session:
        frames_built.value = 0
        session.submit(big)
        assert session.drain() == [big]
        assert frames_built.value >= 3  # submit, and each stage's output


@pytest.mark.parametrize(
    "backend, options",
    [("processes", {}), ("distributed", {"spawn_workers": 1})],
    ids=["processes", "distributed"],
)
def test_opening_a_heavy_backend_runs_no_transport_probe(monkeypatch, backend, options):
    def probe(**_):
        raise AssertionError("warm-up probed the transport")

    monkeypatch.setattr("repro.transport.calibrated_auto_threshold", probe)
    monkeypatch.setattr("repro.transport.codecs.calibrated_auto_threshold", probe)
    with open_pipeline([_inc], backend=backend, transport="auto", **options) as session:
        session.submit(1)
        assert session.drain() == [2]
