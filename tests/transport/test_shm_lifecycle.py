"""Shared-memory lifecycle through the backends: no segment outlives its run.

The contract under test (ISSUE 4): after normal completion, after an
abort mid-run, and after a killed distributed worker, `/dev/shm` holds no
segment of the backend's transport session once the backend is closed —
and releasing a frame twice is a no-op (covered in test_frames too).
While a backend is warm its pools keep their *free* slots for the next
stream (ISSUE 15); what must be empty between streams is the set of slots
still holding a live frame.
"""

import os
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.backend import DistributedBackend, ProcessPoolBackend
from repro.core.pipeline import PipelineSpec
from repro.core.stage import StageSpec
from repro.transport import busy_segments, session_segments
from repro.workloads.payloads import array_pipeline, checksum_array, make_arrays


def _explode_on_big(a: np.ndarray) -> np.ndarray:
    if a.size > 50_000:
        raise ValueError("boom")
    return a


def _double(a: np.ndarray) -> np.ndarray:
    return a * 2.0


def _slow_checksum(a: np.ndarray) -> dict:
    time.sleep(0.02)
    return checksum_array(a)


@pytest.mark.parametrize("transport", ["shm", "auto"])
def test_process_backend_normal_completion_leaves_no_segments(transport):
    pipe = array_pipeline(mbytes=0.5)
    backend = ProcessPoolBackend(pipe, replicas=[1, 2, 1], transport=transport)
    with backend:
        res = backend.run(make_arrays(8, mbytes=0.5, seed=1))
        session = backend._codec.session
        assert res.items == 8
        # A healthy warm backend holds no live frame *between* runs either:
        # every frame was consumed and released along the way.
        assert busy_segments(session) == []
    assert session_segments(session) == []


def test_process_backend_abort_mid_run_sweeps_segments():
    pipe = PipelineSpec(
        (
            StageSpec(name="scale", fn=lambda a: a * 2.0),
            StageSpec(name="explode", fn=_explode_on_big),
            StageSpec(name="checksum", fn=checksum_array),
        )
    )
    backend = ProcessPoolBackend(pipe, transport="shm")
    session = backend._codec.session
    items = make_arrays(6, mbytes=0.1, seed=2) + make_arrays(6, mbytes=1.0, seed=3)
    with pytest.raises(Exception, match="boom"):
        backend.run(items)
    backend.close()
    assert session_segments(session) == []


def test_distributed_normal_completion_leaves_no_segments():
    pipe = array_pipeline(mbytes=0.5)
    backend = DistributedBackend(pipe, spawn_workers=2, transport="shm")
    try:
        res = backend.run(make_arrays(8, mbytes=0.5, seed=4))
        session = backend._codec.session
        assert res.items == 8
        assert all(w["shm_ok"] for w in backend.alive_workers())
        # Only the negotiation probe is held while the backend is warm.
        assert busy_segments(session) == [backend._probe[0].stream.name]
    finally:
        backend.close()
    assert session_segments(session) == []


def test_no_session_segment_reaches_the_resource_tracker(tmp_path, monkeypatch):
    # Every segment of a session is a slot opened by descriptor: none is
    # registered with the standard library's resource tracker, whose one
    # entry per name several workers attaching at once would corrupt
    # (a KeyError traceback on stderr).  Forked workers inherit the patch.
    from multiprocessing import resource_tracker

    log = tmp_path / "registered"

    def register(name, rtype):
        with open(log, "a") as f:
            f.write(f"{os.getpid()} {name}\n")

    monkeypatch.setattr(resource_tracker, "register", register)
    with DistributedBackend(array_pipeline(mbytes=0.5), spawn_workers=2, transport="shm") as b:
        assert b.run(make_arrays(4, mbytes=0.5, seed=6)).items == 4
        assert all(w["shm_ok"] for w in b.alive_workers())
    lines = log.read_text().splitlines() if log.exists() else []
    assert not [line for line in lines if "repro-shm" in line], lines


def test_distributed_killed_worker_leaves_no_segments_after_close():
    pipe = PipelineSpec(
        (
            StageSpec(name="scale", fn=_double),
            StageSpec(name="checksum", fn=_slow_checksum),
        )
    )
    backend = DistributedBackend(
        pipe, spawn_workers=3, replicas=[2, 2], max_replicas=3, transport="shm"
    )
    session = backend._codec.session
    try:
        n = 30
        with ThreadPoolExecutor(1) as producer:
            run = producer.submit(backend.run, make_arrays(n, mbytes=0.3, seed=5))
            time.sleep(0.3)  # let frames spread across workers
            assert not run.done()
            backend.worker_processes[0].kill()
            res = run.result(timeout=60)
        # The run survived the crash (re-dispatch) with nothing lost...
        assert res.items == n
        assert len(backend.alive_workers()) == 2
    finally:
        backend.close()
    # ...and close reclaimed every segment, including whatever the killed
    # worker created but never delivered.
    assert session_segments(session) == []


def _slow(a: np.ndarray) -> np.ndarray:
    time.sleep(0.1)
    return a


def test_distributed_results_that_outlive_their_session_release_their_frames():
    # Each session closes mid-stream: the workers finish what they hold, and
    # those results reach a session that has closed (or, once the next one
    # opened, carry an earlier epoch).  Either way their frames go back.
    pipe = PipelineSpec((StageSpec(name="slow", fn=_slow), StageSpec(name="double", fn=_double)))
    backend = DistributedBackend(pipe, spawn_workers=2, transport="auto", replicas=[2, 1])
    session = backend._codec.session
    try:
        for cycle in range(3):
            stream = backend.open()

            def feed(stream=stream, cycle=cycle):
                for a in make_arrays(8, mbytes=1.0, seed=cycle):
                    stream.submit(a)

            with ThreadPoolExecutor(1) as producer:
                fed = producer.submit(feed)
                time.sleep(0.15)
                stream.close()
                fed.exception(timeout=10)  # done, or refused by the close
            time.sleep(1.2)
        probe = [backend._probe[0].stream.name]
        deadline = time.monotonic() + 5.0
        while busy_segments(session) != probe and time.monotonic() < deadline:
            time.sleep(0.05)
        assert busy_segments(session) == probe
    finally:
        backend.close()
    assert session_segments(session) == []
