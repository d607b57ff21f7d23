"""What every test module shares: the stream helper and the leak guard.

A leak fails in the module that made it, not in whichever runs next.
"""

import multiprocessing as mp
import re
import threading
import time

import pytest

from repro.transport.frames import session_segments

_SESSION_THREAD = re.compile(
    r"session-|.*-router\[\d+\]|.*-outbox\[\d+\]|adaptive-controller|dist-|worker-"
    r"|jsonl-journal|asyncio-loop"
)


def stream(session, inputs) -> list:
    """One bounded stream on ``session``: submit each input, return ``drain()``."""
    for item in inputs:
        session.submit(item)
    return session.drain()


def _leftovers(segments_before):
    threads = [t.name for t in threading.enumerate() if _SESSION_THREAD.match(t.name)]
    segments = sorted(set(session_segments()) - segments_before)
    return sorted(threads), [p.name for p in mp.active_children()], segments


@pytest.fixture(scope="module", autouse=True)
def no_session_thread_child_or_segment_outlives_the_module(request):
    # /dev/shm is host-wide: only segments that appear during the module count.
    before = set(session_segments())
    yield
    deadline = time.perf_counter() + 2.0  # a closed session's threads may still be unwinding
    while any(_leftovers(before)) and time.perf_counter() < deadline:
        time.sleep(0.01)
    threads, children, segments = _leftovers(before)
    assert not threads and not children and not segments, (
        f"{request.module.__name__} left session threads {threads}, child "
        f"processes {children} and shm segments {segments} behind: close every "
        "backend it opens"
    )


@pytest.fixture
def record_polls(monkeypatch):
    """``record_polls(session_class)`` -> the list every ``_poll`` return lands in."""

    def install(session_class):
        seen = []
        poll = session_class._poll

        def recording(self, stage):
            msg = poll(self, stage)
            seen.append(msg)
            return msg

        monkeypatch.setattr(session_class, "_poll", recording)
        return seen

    return install
