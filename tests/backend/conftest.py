"""A leak fails in the module that made it, not in whichever runs next."""

import multiprocessing as mp
import re
import threading
import time

import pytest

_SESSION_THREAD = re.compile(r"session-|.*-router\[\d+\]|.*-outbox\[\d+\]")


def _leftovers():
    threads = [t.name for t in threading.enumerate() if _SESSION_THREAD.match(t.name)]
    return sorted(threads), [p.name for p in mp.active_children()]


@pytest.fixture(scope="module", autouse=True)
def no_session_thread_or_child_outlives_the_module(request):
    yield
    deadline = time.perf_counter() + 2.0  # a closed session's threads may still be unwinding
    while any(_leftovers()) and time.perf_counter() < deadline:
        time.sleep(0.01)
    threads, children = _leftovers()
    assert not threads and not children, (
        f"{request.module.__name__} left session threads {threads} and child "
        f"processes {children} behind: close every backend it opens"
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
