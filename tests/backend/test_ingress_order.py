"""Stage 0 starts items in input order on the routed executors.

``submit()`` assigns ``seq`` under the session lock but hands the item to
the executor outside it, and with batching the linger flusher submits cuts
too — so hand-offs can arrive swapped.  Threads and asyncio reorder at
ingress; processes and distributed must as well, or a stateful first stage
sees item *k+1* before *k*.

The counting stage lives at module level: distributed workers resolve it
by reference, and each forked worker process counts on its own copy.
"""

import pytest

from repro.backend import DistributedBackend, ProcessPoolBackend
from repro.core.pipeline import PipelineSpec
from repro.core.stage import StageSpec

_calls = 0


def _count(x):
    global _calls
    n = _calls
    _calls += 1
    return (x, n)


def _make(name, pipe):
    if name == "processes":
        return ProcessPoolBackend(pipe, max_replicas=1)
    return DistributedBackend(pipe, spawn_workers=1)


@pytest.mark.parametrize("name", ["processes", "distributed"])
def test_swapped_handoffs_still_start_stage_0_in_order(name):
    pipe = PipelineSpec(
        (StageSpec(name="count", work=0.01, fn=_count, replicable=False),)
    )
    with _make(name, pipe) as backend:
        session = backend.open()
        real, held = session._submit_one, []

        def swapped(seq, item):
            # Hold the first hand-off back until the second overtook it.
            held.append((seq, item))
            if len(held) == 2:
                for args in reversed(held):
                    real(*args)

        session._submit_one = swapped
        session.submit("a")
        session.submit("b")
        assert session.drain() == [("a", 0), ("b", 1)]
