"""Stage functions of the benchmark's pipelines, and their traced twins.

Everything here is module level: the process executor forks with these
functions imported and the distributed executor ships them by import path.

The sleeping stages take their service time *from the item* (``(x,
seconds)``): the load generator decides each item's demand from the seed,
and the program under test receives only the generated items.
"""

from __future__ import annotations

import inspect
from time import perf_counter, sleep

STORE_S = 0.0015


# --- tiny pipeline: prep -> work -------------------------------------------
def prep(x):
    return x + 1


def work(x):
    return x * 2


# --- payload pipeline: the same two steps on 1 MiB float64 arrays ----------
def add_one(a):
    return a + 1.0


def times_two(a):
    return a * 2.0


# --- sleeping pipelines: parse -> dwell -> store | render ------------------
def parse(item):
    x, seconds = item
    return x + 1, seconds


def dwell(item):
    """The `tail` / `transform` stage: sleep for the item's own demand."""
    x, seconds = item
    sleep(seconds)
    return x * 2, seconds


def store(item):
    sleep(STORE_S)
    return item[0] + 3


def render(item):
    return item[0] + 3


# --- traced twins ------------------------------------------------------------
class Traced:
    """Picklable twin of a stage function that stamps entry and exit.

    A traced item is ``(value, stamps)``; each stage appends its
    ``perf_counter`` entry and exit, so ``stamps[2*i]``/``stamps[2*i+1]``
    are stage ``i``'s.  ``perf_counter`` is CLOCK_MONOTONIC on Linux, which
    every process on the host shares, so stamps taken in pool and socket
    workers compare with the parent's.
    """

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, item):
        t_in = perf_counter()
        value, stamps = item
        out = self.fn(value)
        return out, stamps + (t_in, perf_counter())


def traced(fn):
    """The traced twin of ``fn`` (a coroutine function stays one)."""
    if not inspect.iscoroutinefunction(fn):
        return Traced(fn)

    async def twin(item):
        t_in = perf_counter()
        value, stamps = item
        out = await fn(value)
        return out, stamps + (t_in, perf_counter())

    return twin
