"""Order statistics, output checking and the compare verdict."""

from __future__ import annotations

import math
import statistics
from collections import Counter
from typing import Sequence

median = statistics.median


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest value with >= p% at or below it."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / abs(mid) if mid else math.inf


def count_failures(got: list, expected: list) -> dict[str, int]:
    """Count how ``got`` departs from the reference ``expected``.

    ``missing``: expected outputs that never came; ``unexpected``: outputs
    nobody expected (a duplicate, or a wrong value, which also leaves the
    right one missing); ``misordered``: right values at wrong positions.
    """
    kinds = {"missing": 0, "unexpected": 0, "misordered": 0}
    if got == expected:
        return kinds
    want, have = Counter(expected), Counter(got)
    kinds["missing"] = sum((want - have).values())
    kinds["unexpected"] = sum((have - want).values())
    common = want & have

    def kept(seq):
        left = Counter(common)
        out = []
        for v in seq:
            if left[v] > 0:
                left[v] -= 1
                out.append(v)
        return out

    kinds["misordered"] = sum(a != b for a, b in zip(kept(got), kept(expected)))
    return kinds


def verdict(
    base: Sequence[float], new: Sequence[float], better: str, bound: float
) -> tuple[str, float]:
    """``(ok | regressed | unresolved, ratio new/base of the medians)``.

    Unresolved: either side's run-to-run spread is wider than the bound, so
    the medians cannot tell a regression from noise, unless every new run
    reads better than every base run.
    """
    b, n = statistics.median(base), statistics.median(new)
    ratio = n / b if b else math.inf
    worse_by = (ratio - 1.0) if better == "lower" else (1.0 - ratio)
    if max(spread(base), spread(new)) > bound:
        clean_win = max(new) < min(base) if better == "lower" else min(new) > max(base)
        return ("ok" if clean_win else "unresolved"), ratio
    return ("regressed" if worse_by > bound else "ok"), ratio
