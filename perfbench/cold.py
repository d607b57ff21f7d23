"""One cold start: import -> build -> open -> one item -> close.

Run by ``harness.cold_starts`` in a throw-away interpreter; prints the
``perf_counter`` reading (CLOCK_MONOTONIC, shared with the parent) at each
step as one JSON line.
"""

import time

_start = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

_root = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(_root / "src"), str(_root)]


def main() -> None:
    import numpy as np

    from perfbench.workloads import WORKLOADS

    imported = time.perf_counter()
    wl = WORKLOADS[sys.argv[1]]
    items, expected = wl.generate(np.random.default_rng(int(sys.argv[2])), 1, "cycles")
    session = wl.open()
    session.submit(items[0])
    (out,) = session.drain()
    first = time.perf_counter()
    session.close()
    closed = time.perf_counter()
    if wl.digest(out) != expected[0]:
        raise SystemExit(f"cold start of {wl.name}: wrong output")
    print(json.dumps({"start": _start, "imported": imported, "first": first, "closed": closed}))


if __name__ == "__main__":
    main()
